import random
import sys
from collections import Counter, defaultdict

import pytest

from cardnet import encode
from cardnet.cnf import CnfFormula, is_const, neg
from cardnet.network import Selector


def is_sorted(xs):
    return all(xs[i] >= xs[i + 1] for i in range(len(xs) - 1))


def is_top_k_sorted(xs, k):
    """First k positions sorted and dominating every later position."""
    if k > len(xs):
        return False
    head = xs[:k]
    if not is_sorted(head):
        return False
    if k < len(xs) and k > 0:
        m = min(head)
        return all(m >= x for x in xs[k:])
    return True


def parse_dimacs(text):
    """Test-only DIMACS parser returning (num_vars, clause multiset)."""
    num_vars = None
    clauses = []
    lines = text.splitlines()
    assert lines[0].startswith("p cnf ")
    _, _, nv, nc = lines[0].split()
    num_vars = int(nv)
    for line in lines[1:]:
        assert line == line.rstrip(), "no trailing whitespace"
        toks = line.split()
        assert toks[-1] == "0"
        clauses.append(tuple(int(t) for t in toks[:-1]))
    assert len(clauses) == int(nc)
    return num_vars, clauses


def eval_clauses(clauses, assignment):
    """Evaluate a clause list under a total dict var->bool."""
    return all(any(assignment[abs(l)] == (l > 0) for l in clause) for clause in clauses)


def bits_of(value, n):
    return [(value >> i) & 1 for i in range(n)]


def sorted_runs(length):
    """All non-increasing 0-1 sequences of the given length."""
    return [tuple([1] * ones + [0] * (length - ones)) for ones in range(length + 1)]


def check_selection_output(out, k, total_ones):
    """Output prefix must be the unary count clamped at k and dominate the tail."""
    kk = min(k, len(out))
    want = [1] * min(total_ones, kk) + [0] * (kk - min(total_ones, kk))
    return list(out[:kk]) == want and is_top_k_sorted(out, kk)


def reference_eval(net, bits):
    """Gate-by-gate evaluation of one 0-1 input: a selector sorts its inputs
    and keeps the top m, a combine pair applies its two formulas."""
    val = [0] * net.num_wires
    val[:net.num_inputs] = bits
    for w, bit in net.const_sources():
        val[w] = bit
    for gate in net.gates:
        if type(gate) is Selector:
            top = sorted((val[w] for w in gate.inputs), reverse=True)
            for w, v in zip(gate.outputs, top):
                val[w] = v
            continue
        ym2, ym1, yy = val[gate.ym2], val[gate.ym1], val[gate.yy]
        xx, xp1, xp2 = val[gate.xx], val[gate.xp1], val[gate.xp2]
        if gate.out_x is not None:
            val[gate.out_x] = (ym1 & xx) | (ym2 & xp1)
        if gate.out_y is not None:
            val[gate.out_y] = yy | xp2 | (ym1 & xp1)
    return [val[w] for w in net.outputs]


def formula_from_clauses(num_vars, clauses):
    f = CnfFormula()
    f.fresh_vars(num_vars)
    for c in clauses:
        f.add_clause(c)
    return f


def naive_unit_propagate(clauses, seeds):
    """Reference unit propagation: assert the seeds in order, then rescan
    every clause until none is unit.  Returns ("conflict", None) or
    ("fixpoint", values) with values a dict var -> bool.  Clauses may repeat
    literals and hold complementary pairs."""
    values = {}

    def holds(lit):
        val = values.get(abs(lit))
        return None if val is None else val == (lit > 0)

    for lit in seeds:
        if holds(lit) is False:
            return "conflict", None
        values[abs(lit)] = lit > 0
    changed = True
    while changed:
        changed = False
        for clause in clauses:
            if any(holds(lit) for lit in clause):
                continue
            free = {lit for lit in clause if holds(lit) is None}
            if not free:
                return "conflict", None
            if len(free) == 1:
                (lit,) = free
                values[abs(lit)] = lit > 0
                changed = True
    return "fixpoint", values


def _without_dead_gates(formula, aux, exposed, keep_exposed=True):
    """formula after deleting, repeatedly, every clause that holds a literal
    of an auxiliary variable, not exposed, whose complement occurs nowhere,
    with the surviving variables renumbered in order.  keep_exposed False
    also drops an exposed auxiliary variable that no clause holds."""
    clauses = formula.clauses
    while True:
        occurs = Counter(lit for clause in clauses for lit in clause)
        pure = {lit for lit in occurs
                if abs(lit) in aux and abs(lit) not in exposed and -lit not in occurs}
        if not pure:
            break
        clauses = [clause for clause in clauses if pure.isdisjoint(clause)]
    used = {abs(lit) for clause in clauses for lit in clause}
    kept = [v for v in range(1, formula.next_var)
            if v not in aux or v in used or keep_exposed and v in exposed]
    new = {v: i for i, v in enumerate(kept, 1)}
    return CnfFormula(len(kept) + 1,
                      [tuple(new[lit] if lit > 0 else -new[-lit] for lit in clause)
                       for clause in clauses],
                      formula.trivially_unsat)


def _propagated(formula, aux, units):
    """formula after root unit propagation of units over the auxiliary
    variables aux: every clause a propagated literal satisfies dropped, and
    every literal it falsifies removed.  An input variable is never
    assigned, so a clause left with one input literal stays, as a unit.
    Returns the formula and the assigned variables."""
    occurs = defaultdict(list)
    for clause in formula.clauses:
        for lit in clause:
            occurs[-lit].append(clause)
    value = {}

    def satisfied(clause):
        return any(value.get(abs(lit)) == (lit > 0) for lit in clause)

    queue = list(units)
    while queue:
        lit = queue.pop()
        if abs(lit) in value:
            assert value[abs(lit)] == (lit > 0), "conflict at the root"
            continue
        value[abs(lit)] = lit > 0
        for clause in occurs[lit]:
            if not satisfied(clause):
                left = [l for l in clause if abs(l) not in value]
                assert left, "conflict at the root"
                if len(left) == 1 and abs(left[0]) in aux:
                    queue.append(left[0])
    clauses = [tuple(lit for lit in clause if abs(lit) not in value)
               for clause in formula.clauses if not satisfied(clause)]
    return CnfFormula(formula.next_var, clauses, formula.trivially_unsat), set(value)


def unfolded_bounds(formula, net, input_lits, upper, lower):
    """encode.emit_bounds before the fold: each polarity's cone walked by
    encode's walker with an unasserted plan, over a variable for every wire
    past the inputs, in wire order, and followed by the unit of its
    assertion.  Returns the units that are not constants."""
    gate_wires = range(net.num_inputs, net.num_wires)
    wires = dict(zip(gate_wires, formula.fresh_vars(len(gate_wires))))
    consts = encode._constant_wires(net, input_lits)
    units = []
    for atmost, at in ((True, upper), (False, lower)):
        plan = encode._emission_plan(net, consts, atmost, (at,), None)
        out = encode._walk(formula, net, plan, input_lits, atmost, None, wires)[net.outputs[at]]
        unit = neg(out) if atmost else out
        formula.add_clause([unit])
        if not is_const(unit):
            units.append(unit)
    return units


def planted_binary_formula(num_vars, num_clauses, seed):
    """Random binary clauses, each true under a planted assignment."""
    rng = random.Random(seed)
    planted = [None] + [rng.random() < 0.5 for _ in range(num_vars)]
    f = CnfFormula()
    f.fresh_vars(num_vars)
    for _ in range(num_clauses):
        a, b = rng.sample(range(1, num_vars + 1), 2)
        a = a if planted[a] else -a          # true under the planted model
        f.add_clause([a, b * rng.choice((1, -1))])
    return f


def solver_cmd():
    """The built-in reference solver as an external command."""
    return f"{sys.executable} -m cardnet.cli dpll {{cnf}}"


@pytest.fixture
def dpll_solver_cmd():
    return solver_cmd()
