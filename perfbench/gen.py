"""Seeded input generation for the three workloads.

Every workload has a fixed shape (the sizes below); the seed only chooses
content: literals, signs, clauses, coefficients, planted solutions and the
sampled checks.  Fixed shapes keep the cost of a run nearly independent of
the seed, so runs on different seeds are comparable.

Nothing here imports cardnet: the checks in check.py rely on the planted
solutions and the bookkeeping recorded here, never on the program under test.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

# card-encode: (name, method, cardinality lines as (n, relation, k), free vars,
# random clauses).  Lines within a file use disjoint variables.  The queens
# file stands for many small at-most-one lines.
CARD_FILES = (
    ("card-oe4-a", "oe4", ((1024, "<=", 32),), 256, 768),
    ("card-oe4-b", "oe4", ((256, ">=", 248), (256, "=", 8)), 256, 768),
    ("card-oe2", "oe2", ((1024, "<=", 32),), 128, 256),
    ("card-fourwise", "fourwise", ((1024, "<=", 32),), 128, 256),
)
QUEENS_N = 48

# pb-encode: (name, terms, largest coefficient, relation).  The coefficient
# multiset of each file is fixed; the seed assigns coefficients to variables.
# The 1e6 file is the one whose optimal base search is known to exceed the
# time limit.
PB_FILES = (
    ("pb-1e4", 100, 10 ** 4, ">="),
    ("pb-1e5-a", 150, 10 ** 5, "<="),
    ("pb-1e5-b", 200, 10 ** 5, ">="),
    ("pb-1e6", 300, 10 ** 6, ">="),
)

# optimize: (items, largest value, largest weight, strategy, greedy order).
# The multisets of values and weights are fixed per shape; the seed pairs
# them up and, without greedy order, orders the items.  In greedy order items
# are listed by decreasing value/weight, so the solver's first model is the
# greedy fill and few improving calls follow: these 12- and 16-item
# instances stay well below the DPLL solver's recursion limit (largest CNF
# under 1200 variables).  The 24-item instance, with weights up to 1e6, is a
# known failure: its CNF has over 2500 variables, the solver raises
# RecursionError at the first or second call, and optimize ends UNKNOWN.
OPT_INSTANCES = ((12, 10, 10, "bin", True), (12, 10, 10, "seq", True),
                 (12, 10, 10, "bin", True), (12, 10, 10, "seq", True),
                 (16, 20, 20, "seq", True),
                 (24, 20, 10 ** 6, "bin", False), (24, 20, 10 ** 6, "seq", False))
# --switch for the binary strategy: small enough that bound halving runs
OPT_SWITCH_GAP = 8

# sampled full-input fixings checked per DIMACS output
CHECK_FIXINGS = 4


@dataclass
class CardLine:
    lits: list[int]
    rel: str
    k: int

    def holds(self, count: int) -> bool:
        return {"<=": count <= self.k, ">=": count >= self.k, "=": count == self.k}[self.rel]


@dataclass
class CardInstance:
    """A CNF-plus-cardinality problem with a planted model."""

    name: str
    method: str
    num_vars: int
    clauses: list[list[int]]
    lines: list[CardLine]
    planted: list[bool]           # index 0 unused
    fixings: list[list[bool]] = field(default_factory=list)
    ac_probes: list[tuple[int, list[int]]] = field(default_factory=list)

    def text(self) -> str:
        out = [" ".join(map(str, c)) + " 0" for c in self.clauses]
        for line in self.lines:
            if line.rel == "=":
                # CNFP has no '=' line: write both directions
                out.append(" ".join(map(str, line.lits)) + f" <= {line.k}")
                out.append(" ".join(map(str, line.lits)) + f" >= {line.k}")
            else:
                out.append(" ".join(map(str, line.lits)) + f" {line.rel} {line.k}")
        return "\n".join([f"p cnf+ {self.num_vars} {len(out)}", *out]) + "\n"

    def satisfied(self, model: list[bool]) -> bool:
        return (all(any(_lit_true(model, l) for l in c) for c in self.clauses)
                and all(line.holds(sum(1 for l in line.lits if _lit_true(model, l)))
                        for line in self.lines))


def _lit_true(model: list[bool], lit: int) -> bool:
    return model[lit] if lit > 0 else not model[-lit]


def _set_count(rng: random.Random, model: list[bool], lits: list[int], count: int) -> None:
    """Make exactly `count` of `lits` true under the model."""
    chosen = set(rng.sample(range(len(lits)), count))
    for i, lit in enumerate(lits):
        model[abs(lit)] = (i in chosen) == (lit > 0)


def _planted_count(rng: random.Random, n: int, rel: str, k: int) -> int:
    if rel == "<=":
        return rng.randint(0, k)
    if rel == ">=":
        return rng.randint(k, n)
    return k


def _violating_count(rng: random.Random, n: int, rel: str, k: int) -> int:
    """A count just across the bound, where an off-by-one encoding differs."""
    if rel == "<=":
        return k + 1
    if rel == ">=":
        return k - 1
    return rng.choice([c for c in (k - 1, k + 1) if 0 <= c <= n])


def card_instance(rng: random.Random, name: str, method: str, shapes, free: int,
                  nclauses: int) -> CardInstance:
    card_vars = sum(n for n, _, _ in shapes)
    num_vars = card_vars + free
    order = list(range(1, card_vars + 1))
    rng.shuffle(order)
    planted = [False] + [rng.random() < 0.5 for _ in range(num_vars)]
    lines, at = [], 0
    for n, rel, k in shapes:
        lits = [v if rng.random() < 0.5 else -v for v in order[at:at + n]]
        at += n
        _set_count(rng, planted, lits, _planted_count(rng, n, rel, k))
        lines.append(CardLine(lits, rel, k))
    # random 3-clauses with two literals on free variables, so fixing only
    # cardinality variables never makes a clause unit; each holds in the plant
    free_vars = list(range(card_vars + 1, num_vars + 1))
    clauses = []
    while len(clauses) < nclauses:
        a, b = rng.sample(free_vars, 2)
        c = rng.randint(1, num_vars)
        if c in (a, b):
            continue
        clause = [v if rng.random() < 0.5 else -v for v in (a, b, c)]
        if any(_lit_true(planted, l) for l in clause):
            clauses.append(clause)
    inst = CardInstance(name, method, num_vars, clauses, lines, planted)
    _sample_card_checks(rng, inst)
    return inst


def _sample_card_checks(rng: random.Random, inst: CardInstance) -> None:
    """Fixings: the plant plus, line by line in turn, one fixing that violates
    that line only.  Such a fixing changes just enough literals of the line,
    none of them the only true literal of an input clause, so every input
    clause still holds and a conflict can only come from the encoding.  AC
    probes: at-most lines with k literals set true."""
    pinned = set()
    for clause in inst.clauses:
        true_lits = [l for l in clause if _lit_true(inst.planted, l)]
        if len(true_lits) == 1:
            pinned.add(abs(true_lits[0]))
    inst.fixings.append(list(inst.planted))
    for i in range(CHECK_FIXINGS - 1):
        line = inst.lines[i % len(inst.lines)]
        model = list(inst.planted)
        count = sum(1 for l in line.lits if _lit_true(model, l))
        target = _violating_count(rng, len(line.lits), line.rel, line.k)
        turn_on = target > count
        movable = [l for l in line.lits
                   if _lit_true(model, l) != turn_on and abs(l) not in pinned]
        for lit in rng.sample(movable, abs(target - count)):
            model[abs(lit)] = (lit > 0) == turn_on
        assert all(any(_lit_true(model, l) for l in c) for c in inst.clauses)
        assert not line.holds(sum(1 for l in line.lits if _lit_true(model, l)))
        inst.fixings.append(model)
    for j, line in enumerate(inst.lines):
        if line.rel == "<=" and line.k >= 1:
            inst.ac_probes.append((j, rng.sample(line.lits, line.k)))


def queens_instance(rng: random.Random, n: int) -> CardInstance:
    """n-Queens in the same layout as `cardnet demo queens`, written here so
    that the planted placement is known: var(f, r) = f*n + r + 1."""
    def var(f, r):
        return f * n + r + 1

    clauses, lines = [], []
    for r in range(n):
        rank = [var(f, r) for f in range(n)]
        clauses.append(rank)
        lines.append(CardLine(rank, "<=", 1))
    for f in range(n):
        col = [var(f, r) for r in range(n)]
        clauses.append(col)
        lines.append(CardLine(col, "<=", 1))
    for delta in range(-(n - 2), n - 1):
        lines.append(CardLine([var(f, f + delta) for f in range(n)
                               if 0 <= f + delta < n], "<=", 1))
        lines.append(CardLine([var(f, delta + n - 1 - f) for f in range(n)
                               if 0 <= delta + n - 1 - f < n], "<=", 1))
    inst = CardInstance("queens", "oe4", n * n, clauses, lines, [False] * (n * n + 1))
    # explicit solution for n even and n % 6 not in (2, 3), under a seeded
    # symmetry of the board
    assert n % 2 == 0 and n % 6 not in (2, 3)
    cols = [2 * i + 1 for i in range(n // 2)] + [2 * i for i in range(n // 2)]
    flip_f, flip_r, swap = rng.random() < 0.5, rng.random() < 0.5, rng.random() < 0.5
    for f, r in enumerate(cols):
        if swap:
            f, r = r, f
        f = n - 1 - f if flip_f else f
        r = n - 1 - r if flip_r else r
        inst.planted[var(f, r)] = True
    assert inst.satisfied(inst.planted)
    inst.fixings.append(list(inst.planted))
    # a queen more breaks at-most-one lines (its rank, at least) and keeps
    # every at-least-one clause satisfied
    for _ in range(CHECK_FIXINGS - 1):
        model = list(inst.planted)
        model[rng.choice([v for v in range(1, n * n + 1) if not model[v]])] = True
        inst.fixings.append(model)
    for j in rng.sample(range(len(lines)), 4):
        inst.ac_probes.append((j, [rng.choice(lines[j].lits)]))
    return inst


@dataclass
class PbInstance:
    """One linear constraint over x1..xn; variable i is the i-th name in order
    of first appearance, which is how cardnet numbers OPB variables."""

    name: str
    coeffs: list[int]
    rel: str
    k: int
    fixings: list[list[bool]] = field(default_factory=list)

    def text(self) -> str:
        terms = " ".join(f"+{a} x{i + 1}" for i, a in enumerate(self.coeffs))
        return f"* {self.name}\n{terms} {self.rel} {self.k} ;\n"

    def holds(self, model: list[bool]) -> bool:
        total = sum(a for a, x in zip(self.coeffs, model[1:]) if x)
        return total >= self.k if self.rel == ">=" else total <= self.k


def pb_instance(rng: random.Random, name: str, terms: int, cmax: int, rel: str) -> PbInstance:
    fixed = random.Random(f"pb/{terms}/{cmax}")
    coeffs = [fixed.randint(1, cmax) for _ in range(terms)]
    rng.shuffle(coeffs)
    inst = PbInstance(name, coeffs, rel, sum(coeffs) // 2)
    # fixings on both sides of the threshold: a random order of the variables
    # is switched on until the sum first reaches k
    for _ in range(CHECK_FIXINGS // 2):
        order = rng.sample(range(terms), terms)
        total, model = 0, [False] * (terms + 1)
        for i in order:
            if total + coeffs[i] >= inst.k:
                below = list(model)
                model[i + 1] = True
                inst.fixings += [below, model]
                break
            total += coeffs[i]
            model[i + 1] = True
    return inst


@dataclass
class KnapsackInstance:
    name: str
    values: list[int]
    weights: list[int]
    capacity: int
    strategy: str

    def text(self) -> str:
        obj = " ".join(f"-{v} x{i + 1}" for i, v in enumerate(self.values))
        cap = " ".join(f"+{w} x{i + 1}" for i, w in enumerate(self.weights))
        return f"min: {obj} ;\n{cap} <= {self.capacity} ;\n"


def knapsack_instance(rng: random.Random, name: str, items: int, vmax: int,
                      wmax: int, strategy: str, greedy_order: bool) -> KnapsackInstance:
    fixed = random.Random(f"knapsack/{items}/{vmax}/{wmax}")
    values = [fixed.randint(1, vmax) for _ in range(items)]
    weights = [fixed.randint(1, wmax) for _ in range(items)]
    rng.shuffle(values)
    pairs = list(zip(values, weights))
    if greedy_order:
        pairs.sort(key=lambda vw: vw[0] / vw[1], reverse=True)
    else:
        rng.shuffle(pairs)
    return KnapsackInstance(name, [v for v, _ in pairs], [w for _, w in pairs],
                            sum(weights) // 2, strategy)


def card_inputs(seed: int) -> list[CardInstance]:
    rng = random.Random(f"card-encode/{seed}")
    insts = [card_instance(rng, *spec) for spec in CARD_FILES]
    insts.append(queens_instance(rng, QUEENS_N))
    return insts


def pb_inputs(seed: int) -> list[PbInstance]:
    rng = random.Random(f"pb-encode/{seed}")
    return [pb_instance(rng, *spec) for spec in PB_FILES]


def optimize_inputs(seed: int) -> list[KnapsackInstance]:
    rng = random.Random(f"optimize/{seed}")
    return [knapsack_instance(rng, f"knap-{i}-{shape[0]}-{shape[3]}", *shape)
            for i, shape in enumerate(OPT_INSTANCES)]

