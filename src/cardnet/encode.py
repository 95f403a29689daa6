"""Translate cardinality constraints to CNF through selection networks.

The clause scheme per selector output p is the monotone implication family
{x_{i1} & ... & x_{ip} => y_p} over all p-subsets of the inputs; a fused
combine pair costs at most 5 clauses and 2 variables.  At-most-k constraints
build a (k+1)-selection network over the literals in this one-propagating
polarity and assert the unit ~y_{k+1}.  The mirrored zero-propagating polarity
is emitted by the same walker with polarity="atleast"; its clauses y_p => (at
least p inputs true) let a positive unit assert an at-least bound.  The walker
emits only the gates that the outputs its caller reads depend on.

Every relation normalizes to at-most forms.  encode_card encodes each form on
its cheaper side: sum(lits) <= k either as above, or as sum(~lits) >= n-k, an
(n-k)-selection network over the negated literals in the zero-propagating
polarity plus the unit y_{n-k}.  Both are arc-consistent (Asin, Nieuwenhuis,
Oliveras and Rodriguez-Carbonell, "Cardinality Networks: a theoretical and
empirical study", Constraints 2011).  The pseudo-Boolean pipeline emits its
digit networks in the zero-propagating polarity too, since it asserts an
output positively.
"""

from __future__ import annotations

import functools
import math
from collections import Counter
from dataclasses import dataclass
from itertools import combinations
from typing import Callable, NamedTuple, Sequence

from . import build
from .cnf import FALSE, TRUE, CnfFormula, Lit, neg
from .network import Network, Selector

@dataclass(frozen=True)
class CardConstraint:
    """lits REL k over Boolean literals; rel is one of < <= = >= >."""

    lits: tuple[Lit, ...]
    rel: str
    k: int

    def __post_init__(self):
        if self.rel not in ("<", "<=", "=", ">=", ">"):
            raise ValueError(f"unknown relation {self.rel!r}")
        if not self.lits:
            raise ValueError("constraint needs at least one literal")

    def holds(self, count: int) -> bool:
        return {"<": count < self.k, "<=": count <= self.k, "=": count == self.k,
                ">=": count >= self.k, ">": count > self.k}[self.rel]


@dataclass
class EncodeOptions:
    method: str = "auto"
    lam: int = 5                 # weight of a variable vs a clause when choosing
    direct_mixing: bool = True

    def __post_init__(self):
        if self.method not in METHODS:
            raise ValueError(f"unknown method {self.method!r}")
        if self.lam <= 0:
            raise ValueError("lambda must be positive")


@dataclass
class EncodedConstraint:
    """Result of encoding one at-most-k constraint sum(input_lits) <= k.

    output_lits are the unary counter outputs y_1..y_{k+1} (y_j true once j
    inputs are true); the last one carries the asserted unit.  They stay
    available for incremental strengthening with deeper unit clauses.  A form
    encode_card put on the at-least side exposes none: its outputs count the
    negated inputs and cannot deepen the at-most bound.
    """

    formula: CnfFormula
    input_lits: tuple[Lit, ...]
    k: int
    output_lits: tuple[Lit, ...] = ()


@dataclass(frozen=True)
class AtMostForm:
    lits: tuple[Lit, ...]
    k: int


@dataclass(frozen=True)
class NormalizedCard:
    """<=-forms equivalent to the source constraint, or a trivial verdict."""

    atmosts: tuple[AtMostForm, ...]
    trivially_unsat: bool = False


def normalize_card(c: CardConstraint) -> NormalizedCard:
    """Reduce any relation to at-most forms: >= and > flip to negated
    literals, < lowers the bound, = yields both directions.  Constant
    literals, and pairs of a literal and its complement, which count exactly
    one, are folded into the bound first."""
    lits = []
    base = 0
    for lit in c.lits:
        if lit is TRUE:
            base += 1
        elif lit is not FALSE:
            lits.append(lit)
    if len(set(map(abs, lits))) < len(lits):
        count = Counter(lits)
        pairs = {lit: min(c, count[-lit]) for lit, c in count.items()
                 if type(lit) is int and -lit in count}
        base += sum(pairs.values()) // 2
        unpaired = []
        for lit in lits:
            if pairs.get(lit):
                pairs[lit] -= 1
            else:
                unpaired.append(lit)
        lits = unpaired
    n = len(lits)

    def atmost(ls, k):
        if k < 0:
            return None  # trivially unsatisfiable
        if k >= len(ls) or not ls:
            return ()    # trivially true
        return (AtMostForm(tuple(ls), k),)

    k = c.k - base
    if c.rel == "<":
        forms = atmost(lits, k - 1)
    elif c.rel == "<=":
        forms = atmost(lits, k)
    elif c.rel == ">":
        forms = atmost([neg(l) for l in lits], n - k - 1)
    elif c.rel == ">=":
        forms = atmost([neg(l) for l in lits], n - k)
    else:  # "="
        lo = atmost([neg(l) for l in lits], n - k)
        hi = atmost(lits, k)
        forms = None if lo is None or hi is None else lo + hi
    if forms is None:
        return NormalizedCard((), trivially_unsat=True)
    return NormalizedCard(forms)


# ---------------------------------------------------------------------------
# gate-level clause emission
# ---------------------------------------------------------------------------

def _selector_outputs(formula: CnfFormula, in_lits: Sequence[Lit], ranks: Sequence[int],
                      polarity: str, distinct: bool = False) -> list[Lit]:
    """The literals of one selector's outputs of the given ranks p (output p
    is true once p inputs are): a constant-forced output folds, every other
    gets a fresh variable and its clause family.  distinct says the free
    inputs are known to be over distinct variables."""
    trues = in_lits.count(TRUE)
    free = [l for l in in_lits if l is not TRUE and l is not FALSE]
    negs = [-l for l in free] if polarity == "atmost" else []
    # over distinct variables no clause of the family needs simplification
    bulk = distinct or formula.distinct_vars(free)
    outs: list[Lit] = []
    for p in ranks:
        if p <= trues:
            outs.append(TRUE)
        elif p > trues + len(free):
            outs.append(FALSE)
        else:
            y = formula.fresh_var()
            need = p - trues
            if polarity == "atmost":
                tail = (y,)
                family = [s + tail for s in combinations(negs, need)]
            else:
                head = (-y,)
                family = [head + s for s in combinations(free, len(free) - need + 1)]
            if bulk:
                formula.add_clauses(family)
            else:
                for clause in family:
                    formula.add_clause(clause)
            outs.append(y)
    return outs


def _conj(a: Lit | None, b: Lit | None) -> Lit | None:
    """Three-valued and of two literals: TRUE, FALSE, or None when free."""
    if a is FALSE or b is FALSE:
        return FALSE
    if a is TRUE and b is TRUE:
        return TRUE
    return None


def _combine_consts(ym2, ym1, yy, xx, xp1, xp2, atmost: bool) -> tuple[Lit | None, Lit | None]:
    """The constants a combine pair's x and y fold to, None for a free one;
    an input is a literal, or None for any free one.  In the at-least
    polarity an output folds to TRUE only when every clause that would
    define it holds."""
    # x = (y_{i-1} & x_i) | (y_{i-2} & x_{i+1}),  y = y_i | x_{i+2} | (y_{i-1} & x_{i+1})
    a, b, c = _conj(ym1, xx), _conj(ym2, xp1), _conj(ym1, xp1)
    if a is TRUE or b is TRUE:
        x = TRUE if atmost or xx is TRUE and ym2 is TRUE and (ym1 is TRUE or xp1 is TRUE) else None
    else:
        x = FALSE if a is FALSE and b is FALSE else None
    if yy is TRUE or xp2 is TRUE or c is TRUE:
        y = TRUE if atmost or (ym1 is TRUE or xp2 is TRUE) and (yy is TRUE or xp1 is TRUE) else None
    else:
        y = FALSE if yy is FALSE and xp2 is FALSE and c is FALSE else None
    return x, y


def _combine_outputs(formula: CnfFormula, ym2, ym1, yy, xx, xp1, xp2, want_x: bool,
                     want_y: bool, polarity: str,
                     distinct: bool = False) -> tuple[Lit | None, Lit | None]:
    atmost = polarity == "atmost"
    free = [l for l in (ym2, ym1, yy, xx, xp1, xp2) if l is not TRUE and l is not FALSE]
    consts = len(free) < 6  # only then can an output be forced
    fold_x, fold_y = _combine_consts(ym2, ym1, yy, xx, xp1, xp2, atmost) if consts else (None, None)
    out_x: Lit | None = None
    out_y: Lit | None = None
    clauses: list[tuple[Lit, ...]] = []

    if want_y:
        if fold_y is not None:
            out_y = fold_y
        else:
            out_y = y = formula.fresh_var()
            clauses += ([(-yy, y), (-xp2, y), (-ym1, -xp1, y)] if atmost
                        else [(-y, ym1, xp2), (-y, yy, xp1)])

    if want_x:
        if fold_x is not None:
            out_x = fold_x
        else:
            out_x = x = formula.fresh_var()
            clauses += ([(-ym1, -xx, x), (-ym2, -xp1, x)] if atmost
                        else [(-x, xx), (-x, ym2), (-x, ym1, xp1)])

    if distinct or formula.distinct_vars(free):
        # every clause holds a fresh output, so over distinct variables none
        # can repeat a variable, be a tautology or become empty: only the
        # constants fold (TRUE satisfies a clause, FALSE drops out)
        if consts:
            clauses = [tuple(l for l in c if l is not FALSE) for c in clauses
                       if TRUE not in c]
        formula.add_clauses(clauses)
    else:
        for clause in clauses:
            formula.add_clause(clause)
    return out_x, out_y


def _constant_wires(net: Network, input_lits: Sequence[Lit], atmost: bool) -> dict[int, Lit]:
    """Wire -> TRUE or FALSE for every wire that emission folds to a
    constant: the constant wires, the constant input literals, and the gate
    outputs they force."""
    consts = {w: TRUE if bit else FALSE for w, bit in net.const_sources()}
    consts.update((w, l) for w, l in enumerate(input_lits) if l is TRUE or l is FALSE)
    known = consts.keys()
    for gate in net.gates:
        if type(gate) is Selector:
            if known.isdisjoint(gate.inputs):
                continue
            ins = [consts.get(w) for w in gate.inputs]
            trues, free = ins.count(TRUE), ins.count(None)
            for p, w in enumerate(gate.outputs, 1):
                if p <= trues:
                    consts[w] = TRUE
                elif p > trues + free:
                    consts[w] = FALSE
        else:
            ins = (gate.ym2, gate.ym1, gate.yy, gate.xx, gate.xp1, gate.xp2)
            if known.isdisjoint(ins):
                continue
            fold_x, fold_y = _combine_consts(*map(consts.get, ins), atmost)
            if fold_x is not None and gate.out_x is not None:
                consts[gate.out_x] = fold_x
            if fold_y is not None and gate.out_y is not None:
                consts[gate.out_y] = fold_y
    return consts


def _live_wires(net: Network, reads: Sequence[int], consts: dict[int, Lit],
                atmost: bool) -> bytearray:
    """live[w] is 1 when a clause in the cone of some read output holds
    wire w.

    A selector output folded to a constant (see _constant_wires) reads
    nothing, any other every input of its selector.  A free combine pair
    output reads the wires of its clauses, in at-most polarity x: (y_{i-1},
    x_i), (y_{i-2}, x_{i+1}) and y: y_i, x_{i+2}, (y_{i-1}, x_{i+1}); in
    at-least polarity x: x_i, y_{i-2}, (y_{i-1}, x_{i+1}) and y: (y_{i-1},
    x_{i+2}), (y_i, x_{i+1}).  A clause that a constant satisfies reads
    nothing: one with a FALSE wire at most, a TRUE one at least.
    """
    live = bytearray(net.num_wires)
    for i in reads:
        live[net.outputs[i]] = 1
    known = consts.keys()
    kill = FALSE if atmost else TRUE
    for gate in reversed(net.gates):
        if type(gate) is Selector:
            outs = gate.outputs  # consecutive wire ids
            if 1 not in live[outs[0]:outs[-1] + 1]:
                continue
            if not known.isdisjoint(outs) and all(w in consts for w in outs if live[w]):
                continue
            for w in gate.inputs:
                live[w] = 1
            continue
        ox, oy = gate.out_x, gate.out_y
        want_x = ox is not None and live[ox] and ox not in consts
        want_y = oy is not None and live[oy] and oy not in consts
        if not (want_x or want_y):
            continue
        ym2, ym1, yy, xx, xp1, xp2 = gate.ym2, gate.ym1, gate.yy, gate.xx, gate.xp1, gate.xp2
        if known.isdisjoint((ym2, ym1, yy, xx, xp1, xp2)):
            if want_x:
                live[ym2] = live[ym1] = live[xx] = live[xp1] = 1
            if want_y:
                live[ym1] = live[yy] = live[xp1] = live[xp2] = 1
            continue
        if want_x:
            pairs = ((ym1, xx), (ym2, xp1)) if atmost else ((xx, xx), (ym2, ym2), (ym1, xp1))
        else:
            pairs = ()
        if want_y:
            pairs += ((yy, yy), (xp2, xp2), (ym1, xp1)) if atmost else ((ym1, xp2), (yy, xp1))
        for a, b in pairs:
            if consts.get(a) is not kill and consts.get(b) is not kill:
                live[a] = live[b] = 1
    return live


def emit_network(formula: CnfFormula, net: Network, input_lits: Sequence[Lit],
                 polarity: str = "atmost", reads: Sequence[int] | None = None) -> list[Lit]:
    """Walk the gates in topological order and return the literals of the
    outputs the caller reads: the output positions in reads, in that order,
    or every output when reads is None.

    With reads, a gate output that no clause of a read output's cone reads
    (see _live_wires) gets no variable and no clause.
    """
    if len(input_lits) != net.num_inputs:
        raise ValueError("input literal count does not match the network")
    atmost = polarity == "atmost"
    consts = _constant_wires(net, input_lits, atmost)
    live = None if reads is None else _live_wires(net, reads, consts, atmost)
    # wire id -> literal; inputs come first, gate outputs are filled in order.
    # An unread free wire keeps the constant that satisfies every clause that
    # would read it, so it folds nothing a read output depends on.
    wire_lits: list[Lit] = list(input_lits) + [FALSE if atmost else TRUE] * (
        net.num_wires - net.num_inputs)
    for w, lit in consts.items():
        wire_lits[w] = lit
    # Gate outputs get fresh variables and no gate reads a wire twice, so
    # when the input literals are over distinct variables, so is every gate.
    distinct = formula.distinct_vars([l for l in input_lits if l is not TRUE and l is not FALSE])
    for gate in net.gates:
        if type(gate) is Selector:
            outs = gate.outputs
            if live is None:
                ranks = range(1, len(outs) + 1)
            else:
                ranks = [p for p, w in enumerate(outs, 1) if live[w]]
                if not ranks:
                    continue
            lits = _selector_outputs(formula, [wire_lits[w] for w in gate.inputs],
                                     ranks, polarity, distinct)
            for p, lit in zip(ranks, lits):
                wire_lits[outs[p - 1]] = lit
        else:
            ox, oy = gate.out_x, gate.out_y
            want_x = ox is not None and (live is None or live[ox])
            want_y = oy is not None and (live is None or live[oy])
            if not (want_x or want_y):
                continue
            lx, ly = _combine_outputs(
                formula, wire_lits[gate.ym2], wire_lits[gate.ym1], wire_lits[gate.yy],
                wire_lits[gate.xx], wire_lits[gate.xp1], wire_lits[gate.xp2],
                want_x, want_y, polarity, distinct)
            if want_x:
                wire_lits[ox] = lx
            if want_y:
                wire_lits[oy] = ly
    outputs = net.outputs if reads is None else [net.outputs[i] for i in reads]
    return [wire_lits[w] for w in outputs]


def cnf_cost(net: Network, reads: Sequence[int] | None = None) -> tuple[int, int]:
    """Exact (variables, clauses) the at-most encoder emits for this network
    when its caller reads the output positions in reads (every output when
    reads is None).

    Computed by a dry-run emission (including constant simplification) with
    free input literals and no output assertion.
    """
    formula = CnfFormula()
    inputs = formula.fresh_vars(net.num_inputs)
    emit_network(formula, net, inputs, "atmost", reads)
    return formula.num_vars - net.num_inputs, formula.num_clauses


# ---------------------------------------------------------------------------
# selection-network construction and the per-(n, m) chooser
# ---------------------------------------------------------------------------

def _next_pow2(x: int) -> int:
    return 1 << (x - 1).bit_length()


def _level_wires(net: Network, wires: list[int], m: int, level: str,
                 chooser: Chooser) -> list[int]:
    """Add to net one level of the named method's construction selecting the
    m largest of wires.  A column-recursive level selects each column
    through the chooser; a padded level is its method's whole recursion."""
    entry = _TABLE[level]
    if entry.split is None:
        n_pad = _next_pow2(len(wires))
        m = min(_next_pow2(m), n_pad)
        if n_pad > len(wires):
            wires = wires + [net.const_wire(0)] * (n_pad - len(wires))
        return entry.level(net, wires, m)
    return build._select_columns(net, wires, m, entry.split, entry.merge,
                                 functools.partial(select_wires, chooser=chooser),
                                 entry.sorts_rows)


def select_wires(net: Network, wires: list[int], m: int, chooser: Chooser) -> list[int]:
    """Add to net a selection of the m largest of wires, built as the chooser
    picks: a direct selector (its outputs padded with constant 0 to the
    length of wires) or the cheapest level.  The result's m-prefix holds
    them sorted."""
    n = len(wires)
    if chooser.use_direct(n, m):
        return list(net.add_selector(tuple(wires), m)) + [net.const_wire(0)] * (n - m)
    return _level_wires(net, wires, m, chooser.best_level(n, m)[0], chooser)


def method_network(method: str, n: int, m: int, chooser: Chooser | None = None) -> Network:
    """The method's own construction for (n, m): its cheapest level, each
    sub-selection as the chooser picks (by default no direct selector); the
    whole is never a direct selector.  A method without a column split is
    built for powers of two: its inputs get constant-0 wires up to one, and
    m rounds up to one."""
    chooser = chooser or Chooser(method, direct=False)
    net = Network(n)
    net.set_outputs(_level_wires(net, net.input_wires(), m, chooser.best_level(n, m)[0], chooser))
    return net


def build_selection_network(method: str, n: int, m: int,
                            chooser: Chooser | None = None) -> Network:
    """Network whose output prefix of length m is the sorted m largest inputs,
    built by select_wires (by default with no direct selector)."""
    chooser = chooser or Chooser(method, direct=False)
    net = Network(n)
    net.set_outputs(select_wires(net, net.input_wires(), m, chooser))
    return net


def _direct_cost(n: int, m: int, cap: int | None = None) -> tuple[int, int] | None:
    """Cost of a single m-selector of order n; None when the clause count
    already exceeds cap."""
    clauses = 0
    for p in range(1, m + 1):
        clauses += math.comb(n, p)
        if cap is not None and clauses > cap:
            return None
    return m, clauses


# (method, m, level shape) -> (V, C) of that level's own gates
_LEVEL_COSTS: dict[tuple, tuple[int, int]] = {}


def _level_cost(method: str, n: int, m: int,
                children: list[tuple[int, int]]) -> tuple[int, int]:
    """(V, C) of the gates one level adds besides its sub-selections: the
    odd-even mergers, or the four-wise row sorters, merger and zero padding.
    Priced by dry-running the level with every column handed its free input
    wires, once per level shape.  The dry run reads the level's m-prefix and
    every wire handed to a column that selects any, since such a column's
    selection reads its whole column."""
    entry = _TABLE[method]
    shape = tuple(children) if entry.sorts_rows else tuple(k for _, k in children)
    key = (method, m, shape)
    if key not in _LEVEL_COSTS:
        net = Network(n)
        handed: list[int] = []

        def select(net, wires, k):
            if k:
                handed.extend(wires)
            return wires

        res = build._select_columns(net, net.input_wires(), m, entry.split, entry.merge,
                                    select, entry.sorts_rows)
        net.set_outputs(res[:m] + handed)
        _LEVEL_COSTS[key] = cnf_cost(net, range(len(net.outputs)))
    return _LEVEL_COSTS[key]


@dataclass(frozen=True)
class Chooser:
    """How a network method builds each (n, m) selection, and what that
    costs.  The candidates are a single direct selector (when direct) and a
    level of each of the method's constructions: oe4, oe2 and fourwise for
    auto, the method's own for the others.  A level selects each of its
    columns by the same choice, so the choice is a dynamic program over
    (n, m), memoized per chooser (after Abio, Nieuwenhuis, Oliveras and
    Rodriguez-Carbonell, CP 2013).  The cheapest under lam*V + C wins,
    priced in at-most polarity; a direct selector wins ties, then the
    earlier construction in table order.  Every candidate is a selection
    network, so any mix of them is arc-consistent."""

    method: str
    lam: int = 5
    direct: bool = True

    def __post_init__(self):
        if self.method not in NETWORK_METHODS:
            raise ValueError(f"{self.method!r} is not a network method")

    @functools.cache
    def best_level(self, n: int, m: int) -> tuple[str, tuple[int, int]]:
        """The cheapest of the method's constructions for (n, m), with the
        (V, C) of its network read to its m-prefix: the level's own gates
        plus each column's cost.  A padded method's is one dry run of its
        whole network."""
        entry = _TABLE[self.method]
        if entry.level is not None:
            net = Network(n)
            net.set_outputs(_level_wires(net, net.input_wires(), m, self.method, self))
            return self.method, cnf_cost(net, range(m))
        names = entry.levels or (self.method,)
        if n <= 1 or m == 0:
            return names[0], (0, 0)
        if m == 1:  # build._select_columns emits one (n, 1)-selector
            return names[0], _direct_cost(n, 1)
        best = None
        for name in names:
            children = _TABLE[name].split(n, m)
            v, c = _level_cost(name, n, m, children)
            for cn, cm in children:
                cv, cc = self.cost(cn, cm)
                v += cv
                c += cc
            if best is None or self.lam * v + c < self.lam * best[1][0] + best[1][1]:
                best = name, (v, c)
        return best

    @functools.cache
    def use_direct(self, n: int, m: int) -> bool:
        """True when a single direct selector builds (n, m)."""
        if not self.direct or n <= 1 or m < 1:
            return False
        rv, rc = self.best_level(n, m)[1]
        cap = self.lam * rv + rc
        direct = _direct_cost(n, m, cap=cap)
        return direct is not None and self.lam * direct[0] + direct[1] <= cap

    def cost(self, n: int, m: int) -> tuple[int, int]:
        """(V, C) of the selection select_wires builds for (n, m), read to
        its m-prefix."""
        return _direct_cost(n, m) if self.use_direct(n, m) else self.best_level(n, m)[1]


# the benchmark's tracer (perfbench/spans.py) records each decision by
# wrapping DirectMixer.use_direct, so the chooser keeps this name too
DirectMixer = Chooser


def recursive_cost(method: str, lam: int | None, n: int, m: int) -> tuple[int, int]:
    """(V, C) of method_network(method, n, m, Chooser(method, lam)), read to
    its m-prefix; lam None prices it with no direct selector."""
    chooser = Chooser(method, direct=False) if lam is None else Chooser(method, lam)
    return chooser.best_level(n, m)[1]


def _chooser(opts: EncodeOptions) -> Chooser:
    return Chooser(opts.method, opts.lam, opts.direct_mixing)


def choose_direct(n: int, m: int, opts: EncodeOptions) -> bool:
    """True when the chooser builds (n, m) as a single direct selector under
    the lam*V + C measure.  Raises ValueError for methods that are not
    selection networks."""
    return Chooser(opts.method, opts.lam).use_direct(n, m)


# ---------------------------------------------------------------------------
# at-most-k encoders
# ---------------------------------------------------------------------------

def encode_atmost(formula: CnfFormula, lits: Sequence[Lit], k: int,
                  opts: EncodeOptions | None = None) -> EncodedConstraint:
    """Standard encoding of sum(lits) <= k: a (k+1)-selection network over the
    literals in at-most polarity plus the unit clause ~y_{k+1}."""
    opts = opts or EncodeOptions()
    n = len(lits)
    if not 0 <= k < n:
        raise ValueError("encode_atmost needs 0 <= k < n; normalize first")
    if opts.method in BASELINE_METHODS:
        return encode_baseline(formula, lits, k, opts.method)
    if k == 0:
        return _forbid_all(formula, lits)
    net = build_selection_network(opts.method, n, k + 1, _chooser(opts))
    outs = emit_network(formula, net, list(lits), "atmost", range(k + 1))
    formula.add_clause([neg(outs[k])])
    return EncodedConstraint(formula, tuple(lits), k, tuple(outs))


def _encode_form(formula: CnfFormula, lits: Sequence[Lit], k: int,
                 opts: EncodeOptions) -> EncodedConstraint:
    """sum(lits) <= k on its cheaper side.  The at-least side, sum(~lits) >=
    n-k, is an (n-k)-selection network over the negated literals in
    zero-propagating polarity plus the unit y_{n-k}.  It is taken when it is
    strictly cheaper under lam*V + C, both sides priced in at-most polarity;
    a network emitted in at-least polarity was measured never to cost more
    than that price (see test_cheaper_side_is_never_larger).  Its outputs
    cannot deepen the at-most bound, so none are exposed."""
    n = len(lits)
    if opts.method in NETWORK_METHODS and n - k < k + 1:
        lam, chooser = opts.lam, _chooser(opts)
        v, c = chooser.cost(n, k + 1)
        lv, lc = chooser.cost(n, n - k)
        if lam * lv + lc < lam * v + c:
            net = build_selection_network(opts.method, n, n - k, chooser)
            out, = emit_network(formula, net, [neg(l) for l in lits], "atleast", (n - k - 1,))
            formula.add_clause([out])
            return EncodedConstraint(formula, tuple(lits), k)
    return encode_atmost(formula, lits, k, opts)


def strengthen(enc: EncodedConstraint, new_k: int) -> None:
    """Tighten an encoded at-most constraint to a smaller bound by asserting a
    deeper output of the already-encoded network."""
    if not 0 <= new_k < enc.k:
        raise ValueError("strengthening requires a strictly smaller bound")
    if not enc.output_lits:
        raise ValueError("constraint has no exposed outputs")
    enc.formula.add_clause([neg(enc.output_lits[new_k])])


# ---------------------------------------------------------------------------
# baseline encoders
# ---------------------------------------------------------------------------

# the binomial encoder refuses to enumerate more clauses than this
BINOMIAL_MAX_CLAUSES = 10 ** 7


def _forbid_all(formula: CnfFormula, lits: Sequence[Lit]) -> EncodedConstraint:
    """sum(lits) <= 0 as one negative unit per literal, for every method."""
    for lit in lits:
        formula.add_clause([neg(lit)])
    return EncodedConstraint(formula, tuple(lits), 0)


def _encode_sequential(formula: CnfFormula, lits: Sequence[Lit], k: int) -> EncodedConstraint:
    # unary running counter: s[i][j] says at least j+1 of lits[0..i] are
    # true.  Only the band i+k+1-n <= j <= i gets a variable.  Above it the
    # count is impossible: FALSE.  Below it the remaining literals cannot
    # carry the count past k, so no overflow clause depends on it: TRUE.
    # A clause holding a count above the band holds one negatively, and one
    # holding a count below it holds one positively, so both fold away.
    n = len(lits)
    s = [[formula.fresh_var() if i + k + 1 - n <= j <= i else FALSE if j > i else TRUE
          for j in range(k)] for i in range(n - 1)]
    formula.add_clause([neg(lits[0]), s[0][0]])
    for i in range(1, n - 1):
        xi = lits[i]
        formula.add_clause([neg(xi), s[i][0]])
        formula.add_clause([-s[i - 1][0], s[i][0]])
        formula.add_clause([neg(xi), -s[i - 1][k - 1]])
        for j in range(1, k):
            formula.add_clause([neg(xi), -s[i - 1][j - 1], s[i][j]])
            formula.add_clause([-s[i - 1][j], s[i][j]])
    formula.add_clause([neg(lits[n - 1]), -s[n - 2][k - 1]])
    return EncodedConstraint(formula, tuple(lits), k)


def _totalizer_node(formula: CnfFormula, lits: Sequence[Lit]) -> list[Lit]:
    if len(lits) == 1:
        return [lits[0]]
    half = len(lits) // 2
    a = _totalizer_node(formula, lits[:half])
    b = _totalizer_node(formula, lits[half:])
    m1, m2 = len(a), len(b)
    out = formula.fresh_vars(m1 + m2)

    def av(i):  # unary value literal with the 1/0 boundary convention
        return TRUE if i == 0 else (a[i - 1] if i <= m1 else FALSE)

    def bv(i):
        return TRUE if i == 0 else (b[i - 1] if i <= m2 else FALSE)

    for i in range(m1 + 1):
        for j in range(m2 + 1):
            c = i + j
            if 1 <= c:
                formula.add_clause([neg(av(i)), neg(bv(j)), out[c - 1]])
            if c < m1 + m2:
                formula.add_clause([-out[c], av(i + 1), bv(j + 1)])
    return list(out)


def _encode_totalizer(formula: CnfFormula, lits: Sequence[Lit], k: int) -> EncodedConstraint:
    outs = _totalizer_node(formula, list(lits))
    formula.add_clause([neg(outs[k])])
    return EncodedConstraint(formula, tuple(lits), k, tuple(outs[:k + 1]))


def _encode_binomial(formula: CnfFormula, lits: Sequence[Lit], k: int) -> EncodedConstraint:
    clauses = math.comb(len(lits), k + 1)
    if clauses > BINOMIAL_MAX_CLAUSES:
        raise ValueError(f"binomial at-most-{k} over {len(lits)} literals needs {clauses} "
                         f"clauses, more than the limit of {BINOMIAL_MAX_CLAUSES}")
    for subset in combinations(lits, k + 1):
        formula.add_clause([neg(l) for l in subset])
    return EncodedConstraint(formula, tuple(lits), k)


def encode_baseline(formula: CnfFormula, lits: Sequence[Lit], k: int,
                    which: str) -> EncodedConstraint:
    """Comparison encoders: sequential counter, totalizer, binomial."""
    if which not in BASELINE_METHODS:
        raise ValueError(f"unknown baseline {which!r}")
    if not 0 <= k < len(lits):
        raise ValueError("encode_baseline needs 0 <= k < n")
    if k == 0:
        return _forbid_all(formula, lits)
    return _TABLE[which](formula, lits, k)


def encode_card(formula: CnfFormula, c: CardConstraint,
                opts: EncodeOptions | None = None) -> list[EncodedConstraint]:
    """Normalize and encode a constraint with any relation, each at-most form
    on its cheaper side (see _encode_form)."""
    opts = opts or EncodeOptions()
    norm = normalize_card(c)
    if norm.trivially_unsat:
        formula.add_clause([])
        return []
    return [_encode_form(formula, form.lits, form.k, opts) for form in norm.atmosts]


# ---------------------------------------------------------------------------
# the method table
# ---------------------------------------------------------------------------

class _NetworkMethod(NamedTuple):
    """A selection-network method.  A column-recursive one is data for
    build._select_columns: its column split (n, m) -> [(length, selected)],
    the merge (net, prefixes, m) of the columns' selected prefixes, and
    whether a level sorts_rows across the columns first.  The chooser picks
    each column's selection.  A padded method is a level (net, wires, m) ->
    wires that exists for powers of two only (see method_network).  A method
    with levels builds each (n, m) with whichever of those column-recursive
    methods' levels the chooser finds cheapest.

    An odd-even level only merges each column's selected prefix, so the
    gates it adds follow from the selected counts; a level that sorts_rows
    also sorts rows across the full column lengths (see _level_cost)."""

    split: Callable | None = None
    merge: Callable | None = None
    sorts_rows: bool = False
    level: Callable | None = None
    levels: tuple[str, ...] = ()


# method name -> network method, or a baseline's encoder (formula, lits, k);
# the order is the order of the CLI's --method choices
_TABLE: dict[str, _NetworkMethod | Callable] = {
    "auto": _NetworkMethod(levels=("oe4", "oe2", "fourwise")),
    "oe4": _NetworkMethod(build._oe4_split, build._emit_oe4_merge),
    "oe2": _NetworkMethod(build._oe2_split, build._oe2_merge),
    "pairwise_classic": _NetworkMethod(level=functools.partial(build._emit_pw_sel,
                                                               variant="classic")),
    "pairwise_bitonic": _NetworkMethod(level=functools.partial(build._emit_pw_sel,
                                                               variant="bitonic")),
    "pairwise_half_bitonic": _NetworkMethod(level=functools.partial(build._emit_pw_sel,
                                                                    variant="half_bitonic")),
    "fourwise": _NetworkMethod(build._mw_split, build._mw_merge, sorts_rows=True),
    "bitonic_sel": _NetworkMethod(level=build._emit_bit_sel),
    "sequential": _encode_sequential,
    "totalizer": _encode_totalizer,
    "binomial": _encode_binomial,
}
METHODS = tuple(_TABLE)
NETWORK_METHODS = tuple(m for m in METHODS if isinstance(_TABLE[m], _NetworkMethod))
BASELINE_METHODS = tuple(m for m in METHODS if m not in NETWORK_METHODS)
PADDED_METHODS = tuple(m for m in NETWORK_METHODS if _TABLE[m].level is not None)
MIXED_METHODS = tuple(m for m in NETWORK_METHODS if m not in PADDED_METHODS)
