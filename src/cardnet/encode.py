"""Translate cardinality constraints to CNF through selection networks.

The clause scheme per selector output p is the monotone implication family
{x_{i1} & ... & x_{ip} => y_p} over all p-subsets of the inputs; a fused
combine pair costs at most 5 clauses and 2 variables.  At-most-k constraints
build a (k+1)-selection network over the literals in this one-propagating
polarity and assert ~y_{k+1}.  The mirrored zero-propagating polarity is
emitted by the same walker with polarity="atleast"; its clauses y_p => (at
least p inputs true) let a positive assertion state an at-least bound.  The
walker emits only the gates that the outputs its caller reads depend on, and
folds an asserted output into them instead of adding its unit: the gate
outputs that root unit propagation of the unit fixes get no variable
(_fold_wires, emit_network).

Every relation normalizes to at-most forms.  encode_card encodes each form on
its cheaper side, reading its asserted output alone: sum(lits) <= k either as
above, or as sum(~lits) >= n-k, an (n-k)-selection network over the negated
literals in the zero-propagating polarity asserting y_{n-k}.  Both are
arc-consistent (Asin, Nieuwenhuis, Oliveras and Rodriguez-Carbonell,
"Cardinality Networks: a theoretical and empirical study", Constraints 2011),
and the fold keeps what unit propagation derives.  The two forms of
j <= sum(lits) <= k may instead share one network that carries the upper
bound in one polarity and the lower in the other, both assertions folded by
the same propagation (emit_bounds).  The
pseudo-Boolean pipeline emits its digit networks in the zero-propagating
polarity too, since it asserts an output positively.
"""

from __future__ import annotations

import bisect
import contextlib
import functools
import math
from array import array
from collections import Counter
from dataclasses import dataclass
from itertools import combinations, count
from typing import Callable, Iterator, NamedTuple, Sequence

from . import build
from .cnf import FALSE, TRUE, CnfFormula, CountingFormula, Lit, collector_off, neg
from .network import CombinePair, Network, Selector

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

    Only encode_atmost (and the totalizer baseline) exposes output_lits,
    the unary counter outputs y_1..y_{k+1} (y_j true once j inputs are
    true).  The last one is asserted and folded into the network (see
    emit_network), so output_lits[k] is FALSE and no unit clause carries
    it.  The others stay available for incremental strengthening with
    deeper unit clauses.  encode_card and encode_pb read their asserted
    output alone and expose none.
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

_END = (0,)  # ends a clause in the store's layout (CnfFormula.add_flat)


def _selector_outputs(formula: CnfFormula, in_lits: Sequence[Lit],
                      outs: Sequence[tuple[int, Lit]], atmost: bool,
                      distinct: bool = False) -> None:
    """Clause families for one selector's outputs, each a (rank p, literal)
    pair with output p true once p inputs are, none of which
    _constant_wires folds.  An output's literal is a variable, or the
    constant that the fold fixes it to (its side, see _fold_wires), which
    drops out of its clauses as a constant input does.  distinct says the
    free inputs are known to be over distinct variables.

    Over distinct variables no clause of a family needs simplification, so
    the families go to the store as one run (CnfFormula.add_flat) with
    their size, C(f, s) for subsets of size s of the f free inputs; a
    formula that only counts gets the size alone, and no clause is made."""
    trues = in_lits.count(TRUE)
    free = [l for l in in_lits if l is not TRUE and l is not FALSE]
    pool = [-l for l in free] if atmost else free
    flat = distinct or formula.distinct_vars(free)
    run: list[int] = []
    count = 0
    for p, y in outs:
        need = p - trues if atmost else len(free) - p + trues + 1
        family = combinations(pool, need)
        if y is FALSE or y is TRUE:
            head, tail = (), ()
        else:
            head, tail = ((), (y,)) if atmost else ((-y,), ())
        if not flat:
            for s in family:
                formula.add_clause(head + s + tail)
            continue
        count += math.comb(len(pool), need)
        if formula.counts_only:
            continue
        tail += _END
        for s in family:
            run += head
            run += s
            run += tail
    if flat:
        formula.add_flat(run, count)


def _clauses(run: Sequence[Lit]) -> Iterator[tuple[Lit, ...]]:
    """The clauses of a run of literals in the store's layout, each ended
    by 0."""
    start = 0
    for end, lit in enumerate(run):
        if type(lit) is int and lit == 0:
            yield tuple(run[start:end])
            start = end + 1


def _combine_outputs(formula: CnfFormula, ym2, ym1, yy, xx, xp1, xp2, x: Lit | None,
                     y: Lit | None, atmost: bool, distinct: bool = False) -> None:
    """Clauses for the outputs x'' and y'' of one combine pair, given as
    literals (None for an output not emitted), none of which
    _constant_wires folds.  An output's literal is a variable, or the
    constant that the fold fixes it to (its side, see _fold_wires), which
    drops out of its clauses as a constant input does.  The clauses are
    made as one run in the store's layout (CnfFormula.add_flat)."""
    fixed = FALSE if atmost else TRUE
    free = [l for l in (ym2, ym1, yy, xx, xp1, xp2) if l is not TRUE and l is not FALSE]
    run: list[Lit] = []
    count = 0

    if y is not None:
        run += ([-yy, y, 0, -xp2, y, 0, -ym1, -xp1, y, 0] if atmost
                else [-y, ym1, xp2, 0, -y, yy, xp1, 0])
        count += 3 if atmost else 2

    if x is not None:
        run += ([-ym1, -xx, x, 0, -ym2, -xp1, x, 0] if atmost
                else [-x, xx, 0, -x, ym2, 0, -x, ym1, xp1, 0])
        count += 2 if atmost else 3

    if distinct or formula.distinct_vars(free):
        # every clause holds an output, so over distinct variables none can
        # repeat a variable or be a tautology: only the constants fold (TRUE
        # satisfies a clause, FALSE drops out)
        if len(free) < 6 or x is fixed or y is fixed:
            kept = [c for c in _clauses(run) if TRUE not in c]
            run = [l for c in kept for l in c + _END if l is not FALSE]
            count = len(kept)
        formula.add_flat(run, count)
    else:
        for clause in _clauses(run):
            formula.add_clause(clause)


def _constant_wires(net: Network, input_lits: Sequence[Lit]) -> dict[int, Lit]:
    """Wire -> TRUE or FALSE for every wire that emission folds to a
    constant: the constant wires, the constant input literals, and the gate
    outputs they force.

    Every gate is monotone, so a wire is constant exactly when it is 1 with
    every free input 0, or 0 with every free input 1.  The gates' own masks
    evaluate each wire on those two lanes: a constant is 0 or 3, a free wire
    2.  A gate whose inputs are all free has free outputs and is skipped."""
    consts = {w: TRUE if bit else FALSE for w, bit in net.const_sources()}
    consts.update((w, l) for w, l in enumerate(input_lits) if l is TRUE or l is FALSE)
    val = [2] * net.num_wires
    for w, lit in consts.items():
        val[w] = 3 if lit is TRUE else 0
    known = consts.keys()
    for gate in net.gates:
        if not known.isdisjoint(gate.inputs):
            for w, v in gate.masks(val, 3):
                if v != 2:
                    val[w] = v
                    consts[w] = TRUE if v else FALSE
    return consts


def _combine_clauses(gate: CombinePair, x: bool, atmost: bool) -> tuple[tuple[int, int], ...]:
    """The input wires of each clause that defines a combine pair's output
    (x'' when x, else y''), as pairs, the output itself left out: at most
    x: (y_{i-1}, x_i), (y_{i-2}, x_{i+1}) and y: y_i, x_{i+2}, (y_{i-1},
    x_{i+1}); at least x: x_i, y_{i-2}, (y_{i-1}, x_{i+1}) and y: (y_{i-1},
    x_{i+2}), (y_i, x_{i+1}).  A clause of one wire is that wire twice."""
    ym2, ym1, yy, xx, xp1, xp2 = gate.ym2, gate.ym1, gate.yy, gate.xx, gate.xp1, gate.xp2
    if x:
        return ((ym1, xx), (ym2, xp1)) if atmost else ((xx, xx), (ym2, ym2), (ym1, xp1))
    return ((yy, yy), (xp2, xp2), (ym1, xp1)) if atmost else ((ym1, xp2), (yy, xp1))


def _first_gate(net: Network, wire: int) -> int:
    """Index of the first gate whose outputs come after wire: every gate
    that reads wire is at or after it.  Gates are numbered as they are made,
    so their first outputs increase."""
    return bisect.bisect_right(net.first_outputs, wire)


def _fold_wires(net: Network, consts: dict[int, Lit], assertions: Sequence[tuple[int, bool]],
                cones: Sequence[bytearray] | None = None) -> tuple[dict[int, Lit], set[int]] | None:
    """Root unit propagation of one or two assertions, each an (output
    position, atmost) asserting that output FALSE at most or TRUE at least
    (its side), over the clauses of each gate output in its polarity's cone
    (cones, one per assertion; every wire when None) that consts leaves.
    Returns the gate outputs it fixes, with their values, and the input
    wires it leaves a unit on (an input is never assigned); None on a
    conflict.

    A clause reads its inputs in the polarity its side satisfies and its
    output in the other.  Selector output p has one per need-subset of its
    f free inputs (need is p - t at most, f - p + t + 1 at least, t its TRUE
    inputs); with h of them at the other side, it takes the other side once
    h reaches need, and at its side with h one short it fixes every open
    input to its side.  A combine pair's clauses (_combine_clauses) are
    checked one by one.  A value re-examines only the clauses it shortens:
    its side its own gate's, the other side its readers'."""
    inputs = net.num_inputs
    vals = dict(consts)
    units: set[int] = set()
    queue: list[int] = []

    def fix(w: int, lit: Lit) -> None:
        if w < inputs:
            units.add(w)
        else:
            vals[w] = lit
            queue.append(w)

    def examine(gate, outs: Sequence[int], atmost: bool, cone: bytearray | None) -> bool:
        side, other = (FALSE, TRUE) if atmost else (TRUE, FALSE)
        outs = [w for w in outs if w not in consts and (cone is None or cone[w])]
        if type(gate) is Selector:
            free, trues, h = len(gate.inputs), 0, 0
            for u in vals.keys() & gate.inputs:
                if u in consts:
                    free -= 1
                    trues += consts[u] is TRUE
                else:
                    h += vals[u] is other
            for w in outs:
                p = w - gate.outputs[0] + 1  # a selector's outputs are consecutive
                need = p - trues if atmost else free - p + trues + 1
                if h >= need and vals.get(w, other) is not other:
                    return False
                if h >= need and w not in vals:
                    fix(w, other)
                elif h == need - 1 and vals.get(w) is side:
                    for u in gate.inputs:
                        if u not in vals:
                            fix(u, side)
            return True
        for w in outs:
            for a, b in _combine_clauses(gate, w == gate.out_x, atmost):
                if vals.get(w) is other:
                    break
                if vals.get(a) is side or vals.get(b) is side:
                    continue
                left = {a, b}.difference(vals)
                if not left and w in vals:
                    return False
                if not left:
                    fix(w, other)
                elif len(left) == 1 and w in vals:
                    fix(left.pop(), side)
        return True

    for at, atmost in assertions:
        wire, side = net.outputs[at], FALSE if atmost else TRUE
        if vals.get(wire, side) is not side:
            return None
        if wire not in vals:
            fix(wire, side)
    polarities = [(atmost, cone) for (_, atmost), cone in zip(assertions, cones or (None, None))]
    readers: list[list] = []
    for w in queue:  # grows as it is read
        for atmost, cone in polarities:
            if (vals[w] is FALSE) != atmost:  # the other side: its readers' clauses
                if not readers:
                    readers = [[] for _ in range(net.num_wires)]
                    for gate in net.gates:
                        for u in gate.inputs:
                            readers[u].append(gate)
                if not all(examine(gate, gate.outputs, atmost, cone) for gate in readers[w]):
                    return None
            elif not examine(net.gates[_first_gate(net, w) - 1], (w,), atmost, cone):
                return None
    return {w: vals[w] for w in queue}, units


def _satisfied_wires(net: Network, consts: dict[int, Lit], forced: set[int],
                     atmost: bool) -> dict[int, Lit]:
    """consts, plus the forced gate outputs (see _fold_wires) and every
    gate output whose defining clauses those constants all satisfy, each as
    the asserted value: FALSE at most, TRUE at least.  A forced output whose
    clauses are all satisfied leaves forced, which keeps the outputs whose
    clauses must still be emitted.

    Such an output occurs in no other clause with the sign of its defining
    ones, so dropping it and every clause that reads it, which is what
    folding it to that constant does, keeps what unit propagation derives.
    A selector output p's clauses are all satisfied exactly when fewer than
    p inputs are not FALSE (at most) or p are TRUE (at least); a combine
    pair output's when each of its clauses (_combine_clauses) holds a wire
    of that value.  At most that is the gate's own semantics; at least it
    is not, since a combine pair's clauses rely on its inputs being sorted,
    which fixed wires need not show.  Only a gate that reads a forced wire,
    or one folded here, can change."""
    value = FALSE if atmost else TRUE
    folded = dict(consts)
    folded.update(dict.fromkeys(forced, value))
    known = folded.keys()
    gates = net.gates
    for i in range(_first_gate(net, min(forced)), len(gates)):
        gate = gates[i]
        if type(gate) is Selector:
            if known.isdisjoint(gate.inputs):
                continue
            hits = sum(folded.get(w) is value for w in gate.inputs)
            bound = gate.order - hits if atmost else hits
            outs = [w for p, w in enumerate(gate.outputs, 1)
                    if (p > bound if atmost else p <= bound)]
        else:
            outs = [w for x, w in ((True, gate.out_x), (False, gate.out_y))
                    if w is not None and all(folded.get(a) is value or folded.get(b) is value
                                             for a, b in _combine_clauses(gate, x, atmost))]
        for w in outs:
            folded[w] = value
            forced.discard(w)
    return folded


def _live_wires(net: Network, reads: Sequence[int], consts: dict[int, Lit],
                atmost: bool, forced: set[int] = frozenset()) -> bytearray:
    """live[w] is 1 when a clause in the cone of some read output, or of a
    forced gate output (see _fold_wires), holds wire w.

    A selector output folded to a constant (see _constant_wires) and not
    forced reads nothing, any other every input of its selector.  Such a
    combine pair output reads the wires of its clauses (_combine_clauses).
    A clause that a constant satisfies reads nothing: one with a FALSE wire
    at most, a TRUE one at least.
    """
    live = bytearray(net.num_wires)
    for i in reads:
        live[net.outputs[i]] = 1
    for w in forced:
        live[w] = 1
    known = consts.keys()
    kill = FALSE if atmost else TRUE
    for gate in reversed(net.gates):
        if type(gate) is Selector:
            outs = gate.outputs  # consecutive wire ids
            if 1 not in live[outs[0]:outs[-1] + 1]:
                continue
            if not known.isdisjoint(outs) and all(w in consts and w not in forced
                                                  for w in outs if live[w]):
                continue
            for w in gate.inputs:
                live[w] = 1
            continue
        ox, oy = gate.out_x, gate.out_y
        want_x = ox is not None and live[ox] and (ox not in consts or ox in forced)
        want_y = oy is not None and live[oy] and (oy not in consts or oy in forced)
        if not (want_x or want_y):
            continue
        ym2, ym1, yy, xx, xp1, xp2 = gate.ym2, gate.ym1, gate.yy, gate.xx, gate.xp1, gate.xp2
        if known.isdisjoint((ym2, ym1, yy, xx, xp1, xp2)):
            if want_x:
                live[ym2] = live[ym1] = live[xx] = live[xp1] = 1
            if want_y:
                live[ym1] = live[yy] = live[xp1] = live[xp2] = 1
            continue
        pairs = _combine_clauses(gate, True, atmost) if want_x else ()
        if want_y:
            pairs += _combine_clauses(gate, False, atmost)
        for a, b in pairs:
            if consts.get(a) is not kill and consts.get(b) is not kill:
                live[a] = live[b] = 1
    return live


# a wire's code in a plan (_Plan.codes): one that no walk emits reads as
# FALSE (0) or TRUE (1); _EMIT marks a gate output to emit, and _FIXED one
# that the fold fixes to its side, emitted without it (see _fold_wires)
_EMIT, _FIXED = 2, 3
_CODE_LITS = (FALSE, TRUE, None, None)  # a wire's literal before the walk


class _Plan:
    """What a walk (_walk) derives from a network before it makes a clause,
    in about one byte per wire: each wire's code (_EMIT, _FIXED, or the
    constant it reads as: a folded wire's, or, unread, the one that
    satisfies every clause that would read it, so that it folds nothing a
    read output depends on), the index of each gate with an output to emit,
    in order, and whether the fold meets a conflict."""

    __slots__ = ("codes", "steps", "conflict", "__weakref__")

    def __init__(self, net: Network, live: bytearray | None, folded: dict[int, Lit],
                 forced: set[int], value: Lit, conflict: bool = False):
        """Emit every gate output that is live (every one when live is None)
        and not folded to a constant, or forced (emitted without it); any
        other reads as its constant in folded, else value."""
        codes = bytearray([value is TRUE]) * net.num_wires
        for w, lit in folded.items():
            codes[w] = lit is TRUE
        steps = array("i")
        for i, gate in enumerate(net.gates):
            outs = gate.outputs if type(gate) is Selector else (gate.out_x, gate.out_y)
            for w in outs:
                if w is not None and (live is None or live[w]) and (w in forced
                                                                     or w not in folded):
                    codes[w] = _FIXED if w in forced else _EMIT
                    if not steps or steps[-1] != i:
                        steps.append(i)
        self.codes, self.steps, self.conflict = bytes(codes), steps, conflict


class _Networks:
    """The selection networks one encode call builds (see _scope), each
    under its key (chooser, n, m, asserted) with its plans, and how many of
    the call's emissions still need it.  A network the call no longer
    needs is released, and with it its plans; prices outlive both."""

    def __init__(self) -> None:
        self.nets: dict[tuple, Network] = {}
        self.plans: dict[int, dict[tuple, object]] = {}  # id of a held network -> its plans
        self.needs: Counter = Counter()                   # key -> emissions that need it

    def network(self, key: tuple) -> Network:
        """The network of key, built (_selection_network) if it is not held."""
        if key not in self.nets:
            net = self.nets[key] = _selection_network(*key)
            self.plans[id(net)] = {}
        return self.nets[key]

    def release(self, *keys: tuple) -> None:
        """Drop the network of each key that no emission still needs."""
        for key in keys:
            if key in self.nets and not self.needs[key]:
                del self.plans[id(self.nets.pop(key))]

    def need(self, key: tuple, count: int) -> None:
        """Count emissions that need the network of key (negative when they
        are done); released when none is left."""
        self.needs[key] += count
        if self.needs[key] <= 0:
            del self.needs[key]
            self.release(key)


# the open encode call's networks.  Module state rather than an argument:
# the public emitters and the process-wide price caches between the call and
# its networks keep their signatures, and it is set only while a call runs
_SCOPE: _Networks | None = None


@contextlib.contextmanager
def _scope() -> Iterator[_Networks]:
    """The networks of a new encode call (encode_cards), which ends with
    this block: every network and plan it built is dropped then.  Outside
    a call, a network is built for each request and a plan for each
    emission."""
    global _SCOPE
    _SCOPE = _Networks()
    try:
        yield _SCOPE
    finally:
        _SCOPE = None


def _release(*keys: tuple) -> None:
    """Drop the networks of keys that the open encode call priced and no
    emission of it still reads."""
    if _SCOPE is not None:
        _SCOPE.release(*keys)


def _cached_plan(net: Network, input_lits: Sequence[Lit], key: tuple,
                 make: Callable[[dict[int, Lit]], object]) -> object:
    """make(net's constant wires over input_lits), kept per key beside a
    network that the open encode call holds when no input literal is a
    constant: the network alone decides it.  So every line of one shape,
    built once (build_selection_network), is planned once."""
    plans = None if _SCOPE is None else _SCOPE.plans.get(id(net))
    if plans is None or TRUE in input_lits or FALSE in input_lits:
        return make(_constant_wires(net, input_lits))
    if key not in plans:
        plans[key] = make(_constant_wires(net, input_lits))
    return plans[key]


def _emission_plan(net: Network, consts: dict[int, Lit], atmost: bool,
                   reads: Sequence[int] | None, asserts: int | None) -> _Plan:
    fold = ({}, set()) if asserts is None else _fold_wires(net, consts, ((asserts, atmost),))
    forced = set(fold[0]) if fold else set()
    if forced:
        consts = _satisfied_wires(net, consts, forced, atmost)
    live = None if reads is None else _live_wires(net, reads, consts, atmost, forced)
    return _Plan(net, live, consts, forced, FALSE if atmost else TRUE, fold is None)


@functools.lru_cache(maxsize=256)
def _ranks(row: bytes) -> tuple[int, ...]:
    """The ranks of the selector outputs whose codes are row that a walk
    emits."""
    return tuple(p for p, c in enumerate(row, 1) if c >= _EMIT)


def _walk(formula: CnfFormula, net: Network, plan: _Plan, input_lits: Sequence[Lit],
          atmost: bool, asserts: int | None, wires: dict[int, int] | None = None) -> list[Lit]:
    """Emit plan's gates in topological order and return every wire's
    literal, then the unit of an asserted output that is an input.

    The walk gives each gate output it emits its literal: the constant the
    fold fixes it to (_FIXED: FALSE at most, TRUE at least), or else a
    fresh variable, a selector's ranks ascending and a combine pair's y''
    before its x''.  wires, gate outputs' variables, lets walks of one
    network share them (see emit_bounds): a gate output takes its entry
    there instead of a fresh variable."""
    if plan.conflict:
        formula.add_clause([])  # the fold met a conflict
    codes = plan.codes
    fixed = FALSE if atmost else TRUE
    new = wires.__getitem__ if wires is not None else lambda w: formula.fresh_var()
    wire_lits: list[Lit] = list(input_lits)
    wire_lits += map(_CODE_LITS.__getitem__, codes[net.num_inputs:])
    # Gate outputs get fresh variables and no gate reads a wire twice, so
    # when the input literals are over distinct variables, so is every gate.
    distinct = formula.distinct_vars([l for l in input_lits
                                      if l is not TRUE and l is not FALSE])
    gates = net.gates
    for i in plan.steps:
        gate = gates[i]
        if type(gate) is Selector:
            outs = gate.outputs
            lits = []
            for p in _ranks(codes[outs[0]:outs[-1] + 1]):  # consecutive outputs
                w = outs[p - 1]
                lit = wire_lits[w] = fixed if codes[w] == _FIXED else new(w)
                lits.append((p, lit))
            _selector_outputs(formula, [wire_lits[w] for w in gate.inputs], lits, atmost,
                              distinct)
            continue
        ox, oy = gate.out_x, gate.out_y
        y = x = None
        if oy is not None and codes[oy] >= _EMIT:
            y = wire_lits[oy] = fixed if codes[oy] == _FIXED else new(oy)
        if ox is not None and codes[ox] >= _EMIT:
            x = wire_lits[ox] = fixed if codes[ox] == _FIXED else new(ox)
        _combine_outputs(formula, wire_lits[gate.ym2], wire_lits[gate.ym1], wire_lits[gate.yy],
                         wire_lits[gate.xx], wire_lits[gate.xp1], wire_lits[gate.xp2], x, y,
                         atmost, distinct)
    if asserts is not None and net.outputs[asserts] < net.num_inputs:
        lit = wire_lits[net.outputs[asserts]]  # an asserted input's unit
        formula.add_clause([neg(lit) if atmost else lit])
    return wire_lits


def emit_network(formula: CnfFormula, net: Network, input_lits: Sequence[Lit],
                 polarity: str = "atmost", reads: Sequence[int] | None = None,
                 asserts: int | None = None) -> list[Lit]:
    """Walk the gates in topological order and return the literals of the
    outputs the caller reads: the output positions in reads, in that order,
    or every output when reads is None.

    With reads, a gate output that no clause of a read output's cone reads
    (see _live_wires) gets no variable and no clause.

    asserts, one of the read positions, asserts that output: FALSE at most,
    TRUE at least.  The assertion is folded, as root unit propagation of
    its unit over the unfolded emission would leave it (_fold_wires): the
    output and every gate output it fixes become that constant, with no
    variable and no unit clause.  Their defining clauses are kept without
    them, their readers' clauses fold as for any constant, and the gate
    outputs the constants fold go too (_satisfied_wires).  An input literal
    it fixes keeps its literal; the clause that fixes it is its unit.
    """
    if len(input_lits) != net.num_inputs:
        raise ValueError("input literal count does not match the network")
    atmost = polarity == "atmost"
    key = (None if reads is None else tuple(reads), asserts, atmost)
    plan = _cached_plan(net, input_lits, key,
                        lambda consts: _emission_plan(net, consts, atmost, reads, asserts))
    wire_lits = _walk(formula, net, plan, input_lits, atmost, asserts)
    outputs = net.outputs if reads is None else [net.outputs[i] for i in reads]
    return [wire_lits[w] for w in outputs]


def _bounds_plans(net: Network, consts: dict[int, Lit], upper: int,
                  lower: int) -> tuple[tuple[_Plan, _Plan], array] | None:
    """emit_bounds' plan for each polarity and the gate outputs that get a
    variable, in wire order; None when the fold meets a conflict."""
    assertions = ((upper, True), (lower, False))
    cones = [_live_wires(net, (at,), consts, atmost) for at, atmost in assertions]
    fold = _fold_wires(net, consts, assertions, cones)
    if fold is None:
        return None
    folded = {**consts, **fold[0]}
    plans = tuple(_Plan(net, live, folded, {w for w, lit in fold[0].items() if lit is side},
                        side)
                  for live, side in zip(cones, (FALSE, TRUE)))
    return plans, array("i", [w for w in range(net.num_inputs, net.num_wires)
                              if (cones[0][w] or cones[1][w]) and w not in folded])


def emit_bounds(formula: CnfFormula, net: Network, input_lits: Sequence[Lit],
                upper: int, lower: int) -> None:
    """Assert both output position upper FALSE and output position lower
    TRUE (lower <= upper): the at-most polarity's clauses of upper's cone
    and the at-least polarity's of lower's, over shared gate-output
    variables.  Each clause set is arc-consistent for its own bound, so
    together they are for both.

    Both assertions are folded by one root unit propagation over the two
    clause sets together (_fold_wires), each cone taken before the fold.  In
    each polarity a gate output fixed to its side is emitted without it, as
    in emit_network, and one fixed to the other side, its clauses satisfied,
    not at all.  The gate outputs left in either cone get variables in wire
    order; the at-most polarity is walked first, then the at-least."""
    if len(input_lits) != net.num_inputs:
        raise ValueError("input literal count does not match the network")
    bounds = _cached_plan(net, input_lits, (upper, lower),
                          lambda consts: _bounds_plans(net, consts, upper, lower))
    if bounds is None:
        formula.add_clause([])
        return
    plans, alloc = bounds
    wires = dict(zip(alloc, formula.fresh_vars(len(alloc))))
    for plan, at, atmost in zip(plans, (upper, lower), (True, False)):
        _walk(formula, net, plan, input_lits, atmost, at, wires)


def _dry_run(n: int, emit: Callable[[CnfFormula, list[Lit]], object]) -> tuple[int, int]:
    """(V, C) that emit(formula, inputs) adds besides its n inputs: a dry
    run into a formula that only counts (CountingFormula) over n fresh
    input variables."""
    formula = CountingFormula()
    emit(formula, formula.fresh_vars(n))
    return formula.num_vars - n, formula.num_clauses


def _bounds_cost(chooser: Chooser, n: int, k: int, j: int) -> tuple[int, int]:
    """(V, C) of emit_bounds for j <= sum(lits) <= k over n free literals on
    encode_atmost's network, by a dry run."""
    net = _side_network(_atmost_side(chooser, n, k))
    return _dry_run(n, lambda formula, lits: emit_bounds(formula, net, lits, k, j - 1))


def cnf_cost(net: Network, reads: Sequence[int] | None = None,
             asserts: int | None = None) -> tuple[int, int]:
    """Exact (variables, clauses) the at-most encoder emits for this network
    when its caller reads the output positions in reads (every output when
    reads is None) and asserts output position asserts (none when None).

    Computed by a dry-run emission (including constant simplification) with
    free input literals.
    """
    return _dry_run(net.num_inputs, lambda formula, lits: emit_network(
        formula, net, lits, "atmost", reads, asserts))


# ---------------------------------------------------------------------------
# selection-network construction and the per-(n, m) chooser
# ---------------------------------------------------------------------------

def _next_pow2(x: int) -> int:
    return 1 << (x - 1).bit_length()


def _level_wires(net: Network, wires: list[int], m: int, level: str, chooser: Chooser,
                 tops: frozenset[int] = frozenset()) -> list[int]:
    """Add to net one level of the named method's construction selecting the
    m largest of wires.  A column-recursive level selects each column
    through the chooser, the columns in tops (whose top output the fold of
    an asserted level fixes, see _level_cost) as asserted selections; a
    padded level is its method's whole recursion."""
    entry = _TABLE[level]
    if entry.split is None:
        n_pad = _next_pow2(len(wires))
        m = min(_next_pow2(m), n_pad)
        if n_pad > len(wires):
            wires = wires + [net.const_wire(0)] * (n_pad - len(wires))
        return entry.level(net, wires, m)
    if tops:
        column = count()  # _select_columns selects the columns in order

        def select(net, col, k):
            return select_wires(net, col, k, chooser, next(column) in tops)
    else:
        select = functools.partial(select_wires, chooser=chooser)
    return build._select_columns(net, wires, m, entry.split, entry.merge, select,
                                 entry.sorts_rows)


def select_wires(net: Network, wires: list[int], m: int, chooser: Chooser,
                 asserted: bool = False) -> list[int]:
    """Add to net a selection of the m largest of wires, built as the chooser
    picks for it, asserted at its m-th output or not: a direct selector (its
    outputs padded with constant 0 to the length of wires) or the cheapest
    level.  The result's m-prefix holds them sorted."""
    n = len(wires)
    if chooser.use_direct(n, m, asserted):
        return list(net.add_selector(tuple(wires), m)) + [net.const_wire(0)] * (n - m)
    level, _, tops = chooser.best_level(n, m, asserted)
    return _level_wires(net, wires, m, level, chooser, tops)


def method_network(method: str, n: int, m: int, chooser: Chooser | None = None,
                   asserted: bool = False) -> Network:
    """The method's own construction for (n, m): its cheapest level, each
    sub-selection as the chooser picks (by default no direct selector); the
    whole is never a direct selector.  asserted builds it as priced with its
    m-th output asserted.  A method without a column split is built for
    powers of two: its inputs get constant-0 wires up to one, and m rounds
    up to one."""
    chooser = chooser or Chooser(method, direct=False)
    net = Network(n)
    level, _, tops = chooser.best_level(n, m, asserted)
    net.set_outputs(_level_wires(net, net.input_wires(), m, level, chooser, tops))
    return net


def build_selection_network(method: str, n: int, m: int, chooser: Chooser | None = None,
                            asserted: bool = False) -> Network:
    """Network whose output prefix of length m is the sorted m largest inputs,
    built by select_wires (by default with no direct selector).  Within an
    encode call (see _scope) each is built once per (chooser, n, m,
    asserted) and shared until the call releases it, so a caller must not
    modify it."""
    key = (chooser or Chooser(method, direct=False), n, m, asserted)
    return _selection_network(*key) if _SCOPE is None else _SCOPE.network(key)


def _selection_network(chooser: Chooser, n: int, m: int, asserted: bool) -> Network:
    net = Network(n)
    net.set_outputs(select_wires(net, net.input_wires(), m, chooser, asserted))
    return net


def _direct_cost(n: int, m: int, cap: int | None = None,
                 asserted: bool = False) -> tuple[int, int] | None:
    """Cost of a single m-selector of order n; None when the clause count
    already exceeds cap.  Asserted, its m-th output has no variable, and
    its clauses are kept without it."""
    clauses = 0
    for p in range(1, m + 1):
        clauses += math.comb(n, p)
        if cap is not None and clauses > cap:
            return None
    return m - asserted, clauses


# (method, m, level shape, asserted) -> (V, C, tops) of that level's own gates
_LEVEL_COSTS: dict[tuple, tuple[int, int, frozenset[int]]] = {}


def _level_cost(method: str, n: int, m: int, children: list[tuple[int, int]],
                asserted: bool = False) -> tuple[int, int, frozenset[int]]:
    """(V, C) of the gates one level adds besides the sub-selections of its
    columns that select two or more: the odd-even mergers, or the four-wise
    row sorters, merger, zero padding and the single selectors of columns
    that select one.  With asserted the level's m-th output is asserted and
    folded, and tops are the columns whose top output that fold fixes: in
    the dry run below, an input it leaves a unit on (see _fold_wires).  No
    other output of a column is ever fixed.

    Priced by dry-running the level once per level shape, each column that
    selects k >= 2 handed k fresh input wires for its selected outputs.  The
    dry run reads the level's m-prefix and every wire handed to a column that
    selects any, since such a column's selection reads its whole column.  A
    column's top output that the fold fixes is a gate output of the column,
    which the level reads as a constant: the dry run hands it FALSE."""
    entry = _TABLE[method]
    shape = tuple(children) if entry.sorts_rows else tuple(k if k > 1 else (s, k)
                                                            for s, k in children)
    key = (method, m, shape, asserted)
    if key not in _LEVEL_COSTS:
        selected = sum(k for _, k in children if k > 1)
        net = Network(n + selected)
        fresh = iter(range(n, n + selected))
        handed: list[int] = []
        col_tops: list[int | None] = []

        def select(net, wires, k):
            if k:
                handed.extend(wires)
            col_tops.append(None)
            if k == 1 and len(wires) > 1:
                return list(net.add_selector(tuple(wires), 1))
            if k < 2:
                return wires
            outs = [next(fresh) for _ in range(k)]
            col_tops[-1] = outs[-1]
            return outs + wires[k:]

        res = build._select_columns(net, net.input_wires()[:n], m, entry.split, entry.merge,
                                    select, entry.sorts_rows)
        net.set_outputs(res[:m] + handed)
        tops: frozenset[int] = frozenset()
        if asserted:  # the dry run's inputs are free: none is a constant
            units = _fold_wires(net, _constant_wires(net, ()), ((m - 1, True),))[1]
            tops = frozenset(i for i, w in enumerate(col_tops) if w in units)

        def emit(formula: CnfFormula, lits: list[Lit]) -> None:
            for i in tops:
                lits[col_tops[i]] = FALSE
            emit_network(formula, net, lits, "atmost", range(len(net.outputs)),
                         m - 1 if asserted else None)

        _LEVEL_COSTS[key] = *_dry_run(net.num_inputs, emit), tops
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
    network, so any mix of them is arc-consistent.

    A selection asserted at its m-th output, as encode_atmost asserts its
    top, is priced and chosen apart (cost(n, m, True)): the fold leaves that
    output and every wire it fixes out.  A level passes the assertion on to
    each column whose top output its fold fixes."""

    method: str
    lam: int = 5
    direct: bool = True

    def __post_init__(self):
        if self.method not in NETWORK_METHODS:
            raise ValueError(f"{self.method!r} is not a network method")

    @functools.cache
    def best_level(self, n: int, m: int,
                   asserted: bool = False) -> tuple[str, tuple[int, int], frozenset[int]]:
        """The cheapest of the method's constructions for (n, m), with the
        (V, C) of its network read to its m-prefix and asserted at its m-th
        output or not: the level's own gates plus each column's cost.  The
        third item is the columns the level builds asserted (see
        _level_cost).  A padded method's is one dry run of its whole
        network."""
        entry = _TABLE[self.method]
        if entry.level is not None:
            net = Network(n)
            net.set_outputs(_level_wires(net, net.input_wires(), m, self.method, self))
            return self.method, cnf_cost(net, range(m), m - 1 if asserted else None), frozenset()
        names = entry.levels or (self.method,)
        if n <= 1 or m == 0:
            return names[0], (0, 0), frozenset()
        if m == 1:  # build._select_columns emits one (n, 1)-selector
            return names[0], _direct_cost(n, 1, asserted=asserted), frozenset()
        best = None
        for name in names:
            children = _TABLE[name].split(n, m)
            v, c, tops = _level_cost(name, n, m, children, asserted)
            for i, (cn, cm) in enumerate(children):
                if cm > 1:
                    cv, cc = self.cost(cn, cm, i in tops)
                    v += cv
                    c += cc
            if best is None or self.lam * v + c < self.lam * best[1][0] + best[1][1]:
                best = name, (v, c), tops
        return best

    @functools.cache
    def use_direct(self, n: int, m: int, asserted: bool = False) -> bool:
        """True when a single direct selector builds (n, m)."""
        if not self.direct or n <= 1 or m < 1:
            return False
        rv, rc = self.best_level(n, m, asserted)[1]
        cap = self.lam * rv + rc
        direct = _direct_cost(n, m, cap, asserted)
        return direct is not None and self.lam * direct[0] + direct[1] <= cap

    def cost(self, n: int, m: int, asserted: bool = False) -> tuple[int, int]:
        """(V, C) of the selection select_wires builds for (n, m), read to
        its m-prefix and asserted at its m-th output or not."""
        if self.use_direct(n, m, asserted):
            return _direct_cost(n, m, asserted=asserted)
        return self.best_level(n, m, asserted)[1]


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
    """True when the encoder's chooser for opts builds an unasserted (n, m)
    selection as a single direct selector under the lam*V + C measure; never
    with direct_mixing off.  encode_atmost's top selection is asserted and
    chosen by its folded price (Chooser.use_direct(n, m, True)).  Raises
    ValueError for methods that are not selection networks."""
    return _chooser(opts).use_direct(n, m)


# ---------------------------------------------------------------------------
# at-most-k encoders
# ---------------------------------------------------------------------------

def _atmost_side(chooser: Chooser, n: int, k: int) -> tuple[Chooser, int, int, bool]:
    """The at-most side of sum(lits) <= k over n literals, as the key (see
    _Networks) of its network: a (k+1)-selection over the literals, built
    as the chooser prices it asserted (Chooser.cost(n, k + 1, True)).  The
    at-least side, over the negations, is (chooser, n, n - k, False): an
    (n-k)-selection built unasserted.  A side (chooser, n, m, atmost)
    asserts its m-th output in its own polarity."""
    return chooser, n, k + 1, True


def _side_network(side: tuple[Chooser, int, int, bool]) -> Network:
    """The selection network of a side (see _atmost_side)."""
    chooser, n, m, atmost = side
    return build_selection_network(chooser.method, n, m, chooser, atmost)


def encode_atmost(formula: CnfFormula, lits: Sequence[Lit], k: int,
                  opts: EncodeOptions | None = None) -> EncodedConstraint:
    """Standard encoding of sum(lits) <= k: a (k+1)-selection network over the
    literals in at-most polarity whose output y_{k+1} is asserted FALSE.
    The assertion is folded (see emit_network): y_{k+1} and every gate
    output it fixes get no variable, and no unit clause is added.  The
    network is built as the chooser prices it asserted (Chooser.cost(n,
    k + 1, True)).  It reads and exposes y_1..y_{k+1}, for strengthen; the
    other encoders read their asserted output alone."""
    opts = opts or EncodeOptions()
    n = len(lits)
    if not 0 <= k < n:
        raise ValueError("encode_atmost needs 0 <= k < n; normalize first")
    if opts.method in BASELINE_METHODS:
        return encode_baseline(formula, lits, k, opts.method)
    if k == 0:
        return _forbid_all(formula, lits)
    net = _side_network(_atmost_side(_chooser(opts), n, k))
    outs = emit_network(formula, net, list(lits), "atmost", range(k + 1), k)
    return EncodedConstraint(formula, tuple(lits), k, tuple(outs))


def _emit_side(formula: CnfFormula, side: tuple[Chooser, int, int, bool],
               lits: Sequence[Lit]) -> None:
    """The selection of side (see _atmost_side) over lits, asserting its
    m-th output and reading it alone: FALSE in at-most polarity, TRUE in
    at-least polarity."""
    m, atmost = side[2:]
    emit_network(formula, _side_network(side), list(lits), "atmost" if atmost else "atleast",
                 (m - 1,), m - 1)


@functools.cache
def _side_cost(chooser: Chooser, n: int, m: int, atmost: bool) -> tuple[int, int]:
    """(V, C) of _emit_side over n free input literals, by a dry run."""
    side = chooser, n, m, atmost
    return _dry_run(n, lambda formula, lits: _emit_side(formula, side, lits))


def _form_side(chooser: Chooser, n: int, k: int) -> tuple[Chooser, int, int, bool]:
    """The cheaper side (see _atmost_side) of sum(lits) <= k over n
    literals, which encode_cards emits with no outputs exposed.  The at-most
    side is encode_atmost's network read at y_{k+1} alone.  The at-least
    side, sum(~lits) >= n-k, is an (n-k)-selection network over the negated
    literals in zero-propagating polarity whose output y_{n-k} is asserted
    TRUE and read alone, folded as in encode_atmost.  It can only be smaller
    when n-k < k+1, and is taken when it is strictly cheaper under
    lam*V + C, each side priced by a dry run of exactly what it emits.  The
    network priced for the side not taken is released."""
    hi = _atmost_side(chooser, n, k)
    if n - k >= k + 1:
        return hi
    lo = (chooser, n, n - k, False)
    (hv, hc), (lv, lc) = _side_cost(*hi), _side_cost(*lo)
    side, other = (hi, lo) if chooser.lam * hv + hc <= chooser.lam * lv + lc else (lo, hi)
    _release(other)
    return side


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


@functools.cache
def _pair_bounds(chooser: Chooser, n: int, ka: int, kb: int) -> tuple[bool, int, int] | None:
    """For sum(lits) <= ka and sum(~lits) <= kb over n literals, (over the
    negations, k, j) when j <= sum <= k over the literals, or their
    negations, on one (k+1)-selection network (emit_bounds) is cheaper under
    lam*V + C than the two forms on their own sides; else None.  The network
    selects the fewer outputs: ka+1 over the literals, or kb+1 over the
    negations, the literals on a tie.  The networks priced for what is not
    taken are released."""
    if ka + kb < n:  # no count meets both bounds: leave it to the forms
        return None
    flip = kb < ka
    k, j = (kb, n - ka) if flip else (ka, n - kb)
    lam = chooser.lam
    pv, pc = _bounds_cost(chooser, n, k, j)
    forms = 0
    sides = set()
    for bound in (ka, kb):
        side = _form_side(chooser, n, bound)
        sides.add(side)
        v, c = _side_cost(*side)
        forms += lam * v + c
    pair = lam * pv + pc < forms
    shared = _atmost_side(chooser, n, k)
    _release(*(sides - {shared} if pair else {shared} - sides))
    return (flip, k, j) if pair else None


def _distinct_free(lits: Sequence[Lit]) -> bool:
    """True when lits are ints over distinct variables, as the dry runs that
    price a pair assume.  Unlike CnfFormula.distinct_vars, which only picks
    how clauses are added, this decides what is emitted."""
    return all(type(l) is int for l in lits) and len(set(map(abs, lits))) == len(lits)


@collector_off()
def encode_cards(formula: CnfFormula, cards: Sequence[CardConstraint],
                 opts: EncodeOptions | None = None) -> list[EncodedConstraint]:
    """Normalize and encode the constraints in order, each at-most form on
    its cheaper side (see _form_side), except that an at-most form over
    the negations of an earlier form's literals, as an = constraint gives,
    or a <= and a >= constraint over one literal multiset, shares that
    form's network where this is cheaper (_pair_bounds): both bounds on one
    selection network (emit_bounds), emitted where the earlier form is.
    A pair is over distinct variables, with no bound 0, for a network
    method.  A form with no network side (bound 0, or a baseline method)
    goes to encode_atmost.  Returns the forms' encodings, a pair's
    together, none with outputs exposed.

    Every form's side or pair is chosen before the first is emitted, so
    each network is built once, the ones only priced are released as soon
    as they lose, and each other is released after the last form that
    reads it (see _Networks).  The call is the one scope of its networks
    (_scope), and runs with the cyclic collector off: nothing it builds is
    cyclic, so reference counting frees all of it, and a pass over the
    growing heap of networks would find nothing to free."""
    opts = opts or EncodeOptions()
    forms: list[AtMostForm] = []
    for c in cards:
        norm = normalize_card(c)
        if norm.trivially_unsat:
            formula.add_clause([])
        forms += norm.atmosts
    chooser = _chooser(opts) if opts.method in NETWORK_METHODS else None
    with _scope() as networks:
        mates: dict[int, tuple[int, tuple[bool, int, int]]] = {}
        needs: dict[int, tuple] = {}  # form -> the side (its network's key) emitted there
        waiting: dict[frozenset, list[int]] = {}
        for i, form in enumerate(forms):
            if not chooser or form.k == 0:
                continue
            n = len(form.lits)
            if _distinct_free(form.lits):
                earlier = waiting.get(frozenset([-l for l in form.lits]))
                pair = earlier and _pair_bounds(chooser, n, forms[earlier[0]].k, form.k)
                if pair:
                    mate = earlier.pop(0)
                    mates[mate] = i, pair
                    key = _atmost_side(chooser, n, pair[1])
                    networks.need(key, 1)
                    networks.need(needs[mate], -1)
                    needs[mate] = key
                    continue
                waiting.setdefault(frozenset(form.lits), []).append(i)
            needs[i] = _form_side(chooser, n, form.k)
            networks.need(needs[i], 1)
        paired = {i for i, _ in mates.values()}
        encs = []
        for i, form in enumerate(forms):
            if i in mates:
                other, (flip, k, j) = mates[i]
                lits = forms[other].lits if flip else form.lits
                emit_bounds(formula, _side_network(needs[i]), lits, k, j - 1)
                encs += [EncodedConstraint(formula, form.lits, form.k),
                         EncodedConstraint(formula, forms[other].lits, forms[other].k)]
            elif i in needs:
                side = needs[i]
                _emit_side(formula, side, form.lits if side[3] else [neg(l) for l in form.lits])
                encs.append(EncodedConstraint(formula, form.lits, form.k))
            elif i not in paired:
                encs.append(encode_atmost(formula, form.lits, form.k, opts))
            if i in needs:
                networks.need(needs[i], -1)
    return encs


def encode_card(formula: CnfFormula, c: CardConstraint,
                opts: EncodeOptions | None = None) -> list[EncodedConstraint]:
    """Normalize and encode a constraint with any relation, each at-most form
    on its cheaper side (see _form_side), an = constraint's two forms on
    one network where that is cheaper (see encode_cards)."""
    return encode_cards(formula, [c], opts)


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
