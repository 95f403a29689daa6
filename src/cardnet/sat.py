"""Unit propagation, the built-in CDCL solver, and propagation-quality
harnesses, all on one watched-literal core.

`_Search` is an iterative CDCL search after Eén and Sörensson, "An
Extensible SAT-solver" (SAT 2003): an explicit trail, two watched literals,
first-UIP learning with backjumping, VSIDS decisions with phase saving, and
Luby restarts, with no recursion.  `dpll_sat` runs its search.  The
harnesses and `Propagator`, a view in `Assignment` records, use only its
propagation: index a formula once, then per scenario reset to the root and
assume literals one at a time.
"""

from __future__ import annotations

import gc
from heapq import heapify, heappop, heappush
from itertools import chain
from typing import Iterable, Sequence

from .cnf import FALSE, TRUE, CnfFormula, Lit


class Assignment:
    """Partial map var -> bool plus the assignment trail."""

    def __init__(self, values: dict[int, bool] | None = None,
                 trail: list[tuple[int, bool, str]] | None = None):
        self.values = {} if values is None else values
        self.trail = [] if trail is None else trail

    def lit_value(self, lit: int) -> bool | None:
        v = self.values.get(abs(lit))
        if v is None:
            return None
        return v if lit > 0 else not v

    def assign(self, lit: int, reason: str) -> None:
        var = abs(lit)
        if var in self.values:
            raise ValueError(f"variable {var} assigned twice")
        self.values[var] = lit > 0
        self.trail.append((var, lit > 0, reason))

    def copy(self) -> "Assignment":
        return Assignment(dict(self.values), list(self.trail))


class UpResult:
    def __init__(self, status: str, assignment: Assignment,
                 conflict_clause: tuple[int, ...] | None = None):
        self.status = status  # "fixpoint" | "conflict"
        self.assignment = assignment
        self.conflict_clause = conflict_clause


def _check_literal(lit, num_vars: int | None = None) -> int:
    """lit, when it is an int literal (not a bool, not 0) over a variable no
    larger than num_vars if that is given; otherwise ValueError."""
    if not isinstance(lit, int) or isinstance(lit, bool) or lit == 0:
        raise ValueError(f"malformed literal {lit!r}")
    if num_vars is not None and abs(lit) > num_vars:
        raise ValueError(f"literal {lit} uses an unallocated variable")
    return lit


class Propagator:
    """Unit propagation over one formula, read and written as `Assignment`
    records: a view of one `_Search` core, indexed and propagated at the
    root once."""

    def __init__(self, formula: CnfFormula):
        self.num_vars = formula.next_var - 1
        self.core = _Search(self.num_vars, formula.clauses)
        self.core.start()
        if formula.trivially_unsat:
            self.core.root_conflict = []    # the empty clause, which is not stored

    def propagate(self, assignment: Assignment,
                  seeds: Sequence[int] = ()) -> UpResult:
        """Extend the assignment to a UP fixpoint: reset the core, then
        assume the assignment's literals and the seeds in turn.

        Literals the core assigned are appended to the assignment in trail
        order, seeds as "decision" and the rest as "propagated".  A conflict
        reports the falsified clause as the core holds it, (lit,) for a
        literal already false, or () for a trivially unsatisfiable formula.
        A malformed literal, or one over an unallocated variable, raises
        ValueError.
        """
        lits = [_check_literal(lit, self.num_vars) for lit in chain(
            (var if val else -var for var, val in assignment.values.items()), seeds)]
        core = self.core
        if core.reset():
            for lit in lits:
                if not core.assume(lit):
                    break
        values, level, reason = assignment.values, core.level, core.reason
        for lit in core.trail:
            var = lit if lit > 0 else -lit
            if var not in values:
                assignment.assign(lit, "decision" if level[var] and reason[var] is None
                                  else "propagated")
        if core.conflict is not None:
            return UpResult("conflict", assignment, tuple(core.conflict))
        return UpResult("fixpoint", assignment)


def unit_propagate(formula: CnfFormula, seed: Assignment | Iterable[int] | None = None) -> UpResult:
    """One-shot unit propagation from a seed assignment (or literal list)."""
    prop = Propagator(formula)
    if isinstance(seed, Assignment):
        assignment, seeds = seed.copy(), []
    else:
        assignment, seeds = Assignment(), list(seed or [])
    return prop.propagate(assignment, seeds)


def dpll_sat(formula: CnfFormula | tuple[int, Sequence[tuple[int, ...]]],
             assumptions: Sequence[Lit] = ()) -> tuple[str, dict[int, bool] | None]:
    """Complete SAT check; returns ("SAT", model) or ("UNSAT", None).

    formula is a CnfFormula, or a (num_vars, clauses) pair as parse_dimacs
    returns it, whose clauses the core takes as they are.  The model covers
    every allocated variable (unconstrained ones default to false) and
    satisfies all clauses and assumptions.  A TRUE assumption is ignored and
    a FALSE one makes the answer UNSAT; a Python bool or 0 is a malformed
    literal (ValueError).  The search is deterministic: the same input
    always gives the same model.
    """
    if isinstance(formula, CnfFormula):
        if formula.trivially_unsat:
            return "UNSAT", None
        allocated, clauses = formula.num_vars, formula.clauses
    else:
        allocated, clauses = formula
    if any(a is FALSE for a in assumptions):
        return "UNSAT", None
    units = [_check_literal(a) for a in assumptions if a is not TRUE]
    search = _Search(max(allocated, max(map(abs, units), default=0)), clauses)
    if not search.solve(units):
        return "UNSAT", None
    value = search.value
    return "SAT", {v: value[v] is True for v in range(1, allocated + 1)}


_RESTART_UNIT = 100       # conflicts per step of the Luby restart sequence
_ACTIVITY_DECAY = 0.95    # VSIDS: the bump grows by 1/decay per conflict


def _luby(i: int) -> int:
    """The i-th term (from 0) of the Luby sequence 1 1 2 1 1 2 4 1 1 2 ..."""
    size, seq = 1, 0
    while size < i + 1:
        seq += 1
        size = 2 * size + 1
    while size - 1 != i:
        size = (size - 1) >> 1
        seq -= 1
        i %= size
    return 1 << seq


class _Search:
    """One CDCL search (MiniSat-style) over a fixed clause list.

    Per-literal arrays have 2n+1 slots and are indexed by the signed literal
    itself: through Python's negative indexing lit and -lit land on distinct
    slots.  A binary clause (a, b) is stored twice, as the implications
    [b, a] under a's slot and [a, b] under b's; a longer clause is a list
    whose first two literals are watched.  Either way a clause that implied
    a literal holds it first, which is the form conflict analysis reads.

    The trail is explicit, conflicts are analysed to the first unique
    implication point, and the learnt clause decides the backjump level.
    Decisions follow VSIDS activity (ties to the lowest variable) with the
    saved phase, true at first; restarts follow the Luby sequence.  Learnt
    clauses are kept for the whole search: one call is one short search.
    """

    def __init__(self, num_vars: int, clauses: Sequence[tuple[int, ...]]):
        size = 2 * num_vars + 1
        self.value: list[bool | None] = [None] * size
        self.level = [0] * (num_vars + 1)
        self.reason: list[list[int] | None] = [None] * (num_vars + 1)
        self.implied: list[list[list[int]]] = [[] for _ in range(size)]
        self.watches: list[list[list[int]]] = [[] for _ in range(size)]
        self.trail: list[int] = []
        self.trail_lim: list[int] = []
        self.qhead = 0
        self.units: list[int] = []
        self.long: list[list[int]] = []    # the input clauses of 3+ literals
        self.empty = False                 # an input clause is empty
        # indexing allocates a list or two per clause and frees none, so the
        # cyclic collector's passes over the growing heap find nothing
        collecting = gc.isenabled()
        gc.disable()
        try:
            for clause in clauses:
                size = len(clause)
                if (clause[0] == clause[1] or clause[0] == -clause[1] if size == 2
                        else size > 2 and len({*map(abs, clause)}) < size):
                    # a repeated variable: drop duplicate literals, and the
                    # whole clause when it holds both polarities of one
                    clause = tuple(dict.fromkeys(clause))
                    if len({*map(abs, clause)}) < len(clause):
                        continue
                if len(clause) == 1:
                    self.units.append(clause[0])
                elif not clause:
                    self.empty = True
                else:
                    clause = self._attach(list(clause))
                    if len(clause) > 2:
                        self.long.append(clause)
        finally:
            if collecting:
                gc.enable()
        # decision state, set up by solve after the first propagation
        self.branch_vars: list[int] = []
        self.activity: list[float] = []
        self.heap: list[tuple[float, int]] = []
        self.heap_key: list[float | None] = []
        self.phase: list[bool] = []
        self.seen: list[bool] = []
        self.var_inc = 1.0
        self.root_conflict: list[int] | None = None
        self.conflict: list[int] | None = None

    def _attach(self, clause: list[int]) -> list[int]:
        """Index a clause of two or more literals; returns it in the form
        whose first literal it implies."""
        if len(clause) == 2:
            a, b = clause
            self.implied[a].append([b, a])
            self.implied[b].append(clause)
            return clause
        self.watches[clause[0]].append(clause)
        self.watches[clause[1]].append(clause)
        return clause

    def assign(self, lit: int, reason: list[int] | None) -> bool:
        """Put lit on the trail; False when it is already false."""
        val = self.value[lit]
        if val is not None:
            return val
        self.value[lit] = True
        self.value[-lit] = False
        var = lit if lit > 0 else -lit
        self.level[var] = len(self.trail_lim)
        self.reason[var] = reason
        self.trail.append(lit)
        return True

    def propagate(self) -> list[int] | None:
        """Run the queue to a fixpoint; returns a falsified clause or None."""
        value, implied, watches, trail = self.value, self.implied, self.watches, self.trail
        level, reason = self.level, self.reason
        lvl = len(self.trail_lim)
        qhead = self.qhead
        while qhead < len(trail):
            false_lit = -trail[qhead]
            qhead += 1
            for clause in implied[false_lit]:
                lit = clause[0]
                val = value[lit]
                if val is None:
                    value[lit] = True
                    value[-lit] = False
                    var = lit if lit > 0 else -lit
                    level[var] = lvl
                    reason[var] = clause
                    trail.append(lit)
                elif val is False:
                    self.qhead = len(trail)
                    return clause
            ws = watches[false_lit]
            if not ws:
                continue
            i = j = 0
            end = len(ws)
            while i < end:
                clause = ws[i]
                i += 1
                first = clause[0]
                if first == false_lit:
                    first = clause[1]
                    clause[0] = first
                    clause[1] = false_lit
                if value[first] is True:
                    ws[j] = clause
                    j += 1
                    continue
                for k in range(2, len(clause)):
                    lit = clause[k]
                    if value[lit] is not False:
                        clause[1] = lit
                        clause[k] = false_lit
                        watches[lit].append(clause)
                        break
                else:                     # unit or falsified
                    ws[j] = clause
                    j += 1
                    if value[first] is False:
                        del ws[j:i]
                        self.qhead = len(trail)
                        return clause
                    value[first] = True
                    value[-first] = False
                    var = first if first > 0 else -first
                    level[var] = lvl
                    reason[var] = clause
                    trail.append(first)
            del ws[j:]
        self.qhead = qhead
        return None

    def start(self, assumptions: Iterable[int] = ()) -> bool:
        """Assert the unit clauses and assumptions at the root and propagate
        them; on a conflict return False and keep the falsified clause, or
        [lit] for a literal already false, in `root_conflict`.  An empty
        input clause is a conflict at once, kept as []."""
        if self.empty:
            self.root_conflict = []
            return False
        for lit in chain(self.units, assumptions):
            if not self.assign(lit, None):
                self.root_conflict = [lit]
                return False
        self.root_conflict = self.propagate()
        return self.root_conflict is None

    def assume(self, lit: int) -> bool:
        """Open a decision level, assign lit and propagate; on a conflict
        return False and keep the falsified clause, or [lit] when lit was
        already false, in `conflict`."""
        self.trail_lim.append(len(self.trail))
        self.conflict = self.propagate() if self.assign(lit, None) else [lit]
        return self.conflict is None

    def reset(self) -> bool:
        """Undo every assignment above the root; False when the root itself
        conflicts.  Unlike `_backtrack` this touches values only, so it
        works before `solve` has run."""
        self.conflict = self.root_conflict
        if self.trail_lim:
            value, trail = self.value, self.trail
            start = self.trail_lim[0]
            for lit in trail[start:]:
                value[lit] = None
                value[-lit] = None
            del trail[start:]
            self.trail_lim.clear()
            self.qhead = start
        return self.conflict is None

    def solve(self, assumptions: Sequence[int]) -> bool:
        """Search for a model extending the unit clauses and assumptions."""
        if not self.start(assumptions):
            return False
        value = self.value
        occurring = set(map(abs, chain.from_iterable(self.long)))
        occurring.update(abs(c[0]) for ls in self.implied for c in ls)
        self.branch_vars = sorted(var for var in occurring if value[var] is None)
        size = len(self.level)
        self.activity = [0.0] * size
        self.phase = [True] * size
        self.seen = [False] * size
        self._rebuild_heap()
        return self._search()

    # -- decisions ---------------------------------------------------------

    def _rebuild_heap(self) -> None:
        value, activity = self.value, self.activity
        self.heap_key = heap_key = [None] * len(activity)
        self.heap = heap = []
        for var in self.branch_vars:
            if value[var] is None:
                heap_key[var] = -activity[var]
                heap.append((-activity[var], var))
        heapify(heap)

    def _next_decision(self) -> int:
        """The next decision literal, or 0 when every variable is assigned."""
        value, heap, heap_key = self.value, self.heap, self.heap_key
        while heap:
            key, var = heappop(heap)
            if key != heap_key[var]:
                continue                  # superseded by a later push
            heap_key[var] = None
            if value[var] is None:
                return var if self.phase[var] else -var
        return 0

    def _bump(self, var: int) -> None:
        activity = self.activity
        activity[var] += self.var_inc
        if activity[var] > 1e100:
            for v in range(len(activity)):
                activity[v] *= 1e-100
            self.var_inc *= 1e-100
            self._rebuild_heap()
        elif self.value[var] is None:
            self.heap_key[var] = key = -activity[var]
            heappush(self.heap, (key, var))
        else:
            self.heap_key[var] = None     # pushed again when unassigned

    # -- conflicts ---------------------------------------------------------

    def _analyze(self, conflict: list[int]) -> tuple[list[int], int]:
        """First-UIP learnt clause (asserting literal first) and the level
        to jump back to."""
        level, reason, trail, seen = self.level, self.reason, self.trail, self.seen
        bump = self._bump
        current = len(self.trail_lim)
        learnt = [0]
        pending = 0
        index = len(trail) - 1
        clause = conflict
        skip = 0
        while True:
            for lit in clause[skip:]:
                var = lit if lit > 0 else -lit
                if not seen[var] and level[var] > 0:
                    seen[var] = True
                    bump(var)
                    if level[var] >= current:
                        pending += 1
                    else:
                        learnt.append(lit)
            while not seen[abs(trail[index])]:
                index -= 1
            lit = trail[index]
            index -= 1
            var = lit if lit > 0 else -lit
            seen[var] = False
            pending -= 1
            if pending == 0:
                break
            clause = reason[var]
            skip = 1
        learnt[0] = -lit
        for lit in learnt[1:]:
            seen[abs(lit)] = False
        if len(learnt) == 1:
            return learnt, 0
        best = 1
        for i in range(2, len(learnt)):
            if level[abs(learnt[i])] > level[abs(learnt[best])]:
                best = i
        learnt[1], learnt[best] = learnt[best], learnt[1]
        return learnt, level[abs(learnt[1])]

    def _backtrack(self, to_level: int) -> None:
        if len(self.trail_lim) <= to_level:
            return
        value, phase, trail = self.value, self.phase, self.trail
        activity, heap, heap_key = self.activity, self.heap, self.heap_key
        start = self.trail_lim[to_level]
        for lit in trail[start:]:
            value[lit] = None
            value[-lit] = None
            var = lit if lit > 0 else -lit
            phase[var] = lit > 0
            key = -activity[var]
            if heap_key[var] != key:
                heap_key[var] = key
                heappush(heap, (key, var))
        del trail[start:]
        del self.trail_lim[to_level:]
        self.qhead = start

    def _search(self) -> bool:
        conflicts = 0
        restarts = 0
        restart_at = _RESTART_UNIT * _luby(0)
        while True:
            conflict = self.propagate()
            if conflict is not None:
                if not self.trail_lim:
                    return False
                conflicts += 1
                learnt, back = self._analyze(conflict)
                self._backtrack(back)
                self.var_inc /= _ACTIVITY_DECAY
                self.assign(learnt[0], self._attach(learnt) if len(learnt) > 1 else None)
                continue
            if conflicts >= restart_at:
                restarts += 1
                restart_at = conflicts + _RESTART_UNIT * _luby(restarts)
                self._backtrack(0)
                continue
            decision = self._next_decision()
            if decision == 0:
                return True
            self.trail_lim.append(len(self.trail))
            self.assign(decision, None)


# ---------------------------------------------------------------------------
# propagation-quality harnesses
# ---------------------------------------------------------------------------

class CheckReport:
    def __init__(self, passed: bool, detail: str = ""):
        self.passed = passed
        self.detail = detail


def check_arc_consistency(enc, k: int, scenario: Sequence[int],
                          extra: int | None = None,
                          prop: Propagator | None = None) -> CheckReport:
    """Drive the two halves of the arc-consistency property on one scenario.

    Phase 1 asserts the scenario's k input positions true one at a time,
    propagating after each; it passes when no conflict occurs and every other
    input literal has been propagated to false.  Phase 2 asserts one more
    input (extra, or the first non-member) and requires a conflict.
    """
    if len(scenario) != k:
        raise ValueError("scenario must list exactly k input positions")
    prop = prop or Propagator(enc.formula)
    core = prop.core
    if not core.reset():
        return CheckReport(False, "conflict at step 0")
    inputs = enc.input_lits
    for step, idx in enumerate(scenario):
        if not core.assume(_check_literal(inputs[idx], prop.num_vars)):
            return CheckReport(False, f"conflict at step {step}")
    value = core.value
    members = set(scenario)
    for idx, lit in enumerate(inputs):
        if idx not in members and value[lit] is not False:
            return CheckReport(False, f"input {idx} not propagated to 0")
    if extra is None:
        extra = next((i for i in range(len(inputs)) if i not in members), None)
        if extra is None:
            return CheckReport(True)
    if core.assume(_check_literal(inputs[extra], prop.num_vars)):
        return CheckReport(False, "no conflict on the (k+1)-th input")
    return CheckReport(True)


def check_forward_prop(enc, i: int, subset: Sequence[int],
                       prop: Propagator | None = None) -> CheckReport:
    """After asserting i input positions true, UP must have set y_1..y_i."""
    if len(subset) != i:
        raise ValueError("subset size must equal i")
    if i > len(enc.output_lits):
        raise ValueError("i exceeds the exposed outputs")
    prop = prop or Propagator(enc.formula)
    core = prop.core
    seeds = [_check_literal(enc.input_lits[idx], prop.num_vars) for idx in subset]
    conflict = not (core.reset() and all(map(core.assume, seeds)))
    if i <= enc.k:
        if conflict:
            return CheckReport(False, "unexpected conflict")
        for j in range(i):
            if core.value[enc.output_lits[j]] is not True:
                return CheckReport(False, f"output {j + 1} not set by UP")
        return CheckReport(True)
    # i == k+1: forward propagation reaches the asserted output, conflicting
    if not conflict:
        return CheckReport(False, "no conflict past the bound")
    return CheckReport(True)
