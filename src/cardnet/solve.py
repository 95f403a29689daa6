"""Drive an external SAT solver over DIMACS files for decision and optimization.

External solvers are stateless across calls, so minimization encodes the
problem once and sends each call that base CNF plus the one objective bound
under test, f <= bound - 1: a tighter bound implies every earlier one, and a
disproved bound carries nothing the next call needs.  The bound comes from
binary halving of the open interval [lower, upper] while it is at least the
switch gap wide (binary strategy), and is the incumbent's value otherwise.
The lower end starts at the linear relaxation's bound, the best over the
source constraints of min f subject to that one constraint over [0,1]^n
(a fractional knapsack), and the run ends OPTIMAL when the incumbent meets
it or when UNSAT proves the incumbent's bound.  A bounded call also gets, as
unit clauses, the variables that reduced-cost fixing sets: those whose move
away from their relaxed value would lift the Lagrangian bound past
bound - 1.  Every model is checked against the source constraints and
improved before its value becomes the new upper bound, by a local search of
one-flip passes and pair moves that stops when no flip of one or two
objective variables lowers the objective: a solver call costs far more than
the search, and every point the search closes can save calls.
"""

from __future__ import annotations

import math
import shlex
import subprocess
import tempfile
import time
from dataclasses import dataclass
from itertools import chain
from pathlib import Path
from typing import Iterable, Sequence

from .cnf import TRUE, CnfFormula, Lit, is_const
from .encode import EncodeOptions
from .pb import (PbConstraint, PbProblem, _terms_value, encode_goal_bound, encode_pb,
                 normalize_pb)

# the longest timeout subprocess can wait: poll() takes it in milliseconds as
# a C int, and a longer timeout raises OverflowError
MAX_WAIT_S = (2 ** 31 - 1) / 1000


@dataclass
class SolverResult:
    status: str  # "SAT" | "UNSAT" | "UNKNOWN"
    model: dict[int, bool] | None = None
    wall_time: float = 0.0
    exit_code: int | None = None
    diagnostic: str = ""


@dataclass
class MinimizeConfig:
    strategy: str = "binary"     # "sequential" | "binary"
    q: int = 3
    switch_gap: int = 96
    solver_cmd: str = ""
    time_limit: float | None = None

    def __post_init__(self):
        if self.q < 2:
            raise ValueError("q must be at least 2")
        if self.switch_gap < 1:
            raise ValueError("switch gap must be at least 1")
        if self.strategy not in ("sequential", "binary"):
            raise ValueError(f"unknown strategy {self.strategy!r}")
        if self.time_limit is not None and not 0 < self.time_limit < math.inf:
            raise ValueError(f"time limit must be a positive finite number of seconds, "
                             f"not {self.time_limit}")
        try:
            words = shlex.split(self.solver_cmd)
        except ValueError as exc:
            raise ValueError(f"malformed solver command {self.solver_cmd!r}: {exc}") from None
        if not words:
            raise ValueError("the solver command is empty")

    @property
    def wait_limit(self) -> float | None:
        """The time limit as the solver's wait takes it.  A limit longer than
        that wait can take (MAX_WAIT_S, about 24.8 days) means no limit."""
        if self.time_limit is None or self.time_limit > MAX_WAIT_S:
            return None
        return self.time_limit


@dataclass
class MinimizeResult:
    """The outcome of `minimize`.  `lower_bound` is the proven lower bound:
    the linear relaxation's, or the last bound an UNSAT answer disproved."""
    status: str  # "OPTIMAL" | "INFEASIBLE" | "UNKNOWN"
    value: int | None = None
    model: dict[int, bool] | None = None
    lower_bound: int | None = None
    upper_bound: int | None = None
    sat_calls: int = 0
    diagnostic: str = ""         # why an UNKNOWN result gave up


def next_binary_bound(upper: int, lower: int, q: int) -> int:
    """Next strict bound tried by the binary strategy: floor((upper*(q-1) + lower) / q)."""
    return (upper * (q - 1) + lower) // q


def _model_satisfies(clauses: Iterable[Sequence[int]], model: dict[int, bool]) -> bool:
    truth = [False] * (2 * len(model) + 1)     # indexed by signed literal
    for var, val in model.items():
        truth[var] = val
        truth[-var] = not val
    lit_true = truth.__getitem__
    return all(any(map(lit_true, clause)) for clause in clauses)


def run_external_solver(cnf_text: str, extra_units: Sequence[Lit],
                        cfg: MinimizeConfig,
                        clauses: Sequence[tuple[int, ...]]) -> SolverResult:
    """Run the configured solver on the CNF plus extra unit clauses.

    `clauses` are the clauses cnf_text holds, as `CnfFormula.dimacs_clauses`
    gives them: the text is sent as it is, with a new header and the units
    appended.  Expects SAT-competition `s`/`v` output lines.  Output with no
    verdict or a malformed `v` token, and a claimed model that fails
    revalidation against `clauses` and the units, give UNKNOWN.
    """
    units = [(lit,) for lit in extra_units if not is_const(lit)]
    header, _, body = cnf_text.partition("\n")
    num_vars = max([int(header.split()[2]), *(abs(u[0]) for u in units)])
    text = "".join([f"p cnf {num_vars} {len(clauses) + len(units)}\n", body,
                    *(f"{u[0]} 0\n" for u in units)])
    started = time.monotonic()
    with tempfile.NamedTemporaryFile("w", suffix=".cnf", delete=False) as handle:
        handle.write(text)
        path = handle.name
    try:
        cmd = [part.replace("{cnf}", path) for part in shlex.split(cfg.solver_cmd)]
        try:
            proc = subprocess.run(cmd, stdin=subprocess.DEVNULL, capture_output=True,
                                  text=True, timeout=cfg.wait_limit)
        except subprocess.TimeoutExpired:
            return SolverResult("UNKNOWN", diagnostic="solver timeout",
                                wall_time=time.monotonic() - started)
        except OSError as exc:
            return SolverResult("UNKNOWN", diagnostic=f"spawn failure: {exc}",
                                wall_time=time.monotonic() - started)
        elapsed = time.monotonic() - started
        status = None
        values: list[int] = []
        try:
            for line in proc.stdout.splitlines():
                if line.startswith("s "):
                    verdict = line[2:].strip()
                    if verdict == "SATISFIABLE":
                        status = "SAT"
                    elif verdict == "UNSATISFIABLE":
                        status = "UNSAT"
                elif line.startswith("v "):
                    values.extend(map(int, line[2:].split()))
        except ValueError:      # a malformed v token
            status = None
        if status is None:
            return SolverResult("UNKNOWN", wall_time=elapsed,
                                exit_code=proc.returncode,
                                diagnostic="unparseable solver output")
        if status == "UNSAT":
            return SolverResult("UNSAT", wall_time=elapsed, exit_code=proc.returncode)
        model = {v: False for v in range(1, num_vars + 1)}
        for lit in values:
            if lit != 0 and abs(lit) <= num_vars:
                model[abs(lit)] = lit > 0
        if not _model_satisfies(chain(clauses, units), model):
            return SolverResult("UNKNOWN", wall_time=elapsed,
                                exit_code=proc.returncode,
                                diagnostic="solver model fails validation")
        return SolverResult("SAT", model=model, wall_time=elapsed,
                            exit_code=proc.returncode)
    finally:
        Path(path).unlink(missing_ok=True)


@dataclass
class _EncodedProblem:
    formula: CnfFormula
    constraints: list[PbConstraint]
    objective: list[tuple[int, Lit]] | None


def encode_problem(problem: PbProblem, opts: EncodeOptions | None = None) -> _EncodedProblem:
    """Encode all constraints of a problem into one formula whose variables
    1..num_vars are the problem variables."""
    opts = opts or EncodeOptions()
    formula = CnfFormula()
    formula.fresh_vars(problem.num_vars)
    for c in problem.constraints:
        for norm in normalize_pb(c):
            encode_pb(formula, norm, opts=opts)
    return _EncodedProblem(formula, list(problem.constraints), problem.objective)


def _check_model(constraints: Sequence[PbConstraint], model: dict[int, bool]) -> bool:
    return all(c.holds(model) for c in constraints)


def solve_decision(problem, opts: EncodeOptions | None = None,
                   cfg: MinimizeConfig | None = None) -> SolverResult:
    """Encode and solve a decision problem (PB or CNF-plus-cardinality); a
    model is revalidated against the original constraints arithmetically."""
    cfg = cfg or MinimizeConfig()
    if hasattr(problem, "card_lines"):
        from .cnfp import encode_cnfp

        formula = encode_cnfp(problem, opts)
        num_vars = problem.num_vars
        validate = problem.model_ok
    else:
        if problem.objective is not None:
            raise ValueError("decision solving expects no objective")
        enc = encode_problem(problem, opts)
        formula = enc.formula
        num_vars = problem.num_vars
        validate = lambda model: _check_model(enc.constraints, model)
    result = run_external_solver(formula.write_dimacs(), (), cfg,
                                 formula.dimacs_clauses)
    if result.status == "SAT":
        assert result.model is not None
        projected = {v: result.model.get(v, False) for v in range(1, num_vars + 1)}
        if not validate(projected):
            return SolverResult("UNKNOWN", diagnostic="model violates source constraints",
                                wall_time=result.wall_time, exit_code=result.exit_code)
        result.model = projected
    return result


def _linear(terms: Iterable[tuple[int, Lit]]) -> tuple[int, dict[int, int]]:
    """(const, coeffs) with sum(terms) = const + sum(coeffs[v] * x_v) over 0/1 x_v:
    a negated literal a*~x_v adds a to const and -a to coeffs[v]."""
    const, coeffs = 0, {}
    for a, lit in terms:
        if is_const(lit):
            const += a if lit is TRUE else 0
        else:
            if lit < 0:
                const += a
                a = -a
            coeffs[abs(lit)] = coeffs.get(abs(lit), 0) + a
    return const, coeffs


def _relaxation(objective: tuple[int, dict[int, int]],
                c: PbConstraint) -> tuple[int, int, dict[int, int]] | None:
    """The linear relaxation of min f(x) over x in [0,1]^n subject to the one
    normalized constraint c alone, by the greedy fractional-knapsack rule
    (Dantzig 1957); `objective` is f as `_linear` gives it.

    Every variable starts at its objective-optimal value (a zero-cost one at
    the value that helps c); if c is then short, the variables whose move
    helps c are moved by increasing cost per unit of c's sum until c holds,
    the last one possibly fractionally, and the multiplier lambda of c is
    that last variable's cost ratio (0 if c held at the start).  Returns
    (lp, den, reduced) in exact integers: the relaxation's value is lp/den,
    and the reduced cost g_v - lambda*a_v of each variable with objective
    coefficient g_v and constraint coefficient a_v is reduced[v]/den (zero
    ones omitted); None when c has no model even in [0,1]^n.  For every 0/1
    model x of c, f(x) >= lp/den, and f(x) >= (lp + |reduced[v]|)/den when
    x_v differs from its relaxed value, 1 if reduced[v] < 0 and 0 if
    reduced[v] > 0 (the Lagrangian bound with multiplier lambda)."""
    from functools import cmp_to_key

    value, gain = objective
    const, weight = _linear(c.terms)
    lack = c.k - const          # c is sum(weight[v] * x_v) >= lack
    value += sum(min(g, 0) for g in gain.values())
    for v, a in weight.items():
        g = gain.get(v, 0)
        if g < 0 or (g == 0 and a > 0):     # starts at 1
            lack -= a
    num, den = 0, 1             # lambda = num / den
    if lack > 0:
        # (cost, help) of each move that helps c: a zero-to-one move with
        # g, a > 0 or a one-to-zero move with g, a < 0
        moves = sorted(((abs(gain[v]), abs(a)) for v, a in weight.items()
                        if gain.get(v, 0) * a > 0),
                       key=cmp_to_key(lambda p, q: p[0] * q[1] - q[0] * p[1]))
        for g, a in moves:
            num, den = g, a
            if a >= lack:
                break
            value += g
            lack -= a
        else:
            return None
        value = value * den + num * lack
    reduced = {}
    for v in gain.keys() | weight.keys():
        rc = gain.get(v, 0) * den - num * weight.get(v, 0)
        if rc:
            reduced[v] = rc
    return value, den, reduced


def improve_model(constraints: Sequence[PbConstraint], objective: Sequence[tuple[int, Lit]],
                  model: dict[int, bool]) -> dict[int, bool]:
    """Local search by single flips and pair moves from a model that
    satisfies every constraint.

    A one-flip descent visits the objective variables by decreasing |net
    coefficient|, ties by variable, and sets each to its objective-lowering
    value when every constraint still holds; passes repeat until none flips.
    At that point every flip that would lower the objective breaks some
    constraint, so a pair move flips such a variable u together with another
    objective variable w that occurs in the first constraint u alone breaks.
    The u are visited by decreasing gain, ties by variable; for each, the w
    are scanned by increasing objective cost, ties by variable, until the
    cost reaches u's gain, and the first pair that keeps every constraint is
    taken.  The descent then runs again, until neither kind of move lowers
    the objective; every move lowers it, so the search ends.  The result
    satisfies every constraint, has no larger objective value, and no flip
    of one or two objective variables lowers it further."""
    from bisect import bisect_left, insort

    _, gain = _linear(objective)        # objective change when the variable turns true
    occurs: dict[int, dict[int, int]] = {v: {} for v in gain}   # var -> {constraint: delta}
    for ci, c in enumerate(constraints):
        for a, lit in c.terms:
            if not is_const(lit) and abs(lit) in occurs:
                deltas = occurs[abs(lit)]
                deltas[ci] = deltas.get(ci, 0) + (a if lit > 0 else -a)
    inf = float("inf")
    ranges = [(c.k if c.rel != "<=" else -inf, c.k if c.rel != ">=" else inf)
              for c in constraints]
    sums = [c.value(model) for c in constraints]
    model = dict(model)
    order = sorted((v for v, g in gain.items() if g), key=lambda v: (-abs(gain[v]), v))

    def cost(v: int) -> int:            # objective change when v flips
        return -gain[v] if model[v] else gain[v]

    def shift(v: int) -> dict[int, int]:    # constraint sum changes when v flips
        sign = -1 if model[v] else 1
        return {ci: sign * d for ci, d in occurs[v].items() if d}

    def broken(moves: dict[int, int]) -> list[int]:     # constraints the changes break
        return [ci for ci, d in moves.items()
                if not ranges[ci][0] <= sums[ci] + d <= ranges[ci][1]]

    # per constraint and direction (True: down), the objective variables
    # whose flip moves its sum that way, as (cost, variable, change), by
    # increasing cost, ties by variable; a flip re-keys the flipped one's entries
    repairs: dict[tuple[int, bool], list[tuple[int, int, int]]] = {}
    for w in gain:
        for ci, d in shift(w).items():
            repairs.setdefault((ci, d < 0), []).append((cost(w), w, d))
    for candidates in repairs.values():
        candidates.sort()

    def flip(v: int, moves: dict[int, int]) -> None:    # moves is shift(v)
        c = cost(v)
        for ci, d in moves.items():
            sums[ci] += d
            candidates = repairs[ci, d < 0]
            del candidates[bisect_left(candidates, (c, v, d))]
            insort(repairs.setdefault((ci, d > 0), []), (-c, v, -d))
        model[v] = not model[v]

    def pair_move() -> bool:
        for u in order:
            gain_u = -cost(u)
            if gain_u <= 0:
                continue
            moves_u = shift(u)
            b = broken(moves_u)[0]      # non-empty, or the descent would have flipped u
            lo, hi = (end - sums[b] - moves_u[b] for end in ranges[b])
            # the repairs move b's sum against u's move, so they exclude u
            for c, w, d in repairs.get((b, moves_u[b] > 0), ()):
                if c >= gain_u:
                    break
                if lo <= d <= hi:
                    moves_w = shift(w)
                    joint = dict(moves_u)
                    for ci, dw in moves_w.items():
                        joint[ci] = joint.get(ci, 0) + dw
                    if not broken(joint):
                        flip(u, moves_u)
                        flip(w, moves_w)
                        return True
        return False

    while True:
        flipped = True
        while flipped:
            flipped = False
            for v in order:
                if cost(v) < 0:
                    moves = shift(v)
                    if not broken(moves):
                        flip(v, moves)
                        flipped = True
        if not pair_move():
            return model


def minimize(problem: PbProblem, opts: EncodeOptions | None = None,
             cfg: MinimizeConfig | None = None) -> MinimizeResult:
    """Minimize the objective with binary bound halving then sequential
    re-solving, from the linear relaxation's lower bound; returns the proven
    optimum and a validated witness.  The optimum is proven when the best
    value meets the lower bound: the relaxation's, or the last B whose
    f <= B - 1 the solver answered UNSAT.  A bounded call sends the
    reduced-cost fixing units with its CNF."""
    if problem.objective is None:
        raise ValueError("minimize needs an objective")
    opts = opts or EncodeOptions()
    cfg = cfg or MinimizeConfig()
    enc = encode_problem(problem, opts)
    base = enc.formula
    objective = list(problem.objective)
    form = _linear(objective)
    relaxations = [r for c in enc.constraints for norm in normalize_pb(c)
                   if (r := _relaxation(form, norm)) is not None]
    # every model's value is >= lower
    lower = max([sum(a for a, _ in objective if a < 0),
                 *(-(-lp // den) for lp, den, _ in relaxations)])
    upper = best_model = bound = None
    sat_calls = 0

    def result(status: str, diagnostic: str = "") -> MinimizeResult:
        return MinimizeResult(status, value=upper, model=best_model, lower_bound=lower,
                              upper_bound=upper, sat_calls=sat_calls, diagnostic=diagnostic)

    while upper is None or upper > lower:
        formula, fixed = base, set()
        if upper is not None:
            bound = upper
            if cfg.strategy == "binary" and upper - lower >= cfg.switch_gap:
                bound = max(next_binary_bound(upper, lower, cfg.q), lower + 1)
            formula = base.copy()
            encode_goal_bound(formula, objective, bound, None, opts)
            # reduced-cost fixing: a variable away from its relaxed value
            # would lift the bound past bound - 1
            for lp, den, reduced in relaxations:
                for v, rc in reduced.items():
                    if lp + abs(rc) > (bound - 1) * den:
                        fixed.add(v if rc < 0 else -v)
        sat_calls += 1
        res = run_external_solver(formula.write_dimacs(), sorted(fixed, key=abs), cfg,
                                  formula.dimacs_clauses)
        if res.status == "UNSAT":
            if upper is None:
                return MinimizeResult("INFEASIBLE", sat_calls=sat_calls)
            lower = bound
            continue
        if res.status != "SAT":
            return result("UNKNOWN", res.diagnostic)
        model = {v: res.model.get(v, False) for v in range(1, problem.num_vars + 1)}
        if not _check_model(enc.constraints, model):
            return result("UNKNOWN", "model violates source constraints")
        if upper is not None and _terms_value(objective, model) >= bound:
            return result("UNKNOWN", "model does not beat the bound")
        best_model = improve_model(enc.constraints, objective, model)
        upper = _terms_value(objective, best_model)

    if not _check_model(enc.constraints, best_model):
        return result("UNKNOWN", "model violates source constraints")
    return result("OPTIMAL")
