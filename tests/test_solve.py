"""External solver driver and the optimization loop."""

import random
import sys

import pytest

from cardnet.pb import PbConstraint, PbProblem
from cardnet.sat import dpll_sat
from cardnet.solve import (MinimizeConfig, encode_problem, minimize,
                           next_binary_bound, run_external_solver, solve_decision)

from conftest import formula_from_clauses, solver_cmd


def cfg(**kw):
    kw.setdefault("solver_cmd", solver_cmd())
    return MinimizeConfig(**kw)


def send(num_vars, clauses, units=(), config=None):
    f = formula_from_clauses(num_vars, clauses)
    return run_external_solver(f.write_dimacs(), units, config or cfg(), f.dimacs_clauses)


def test_run_external_solver_sat():
    res = send(1, [(1,)])
    assert res.status == "SAT"
    assert res.model == {1: True}


def test_run_external_solver_unsat():
    res = send(1, [(1,), (-1,)])
    assert res.status == "UNSAT"


def test_run_external_solver_extra_units():
    res = send(2, [(1, 2)], [-1])
    assert res.status == "SAT" and res.model[2] is True and res.model[1] is False


def test_run_external_solver_rejects_lying_solver():
    lying = f'{sys.executable} -c "print(chr(115)+chr(32)+chr(83)+chr(65)+chr(84)+chr(73)+chr(83)+chr(70)+chr(73)+chr(65)+chr(66)+chr(76)+chr(69)); print(chr(118)+chr(32)+chr(45)+chr(49)+chr(32)+chr(48))"'
    res = send(1, [(1,)], config=MinimizeConfig(solver_cmd=lying))
    assert res.status == "UNKNOWN"
    assert "validation" in res.diagnostic
    res = send(1, [()], config=MinimizeConfig(solver_cmd=lying))   # written as 1 0 / -1 0
    assert res.status == "UNKNOWN"
    assert "validation" in res.diagnostic


def test_run_external_solver_unparseable():
    res = send(1, [(1,)], config=MinimizeConfig(solver_cmd=f'{sys.executable} -c "print(42)"'))
    assert res.status == "UNKNOWN"


def test_run_external_solver_spawn_failure():
    res = send(1, [(1,)], config=MinimizeConfig(solver_cmd="/nonexistent/solver {cnf}"))
    assert res.status == "UNKNOWN"
    assert "spawn" in res.diagnostic


def test_run_external_solver_timeout():
    slow = f'{sys.executable} -c "import time; time.sleep(5)"'
    res = send(1, [(1,)], config=MinimizeConfig(solver_cmd=slow, time_limit=0.3))
    assert res.status == "UNKNOWN"
    assert "timeout" in res.diagnostic


def test_solve_decision_examples():
    prob = PbProblem([PbConstraint(((1, 1), (1, 2)), "<=", 1),
                      PbConstraint(((1, 1), (1, 2)), ">=", 1)],
                     None, {"x1": 1, "x2": 2})
    res = solve_decision(prob, cfg=cfg())
    assert res.status == "SAT"
    assert sum(res.model.values()) == 1

    prob = PbProblem([PbConstraint(((1, 1), (1, 2)), ">=", 3)], None, {"x1": 1, "x2": 2})
    assert solve_decision(prob, cfg=cfg()).status == "UNSAT"


def test_solve_decision_agrees_with_dpll():
    rng = random.Random(13)
    for _ in range(15):
        n = rng.randint(2, 5)
        cons = []
        for _ in range(rng.randint(1, 3)):
            coeffs = [rng.randint(1, 8) for _ in range(n)]
            lits = [(i + 1) * rng.choice((1, -1)) for i in range(n)]
            cons.append(PbConstraint(tuple(zip(coeffs, lits)),
                                     rng.choice([">=", "<=", "="]),
                                     rng.randint(0, sum(coeffs))))
        prob = PbProblem(cons, None, {f"x{i}": i for i in range(1, n + 1)})
        got = solve_decision(prob, cfg=cfg()).status
        want = "SAT" if any(
            all(c.holds({v: bool((bits >> (v - 1)) & 1) for v in range(1, n + 1)})
                for c in cons)
            for bits in range(1 << n)) else "UNSAT"
        assert got == want


def test_next_binary_bound_formula():
    assert next_binary_bound(10, 0, 3) == 6
    assert next_binary_bound(10, 4, 3) == 8
    assert next_binary_bound(7, 0, 2) == 3


def test_minimize_trivial():
    prob = PbProblem([PbConstraint(((1, 1), (1, 2)), ">=", 1)],
                     [(1, 1), (1, 2)], {"x1": 1, "x2": 2})
    res = minimize(prob, cfg=cfg())
    assert res.status == "OPTIMAL" and res.value == 1


def test_minimize_infeasible():
    prob = PbProblem([PbConstraint(((1, 1),), ">=", 2)], [(1, 1)], {"x1": 1})
    assert minimize(prob, cfg=cfg()).status == "INFEASIBLE"


def brute_force_optimum(cons, obj, n):
    best = None
    for bits in range(1 << n):
        model = {v: bool((bits >> (v - 1)) & 1) for v in range(1, n + 1)}
        if all(c.holds(model) for c in cons):
            val = sum(a for a, l in obj
                      if (model[abs(l)] if l > 0 else not model[abs(l)]))
            best = val if best is None else min(best, val)
    return best


@pytest.mark.parametrize("strategy,gap", [("sequential", 96), ("binary", 96), ("binary", 1)])
def test_minimize_matches_brute_force(strategy, gap):
    rng = random.Random(41 + gap)
    for _ in range(8):
        n = rng.randint(2, 5)
        cons = []
        for _ in range(rng.randint(1, 3)):
            coeffs = [rng.randint(1, 9) for _ in range(n)]
            lits = [(i + 1) * rng.choice((1, -1)) for i in range(n)]
            cons.append(PbConstraint(tuple(zip(coeffs, lits)),
                                     rng.choice([">=", "<=", "="]),
                                     rng.randint(0, sum(coeffs))))
        obj = [(rng.randint(-5, 5), i + 1) for i in range(n)]
        prob = PbProblem(cons, obj, {f"x{i}": i for i in range(1, n + 1)})
        want = brute_force_optimum(cons, obj, n)
        res = minimize(prob, cfg=cfg(strategy=strategy, switch_gap=gap))
        if want is None:
            assert res.status == "INFEASIBLE"
        else:
            assert res.status == "OPTIMAL" and res.value == want
            assert all(c.holds(res.model) for c in cons)


def test_encode_problem_projects_input_vars():
    prob = PbProblem([PbConstraint(((2, 1), (3, 2)), ">=", 3)], None,
                     {"x1": 1, "x2": 2})
    enc = encode_problem(prob)
    assert enc.formula.num_vars >= 2
    status, model = dpll_sat(enc.formula)
    assert status == "SAT"
