"""External solver driver and the optimization loop."""

import random
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import cardnet.solve as solve
from cardnet.cnf import FALSE, TRUE, CnfFormula
from cardnet.pb import PbConstraint, PbProblem, _terms_value, encode_goal_bound, normalize_pb
from cardnet.sat import dpll_sat
from cardnet.solve import (MinimizeConfig, _linear, _relaxation, encode_problem, improve_model,
                           minimize, next_binary_bound, run_external_solver, solve_decision)

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


def test_run_external_solver_malformed_model_token(tmp_path):
    script = tmp_path / "fake_solver.py"
    script.write_text("print('s SATISFIABLE')\nprint('v 1 x2 0')\n")
    res = send(2, [(1,)], config=MinimizeConfig(solver_cmd=f"{sys.executable} {script} {{cnf}}"))
    assert res.status == "UNKNOWN"
    assert res.diagnostic == "unparseable solver output"


def test_run_external_solver_spawn_failure():
    res = send(1, [(1,)], config=MinimizeConfig(solver_cmd="/nonexistent/solver {cnf}"))
    assert res.status == "UNKNOWN"
    assert "spawn" in res.diagnostic


def test_run_external_solver_timeout():
    slow = f'{sys.executable} -c "import time; time.sleep(5)"'
    res = send(1, [(1,)], config=MinimizeConfig(solver_cmd=slow, time_limit=0.3))
    assert res.status == "UNKNOWN"
    assert "timeout" in res.diagnostic


@pytest.mark.parametrize("limit", [1e6, 1e10, 1e300])
def test_run_external_solver_takes_any_finite_time_limit(limit):
    # a limit past what the wait can take is no limit, not an OverflowError
    res = send(1, [(1,)], config=MinimizeConfig(solver_cmd=solver_cmd(), time_limit=limit))
    assert res.status == "SAT", res.diagnostic


@pytest.mark.parametrize("limit", [-1.0, 0.0, float("nan"), float("inf")])
def test_minimize_config_rejects_bad_time_limit(limit):
    with pytest.raises(ValueError, match="time limit"):
        cfg(time_limit=limit)


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


@pytest.mark.parametrize("strategy,gap,unit", [
    pytest.param(strategy, gap, unit, id=f"{strategy}-{gap}" + "-unit" * unit)
    for unit in (False, True)
    for strategy, gap in (("sequential", 96), ("binary", 96), ("binary", 1), ("binary", 2))])
def test_minimize_matches_brute_force(strategy, gap, unit):
    rng = random.Random(41 + gap + 100 * unit)
    for _ in range(8):
        n = rng.randint(2, 5)
        cons = []
        for _ in range(rng.randint(1, 3)):
            coeffs = [rng.randint(1, 9) for _ in range(n)]
            lits = [(i + 1) * rng.choice((1, -1)) for i in range(n)]
            cons.append(PbConstraint(tuple(zip(coeffs, lits)),
                                     rng.choice([">=", "<=", "="]),
                                     rng.randint(0, sum(coeffs))))
        if unit:    # all coefficients 1, over literals of either polarity
            obj = [(1, (i + 1) * rng.choice((1, -1))) for i in range(n)]
        else:
            obj = [(rng.randint(-5, 5), i + 1) for i in range(n)]
        prob = PbProblem(cons, obj, {f"x{i}": i for i in range(1, n + 1)})
        want = brute_force_optimum(cons, obj, n)
        res = minimize(prob, cfg=cfg(strategy=strategy, switch_gap=gap))
        if want is None:
            assert res.status == "INFEASIBLE"
        else:
            assert res.status == "OPTIMAL" and res.value == want
            assert _terms_value(obj, res.model) == res.value
            assert all(c.holds(res.model) for c in cons)


def knapsack(values, weights, capacity):
    n = len(values)
    return PbProblem([PbConstraint(tuple((w, i + 1) for i, w in enumerate(weights)),
                                   "<=", capacity)],
                     [(-v, i + 1) for i, v in enumerate(values)],
                     {f"x{i}": i for i in range(1, n + 1)})


@pytest.mark.parametrize("strategy,gap", [("sequential", 96), ("binary", 1)])
def test_minimize_sends_the_problem_plus_one_bound(monkeypatch, strategy, gap):
    # takes more than two calls under both strategies, so stacked bounds would show
    values = [10, 9, 9, 8, 7, 7, 6, 5, 5, 4]
    weights = [7, 6, 6, 5, 5, 4, 4, 3, 3, 2]
    prob = knapsack(values, weights, 20)
    sent = []       # (clauses, fixing units) of each call
    real = solve.run_external_solver

    def counting(cnf_text, extra_units, config, clauses):
        sent.append((list(clauses), list(extra_units)))
        return real(cnf_text, extra_units, config, clauses)

    monkeypatch.setattr(solve, "run_external_solver", counting)
    res = minimize(prob, cfg=cfg(strategy=strategy, switch_gap=gap))
    assert res.status == "OPTIMAL"
    assert res.value == brute_force_optimum(prob.constraints, prob.objective, len(values))
    assert len(sent) == res.sat_calls >= 3
    base = encode_problem(prob).formula
    assert (len(sent[0][0]), sent[0][1]) == (base.num_clauses, [])
    one_bound = 0
    for bound in range(-sum(values), 1):
        f = CnfFormula(base.next_var, list(base.clauses))
        encode_goal_bound(f, prob.objective, bound, None)
        one_bound = max(one_bound, f.num_clauses - base.num_clauses)
    assert all(len(clauses) <= base.num_clauses + one_bound for clauses, _ in sent[1:])
    for clauses, units in sent:     # each fixing unit is implied by the clauses sent
        num_vars = max(abs(lit) for clause in clauses for lit in clause)
        for unit in units:
            assert dpll_sat(formula_from_clauses(num_vars, clauses + [(-unit,)]))[0] == "UNSAT"


README_KNAPSACK = knapsack([3, 4, 5, 6], [2, 3, 4, 5], 5)     # LP bound -7, optimum -7
GAP_KNAPSACK = knapsack([3, 4, 5, 6], [3, 3, 2, 2], 5)        # LP bound -37/3, optimum -11


@pytest.mark.parametrize("strategy", ["sequential", "binary"])
def test_minimize_stops_when_the_incumbent_meets_the_relaxation(strategy):
    res = minimize(README_KNAPSACK, cfg=cfg(strategy=strategy))
    assert (res.status, res.value, res.lower_bound, res.sat_calls) == ("OPTIMAL", -7, -7, 1)


@pytest.mark.parametrize("strategy", ["sequential", "binary"])
def test_minimize_proves_past_a_relaxation_gap_by_unsat(monkeypatch, strategy):
    verdicts = []
    real = solve.run_external_solver

    def recording(*args):
        res = real(*args)
        verdicts.append(res.status)
        return res

    monkeypatch.setattr(solve, "run_external_solver", recording)
    res = minimize(GAP_KNAPSACK, cfg=cfg(strategy=strategy))
    assert (res.status, res.value, res.lower_bound) == ("OPTIMAL", -11, -11)
    assert brute_force_optimum(GAP_KNAPSACK.constraints, GAP_KNAPSACK.objective, 4) == -11
    assert verdicts[-1] == "UNSAT" and len(verdicts) == res.sat_calls


relax_lits = st.integers(1, 7).flatmap(lambda v: st.sampled_from((v, -v)))
relax_terms = st.lists(st.tuples(st.integers(-9, 9), relax_lits), min_size=1, max_size=8)


@settings(max_examples=300, deadline=None)
@given(objective=relax_terms, const=st.tuples(st.integers(-9, 9), st.sampled_from((TRUE, FALSE))),
       terms=relax_terms, rel=st.sampled_from(("<=", ">=", "=")), k=st.integers(-20, 30))
def test_relaxation_is_sound(objective, const, terms, rel, k):
    objective = objective + [const]
    models = [{v: bool((bits >> (v - 1)) & 1) for v in range(1, 8)} for bits in range(1 << 7)]
    for norm in normalize_pb(PbConstraint(tuple(terms), rel, k)):
        relaxed = _relaxation(_linear(objective), norm)
        values = [_terms_value(objective, m) for m in models if norm.holds(m)]
        if relaxed is None:     # only a constraint with no model is infeasible
            assert not values
            continue
        lp, den, reduced = relaxed
        if not values:
            continue
        optimum = min(values)
        assert -(-lp // den) <= optimum
        for bound in range(optimum, optimum + 4):
            fixed = [v if rc < 0 else -v for v, rc in reduced.items()
                     if lp + abs(rc) > (bound - 1) * den]
            for m in models:
                if norm.holds(m) and _terms_value(objective, m) <= bound - 1:
                    assert all(m[abs(lit)] == (lit > 0) for lit in fixed), (m, fixed)


def random_feasible_problem(rng):
    """(constraints, objective, model): model satisfies every constraint."""
    n = rng.randint(2, 7)
    model = {v: rng.random() < 0.5 for v in range(1, n + 1)}
    cons = []
    for _ in range(rng.randint(1, 3)):
        terms = tuple((rng.randint(1, 9), v * rng.choice((1, -1)))
                      for v in rng.sample(range(1, n + 1), rng.randint(1, n)))
        rel = rng.choice([">=", "<=", "="])
        slack = {"<=": rng.randint(0, 5), ">=": -rng.randint(0, 5), "=": 0}[rel]
        cons.append(PbConstraint(terms, rel, _terms_value(terms, model) + slack))
    obj = [(rng.randint(-6, 6), v * rng.choice((1, -1))) for v in range(1, n + 1)
           if rng.random() < 0.8]
    obj += [(rng.randint(-6, 6), rng.randint(1, n))]   # a variable may recur
    return cons, obj, model


def test_improve_model_descends_to_a_one_flip_local_optimum():
    # ... and to a pair-local one: no flip of one or two objective variables
    # keeps every constraint and lowers the objective
    rng = random.Random(7)
    for _ in range(300):
        cons, obj, model = random_feasible_problem(rng)
        before = dict(model)
        better = improve_model(cons, obj, model)
        assert model == before                          # the input is not changed
        assert improve_model(cons, obj, model) == better   # deterministic
        assert all(c.holds(better) for c in cons)
        value = _terms_value(obj, better)
        assert value <= _terms_value(obj, model)
        objective_vars = sorted({abs(lit) for _, lit in obj})
        for i, v in enumerate(objective_vars):
            for pair in [(v,)] + [(v, w) for w in objective_vars[i + 1:]]:
                flipped = {**better, **{x: not better[x] for x in pair}}
                assert not (all(c.holds(flipped) for c in cons)
                            and _terms_value(obj, flipped) < value), (cons, obj, pair)


def test_improve_model_visit_order_and_passes():
    # room for one of two items: the larger |coefficient| wins, a tie goes to x1
    cons = [PbConstraint(((1, 1), (1, 2)), "<=", 1)]
    assert improve_model(cons, [(-3, 1), (-5, 2)], {1: False, 2: False}) == {1: False, 2: True}
    assert improve_model(cons, [(-4, 2), (-4, 1)], {1: False, 2: False}) == {1: True, 2: False}
    # x2, the heavier objective term, may drop only after x1 has: x2 >= x1
    cons = [PbConstraint(((1, 2), (1, -1)), ">=", 1)]
    obj = [(1, 1), (5, 2)]
    assert improve_model(cons, obj, {1: True, 2: True}) == {1: False, 2: False}


def test_improve_model_swaps_past_a_one_flip_stall():
    # x1 and x2 fill the knapsack, so adding x3 alone breaks it; dropping
    # x2, the cheaper of the two, for x3 is the optimum
    prob = knapsack([4, 3, 6], [5, 5, 5], 10)
    start = {1: True, 2: True, 3: False}
    assert improve_model(prob.constraints, prob.objective, start) == {1: True, 2: False, 3: True}
    assert brute_force_optimum(prob.constraints, prob.objective, 3) == -10


def test_improve_model_on_a_1000_item_knapsack():
    rng = random.Random(5)
    values = [rng.randint(1, 1000) for _ in range(1000)]
    weights = [rng.randint(1, 1000) for _ in range(1000)]
    capacity = sum(weights) // 2
    prob = knapsack(values, weights, capacity)
    start, load = {v: False for v in range(1, 1001)}, 0
    for i in rng.sample(range(1000), 1000):     # a random fill
        if load + weights[i] <= capacity:
            start[i + 1], load = True, load + weights[i]
    one_flip = dict(start)      # the one-flip descent: add by decreasing value
    for i in sorted(range(1000), key=lambda i: (-values[i], i)):
        if not one_flip[i + 1] and load + weights[i] <= capacity:
            one_flip[i + 1], load = True, load + weights[i]
    better = improve_model(prob.constraints, prob.objective, start)
    assert all(c.holds(better) for c in prob.constraints)
    assert (_terms_value(prob.objective, better)
            <= _terms_value(prob.objective, one_flip))


def test_encode_problem_projects_input_vars():
    prob = PbProblem([PbConstraint(((2, 1), (3, 2)), ">=", 3)], None,
                     {"x1": 1, "x2": 2})
    enc = encode_problem(prob)
    assert enc.formula.num_vars >= 2
    status, model = dpll_sat(enc.formula)
    assert status == "SAT"
