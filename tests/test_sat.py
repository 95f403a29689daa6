"""Unit propagation, the built-in CDCL solver, and the propagation harnesses."""

import gc
import random

import pytest

from cardnet.cnf import FALSE, TRUE, CnfFormula
from cardnet.encode import EncodeOptions, encode_atmost
from cardnet.sat import (Assignment, Propagator, _Search, check_arc_consistency,
                         check_forward_prop, dpll_sat, unit_propagate)

from conftest import formula_from_clauses, planted_binary_formula


def test_up_unit():
    f = formula_from_clauses(1, [(1,)])
    res = unit_propagate(f)
    assert res.status == "fixpoint"
    assert res.assignment.values == {1: True}


def test_up_chain():
    f = formula_from_clauses(3, [(-1, 2), (-2, 3)])
    res = unit_propagate(f, [1])
    assert res.status == "fixpoint"
    assert res.assignment.values == {1: True, 2: True, 3: True}


def test_up_conflict():
    f = formula_from_clauses(1, [(1,), (-1,)])
    res = unit_propagate(f)
    assert res.status == "conflict"
    assert res.conflict_clause is not None


def test_up_trail_is_deterministic():
    f = formula_from_clauses(4, [(-1, 2), (-1, 3), (-2, 4)])
    t1 = unit_propagate(f, [1]).assignment.trail
    t2 = unit_propagate(f, [1]).assignment.trail
    assert t1 == t2
    assert [v for v, _, _ in t1] == [1, 2, 3, 4]  # FIFO clause-scan order


def test_up_confluence_random_orders():
    rng = random.Random(3)
    for _ in range(40):
        n = rng.randint(3, 8)
        clauses = []
        for _ in range(rng.randint(2, 12)):
            clause = tuple({rng.choice([1, -1]) * rng.randint(1, n)
                            for _ in range(rng.randint(1, 3))})
            clauses.append(clause)
        f = formula_from_clauses(n, clauses)
        seeds = [v for v in range(1, n // 2 + 1)]
        results = set()
        for _ in range(5):
            rng.shuffle(seeds)
            res = unit_propagate(f, list(seeds))
            key = (res.status,
                   frozenset(res.assignment.values.items()) if res.status == "fixpoint" else None)
            results.add(key)
        assert len(results) == 1


@pytest.mark.parametrize("seed", [True, False, 0, 1.0, "1", TRUE, 4, -4])
def test_up_rejects_malformed_seeds(seed):
    # bools, 0 and non-ints are malformed; variable 4 is not allocated and
    # would alias another literal's slot in the core's signed-index arrays
    f = formula_from_clauses(3, [(-1, 2)])
    with pytest.raises(ValueError, match="malformed literal|unallocated"):
        unit_propagate(f, [1, seed])
    if seed is not TRUE and seed not in (4, -4):   # dpll_sat ignores TRUE, sizes to 4
        with pytest.raises(ValueError, match="malformed literal"):
            dpll_sat(f, [seed])


def test_up_rejects_unallocated_assignment():
    f = formula_from_clauses(3, [(-1, 2)])
    with pytest.raises(ValueError, match="unallocated"):
        Propagator(f).propagate(Assignment({4: True}))


def test_up_reasons_and_conflict_clauses():
    # root units first, then each seed and what it implies
    f = formula_from_clauses(4, [(3,), (-1, 2), (-2, -4)])
    res = unit_propagate(f, [1])
    assert res.assignment.trail == [(3, True, "propagated"), (1, True, "decision"),
                                    (2, True, "propagated"), (4, False, "propagated")]
    res = unit_propagate(f, [1, 4])
    assert res.status == "conflict" and res.conflict_clause == (4,)
    res = unit_propagate(formula_from_clauses(2, [(-1, 2), (-1, -2)]), [1])
    assert res.status == "conflict" and sorted(res.conflict_clause) == [-2, -1]
    assert unit_propagate(formula_from_clauses(2, [(1,), (-1,)])).conflict_clause == (-1,)
    g = formula_from_clauses(1, [(1,)])
    g.add_clause([FALSE])
    assert unit_propagate(g, [1]).conflict_clause == ()


def test_dpll_examples():
    f = formula_from_clauses(2, [(1, 2), (-1,)])
    status, model = dpll_sat(f)
    assert status == "SAT" and model[2] is True and model[1] is False
    f = formula_from_clauses(1, [(1,), (-1,)])
    assert dpll_sat(f)[0] == "UNSAT"


def test_dpll_core_takes_raw_clauses():
    # clauses handed over as parsed, past CnfFormula.add_clause: the core
    # itself treats an empty clause, a repeated literal and a tautology
    empty = CnfFormula(3, [(1, 2), ()])
    assert dpll_sat(empty) == ("UNSAT", None)
    assert Propagator(empty).propagate(Assignment()).status == "conflict"
    # (1 1) is the unit 1, (-2 -2 3 -2) the clause (-2 3)
    repeated = CnfFormula(4, [(1, 1), (-1, 2), (-2, -2, 3, -2)])
    assert dpll_sat(repeated) == ("SAT", {1: True, 2: True, 3: True})
    assert dpll_sat(repeated, [-3])[0] == "UNSAT"
    assert unit_propagate(repeated).assignment.values == {1: True, 2: True, 3: True}
    # a tautology constrains nothing, in a clause of two literals or more
    tautology = CnfFormula(4, [(1, -1), (2, -3, -2), (-1,), (3, 3)])
    status, model = dpll_sat(tautology)
    assert status == "SAT" and model[1] is False and model[3] is True
    assert dpll_sat(tautology, [2, -3])[0] == "UNSAT"
    assert dpll_sat(CnfFormula(2, [(1, -1)]), [-1])[0] == "SAT"


def test_dpll_model_satisfies():
    rng = random.Random(17)
    for _ in range(50):
        n = rng.randint(2, 10)
        clauses = [tuple({rng.choice([1, -1]) * rng.randint(1, n)
                          for _ in range(rng.randint(1, 4))})
                   for _ in range(rng.randint(1, 20))]
        f = formula_from_clauses(n, clauses)
        status, model = dpll_sat(f)
        if status == "SAT":
            assert all(any(model[abs(l)] == (l > 0) for l in c) for c in f.clauses)


def _mask_sat(n, clauses):
    """Exhaustive truth-table satisfiability via bit-parallel masks."""
    full = (1 << (1 << n)) - 1
    var_masks = []
    for i in range(n):
        m = 0
        for a in range(1 << n):
            if (a >> i) & 1:
                m |= 1 << a
        var_masks.append(m)
    acc = full
    for clause in clauses:
        cm = 0
        for l in clause:
            vm = var_masks[abs(l) - 1]
            cm |= vm if l > 0 else (~vm & full)
        acc &= cm
    return acc != 0


def _satisfies(model, clauses):
    return all(any(model[abs(l)] == (l > 0) for l in c) for c in clauses)


def test_dpll_agrees_with_truth_table():
    rng = random.Random(99)
    arng = random.Random(100)   # assumptions; rng draws the same formulas as before
    for trial in range(500):
        n = rng.randint(1, 18) if trial % 10 == 0 else rng.randint(1, 10)
        clauses = [tuple({rng.choice([1, -1]) * rng.randint(1, n)
                          for _ in range(rng.randint(1, 4))})
                   for _ in range(rng.randint(1, 2 * n + 4))]
        f = formula_from_clauses(n, clauses)
        assumptions = [arng.choice((TRUE, FALSE)) if arng.random() < 0.1
                       else arng.choice([1, -1]) * arng.randint(1, n)
                       for _ in range(arng.randint(0, 3) if trial % 2 else 0)]
        units = [(a,) for a in assumptions if a is not TRUE and a is not FALSE]
        want = ("UNSAT" if FALSE in assumptions
                else "SAT" if _mask_sat(n, f.clauses + units) else "UNSAT")
        status, model = dpll_sat(f, assumptions)
        assert status == want, (trial, assumptions)
        if status == "SAT":
            assert sorted(model) == list(range(1, f.next_var))
            assert _satisfies(model, f.clauses + units)
        else:
            assert model is None
        assert dpll_sat(f, assumptions) == (status, model)


def test_dpll_restarts_and_rescaling(monkeypatch):
    # tiny constants run every search path on formulas the truth table checks
    from cardnet import sat

    monkeypatch.setattr(sat, "_RESTART_UNIT", 1)
    monkeypatch.setattr(sat, "_ACTIVITY_DECAY", 1e-30)   # rescale every few conflicts
    calls = {"_luby": 0, "_rebuild_heap": 0}

    def counted(owner, name):
        method = getattr(owner, name)

        def wrapper(*args):
            calls[name] += 1
            return method(*args)
        monkeypatch.setattr(owner, name, wrapper)
    counted(sat, "_luby")
    counted(sat._Search, "_rebuild_heap")
    rng = random.Random(2024)
    trials = 150
    for _ in range(trials):
        n = rng.randint(8, 12)
        clauses = [tuple(v * rng.choice((1, -1)) for v in rng.sample(range(1, n + 1), 3))
                   for _ in range(round(4.3 * n))]
        f = formula_from_clauses(n, clauses)
        status, model = dpll_sat(f)
        assert status == ("SAT" if _mask_sat(n, f.clauses) else "UNSAT")
        if status == "SAT":
            assert _satisfies(model, f.clauses)
    # each search asks for one restart interval and builds its heap once;
    # more come from restarts and from rescaling
    assert calls["_luby"] > trials
    assert calls["_rebuild_heap"] > trials


def test_dpll_sparse_3000_variables():
    # one branching level per open variable: a recursive search needs
    # about 2600 frames here
    f = planted_binary_formula(3000, 1500, seed=4)
    status, model = dpll_sat(f)
    assert status == "SAT"
    assert sorted(model) == list(range(1, 3001))
    assert _satisfies(model, f.clauses)


def test_search_indexing_restores_the_collector_state():
    # the collector is paused while the core indexes its clauses
    collecting = gc.isenabled()
    try:
        for enabled in (True, False):
            (gc.enable if enabled else gc.disable)()
            _Search(3, [(1, 2), (1, -2, 3), (-3,)])
            assert gc.isenabled() is enabled
            with pytest.raises(TypeError):
                _Search(3, [(1, 2), None])
            assert gc.isenabled() is enabled
    finally:
        (gc.enable if collecting else gc.disable)()


def test_dpll_with_assumptions_on_encoding():
    f = CnfFormula()
    lits = f.fresh_vars(3)
    encode_atmost(f, lits, 1, EncodeOptions(method="oe4"))
    assert dpll_sat(f, [lits[0], lits[1]])[0] == "UNSAT"
    assert dpll_sat(f, [lits[0]])[0] == "SAT"


def test_ac_scenario_example():
    f = CnfFormula()
    lits = f.fresh_vars(5)
    enc = encode_atmost(f, lits, 2, EncodeOptions(method="oe4"))
    # asserting inputs 2 and 5 must drive 1, 3, 4 to false
    report = check_arc_consistency(enc, 2, (1, 4))
    assert report.passed
    prop = Propagator(f)
    res = prop.propagate(Assignment(), [lits[1]])
    res = prop.propagate(res.assignment, [lits[4]])
    assert all(res.assignment.lit_value(lits[i]) is False for i in (0, 2, 3))
    # phase 2 inside the harness asserts another input and expects conflict
    res = prop.propagate(res.assignment, [lits[0]])
    assert res.status == "conflict"


def test_ac_k0():
    f = CnfFormula()
    lits = f.fresh_vars(4)
    enc = encode_atmost(f, lits, 0, EncodeOptions(method="oe4"))
    assert check_arc_consistency(enc, 0, ()).passed


def test_forward_prop_examples():
    f = CnfFormula()
    lits = f.fresh_vars(5)
    enc = encode_atmost(f, lits, 2, EncodeOptions(method="oe4"))
    assert check_forward_prop(enc, 0, ()).passed
    assert check_forward_prop(enc, 1, (3,)).passed
    assert check_forward_prop(enc, 2, (0, 4)).passed
    assert check_forward_prop(enc, 3, (0, 2, 4)).passed  # k+1 ones: conflict


def test_seed_conflict_reported_at_step_zero():
    f = CnfFormula()
    lits = f.fresh_vars(2)
    f.add_clause([-lits[0]])
    f.add_clause([lits[0]])

    class FakeEnc:
        formula = f
        input_lits = tuple(lits)

    report = check_arc_consistency(FakeEnc(), 1, (1,))
    assert not report.passed
    assert "step 0" in report.detail
