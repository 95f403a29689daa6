"""OPB parsing, base search, digit planning, and the PB encoding chain."""

import random
from unittest import mock

import pytest

from cardnet import pb
from cardnet.cnf import FALSE, TRUE, CnfFormula
from cardnet.encode import (METHODS, NETWORK_METHODS, CardConstraint, EncodeOptions,
                            emit_network, encode_cards)
from cardnet.pb import (MixedRadixBase, PbConstraint, PbProblem, PbSyntaxError, base_cost,
                        encode_goal_bound, encode_pb, find_base,
                        normalize_pb, parse_opb, plan_digits, simplify_rhs,
                        to_digits, value_of)
from cardnet.sat import Assignment, Propagator, dpll_sat
from cardnet.solve import encode_problem

PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47)


def test_parse_opb_objective_and_constraints():
    text = "min: +1 x1 +2 x2 ;\n+2 x1 +3 x2 +5 x3 >= 6 ;\n"
    p = parse_opb(text)
    assert p.objective == [(1, 1), (2, 2)]
    assert len(p.constraints) == 1
    c = p.constraints[0]
    assert c.terms == ((2, 1), (3, 2), (5, 3)) and c.rel == ">=" and c.k == 6


def test_parse_opb_examples():
    p = parse_opb("+5 x1 +7 x2 >= 9 ;\n")
    assert p.constraints[0].terms == ((5, 1), (7, 2)) and p.constraints[0].k == 9
    p = parse_opb("* a comment\n+1 x1 -1 x2 <= 0 ;\n")
    assert p.constraints[0].terms == ((1, 1), (-1, 2))
    assert p.constraints[0].rel == "<="


def test_parse_opb_errors_are_positional():
    with pytest.raises(PbSyntaxError) as err:
        parse_opb("+1 x1 >= 1 ;\n+1 x1 >= 1\n")
    assert err.value.line == 2
    with pytest.raises(PbSyntaxError):
        parse_opb("+1 x1 x2 >= 1 ;\n")  # nonlinear product
    with pytest.raises(PbSyntaxError):
        parse_opb(f"+{2**63} x1 >= 1 ;\n")


def test_normalize_pb_examples():
    out = normalize_pb(PbConstraint(((1, 1), (-1, 2)), "<=", 0))
    assert out == [PbConstraint(((1, -1), (1, 2)), ">=", 1)]

    out = normalize_pb(PbConstraint(((2, 1), (3, 2), (5, 3)), "<=", 6))
    (c,) = out
    assert c.rel == ">=" and c.k == 4
    assert sorted(c.terms) == [(2, -1), (3, -2), (5, -3)]

    out = normalize_pb(PbConstraint(((2, 1), (3, 2)), ">=", 4))
    assert out == [PbConstraint(((3, 2), (2, 1)), ">=", 4)] or \
        out[0].rel == ">=" and set(out[0].terms) == {(2, 1), (3, 2)} and out[0].k == 4

    assert normalize_pb(PbConstraint(((2, 1),), ">=", 0)) == []
    eq = normalize_pb(PbConstraint(((1, 1), (1, 2)), "=", 1))
    assert len(eq) == 2


def test_normalize_pb_merges_duplicates():
    (c,) = normalize_pb(PbConstraint(((2, 1), (3, 1), (1, 2)), ">=", 4))
    assert dict((abs(l), a) for a, l in c.terms) == {1: 5, 2: 1}


def test_normalize_pb_merges_complementary_terms():
    # 3 x + 2 ~x is 2 + x, and 3 x + 3 ~x is the constant 3
    (c,) = normalize_pb(PbConstraint(((3, 1), (2, -1), (1, 2)), ">=", 4))
    assert c.terms == ((1, 1), (1, 2)) and c.k == 2
    assert normalize_pb(PbConstraint(((3, 1), (3, -1)), ">=", 3)) == []


def test_normalize_pb_truth_table_equivalence():
    rng = random.Random(23)
    for _ in range(120):
        n = rng.randint(1, 4)
        terms = tuple((rng.randint(-6, 6), rng.choice([1, -1]) * rng.randint(1, n))
                      for _ in range(rng.randint(1, 5)))
        rel = rng.choice([">=", "<=", "="])
        k = rng.randint(-8, 12)
        c = PbConstraint(terms, rel, k)
        norm = normalize_pb(c)
        for bits in range(1 << n):
            model = {v: bool((bits >> (v - 1)) & 1) for v in range(1, n + 1)}
            assert c.holds(model) == all(nc.holds(model) for nc in norm)


def test_digits_worked_example():
    base = MixedRadixBase((3, 5))
    assert to_digits(164, base) == [2, 4, 10]
    assert value_of([2, 4, 10], base) == 164
    assert to_digits(0, base) == [0, 0, 0]


def test_digits_round_trip_random():
    rng = random.Random(4)
    for _ in range(300):
        radices = tuple(rng.choice(PRIMES) for _ in range(rng.randint(0, 4)))
        base = MixedRadixBase(radices)
        v = rng.randrange(10 ** 6)
        digits = to_digits(v, base)
        assert value_of(digits, base) == v
        assert all(0 <= d < r for d, r in zip(digits, radices))


def test_find_base_worked_example():
    coeffs = [2, 2, 2, 2, 5, 18]
    base = find_base(coeffs)
    assert base_cost(coeffs, base) <= 8
    assert base_cost(coeffs, MixedRadixBase((2, 3, 3))) == 8


def test_find_base_unary_when_all_ones():
    assert find_base([1, 1, 1]).radices == ()


def exhaustive_best_cost(coeffs):
    # every prime sequence whose weights stay within the largest coefficient
    best = sum(coeffs)
    stack = [((), 1)]
    while stack:
        radices, w = stack.pop()
        best = min(best, base_cost(coeffs, MixedRadixBase(radices)))
        for p in PRIMES:
            if w * p <= max(coeffs):
                stack.append((radices + (p,), w * p))
    return best


def test_find_base_matches_exhaustive():
    rng = random.Random(31)
    for _ in range(50):
        coeffs = [rng.randint(1, 60) for _ in range(rng.randint(1, 7))]
        assert base_cost(coeffs, find_base(coeffs)) == exhaustive_best_cost(coeffs)


def test_simplify_rhs_examples():
    base = MixedRadixBase((2, 2))
    c = PbConstraint(((5, 1), (7, 2)), ">=", 9)
    assert simplify_rhs(c, base) == (3, 12)
    # the non-minimal variant (add 7, bound 16) is also an exact multiple
    assert (9 + 7) % base.weights[-1] == 0
    c0 = PbConstraint(((5, 1), (7, 2)), ">=", 8)
    assert simplify_rhs(c0, base) == (0, 8)


def test_plan_digit_decomposition():
    # coefficient spread over weights (1, 2, 6, 18)
    c = PbConstraint(((2, 1), (2, 2), (2, 3), (2, 4), (5, 5), (18, 6)), ">=", 23)
    plan = plan_digits(c, MixedRadixBase((2, 3, 3)))
    nonconst = [[(l, m) for l, m in pos.bundles if l is not TRUE]
                for pos in plan.positions]
    assert nonconst[0] == [(5, 1)]
    assert nonconst[1] == [(1, 1), (2, 1), (3, 1), (4, 1), (5, 2)]
    assert nonconst[2] == []
    assert nonconst[3] == [(6, 1)]
    # digit accounting: weights times multiplicities rebuild the coefficients
    total = sum(pos.weight * sum(m for l, m in pos.bundles if l is not TRUE)
                for pos in plan.positions)
    assert total == 2 + 2 + 2 + 2 + 5 + 18
    with_const = sum(pos.weight * sum(m for _, m in pos.bundles)
                     for pos in plan.positions)
    assert with_const == total + plan.const_add


def test_plan_digit_accounting_random():
    rng = random.Random(61)
    for _ in range(80):
        n = rng.randint(1, 6)
        terms = tuple((rng.randint(1, 200), i + 1) for i in range(n))
        k = rng.randint(1, sum(a for a, _ in terms))
        c = PbConstraint(terms, ">=", k)
        base = find_base([a for a, _ in terms])
        if not base.radices:
            continue
        plan = plan_digits(c, base)
        total = sum(pos.weight * sum(m for _, m in pos.bundles)
                    for pos in plan.positions)
        assert total == sum(a for a, _ in terms) + plan.const_add
        assert plan.adjusted_k % base.weights[-1] == 0


def test_feasible_bound_reaches_the_top_position():
    # once sum(coeffs) >= k, the top position can reach the asserted output:
    # its max_inputs, floor((sum + const_add) / w_top), is at least
    # assert_index, and the carry chain has exactly t_outputs = assert_index
    # outputs.  Optimal and random bases, random coefficients and bounds
    rng = random.Random(25)
    for case in range(300):
        terms = tuple((rng.randint(1, rng.choice((10, 100))), i + 1)
                      for i in range(rng.randint(2, 8)))
        total = sum(a for a, _ in terms)
        k = rng.randint(1, total)
        base = (find_base([a for a, _ in terms]) if case % 2 else
                MixedRadixBase(tuple(rng.choice(PRIMES[:5]) for _ in range(rng.randint(1, 4)))))
        plan = plan_digits(PbConstraint(terms, ">=", k), base)
        top = plan.positions[-1]
        assert top.max_inputs == (total + plan.const_add) // base.weights[-1], (terms, k, base)
        assert top.max_inputs >= plan.assert_index == top.t_outputs, (terms, k, base)
        net, _ = pb._digit_chain(plan, EncodeOptions())
        assert len(net.outputs) == plan.assert_index, (terms, k, base)


def test_encode_pb_folds_the_assertion():
    # 5 x1 + 7 x2 >= 9 asserts the third top output, which the fold makes
    # TRUE with no unit of its own; propagating it reaches both inputs, whose
    # units are the clauses that fixed them
    f = CnfFormula()
    f.fresh_vars(2)
    c = PbConstraint(((5, 1), (7, 2)), ">=", 9)
    enc = encode_pb(f, c, MixedRadixBase((2, 2)))
    assert enc.output_lits == ()
    assert [cl for cl in f.clauses if len(cl) == 1] == [(1,), (2,)]
    assert f.num_vars == 5 and f.num_clauses == 7  # 3 aux
    for bits in range(4):
        model = {1: bool(bits & 1), 2: bool(bits & 2)}
        fixing = [v if model[v] else -v for v in (1, 2)]
        want = "SAT" if c.holds(model) else "UNSAT"
        assert dpll_sat(f, fixing)[0] == want


def test_encode_pb_cardinality_degenerates_to_atmost():
    f = CnfFormula()
    f.fresh_vars(3)
    c = PbConstraint(((1, 1), (1, 2), (1, 3)), ">=", 2)
    encode_pb(f, c, MixedRadixBase(()))
    for bits in range(8):
        model = {v: bool((bits >> (v - 1)) & 1) for v in (1, 2, 3)}
        fixing = [v if model[v] else -v for v in (1, 2, 3)]
        assert dpll_sat(f, fixing)[0] == ("SAT" if c.holds(model) else "UNSAT")


def test_encode_pb_infeasible_bound():
    f = CnfFormula()
    f.fresh_vars(2)
    encode_pb(f, PbConstraint(((2, 1), (3, 2)), ">=", 6))
    assert f.trivially_unsat


def test_carry_chain_counts_floor_quotient():
    # the chain's j-th top-position output can be true exactly when
    # floor((value+const)/w) reaches j: the carry chain computes the exact
    # quotient.  encode_pb reads only its asserted output, so the chain is
    # emitted here in the same polarity, unasserted, reading every output.
    c = PbConstraint(((3, 1), (5, 2), (6, 3)), ">=", 7)
    base = find_base([3, 5, 6])
    plan = plan_digits(c, base)
    net, in_lits = pb._digit_chain(plan, EncodeOptions())
    f = CnfFormula()
    f.fresh_vars(3)
    outs = emit_network(f, net, in_lits, "atleast")
    assert len(outs) >= plan.assert_index
    w_last = base.weights[-1]
    for bits in range(8):
        model = {v: bool((bits >> (v - 1)) & 1) for v in (1, 2, 3)}
        value = c.value(model) + plan.const_add
        fixing = [v if model[v] else -v for v in (1, 2, 3)]
        for j, out in enumerate(outs, start=1):
            want = value // w_last >= j
            if out is TRUE or out is FALSE:
                assert (out is TRUE) == want, (bits, j)
            else:
                assert (dpll_sat(f, fixing + [out])[0] == "SAT") == want, (bits, j)


def test_random_pb_equisat():
    rng = random.Random(7)
    for _ in range(60):
        n = rng.randint(1, 6)
        coeffs = [rng.randint(1, 20) for _ in range(n)]
        lits = [(i + 1) * rng.choice((1, -1)) for i in range(n)]
        k = rng.randint(1, sum(coeffs))
        c = PbConstraint(tuple(zip(coeffs, lits)), ">=", k)
        f = CnfFormula()
        f.fresh_vars(n)
        for norm in normalize_pb(c):
            encode_pb(f, norm)
        for bits in range(1 << n):
            model = {v: bool((bits >> (v - 1)) & 1) for v in range(1, n + 1)}
            fixing = [v if model[v] else -v for v in range(1, n + 1)]
            assert dpll_sat(f, fixing)[0] == ("SAT" if c.holds(model) else "UNSAT")


def test_goal_bound_flagged():
    f = CnfFormula()
    x1, x2 = f.fresh_vars(2)
    flag = f.fresh_var()
    encode_goal_bound(f, [(1, x1), (1, x2)], 2, flag)
    # with the flag on, x1 + x2 <= 1
    assert dpll_sat(f, [flag, x1, x2])[0] == "UNSAT"
    assert dpll_sat(f, [flag, x1, -x2])[0] == "SAT"
    # with the flag off the bound is vacuous
    assert dpll_sat(f, [-flag, x1, x2])[0] == "SAT"


def _goal_objectives(method):
    """(coefficients, bound) of unit, negative, weighted and impossible
    objectives; weighted ones need a selection network, unit ones run
    everywhere."""
    objectives = [((1,) * 12, 5), ((1, 1, -1, 1, 1, 1, -1, 1), 3)]
    if method in NETWORK_METHODS:
        objectives += [((3, 5, -2, 7, 4, 6, 1, -4, 9, 2, 8, 5), 14),
                       ((1, 2, 3, 1, 2, 3, 5, 1, 2, 3, 1, 2, 3, 5, 1, 2, 3, 1, 2, 3), 17),
                       ((2, 3, 4), -1)]
    return objectives


@pytest.mark.parametrize("method", METHODS)
def test_flagged_goal_bound_is_the_bound_with_the_flag_appended(method):
    # the same clauses as the unflagged bound, each with ~flag last, and the
    # same variables; an unflagged bound that is trivially unsatisfiable
    # becomes the unit ~flag, first; every bound adds a clause
    for coeffs, bound in _goal_objectives(method):
        for mixing in (True, False):
            opts = EncodeOptions(method=method, direct_mixing=mixing)
            bare, flagged = CnfFormula(), CnfFormula()
            for f in (bare, flagged):
                xs = f.fresh_vars(len(coeffs))
                flag = f.fresh_var()
                f.add_clause([xs[0], xs[1]])
            encode_goal_bound(bare, list(zip(coeffs, xs)), bound, None, opts)
            encode_goal_bound(flagged, list(zip(coeffs, xs)), bound, flag, opts)
            want = bare.clauses[:1] + [(-flag,)] * bare.trivially_unsat
            want += [clause + (-flag,) for clause in bare.clauses[1:]]
            assert flagged.clauses == want and len(want) > 1, (coeffs, mixing)
            assert flagged.num_vars == bare.num_vars and not flagged.trivially_unsat


def test_goal_bound_rejects_bad_flags():
    # a flag is an allocated variable's literal, over no objective variable
    f = CnfFormula()
    x1, x2 = f.fresh_vars(2)
    for bad in (0, 3, -3, True, "x", TRUE, x1, -x2):
        with pytest.raises(ValueError, match="flag"):
            encode_goal_bound(f, [(1, x1), (2, x2)], 2, bad)
    assert f.clauses == [] and f.next_var == 3


def test_goal_bound_trivial_cases():
    f = CnfFormula()
    x1 = f.fresh_var()
    flag = f.fresh_var()
    encode_goal_bound(f, [(2, x1)], -1, flag)  # impossible bound
    assert dpll_sat(f, [flag])[0] == "UNSAT"
    assert dpll_sat(f, [-flag])[0] == "SAT"

    g = CnfFormula()
    y1 = g.fresh_var()
    gflag = g.fresh_var()
    encode_goal_bound(g, [(2, y1)], 10, gflag)  # vacuous bound
    assert g.num_clauses == 0


def test_goal_bound_negative_coefficients():
    f = CnfFormula()
    x1, x2 = f.fresh_vars(2)
    # f = 2*x1 - 3*x2; bound f <= 0 via bound=1
    encode_goal_bound(f, [(2, x1), (-3, x2)], 1, None)
    for bits in range(4):
        model = {1: bool(bits & 1), 2: bool(bits & 2)}
        val = 2 * model[1] - 3 * model[2]
        fixing = [v if model[v] else -v for v in (1, 2)]
        assert dpll_sat(f, fixing)[0] == ("SAT" if val <= 0 else "UNSAT")


# -- scaled: 40-60 terms with coefficients up to 1e6 -------------------------------

def _boundary_fixings(rng, coeffs):
    """(satisfying, violating, k): a random full fixing, as signs per term,
    whose value k is the bound of a tight at-least constraint, and the same
    fixing with its cheapest true term dropped, which misses k."""
    signs = [True, False] + [rng.random() < 0.5 for _ in coeffs[2:]]
    k = sum(c for c, s in zip(coeffs, signs) if s)
    cheapest = min((c, i) for i, (c, s) in enumerate(zip(coeffs, signs)) if s)[1]
    violating = list(signs)
    violating[cheapest] = False
    return signs, violating, k


def _assumptions(lits, signs):
    return [lit if s else -lit for lit, s in zip(lits, signs)]


@pytest.mark.parametrize("method", ("auto", "oe4"))
def test_scaled_pb_boundary_fixings(method):
    # at a tight bound a violating full fixing propagates to a conflict and a
    # satisfying one is SAT under its units: encode_pb, and encode_goal_bound
    # unflagged and flagged (the flag on; off, the bound is vacuous).  The
    # base is given, so that no base search runs
    rng = random.Random(18)
    base = MixedRadixBase((2,) * 19)
    opts = EncodeOptions(method=method)
    for trial in range(3):
        n = rng.randint(40, 60)
        coeffs = [rng.randint(1, 10 ** 6) for _ in range(n)]
        f = CnfFormula()
        lits = [v if rng.random() < 0.5 else -v for v in f.fresh_vars(n)]
        signs, violating, k = _boundary_fixings(rng, coeffs)
        # sum(c * l) >= k, the fixing being the literals' values
        for norm in normalize_pb(PbConstraint(tuple(zip(coeffs, lits)), ">=", k)):
            encode_pb(f, norm, base, opts)
        prop = Propagator(f)
        assert prop.propagate(Assignment(), _assumptions(lits, violating)).status == "conflict"
        assert dpll_sat(f, _assumptions(lits, signs))[0] == "SAT"
        # sum(c * l) <= bound - 1 with bound - 1 = k, violated by adding the
        # cheapest term the tight fixing leaves out
        left_out = [i for i, s in enumerate(signs) if not s]
        over = list(signs)
        over[min(left_out, key=coeffs.__getitem__)] = True
        for flagged in (False, True):
            g = CnfFormula()
            g_lits = g.fresh_vars(n)
            flag = g.fresh_var() if flagged else None
            objective = list(zip(coeffs, g_lits))
            with mock.patch.object(pb, "find_base", lambda coeffs: base):
                encode_goal_bound(g, objective, k + 1, flag, opts)
            on = [flag] if flagged else []
            prop = Propagator(g)
            status = prop.propagate(Assignment(), on + _assumptions(g_lits, over)).status
            assert status == "conflict"
            assert dpll_sat(g, on + _assumptions(g_lits, signs))[0] == "SAT"
            if flagged:
                assert dpll_sat(g, [-flag] + _assumptions(g_lits, over))[0] == "SAT"


# -- unit-coefficient = lines: both bounds on one network ------------------------

def _unit_eq_formula(lits, k, method):
    """encode_problem of sum(lits) = k as one PB line with coefficients 1
    over the variables 1..n."""
    n = len(lits)
    problem = PbProblem([PbConstraint(tuple((1, lit) for lit in lits), "=", k)],
                        var_names={f"x{v}": v for v in range(1, n + 1)})
    return encode_problem(problem, EncodeOptions(method=method)).formula


def _signed_vars(rng, n):
    return [v if rng.random() < 0.5 else -v for v in range(1, n + 1)]


def test_unit_eq_line_every_fixing():
    # both forms of the line go to one encode_cards call: under every full
    # fixing of n <= 10 terms a count other than k propagates to a conflict
    # and k is SAT, for auto and a random method (a baseline one included)
    rng = random.Random(26)
    for n in range(1, 11):
        for method in ("auto", rng.choice(METHODS)):
            lits = _signed_vars(rng, n)
            k = rng.randint(0, n)
            f = _unit_eq_formula(lits, k, method)
            prop = Propagator(f)
            for bits in range(1 << n):
                signs = [bool(bits >> i & 1) for i in range(n)]
                fixing = _assumptions(lits, signs)
                if sum(signs) == k:
                    assert dpll_sat(f, fixing)[0] == "SAT", (n, k, method, bits)
                else:
                    status = prop.propagate(Assignment(), fixing).status
                    assert status == "conflict", (n, k, method, bits)


@pytest.mark.parametrize("method", ("auto", "oe4"))
def test_unit_eq_line_boundary_fixings(method):
    # at 100-130 terms the line costs what a CNFP <= k / >= k pair over its
    # literals costs, one network for both bounds where that is cheaper; k-1
    # or k+1 true terms propagate to a conflict, and k is SAT
    rng = random.Random(260)
    for trial in range(3):
        n = rng.randint(100, 130)
        k = rng.randint(1, n - 1)
        lits = _signed_vars(rng, n)
        f = _unit_eq_formula(lits, k, method)
        pair = CnfFormula()
        pair.fresh_vars(n)
        encode_cards(pair, [CardConstraint(tuple(lits), "<=", k),
                            CardConstraint(tuple(lits), ">=", k)], EncodeOptions(method=method))
        assert (f.num_vars, f.num_clauses) == (pair.num_vars, pair.num_clauses), (n, k)
        prop = Propagator(f)
        for count in (k - 1, k, k + 1):
            for _ in range(3):
                true = set(rng.sample(range(n), count))
                fixing = _assumptions(lits, [i in true for i in range(n)])
                if count == k:
                    assert dpll_sat(f, fixing)[0] == "SAT", (n, k)
                else:
                    assert prop.propagate(Assignment(), fixing).status == "conflict", (n, k)
