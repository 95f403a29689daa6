"""Randomized equisatisfiability of the cardinality, PB and objective-bound
encoders, and randomized checks of unit propagation and the propagation harnesses.

Literal lists deliberately repeat literals, hold complementary pairs and the
constants TRUE and FALSE, so clause emission meets both of its paths: whole
clause families over distinct variables, and per-clause simplification for
everything else.  Under every full fixing of the input variables the encoding
must be satisfiable exactly when the constraint holds.

Unit propagation must reach the status and fixpoint of a naive reference
that rescans every clause, and every network encoding must pass the
arc-consistency and forward-propagation harnesses on random scenarios.
`encode_card`, whose forms may take either polarity, is also checked on
every full fixing of up to 12 inputs: unit propagation conflicts exactly on
the violating ones.

No encoding leaves a dead auxiliary variable: each one occurs in both
polarities or is an exposed output, so the emitter builds no gate output
that nothing reads.
"""

from unittest import mock

from hypothesis import given, settings
from hypothesis import strategies as st

from cardnet import pb
from cardnet.cnf import FALSE, TRUE, CnfFormula, is_const
from cardnet.encode import (METHODS, NETWORK_METHODS, CardConstraint, EncodeOptions,
                            encode_atmost, encode_card)
from cardnet.pb import PbConstraint, encode_goal_bound, encode_pb, normalize_pb
from cardnet.sat import (Propagator, check_arc_consistency, check_forward_prop, dpll_sat,
                         unit_propagate)

from conftest import formula_from_clauses, naive_unit_propagate

NUM_VARS = 4

literals = st.one_of(
    st.integers(1, NUM_VARS).flatmap(lambda v: st.sampled_from((v, -v))),
    st.sampled_from((TRUE, FALSE)))
lit_lists = st.lists(literals, min_size=1, max_size=7)
options = st.builds(EncodeOptions, method=st.sampled_from(METHODS),
                    lam=st.sampled_from((1, 5, 20)), direct_mixing=st.booleans())
pb_options = st.builds(EncodeOptions, method=st.sampled_from(NETWORK_METHODS),
                       lam=st.sampled_from((1, 5, 20)), direct_mixing=st.booleans())


def _value(lit, fixing):
    if lit is TRUE:
        return True
    if lit is FALSE:
        return False
    return fixing[abs(lit)] == (lit > 0)


def _fixings():
    for bits in range(1 << NUM_VARS):
        yield {v: bool((bits >> (v - 1)) & 1) for v in range(1, NUM_VARS + 1)}


def _check_equisat(formula, holds):
    for fixing in _fixings():
        units = [v if val else -v for v, val in fixing.items()]
        assert (dpll_sat(formula, units)[0] == "SAT") == holds(fixing), fixing


@settings(max_examples=80, deadline=None)
@given(lits=lit_lists, rel=st.sampled_from(("<=", ">=", "=")),
       k=st.integers(-1, 8), opts=options)
def test_encode_card_equisatisfiable(lits, rel, k, opts):
    c = CardConstraint(tuple(lits), rel, k)
    f = CnfFormula()
    f.fresh_vars(NUM_VARS)
    encode_card(f, c, opts)
    _check_equisat(f, lambda fx: c.holds(sum(_value(l, fx) for l in lits)))


@settings(max_examples=60, deadline=None)
@given(terms=st.lists(st.tuples(st.integers(-9, 9), literals), min_size=1, max_size=6),
       rel=st.sampled_from(("<=", ">=", "=")), k=st.integers(-10, 30), opts=pb_options)
def test_encode_pb_equisatisfiable(terms, rel, k, opts):
    c = PbConstraint(tuple(terms), rel, k)
    f = CnfFormula()
    f.fresh_vars(NUM_VARS)
    for norm in normalize_pb(c):
        encode_pb(f, norm, opts=opts)

    def holds(fixing):
        total = sum(a for a, l in terms if _value(l, fixing))
        return {"<=": total <= k, ">=": total >= k, "=": total == k}[rel]

    _check_equisat(f, holds)


@settings(max_examples=60, deadline=None)
@given(objective=st.lists(st.tuples(st.integers(-9, 9), literals), min_size=1, max_size=6),
       bound=st.integers(-20, 30), flag=st.sampled_from((None, True, False)),
       opts=pb_options)
def test_encode_goal_bound_equisatisfiable(objective, bound, flag, opts):
    # f <= bound - 1 while the flag is absent or true; nothing once it is false
    f = CnfFormula()
    f.fresh_vars(NUM_VARS)
    flag_var = None if flag is None else f.fresh_var()
    encode_goal_bound(f, objective, bound, flag_var, opts)
    for fixing in _fixings():
        units = [v if val else -v for v, val in fixing.items()]
        if flag_var is not None:
            units.append(flag_var if flag else -flag_var)
        value = sum(a for a, l in objective if _value(l, fixing))
        want = flag is False or value <= bound - 1
        assert (dpll_sat(f, units)[0] == "SAT") == want, fixing


@st.composite
def cnf_with_seeds(draw):
    """Clauses of 1-3 literals over at most 8 variables, with repeated
    literals and complementary pairs, and a list of seed literals."""
    n = draw(st.integers(1, 8))
    lit = st.integers(1, n).flatmap(lambda v: st.sampled_from((v, -v)))
    clauses = draw(st.lists(st.lists(lit, min_size=1, max_size=3).map(tuple), max_size=16))
    return n, clauses, draw(st.lists(lit, max_size=5))


@settings(max_examples=400, deadline=None)
@given(case=cnf_with_seeds())
def test_unit_propagate_matches_naive_oracle(case):
    n, clauses, seeds = case
    status, values = naive_unit_propagate(clauses, seeds)
    f = formula_from_clauses(n, clauses)
    res = unit_propagate(f, seeds)
    assert res.status == status
    trail = res.assignment.trail
    assert {var: val for var, val, _ in trail} == res.assignment.values
    assert len(trail) == len(res.assignment.values)
    if status == "fixpoint":
        assert res.assignment.values == values
        again = unit_propagate(f, res.assignment)    # a fixpoint stays put
        assert again.status == "fixpoint" and again.assignment.values == values


@settings(max_examples=60, deadline=None)
@given(method=st.sampled_from(NETWORK_METHODS), n=st.integers(2, 12), data=st.data())
def test_harnesses_pass_on_random_scenarios(method, n, data):
    k = data.draw(st.integers(0, n - 1))
    f = CnfFormula()
    enc = encode_atmost(f, f.fresh_vars(n), k, EncodeOptions(method=method))
    prop = Propagator(f)
    positions = st.integers(0, n - 1)
    for _ in range(3):      # one propagator serves every scenario
        scenario = data.draw(st.lists(positions, min_size=k, max_size=k, unique=True))
        assert check_arc_consistency(enc, k, scenario, prop=prop).passed
        assert len(enc.output_lits) == (k + 1 if k else 0)
        if k:
            i = data.draw(st.integers(0, min(k + 1, len(enc.output_lits))))
            subset = data.draw(st.lists(positions, min_size=i, max_size=i, unique=True))
            assert check_forward_prop(enc, i, subset, prop=prop).passed


def _first_signs(formula):
    """Per variable, the sign of its first occurrence in the clause list.  A
    network output is defined by the first clauses that hold it: positively
    in the at-most polarity, negatively in the at-least polarity."""
    sign = {}
    for clause in formula.clauses:
        for lit in clause:
            sign.setdefault(abs(lit), lit > 0)
    return sign


@settings(max_examples=60, deadline=None)
@given(method=st.sampled_from(NETWORK_METHODS), mixing=st.booleans(), n=st.integers(1, 12),
       rel=st.sampled_from(("<", "<=", "=", ">=", ">")), data=st.data())
def test_encode_card_on_every_full_fixing(method, mixing, n, rel, data):
    # under every full fixing of the inputs unit propagation conflicts exactly
    # when the constraint is violated, and a satisfying fixing has a model;
    # every returned form is arc-consistent at its bound
    k = data.draw(st.integers(-1, n + 1))
    f = CnfFormula()
    signs = data.draw(st.lists(st.booleans(), min_size=n, max_size=n))
    lits = [v if s else -v for v, s in zip(f.fresh_vars(n), signs)]
    c = CardConstraint(tuple(lits), rel, k)
    encs = encode_card(f, c, EncodeOptions(method=method, direct_mixing=mixing))
    prop = Propagator(f)
    core = prop.core
    # a satisfying fixing's model: the propagated values, and each free
    # auxiliary variable at the value that satisfies its defining clauses
    # (false in the at-most polarity, true in the at-least one), checked
    # against every clause; dpll_sat decides when that completion fails
    default = {v: not s for v, s in _first_signs(f).items()}
    for bits in range(1 << n):
        fixing = [v if (bits >> (v - 1)) & 1 else -v for v in range(1, n + 1)]
        holds = c.holds(sum(l in fixing for l in lits))
        conflict = not (core.reset() and all(map(core.assume, fixing)))
        assert conflict != holds, (bits, holds)
        if holds:
            model = [core.value[v] if core.value[v] is not None else default.get(v, False)
                     for v in range(f.next_var)]
            if not all(any(model[l] if l > 0 else not model[-l] for l in cl)
                       for cl in f.clauses):
                assert dpll_sat(f, fixing)[0] == "SAT", bits
    positions = st.integers(0, n - 1)
    for enc in encs:
        for _ in range(2):
            scenario = data.draw(st.lists(positions, min_size=enc.k, max_size=enc.k,
                                          unique=True))
            assert check_arc_consistency(enc, enc.k, scenario, prop=prop).passed


def _dead_variables(formula, first_aux, encodings):
    """Variables from first_aux on that occur in at most one polarity and
    are no exposed output of the encodings."""
    exposed = {abs(lit) for enc in encodings for lit in enc.output_lits if not is_const(lit)}
    signs = {lit for clause in formula.clauses for lit in clause}
    return [v for v in range(first_aux, formula.next_var)
            if v not in exposed and not (v in signs and -v in signs)]


def test_encode_card_leaves_no_dead_variable():
    # every method, relation and bound at n <= 12, mixed and not
    for method in METHODS:
        for opts in (EncodeOptions(method=method), EncodeOptions(method=method,
                                                                 direct_mixing=False)):
            for rel in ("<", "<=", "=", ">=", ">"):
                for n in range(1, 13):
                    for k in range(-1, n + 2):
                        f = CnfFormula()
                        lits = [v if v % 3 else -v for v in f.fresh_vars(n)]
                        encs = encode_card(f, CardConstraint(tuple(lits), rel, k), opts)
                        assert not _dead_variables(f, n + 1, encs), (opts, rel, n, k)


@settings(max_examples=150, deadline=None)
@given(lits=lit_lists, rel=st.sampled_from(("<", "<=", "=", ">=", ">")),
       k=st.integers(-1, 8), opts=options)
def test_encode_card_on_repeated_literals_leaves_no_dead_variable(lits, rel, k, opts):
    f = CnfFormula()
    f.fresh_vars(NUM_VARS)
    encs = encode_card(f, CardConstraint(tuple(lits), rel, k), opts)
    assert not _dead_variables(f, NUM_VARS + 1, encs)


@settings(max_examples=150, deadline=None)
@given(terms=st.lists(st.tuples(st.integers(-9, 9), literals), min_size=1, max_size=6),
       rel=st.sampled_from(("<=", ">=", "=")), k=st.integers(-10, 30), opts=pb_options)
def test_encode_pb_leaves_no_dead_variable(terms, rel, k, opts):
    f = CnfFormula()
    f.fresh_vars(NUM_VARS)
    norms = normalize_pb(PbConstraint(tuple(terms), rel, k))
    encs = [encode_pb(f, norm, opts=opts) for norm in norms]
    assert not _dead_variables(f, NUM_VARS + 1, encs)


@settings(max_examples=100, deadline=None)
@given(objective=st.lists(st.tuples(st.integers(-9, 9), literals), min_size=1, max_size=6),
       bound=st.integers(-20, 30), flag=st.booleans(), opts=pb_options)
def test_encode_goal_bound_leaves_no_dead_variable(objective, bound, flag, opts):
    # the bound's own encodings expose their outputs; encode_goal_bound drops them
    f = CnfFormula()
    f.fresh_vars(NUM_VARS)
    flag_var = f.fresh_var() if flag else None
    encs = []

    def recording(*args, **kwargs):
        encs.append(encode_pb(*args, **kwargs))
        return encs[-1]

    with mock.patch.object(pb, "encode_pb", recording):
        encode_goal_bound(f, objective, bound, flag_var, opts)
    assert not _dead_variables(f, NUM_VARS + 2 if flag else NUM_VARS + 1, encs)
