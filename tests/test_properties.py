"""Randomized equisatisfiability of the cardinality and PB encoders.

Literal lists deliberately repeat literals, hold complementary pairs and the
constants TRUE and FALSE, so clause emission meets both of its paths: whole
clause families over distinct variables, and per-clause simplification for
everything else.  Under every full fixing of the input variables the encoding
must be satisfiable exactly when the constraint holds.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from cardnet.cnf import FALSE, TRUE, CnfFormula
from cardnet.encode import METHODS, NETWORK_METHODS, CardConstraint, EncodeOptions, encode_card
from cardnet.pb import PbConstraint, encode_pb, normalize_pb
from cardnet.sat import dpll_sat

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
