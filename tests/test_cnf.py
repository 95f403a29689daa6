import random
import tracemalloc
from itertools import product
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cardnet import cnf
from cardnet.cnf import DIMACS_CHUNK, FALSE, TRUE, CnfFormula, neg
from cardnet.cnf import parse_dimacs as read_dimacs

from conftest import parse_dimacs


def test_fresh_var_counter():
    f = CnfFormula()
    assert [f.fresh_var() for _ in range(3)] == [1, 2, 3]
    g = CnfFormula(next_var=7)
    assert g.fresh_var() == 7
    h = CnfFormula()
    assert h.fresh_vars(10) == list(range(1, 11))
    assert h.num_clauses == 0


def test_negation_involution():
    assert neg(neg(5)) == 5
    assert neg(TRUE) is FALSE and neg(FALSE) is TRUE
    assert neg(neg(TRUE)) is TRUE


def test_add_clause_simplification():
    f = CnfFormula()
    x1, x2 = f.fresh_vars(2)
    f.add_clause([x1, TRUE])
    assert f.num_clauses == 0
    f.add_clause([x1, FALSE, -x2])
    assert f.clauses == [(1, -2)]
    f.add_clause([x1, x2, x1])
    assert f.clauses[-1] == (1, 2)
    f.add_clause([x1, -x1, x2])  # tautology
    assert f.num_clauses == 2
    assert not f.trivially_unsat
    f.add_clause([FALSE])
    assert f.trivially_unsat


def test_add_clause_rejects_malformed():
    f = CnfFormula()
    f.fresh_var()
    with pytest.raises(ValueError):
        f.add_clause([0])
    with pytest.raises(ValueError):
        f.add_clause([2])  # unallocated


def test_bool_literals_are_malformed():
    # True == 1 and -True == -1, so a bool would pass as variable 1
    from cardnet.encode import METHODS, CardConstraint, EncodeOptions, encode_card
    from cardnet.sat import dpll_sat

    f = CnfFormula()
    f.fresh_vars(3)
    for lit in (True, False):
        with pytest.raises(ValueError, match="malformed literal"):
            f.add_clause([2, lit])
        with pytest.raises(ValueError, match="malformed literal"):
            f.distinct_vars([2, lit])
        with pytest.raises(ValueError, match="malformed literal"):
            neg(lit)
        with pytest.raises(ValueError, match="malformed literal"):
            dpll_sat(f, [lit])
    assert f.clauses == [] and not f.trivially_unsat
    assert f.distinct_vars([1, -2, 3])
    for method in METHODS:
        for lits, rel, k in (((True, 2, 3), "<=", 0), ((1, 2, True, 3), "<=", 1),
                             ((1, False, 2, 3), ">=", 2)):
            g = CnfFormula()
            g.fresh_vars(3)
            with pytest.raises(ValueError, match="malformed literal"):
                encode_card(g, CardConstraint(lits, rel, k), EncodeOptions(method=method))


def test_add_clause_never_bumps_next_var():
    f = CnfFormula()
    f.fresh_vars(4)
    before = f.next_var
    f.add_clause([1, -2, 3])
    assert f.next_var == before


def test_write_dimacs_format():
    f = CnfFormula()
    f.fresh_vars(2)
    f.add_clause([1, -2])
    assert f.write_dimacs() == "p cnf 2 1\n1 -2 0\n"
    assert CnfFormula().write_dimacs() == "p cnf 0 0\n"


def test_write_dimacs_unsat_surrogate():
    from cardnet.sat import dpll_sat

    f = CnfFormula()
    f.add_clause([])
    text = f.write_dimacs()
    assert text == "p cnf 1 2\n1 0\n-1 0\n"
    num_vars, clauses = parse_dimacs(text)
    g = CnfFormula()
    g.fresh_vars(num_vars)
    for c in clauses:
        g.add_clause(c)
    assert dpll_sat(g)[0] == "UNSAT"


def test_dimacs_round_trip():
    rng = random.Random(5)
    f = CnfFormula()
    f.fresh_vars(6)
    for _ in range(25):
        clause = [rng.choice([1, -1]) * rng.randint(1, 6)
                  for _ in range(rng.randint(1, 4))]
        f.add_clause(clause)
    num_vars, clauses = parse_dimacs(f.write_dimacs())
    assert num_vars == 6
    assert sorted(clauses) == sorted(f.clauses)
    assert clauses == f.clauses  # insertion order preserved


def test_simplification_soundness_exhaustive():
    # simplified formula evaluates like the raw clause list with constants
    rng = random.Random(11)
    n = 6
    for _ in range(60):
        raw = []
        for _ in range(rng.randint(1, 8)):
            clause = [rng.choice([TRUE, FALSE] +
                                 [s * v for v in range(1, n + 1) for s in (1, -1)])
                      for _ in range(rng.randint(1, 5))]
            raw.append(clause)
        f = CnfFormula()
        f.fresh_vars(n)
        for clause in raw:
            f.add_clause(clause)
        for bits in product((False, True), repeat=n):
            assignment = dict(enumerate(bits, start=1))

            def lit_val(l):
                if l is TRUE:
                    return True
                if l is FALSE:
                    return False
                return assignment[abs(l)] == (l > 0)

            raw_value = all(any(lit_val(l) for l in clause) for clause in raw)
            simr = (not f.trivially_unsat
                    and all(any(lit_val(l) for l in clause) for clause in f.clauses))
            assert raw_value == simr


# -- the bulk path ----------------------------------------------------------------

def test_distinct_vars_preconditions():
    f = CnfFormula()
    f.fresh_vars(5)
    assert f.distinct_vars([])
    assert f.distinct_vars([1, -2, 5])
    assert not f.distinct_vars([1, 1])        # repeated literal
    assert not f.distinct_vars([3, -3])       # complementary pair
    assert not f.distinct_vars([1, 0])
    assert not f.distinct_vars([1, 6])        # unallocated
    assert not f.distinct_vars([1, -6])
    assert not f.distinct_vars([1, TRUE])
    assert not f.distinct_vars([1, FALSE])
    assert not f.distinct_vars([1, 2.0])


def test_add_clauses_appends_as_given():
    f = CnfFormula()
    f.fresh_vars(3)
    f.add_clause([1])
    f.add_clauses(iter([(2, -3), (-1, 3)]))
    f.add_clauses([])
    assert f.clauses == [(1,), (2, -3), (-1, 3)]


# -- the flat clause store ------------------------------------------------------

def test_clauses_view_is_what_was_added():
    rng = random.Random(7)
    f = CnfFormula()
    f.fresh_vars(400)
    added = []
    for _ in range(300):
        batch = [tuple(rng.sample(range(1, 401), rng.randint(1, 6))) for _ in range(rng.randint(0, 4))]
        batch = [tuple(l * rng.choice((1, -1)) for l in c) for c in batch]
        if rng.random() < 0.5:
            f.add_clauses(batch)
        else:
            for clause in batch:
                f.add_clause(list(clause))
        added += batch
    view = f.clauses
    assert list(view) == added and view == added and len(view) == f.num_clauses == len(added)
    assert view[0] == added[0] and view[-1] == added[-1] and view[5:9] == added[5:9]
    copy = f.copy()
    copy.add_clause([1, 2])
    assert f.clauses == added and copy.clauses == added + [(1, 2)]
    assert copy.write_dimacs() != f.write_dimacs()


def _reference_dimacs(num_vars, clauses, unsat):
    """DIMACS text formatted one clause at a time."""
    if unsat:
        return "p cnf 1 2\n1 0\n-1 0\n"
    return f"p cnf {num_vars} {len(clauses)}\n" + "".join(
        ("%d " * len(c) + "0\n") % tuple(c) for c in clauses)


def _clause_lists(min_size):
    return st.lists(st.lists(st.integers(1, 2000).flatmap(lambda v: st.sampled_from((v, -v))),
                             min_size=min_size, max_size=8, unique_by=abs),
                    max_size=40)


@settings(max_examples=150, deadline=None)
@given(raw=_clause_lists(0), simplified=_clause_lists(1), chunk=st.integers(1, 12),
       unsat=st.booleans())
def test_chunked_writer_matches_reference(raw, simplified, chunk, unsat):
    # raw clauses, empty ones too, enter by add_clauses as the solver tests
    # hand them over; add_clause stores the others as they are
    f = CnfFormula()
    f.fresh_vars(2000)
    f.add_clauses(raw)
    for clause in simplified:
        f.add_clause(clause)
    if unsat:
        f.add_clause([])
    with mock.patch.object(cnf, "DIMACS_CHUNK", chunk):
        chunks = list(f.dimacs_chunks())
    assert "".join(chunks) == _reference_dimacs(2000, raw + simplified, unsat)
    assert all(c.endswith("\n") for c in chunks)       # whole lines only
    # a chunk holds at least DIMACS_CHUNK store entries, or ends the store
    entries = sum(len(c) + 1 for c in raw + simplified)
    assert unsat or len(chunks) - 1 >= entries // (chunk + 8)


def test_store_takes_at_most_five_bytes_per_literal():
    rng = random.Random(2)
    clauses = [rng.sample(range(1, 5001), 20) for _ in range(5000)]     # 100k literals
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        f = CnfFormula()
        f.fresh_vars(5000)
        for clause in clauses[::2]:
            f.add_clause(clause)
        f.add_clauses(list(clause) for clause in clauses[1::2])    # fresh clause objects
        used = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert f.num_clauses == len(clauses)
    assert used <= 5 * 20 * len(clauses)


# -- DIMACS reader ----------------------------------------------------------------

def test_parse_dimacs_round_trip_empty_formula():
    assert read_dimacs(CnfFormula().write_dimacs()) == (0, [])
    f = CnfFormula()
    f.fresh_vars(3)
    assert read_dimacs(f.write_dimacs()) == (3, [])


def test_parse_dimacs_round_trip_trivially_unsat():
    f = CnfFormula()
    f.fresh_vars(4)
    f.add_clause([FALSE])
    assert read_dimacs(f.write_dimacs()) == (1, [(1,), (-1,)])


def test_parse_dimacs_round_trip_several_chunks():
    rng = random.Random(3)
    f = CnfFormula()
    f.fresh_vars(300)
    while f.num_clauses <= 2 * DIMACS_CHUNK:
        f.add_clause([rng.choice((1, -1)) * rng.randint(1, 300)
                      for _ in range(rng.randint(1, 5))])
    text = f.write_dimacs()
    assert read_dimacs(text) == (300, f.clauses)
    # the chunked writer is line-for-line the plain one
    lines = [f"p cnf {f.num_vars} {f.num_clauses}"]
    lines += [" ".join(map(str, c)) + " 0" for c in f.clauses]
    assert text == "\n".join(lines) + "\n"


def test_parse_dimacs_lines_and_counts():
    text = "c comment\n%\np cnf 3 4\n\n1 -2 0\n  2 3  \n-1 0 3 0\n0\n"
    assert read_dimacs(text) == (3, [(1, -2), (2, 3), (-1,), (3,), ()])
    # num_vars covers variables past the header count
    assert read_dimacs("p cnf 2 1\n1 -7 0\n")[0] == 7
    assert read_dimacs("1 2 0\n") == (2, [(1, 2)])


@pytest.mark.parametrize("text", ["p cnf 2 1\n1 x 0\n", "p cnf 2 1\n1 2.0 0\n",
                                  "p cnf two 1\n1 0\n", "p cnf\n1 0\n", "p dnf 2 1\n1 0\n"])
def test_parse_dimacs_rejects_malformed(text):
    with pytest.raises(ValueError):
        read_dimacs(text)
