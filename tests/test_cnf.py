import random
from itertools import product

import pytest

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
