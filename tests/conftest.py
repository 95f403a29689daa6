import random
import sys

import pytest

from cardnet.cnf import CnfFormula
from cardnet.seqs import is_top_k_sorted


def parse_dimacs(text):
    """Test-only DIMACS parser returning (num_vars, clause multiset)."""
    num_vars = None
    clauses = []
    lines = text.splitlines()
    assert lines[0].startswith("p cnf ")
    _, _, nv, nc = lines[0].split()
    num_vars = int(nv)
    for line in lines[1:]:
        assert line == line.rstrip(), "no trailing whitespace"
        toks = line.split()
        assert toks[-1] == "0"
        clauses.append(tuple(int(t) for t in toks[:-1]))
    assert len(clauses) == int(nc)
    return num_vars, clauses


def eval_clauses(clauses, assignment):
    """Evaluate a clause list under a total dict var->bool."""
    return all(any(assignment[abs(l)] == (l > 0) for l in clause) for clause in clauses)


def bits_of(value, n):
    return [(value >> i) & 1 for i in range(n)]


def sorted_runs(length):
    """All non-increasing 0-1 sequences of the given length."""
    return [tuple([1] * ones + [0] * (length - ones)) for ones in range(length + 1)]


def check_selection_output(out, k, total_ones):
    """Output prefix must be the unary count clamped at k and dominate the tail."""
    kk = min(k, len(out))
    want = [1] * min(total_ones, kk) + [0] * (kk - min(total_ones, kk))
    return list(out[:kk]) == want and is_top_k_sorted(out, kk)


def formula_from_clauses(num_vars, clauses):
    f = CnfFormula()
    f.fresh_vars(num_vars)
    for c in clauses:
        f.add_clause(c)
    return f


def planted_binary_formula(num_vars, num_clauses, seed):
    """Random binary clauses, each true under a planted assignment."""
    rng = random.Random(seed)
    planted = [None] + [rng.random() < 0.5 for _ in range(num_vars)]
    f = CnfFormula()
    f.fresh_vars(num_vars)
    for _ in range(num_clauses):
        a, b = rng.sample(range(1, num_vars + 1), 2)
        a = a if planted[a] else -a          # true under the planted model
        f.add_clause([a, b * rng.choice((1, -1))])
    return f


def solver_cmd():
    """The built-in reference solver as an external command."""
    return f"{sys.executable} -m cardnet.cli dpll {{cnf}}"


@pytest.fixture
def dpll_solver_cmd():
    return solver_cmd()
