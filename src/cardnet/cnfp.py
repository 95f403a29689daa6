"""CNF-plus-cardinality input format and the n-Queens demo generator.

Grammar (normative for this tool): one header `p cnf+ <vars> <lines>` with
non-negative counts before any other line, clause lines are signed integers
terminated by `0`, cardinality lines are literals terminated by `<= <k>` or
`>= <k>`.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .cnf import CnfFormula
from .encode import CardConstraint, EncodeOptions, encode_cards


class CnfpSyntaxError(ValueError):
    def __init__(self, message: str, line: int):
        super().__init__(f"line {line}: {message}")
        self.line = line


@dataclass
class CnfpProblem:
    num_vars: int
    clauses: list[tuple[int, ...]] = field(default_factory=list)
    card_lines: list[CardConstraint] = field(default_factory=list)

    def model_ok(self, model: dict[int, bool]) -> bool:
        for clause in self.clauses:
            if not any(model[abs(l)] if l > 0 else not model[abs(l)] for l in clause):
                return False
        for card in self.card_lines:
            count = sum(1 for l in card.lits
                        if (model[abs(l)] if l > 0 else not model[abs(l)]))
            if not card.holds(count):
                return False
        return True


def parse_cnfp(text: str) -> CnfpProblem:
    problem: CnfpProblem | None = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("c"):
            continue
        if line.startswith("p"):
            parts = line.split()
            if len(parts) != 4 or parts[1] != "cnf+":
                raise CnfpSyntaxError("header must be 'p cnf+ <vars> <lines>'", lineno)
            if problem is not None:
                raise CnfpSyntaxError("duplicate 'p cnf+' header", lineno)
            try:
                counts = [int(parts[2]), int(parts[3])]
            except ValueError:
                raise CnfpSyntaxError("malformed header counts", lineno) from None
            if min(counts) < 0:
                raise CnfpSyntaxError("negative header counts", lineno)
            problem = CnfpProblem(counts[0])
            continue
        if problem is None:
            raise CnfpSyntaxError("line before the 'p cnf+' header", lineno)
        toks = line.split()
        if toks[-2:-1] in (["<="], [">="]):
            rel = toks[-2]
            try:
                k = int(toks[-1])
                lits = [int(t) for t in toks[:-2]]
            except ValueError:
                raise CnfpSyntaxError("malformed cardinality line", lineno) from None
            if not lits:
                raise CnfpSyntaxError("empty cardinality line", lineno)
            if any(l == 0 or abs(l) > problem.num_vars for l in lits):
                raise CnfpSyntaxError("literal out of range", lineno)
            problem.card_lines.append(CardConstraint(tuple(lits), rel, k))
        elif toks[-1] == "0":
            try:
                lits = [int(t) for t in toks[:-1]]
            except ValueError:
                raise CnfpSyntaxError("malformed clause line", lineno) from None
            if any(l == 0 or abs(l) > problem.num_vars for l in lits):
                raise CnfpSyntaxError("literal out of range", lineno)
            problem.clauses.append(tuple(lits))
        else:
            raise CnfpSyntaxError("line must end with '0', '<= k' or '>= k'", lineno)
    if problem is None:
        raise CnfpSyntaxError("missing 'p cnf+' header", 1)
    return problem


def write_cnfp(problem: CnfpProblem) -> str:
    lines = [f"p cnf+ {problem.num_vars} {len(problem.clauses) + len(problem.card_lines)}"]
    for clause in problem.clauses:
        lines.append(" ".join(map(str, clause)) + " 0")
    for card in problem.card_lines:
        rel = card.rel if card.rel in ("<=", ">=") else None
        if rel is None:
            raise ValueError("only <= and >= cardinality lines can be serialized")
        lines.append(" ".join(map(str, card.lits)) + f" {rel} {card.k}")
    return "\n".join(lines) + "\n"


def encode_cnfp(problem: CnfpProblem, opts: EncodeOptions | None = None) -> CnfFormula:
    """Pass clauses through and encode every cardinality line; a <= line
    and a >= line over one literal multiset may share a network (see
    encode_cards)."""
    formula = CnfFormula()
    formula.fresh_vars(problem.num_vars)
    for clause in problem.clauses:
        formula.add_clause(clause)
    encode_cards(formula, problem.card_lines, opts)
    return formula


def queens_cnfp(n: int) -> CnfpProblem:
    """n-Queens: one clause plus an at-most-one line per rank and file, and an
    at-most-one line per diagonal of length >= 2."""
    if n < 1:
        raise ValueError("board size must be positive")
    problem = CnfpProblem(n * n)

    def var(file_idx: int, rank_idx: int) -> int:
        return file_idx * n + rank_idx + 1

    for r in range(n):
        rank = [var(f, r) for f in range(n)]
        problem.clauses.append(tuple(rank))
        problem.card_lines.append(CardConstraint(tuple(rank), "<=", 1))
    for f in range(n):
        file_vars = [var(f, r) for r in range(n)]
        problem.clauses.append(tuple(file_vars))
        problem.card_lines.append(CardConstraint(tuple(file_vars), "<=", 1))
    for delta in range(-(n - 2), n - 1):
        diag = [var(f, f + delta) for f in range(n) if 0 <= f + delta < n]
        problem.card_lines.append(CardConstraint(tuple(diag), "<=", 1))
        anti = [var(f, delta + (n - 1) - f) for f in range(n)
                if 0 <= delta + (n - 1) - f < n]
        problem.card_lines.append(CardConstraint(tuple(anti), "<=", 1))
    return problem
