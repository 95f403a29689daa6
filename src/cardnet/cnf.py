"""CNF assembly: literals with first-class constants, clause simplification,
DIMACS output and input.

Literals are signed DIMACS-style integers (variable index >= 1, sign = polarity).
The two constants TRUE and FALSE are separate sentinel objects so that constant
inputs (padding, injected carries) flow through every encoder uniformly and get
eliminated at clause-add time.

Clauses enter a formula in one of two ways: `add_clause` simplifies each one,
and `add_clauses` appends whole clause families that an emitter has shown need
no simplification, by checking once per gate with `distinct_vars`.
"""

from __future__ import annotations

from itertools import chain
from typing import Iterable, Sequence, Union


class _Const:
    """Constant literal sentinel. Negation flips between TRUE and FALSE."""

    __slots__ = ("_name",)

    def __init__(self, name: str):
        self._name = name

    def __repr__(self) -> str:
        return self._name

    def __neg__(self) -> "_Const":
        return FALSE if self is TRUE else TRUE


TRUE = _Const("TRUE")
FALSE = _Const("FALSE")

Lit = Union[int, _Const]


def neg(lit: Lit) -> Lit:
    """Negate a literal; involution, TRUE <-> FALSE.  A Python bool is
    rejected: -True is the int -1, a literal of variable 1."""
    if lit is True or lit is False:
        raise ValueError(f"malformed literal {lit!r}")
    return -lit


def is_const(lit: Lit) -> bool:
    return lit is TRUE or lit is FALSE


# clauses per string join in write_dimacs: bounds the transient line strings
DIMACS_CHUNK = 4096


class _LineFormats(dict):
    """DIMACS clause line format per clause length, made on first use."""

    def __missing__(self, length: int) -> str:
        fmt = self[length] = "%d " * length + "0\n"
        return fmt


class CnfFormula:
    """A growing clause list with a fresh-variable counter.

    Variable 0 is never used (DIMACS sign encoding).  `trivially_unsat` is set
    as soon as clause simplification ever produces the empty clause; the empty
    clause itself is not stored.
    """

    def __init__(self, next_var: int = 1, clauses: list[tuple[int, ...]] | None = None,
                 trivially_unsat: bool = False):
        self.next_var = next_var
        self.clauses = [] if clauses is None else clauses
        self.trivially_unsat = trivially_unsat

    def fresh_var(self) -> int:
        v = self.next_var
        self.next_var += 1
        return v

    def fresh_vars(self, count: int) -> list[int]:
        return [self.fresh_var() for _ in range(count)]

    @property
    def num_vars(self) -> int:
        return self.next_var - 1

    @property
    def num_clauses(self) -> int:
        return len(self.clauses)

    def distinct_vars(self, lits: Sequence[Lit]) -> bool:
        """True when lits are ints over distinct allocated variables.  Clauses
        built from such literals and fresh variables, with no variable twice,
        need no simplification and may go through add_clauses.  A Python
        bool raises ValueError, as in add_clause: it is an int, so True would
        pass as variable 1."""
        if any(map(bool.__instancecheck__, lits)):
            raise ValueError(f"malformed literal {next(l for l in lits if isinstance(l, bool))!r}")
        try:
            used = set(map(int.__abs__, lits))
        except TypeError:  # not every literal is an int
            return False
        if len(used) != len(lits) or 0 in used:
            return False
        return not used or max(used) < self.next_var

    def add_clauses(self, clauses: Iterable[tuple[int, ...]]) -> None:
        """Append clauses that need no simplification (see distinct_vars),
        as given and in order."""
        self.clauses.extend(clauses)

    def add_clause(self, lits: Iterable[Lit]) -> None:
        """Add a clause after constant/duplicate/tautology simplification.

        FALSE literals are dropped, a TRUE literal satisfies the clause (it is
        not stored), duplicates collapse, and a clause with both polarities of
        a variable is a tautology and dropped.  A clause that simplifies to
        the empty clause marks the formula trivially unsatisfiable.
        """
        seen: set[int] = set()
        out: list[int] = []
        for lit in lits:
            if lit is FALSE:
                continue
            if lit is TRUE:
                return
            if not isinstance(lit, int) or isinstance(lit, bool) or lit == 0:
                raise ValueError(f"malformed literal {lit!r}")
            if abs(lit) >= self.next_var:
                raise ValueError(f"literal {lit} uses an unallocated variable")
            if -lit in seen:
                return
            if lit not in seen:
                seen.add(lit)
                out.append(lit)
        if not out:
            self.trivially_unsat = True
            return
        self.clauses.append(tuple(out))

    @property
    def dimacs_clauses(self) -> list[tuple[int, ...]]:
        """The clauses `write_dimacs` writes, in its order."""
        return [(1,), (-1,)] if self.trivially_unsat else self.clauses

    def write_dimacs(self) -> str:
        """Serialize to DIMACS CNF.

        A trivially unsatisfiable formula is emitted as the canonical
        two-clause contradiction `1 0 / -1 0` because DIMACS has no empty
        clause convention that all solvers accept.
        """
        if self.trivially_unsat:
            return "p cnf 1 2\n1 0\n-1 0\n"
        clauses = self.clauses
        formats = _LineFormats()
        chunks = [f"p cnf {self.num_vars} {self.num_clauses}\n"]
        for at in range(0, len(clauses), DIMACS_CHUNK):
            chunks.append("".join([formats[len(clause)] % clause
                                   for clause in clauses[at:at + DIMACS_CHUNK]]))
        return "".join(chunks)


def parse_dimacs(text: str) -> tuple[int, list[tuple[int, ...]]]:
    """Read DIMACS CNF text into (num_vars, clauses).

    Lines starting with `c` or `%` are comments.  Every other line holds
    clauses terminated by 0; a clause still open at the end of its line ends
    there, and a line holding only 0 is the empty clause.  num_vars is the
    larger of the header count and the largest variable used.  A malformed
    token or header raises ValueError.
    """
    num_vars = 0
    clauses: list[tuple[int, ...]] = []
    for line in text.splitlines():
        toks = line.split()
        if not toks or toks[0][0] in "c%":
            continue
        if toks[0][0] == "p":
            if len(toks) < 3 or toks[1] != "cnf":
                raise ValueError(f"malformed DIMACS header {line.strip()!r}")
            num_vars = max(num_vars, int(toks[2]))
            continue
        lits = list(map(int, toks))
        if lits[-1] == 0:
            lits.pop()
        start = 0
        if 0 in lits:
            for at, lit in enumerate(lits):
                if lit == 0:
                    clauses.append(tuple(lits[start:at]))
                    start = at + 1
        clauses.append(tuple(lits[start:]))
    used = max(map(abs, chain.from_iterable(clauses)), default=0)
    return max(num_vars, used), clauses
