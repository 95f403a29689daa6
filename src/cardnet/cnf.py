"""CNF assembly: literals with first-class constants, clause simplification,
DIMACS output and input.

Literals are signed DIMACS-style integers (variable index >= 1, sign = polarity).
The two constants TRUE and FALSE are separate sentinel objects so that constant
inputs (padding, injected carries) flow through every encoder uniformly and get
eliminated at clause-add time.

Clauses enter a formula in one of three ways: `add_clause` simplifies each
one, `add_clauses` appends whole clause families that need no
simplification, and `add_flat` appends such a family already in the store's
layout, in one step.  An emitter shows that a gate's clauses need none by
checking once per gate with `distinct_vars`.

A formula stores its clauses flat, in the DIMACS layout: one `array('i')` of
every clause's literals, each clause followed by 0, about 4 bytes per literal.
No module outside this one reads that store.  `CnfFormula.clauses` is a
read-only view that rebuilds the clauses as int tuples on each access, for
tests, the solver core and model checks.  `dimacs_chunks` formats whole runs
of the store at C level, so DIMACS text is written in pieces of about
DIMACS_CHUNK entries and never held whole.  `CountingFormula` keeps only the
counts, for the dry-run emissions that price a network: an emitter that
knows how many clauses a family holds gives it that count alone.
"""

from __future__ import annotations

import contextlib
import gc
from array import array
from collections.abc import Sequence as SequenceABC
from itertools import chain
from typing import Iterable, Iterator, Sequence, Union


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


@contextlib.contextmanager
def collector_off() -> Iterator[None]:
    """The cyclic garbage collector off while the block, or each call of a
    function decorated with collector_off(), runs; switched back on after
    if it was on.  For code that allocates containers by the thousand and
    frees none of them before it ends, where the collector's passes over
    the growing heap would find nothing to free."""
    collecting = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if collecting:
            gc.enable()


# store entries (literals and clause ends) per chunk of dimacs_chunks: bounds
# the transient objects of formatting one run
DIMACS_CHUNK = 16384


class _ClauseView(SequenceABC):
    """A formula's clauses as int tuples, read-only.  Iteration and indexing
    rebuild them from the flat store on each access; len() is the clause
    count.  Compares equal to, and concatenates with, a list of tuples."""

    __slots__ = ("_formula",)

    def __init__(self, formula: "CnfFormula"):
        self._formula = formula

    def __len__(self) -> int:
        return self._formula.num_clauses

    def __iter__(self) -> Iterator[tuple[int, ...]]:
        lits = self._formula._lits
        start = 0
        for _ in range(self._formula.num_clauses):
            end = lits.index(0, start)
            yield tuple(lits[start:end])
            start = end + 1

    def __getitem__(self, index):
        return list(self)[index]

    def __eq__(self, other) -> bool:
        return list(self) == (list(other) if isinstance(other, _ClauseView) else other)

    def __add__(self, other: list) -> list[tuple[int, ...]]:
        return list(self) + other

    def __repr__(self) -> str:
        return repr(list(self))


class CnfFormula:
    """A growing clause store with a fresh-variable counter.

    Variable 0 is never used (DIMACS sign encoding).  `trivially_unsat` is set
    as soon as clause simplification ever produces the empty clause; the empty
    clause itself is not stored.
    """

    # a formula that keeps only counts (CountingFormula) sets this, so that
    # an emitter that knows a family's size need not make its clauses
    counts_only = False

    def __init__(self, next_var: int = 1, clauses: Iterable[Sequence[int]] | None = None,
                 trivially_unsat: bool = False):
        self.next_var = next_var
        self._lits = array("i")
        self.num_clauses = 0
        self.trivially_unsat = trivially_unsat
        if clauses is not None:
            self.add_clauses(clauses)

    def copy(self) -> "CnfFormula":
        """An independent formula with the same variables and clauses."""
        other = CnfFormula(self.next_var, trivially_unsat=self.trivially_unsat)
        other._lits = self._lits[:]
        other.num_clauses = self.num_clauses
        return other

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
    def clauses(self) -> _ClauseView:
        """The stored clauses as int tuples, in order (see _ClauseView)."""
        return _ClauseView(self)

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

    def add_clauses(self, clauses: Iterable[Sequence[int]]) -> None:
        """Append clauses as given and in order, with no simplification.  An
        emitter passes clauses of int literals over distinct allocated
        variables (see distinct_vars); a test may pass raw clauses, an empty
        one included, for the solver core to treat."""
        lits = self._lits
        count = self.num_clauses
        for clause in clauses:
            lits.extend(clause)
            lits.append(0)
            count += 1
        self.num_clauses = count

    def add_flat(self, lits: list[int], count: int) -> None:
        """Append count clauses given as one list of int literals in the
        store's layout, each clause followed by 0, with no simplification
        (see add_clauses), in one step at C level."""
        self._lits.fromlist(lits)
        self.num_clauses += count

    def _store(self, clause: list[int]) -> None:
        """Append one simplified clause."""
        clause.append(0)
        self._lits.fromlist(clause)
        self.num_clauses += 1

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
        self._store(out)

    @property
    def dimacs_clauses(self) -> Sequence[tuple[int, ...]]:
        """The clauses `write_dimacs` writes, in its order."""
        return [(1,), (-1,)] if self.trivially_unsat else self.clauses

    def dimacs_chunks(self) -> Iterator[str]:
        """DIMACS CNF text in pieces: the header, then whole clause lines,
        about DIMACS_CHUNK store entries at a time.

        A trivially unsatisfiable formula is emitted as the canonical
        two-clause contradiction `1 0 / -1 0` because DIMACS has no empty
        clause convention that all solvers accept.
        """
        if self.trivially_unsat:
            yield "p cnf 1 2\n1 0\n-1 0\n"
            return
        yield f"p cnf {self.num_vars} {self.num_clauses}\n"
        lits = self._lits
        at, size = 0, len(lits)
        while at < size:
            # the store ends with a clause's 0, so a run to the next 0 is
            # whole clauses.  Formatted " %d" each with a space after, every
            # 0 is " 0 ": the first replace ends the lines, except a 0 right
            # after one it ended (an empty clause), which the second ends
            end = lits.index(0, min(at + DIMACS_CHUNK, size) - 1) + 1
            run = lits[at:end]
            text = (" %d" * len(run) + " ") % tuple(run)
            yield text.replace(" 0 ", " 0\n").replace("\n0 ", "\n0\n")[1:]
            at = end

    def write_dimacs(self) -> str:
        """Serialize to DIMACS CNF: the chunks of dimacs_chunks, joined."""
        return "".join(self.dimacs_chunks())


class CountingFormula(CnfFormula):
    """A formula that counts clauses and stores none: the dry-run emissions
    that price a network emit into one.  add_clause still simplifies each
    clause, so num_clauses is what a CnfFormula would hold, and add_flat
    adds its count without reading its literals."""

    counts_only = True

    def add_clauses(self, clauses: Iterable[Sequence[int]]) -> None:
        self.num_clauses += sum(1 for _ in clauses)

    def add_flat(self, lits: list[int], count: int) -> None:
        self.num_clauses += count

    def _store(self, clause: list[int]) -> None:
        self.num_clauses += 1


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
