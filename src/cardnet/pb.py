"""Pseudo-Boolean front end: OPB parsing, normalization, optimal mixed-radix
base search, and the sorter-chain encoding with carry merging.

An at-least constraint sum(a_i * l_i) >= k with positive coefficients is
compiled by writing every coefficient in a mixed radix base, feeding each
digit position's literals (with multiplicity) into a selection network, and
merging every r-th output of a position - the carries - into the next
position with a dedicated merger.  After adding a constant to the right-hand
side to make it a multiple of the top weight, the whole constraint reduces to
one positive unit clause on the top position's m-th output.  Positive
assertion needs the zero-propagating clause polarity, the mirror image of the
at-most scheme.
"""

from __future__ import annotations

import functools
import re
from contextlib import nullcontext
from dataclasses import dataclass, field
from typing import Sequence

from . import build
from .cnf import FALSE, TRUE, CnfFormula, Lit, neg
from .encode import (EncodeOptions, EncodedConstraint, _chooser, _encode_form, emit_network,
                     select_wires)

MAX_COEFF_MAGNITUDE = 2 ** 62  # 63-bit magnitudes; larger coefficients are rejected
PRIMES_UNDER_50 = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47)


def _terms_value(terms: Sequence[tuple[int, Lit]], model: dict[int, bool]) -> int:
    """Sum of the coefficients whose literal is true under the model."""
    total = 0
    for coeff, lit in terms:
        if lit is TRUE:
            total += coeff
        elif lit is FALSE:
            continue
        elif (model[abs(lit)] if lit > 0 else not model[abs(lit)]):
            total += coeff
    return total


class PbSyntaxError(ValueError):
    def __init__(self, message: str, line: int, column: int = 0):
        super().__init__(f"line {line}, column {column}: {message}")
        self.line = line
        self.column = column


@dataclass(frozen=True)
class PbConstraint:
    terms: tuple[tuple[int, Lit], ...]
    rel: str  # ">=", "<=", "="
    k: int

    def value(self, model: dict[int, bool]) -> int:
        return _terms_value(self.terms, model)

    def holds(self, model: dict[int, bool]) -> bool:
        v = self.value(model)
        return {"<=": v <= self.k, ">=": v >= self.k, "=": v == self.k}[self.rel]


@dataclass
class PbProblem:
    constraints: list[PbConstraint] = field(default_factory=list)
    objective: list[tuple[int, Lit]] | None = None
    var_names: dict[str, int] = field(default_factory=dict)

    @property
    def num_vars(self) -> int:
        return len(self.var_names)


@dataclass(frozen=True)
class MixedRadixBase:
    radices: tuple[int, ...]

    @property
    def weights(self) -> tuple[int, ...]:
        ws = [1]
        for r in self.radices:
            ws.append(ws[-1] * r)
        return tuple(ws)


def parse_opb(text: str) -> PbProblem:
    """Parse the linear OPB subset: `* comments`, an optional `min:` line, and
    constraint lines `(<sign><int> <var>)+ (>=|<=|=) <int> ;`."""
    problem = PbProblem()
    term_re = re.compile(r"([+-]?\d+)\s+([A-Za-z_][A-Za-z0-9_]*)")

    def var_of(name: str) -> int:
        if name not in problem.var_names:
            problem.var_names[name] = len(problem.var_names) + 1
        return problem.var_names[name]

    def parse_terms(src: str, lineno: int) -> list[tuple[int, Lit]]:
        terms = []
        pos = 0
        while pos < len(src):
            m = term_re.match(src, pos)
            if not m:
                raise PbSyntaxError(f"expected a term, got {src[pos:pos + 20]!r}",
                                    lineno, pos + 1)
            coeff = int(m.group(1))
            if abs(coeff) >= MAX_COEFF_MAGNITUDE:
                raise PbSyntaxError("coefficient magnitude exceeds 63 bits",
                                    lineno, pos + 1)
            terms.append((coeff, var_of(m.group(2))))
            pos = m.end()
            while pos < len(src) and src[pos].isspace():
                pos += 1
        return terms

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("*"):
            continue
        if line.startswith("min:"):
            if problem.objective is not None:
                raise PbSyntaxError("duplicate objective line", lineno)
            body = line[len("min:"):].strip()
            if not body.endswith(";"):
                raise PbSyntaxError("objective must end with ';'", lineno, len(raw))
            problem.objective = parse_terms(body[:-1].strip(), lineno)
            continue
        if not line.endswith(";"):
            raise PbSyntaxError("constraint must end with ';'", lineno, len(raw))
        body = line[:-1].strip()
        rel_m = re.search(r"(>=|<=|=)", body)
        if not rel_m:
            raise PbSyntaxError("missing relation", lineno)
        lhs, rel, rhs = body[:rel_m.start()], rel_m.group(1), body[rel_m.end():]
        try:
            k = int(rhs.strip())
        except ValueError:
            raise PbSyntaxError(f"malformed right-hand side {rhs.strip()!r}",
                                lineno, rel_m.end() + 1) from None
        if abs(k) >= MAX_COEFF_MAGNITUDE:
            raise PbSyntaxError("right-hand side exceeds 63 bits", lineno)
        terms = parse_terms(lhs.strip(), lineno)
        if not terms:
            raise PbSyntaxError("constraint has no terms", lineno)
        problem.constraints.append(PbConstraint(tuple(terms), rel, k))
    return problem


def normalize_pb(c: PbConstraint) -> list[PbConstraint]:
    """Rewrite into at-least form(s): positive coefficients over possibly
    negated literals, one term per variable, k required to be >= 1 (k <= 0 is
    trivially true and yields no constraint)."""
    if c.rel == "=":
        return (normalize_pb(PbConstraint(c.terms, ">=", c.k))
                + normalize_pb(PbConstraint(c.terms, "<=", c.k)))
    terms, k = list(c.terms), c.k
    if c.rel == "<=":
        terms = [(-a, l) for a, l in terms]
        k = -k
    # now an at-least form; merge the terms of each variable (a*~v is
    # a - a*v), then flip negative coefficients
    merged: dict[int, int] = {}
    for a, l in terms:
        if a == 0 or l is FALSE:
            continue
        if l is TRUE:
            k -= a
            continue
        if l < 0:
            l, a = -l, -a
            k += a
        merged[l] = merged.get(l, 0) + a
    out = []
    for l, a in merged.items():
        if a < 0:
            l, a = neg(l), -a
            k += a
        if a > 0:
            out.append((a, l))
    if k <= 0:
        return []
    return [PbConstraint(tuple(sorted(out, key=lambda t: (abs(t[1]), t[1] < 0, -t[0]))),
                         ">=", k)]


# ---------------------------------------------------------------------------
# mixed radix machinery
# ---------------------------------------------------------------------------

def to_digits(v: int, base: MixedRadixBase) -> list[int]:
    """Digits of v, least significant first; the top digit is unbounded."""
    if v < 0:
        raise ValueError("digits are defined for non-negative values")
    digits = []
    for r in base.radices:
        digits.append(v % r)
        v //= r
    digits.append(v)
    return digits


def value_of(digits: Sequence[int], base: MixedRadixBase) -> int:
    ws = base.weights
    if len(digits) != len(ws):
        raise ValueError("digit vector length must be len(radices) + 1")
    return sum(d * w for d, w in zip(digits, ws))


def base_cost(coeffs: Sequence[int], base: MixedRadixBase) -> int:
    """Sum of all coefficient digits in the base."""
    return sum(sum(to_digits(c, base)) for c in coeffs)


def find_base(coeffs: Sequence[int]) -> MixedRadixBase:
    """Branch-and-bound search for a prime (< 50) radix sequence minimizing
    the total digit sum; ties break to the shorter, lexicographically
    smaller base."""
    coeffs = [c for c in coeffs if c > 0]
    if not coeffs:
        return MixedRadixBase(())
    max_coeff = max(coeffs)
    best: list[tuple[int, int, tuple[int, ...]]] = [(sum(coeffs), 0, ())]

    def lower_bound(cost_so_far: int, residues: Sequence[int]) -> int:
        return cost_so_far + sum(1 for r in residues if r > 0)

    def dfs(prefix: tuple[int, ...], weight: int, residues: list[int], cost_so_far: int):
        total = cost_so_far + sum(residues)
        cand = (total, len(prefix), prefix)
        if cand < best[0]:
            best[0] = cand
        # any extension costs at least one digit per nonzero residue
        if lower_bound(cost_so_far, residues) > best[0][0]:
            return
        for p in PRIMES_UNDER_50:
            if weight * p > max_coeff:
                break
            dfs(prefix + (p,), weight * p,
                [r // p for r in residues],
                cost_so_far + sum(r % p for r in residues))

    dfs((), 1, list(coeffs), 0)
    return MixedRadixBase(best[0][2])


def simplify_rhs(c: PbConstraint, base: MixedRadixBase) -> tuple[int, int]:
    """Minimal constant to add to both sides so the bound becomes an exact
    multiple of the top weight; returns (const_add, adjusted bound)."""
    if c.rel != ">=":
        raise ValueError("simplify_rhs applies to normalized at-least forms")
    w_last = base.weights[-1]
    const_add = (w_last - c.k % w_last) % w_last
    return const_add, c.k + const_add


# ---------------------------------------------------------------------------
# digit-position planning and emission
# ---------------------------------------------------------------------------

@dataclass
class PositionPlan:
    weight: int
    radix: int | None             # None for the top position
    bundles: list[tuple[Lit, int]]
    max_inputs: int = 0           # digits plus maximal possible carries
    t_outputs: int = 0            # outputs worth exposing after truncation


@dataclass
class DigitPlan:
    base: MixedRadixBase
    const_add: int
    adjusted_k: int
    assert_index: int             # 1-based output of the top position
    positions: list[PositionPlan]


def plan_digits(c: PbConstraint, base: MixedRadixBase) -> DigitPlan:
    """Distribute every coefficient's digits (and the added constant's) over
    the weight positions and fix each position's truncated output count."""
    const_add, k_adj = simplify_rhs(c, base)
    npos = len(base.radices) + 1
    positions = [PositionPlan(base.weights[i],
                              base.radices[i] if i < len(base.radices) else None, [])
                 for i in range(npos)]
    for coeff, lit in c.terms:
        for i, d in enumerate(to_digits(coeff, base)):
            if d:
                positions[i].bundles.append((lit, d))
    for i, d in enumerate(to_digits(const_add, base)):
        if d:
            positions[i].bundles.append((TRUE, d))
    carries = 0
    for pos in positions:
        pos.max_inputs = sum(mult for _, mult in pos.bundles) + carries
        carries = pos.max_inputs // pos.radix if pos.radix else 0
    m_assert = k_adj // base.weights[-1]
    positions[-1].t_outputs = min(positions[-1].max_inputs, m_assert)
    for i in range(npos - 2, -1, -1):
        r = positions[i].radix
        positions[i].t_outputs = min(positions[i].max_inputs,
                                     positions[i + 1].t_outputs * r + r - 1)
    return DigitPlan(base, const_add, k_adj, m_assert, positions)


def encode_pb(formula: CnfFormula, c: PbConstraint, base: MixedRadixBase | None = None,
              opts: EncodeOptions | None = None) -> EncodedConstraint:
    """Encode a normalized at-least constraint through the digit/carry chain.

    All-unit-coefficient constraints degenerate to the cardinality encoder:
    at-most n-k over the negated literals, on its cheaper side.  Otherwise
    the chain is one network (build.carry_chain): each position selects its
    top outputs, and every r-th of them, the carries, is merged (not
    appended) into the next position.  It is emitted in zero-propagating
    polarity reading the top position's outputs, so a position below the
    top emits only what its carries need, and one positive unit asserts the
    top position's m-th output.
    """
    opts = opts or EncodeOptions()
    if c.rel != ">=" or any(a <= 0 for a, _ in c.terms) or c.k < 1:
        raise ValueError("encode_pb expects a normalized at-least constraint")
    total = sum(a for a, _ in c.terms)
    if total < c.k:
        formula.add_clause([])
        return EncodedConstraint(formula, tuple(l for _, l in c.terms), c.k)
    if base is None:
        base = find_base([a for a, _ in c.terms])
    if all(a == 1 for a, _ in c.terms):
        # plain cardinality: at-least k over lits == at-most n-k over negations
        lits = [l for _, l in c.terms]
        return _encode_form(formula, [neg(l) for l in lits], len(lits) - c.k, opts)
    plan = plan_digits(c, base)
    if plan.positions[-1].max_inputs < plan.assert_index:
        formula.add_clause([])
        return EncodedConstraint(formula, tuple(l for _, l in c.terms), c.k)
    # every digit occurrence is one network input, position by position
    in_lits = [lit for pos in plan.positions for lit, mult in pos.bundles for _ in range(mult)]
    net = build.carry_chain(
        [(sum(mult for _, mult in pos.bundles), pos.t_outputs, pos.radix)
         for pos in plan.positions],
        functools.partial(select_wires, chooser=_chooser(opts)))
    outs = net.outputs
    if plan.assert_index > len(outs):
        formula.add_clause([])
        return EncodedConstraint(formula, tuple(l for _, l in c.terms), c.k)
    top = emit_network(formula, net, in_lits, "atleast", range(len(outs)))
    formula.add_clause([top[plan.assert_index - 1]])
    return EncodedConstraint(formula, tuple(l for _, l in c.terms), c.k, tuple(top))


def encode_goal_bound(formula: CnfFormula, objective: Sequence[tuple[int, Lit]],
                      bound: int, flag: Lit | None,
                      opts: EncodeOptions | None = None) -> None:
    """Encode f(x) <= bound - 1; with a flag literal every emitted clause gets
    ~flag disjoined, so fixing flag to 0 disables the bound."""
    with nullcontext() if flag is None else formula.guarded(neg(flag)):
        for norm in normalize_pb(PbConstraint(tuple(objective), "<=", bound - 1)):
            encode_pb(formula, norm, opts=opts)
