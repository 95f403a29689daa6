"""Closed-form size analytics for the comparator network constructions.

Every formula takes log to mean log base 2.  Formulas whose source derivation
omits floors are registered as approximate; upper bounds are flagged as such.
Values are returned as int when integral, otherwise Fraction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Callable

from . import build
from .build import _is_pow2
from .cnf import CnfFormula
from .encode import cnf_cost, encode_baseline, method_network


def _log2(x: int) -> int:
    if not _is_pow2(x):
        raise ValueError(f"{x} is not a power of 2")
    return x.bit_length() - 1


def _num(x: Fraction) -> int | Fraction:
    return int(x) if x.denominator == 1 else x


def oe_sort_size(n: int) -> int:
    """Comparators in the odd-even merge sorter: n*log(n)*(log(n)-1)/4 + n - 1."""
    lg = _log2(n)
    return n * lg * (lg - 1) // 4 + n - 1


def oe_merge_size(n: int) -> int:
    """Comparators in the odd-even merger of two sorted n/2-sequences."""
    if n < 2:
        raise ValueError("merge needs n >= 2")
    lg = _log2(n)
    return (n // 2) * (lg - 1) + 1


def pw_merge_size(k: int, variant: str = "classic") -> int:
    """Comparators in the pairwise merger, by variant."""
    lg = _log2(k)
    if variant == "classic":
        return k * lg - k + 1
    if variant == "bitonic":
        return k * lg // 2 + k // 2
    if variant == "half_bitonic":
        return k * lg // 2
    raise ValueError(f"unknown pairwise merger variant {variant!r}")


def bit_merge_size(n: int) -> int:
    """Comparators in the bitonic merger: n*log(n)/2."""
    return n * _log2(n) // 2


def half_bit_merge_size(n: int) -> int:
    """Comparators in the half-bitonic merger: n*log(n)/2 - n/2."""
    return bit_merge_size(n) - n // 2


def bit_sel_size(n: int, k: int) -> int | Fraction:
    """Comparators in the block-based bitonic selection network (k < n)."""
    if not (_is_pow2(n) and _is_pow2(k) and 1 <= k < n):
        raise ValueError("bitonic selection size needs powers of 2 with k < n")
    lk = _log2(k)
    val = (Fraction(n * lk * lk, 4) + Fraction(n * lk, 4) + 2 * n
           - Fraction(k * lk, 2) - k - Fraction(n, k))
    return _num(val)


@lru_cache(maxsize=None)
def pw_sel_size(n: int, k: int, variant: str = "classic") -> int:
    """Comparators in the pairwise selection network, unrolled recurrence.

    Base cases: a single 1-selector gate at k == 1 and the odd-even sorter at
    k == n; otherwise split + two recursive selections + the variant merger.
    """
    if not (_is_pow2(n) and _is_pow2(k) and 1 <= k <= n):
        raise ValueError("pairwise selection needs powers of 2 with k <= n")
    if k == 1:
        return 1 if n > 1 else 0
    if k == n:
        return oe_sort_size(n)
    return (pw_sel_size(n // 2, min(n // 2, k), variant)
            + pw_sel_size(n // 2, min(n // 2, k // 2), variant)
            + n // 2
            + pw_merge_size(k, variant))


def pw_variant_gap(n: int) -> int:
    """Comparators saved by half-bitonic over classic pairwise merging at k = n/2:
    n*(log(n) - 4)/2 + log(n) + 2."""
    lg = _log2(n)
    return n * (lg - 4) // 2 + lg + 2


def pw_size_difference(n_exp: int, k_exp: int) -> int:
    """Exact classic-minus-half-bitonic comparator difference for order 2^n_exp,
    selecting 2^k_exp, via the binomial sum form."""
    if not 0 <= k_exp <= n_exp:
        raise ValueError("need 0 <= k_exp <= n_exp")
    n, k = n_exp, k_exp
    s = sum(math.comb(n - k + j, j) * 2 ** (k - j) for j in range(k + 1))
    val = (Fraction(math.comb(n, k) * (n + 1), 2) - Fraction(s * (n - 2 * k + 1), 2)
           - 2 ** k * (k - 1) - 1)
    return int(val)


def pw_half_bitonic_upper_bound(n_exp: int, k_exp: int) -> Fraction:
    """Upper bound on comparators in the half-bitonic pairwise selection network
    of order 2^n_exp selecting 2^k_exp."""
    n, k = n_exp, k_exp
    if not 0 < k < n:
        raise ValueError("bound holds for 0 < k_exp < n_exp")
    m = min(k, n - k)
    r = Fraction(3, 2) ** m
    return (Fraction(2 ** (n - 2)) * (Fraction(4 * k - 2 * m - 7, 4) ** 2
                                      + Fraction(9 * k, 2) + Fraction(79, 16))
            + Fraction(2 ** k) * r * (Fraction(k, 2) - Fraction(m, 6))
            - 2 ** k * (k + 1) - 2 ** (n - k) * r)


def oe2_merge_vars(k: int) -> int:
    """Aux variables of the two-column odd-even merger of two sorted k-sequences."""
    return 2 * k * _log2(k) + 2


def oe2_merge_clauses(k: int) -> int:
    return 3 * k * _log2(k) + 3


def oe4_merge_vars_bound(k: int) -> int:
    """Upper bound on aux variables of the four-way odd-even merger at s = 4k."""
    return (k - 2) * _log2(k) + 5 * k - 1


def oe4_merge_clauses_bound(k: int) -> int | Fraction:
    return _num(Fraction(5 * k - 10, 2) * _log2(k) + 21 * k - 6)


def fourw_sorter_counts(k: int) -> tuple[Fraction, Fraction, Fraction]:
    """Approximate (2-sorter, 3-sorter, 4-sorter) totals of the four-wise
    merger's slope-sorting iterations at column profile (k, k/2, k/3, k/4)."""
    lg = _log2(k)
    two = Fraction(13 * k, 12) - 1
    three = Fraction(k, 2) - 1
    four = Fraction(k * lg, 4) - Fraction(13 * k, 24)
    return two, three, four


def fourw_merge_vars(k: int) -> Fraction:
    """Approximate aux variables of the four-wise merger's slope iterations."""
    return Fraction(k * _log2(k)) + Fraction(7 * k, 6) - 5


def dsv_lower_bound(n: int, k: int) -> Fraction:
    """Lower bound on the variable saving of the four-column odd-even selection
    network over the two-column one: (n-k)(5k+2)/(3k) * log(k/2) + 3(n/k - 1)."""
    if k < 2:
        raise ValueError("bound needs k >= 2")
    return (Fraction((n - k) * (5 * k + 2), 3 * k) * (_log2(k) - 1)
            + 3 * (Fraction(n, k) - 1))


def sequential_clauses(n: int, k: int) -> int:
    """Clause count of the sequential counter at-most-k encoding, which keeps
    only the counter's k(n-k) live variables: 2k(n-k) + n - 2k."""
    if not 1 <= k < n:
        raise ValueError("sequential counter needs 1 <= k < n")
    return 2 * k * (n - k) + n - 2 * k


def binomial_clauses(n: int, k: int) -> int:
    """Clause count of the binomial at-most-k encoding: C(n, k+1)."""
    return math.comb(n, k + 1)


@dataclass(frozen=True)
class FormulaInfo:
    name: str
    kind: str  # "exact" | "upper_bound" | "approximate"
    domain: str
    text: str
    fn: Callable
    check: Callable[[], bool] | None = None


def _registry() -> list[FormulaInfo]:
    def chk_oe_sort():
        return all(build.oe_sort(n).num_gates == oe_sort_size(n) for n in (2, 4, 8, 16, 32))

    def chk_oe_merge():
        return all(build.oe_merge_general(n // 2, n // 2).num_gates == oe_merge_size(n)
                   for n in (2, 4, 8, 16, 32))

    def chk_pw_merge():
        return all(build.pw_merge(2 * k, k, v).num_gates == pw_merge_size(k, v)
                   for k in (2, 4, 8, 16)
                   for v in ("classic", "bitonic", "half_bitonic"))

    def chk_bit_merge():
        return all(build.bitonic_merge(n).num_gates == bit_merge_size(n) for n in (2, 4, 8, 16))

    def chk_half_bit_merge():
        return all(build.bitonic_merge(n, half=True).num_gates == half_bit_merge_size(n)
                   for n in (2, 4, 8, 16))

    def chk_bit_sel():
        return all(method_network("bitonic_sel", n, k).num_gates == bit_sel_size(n, k)
                   for n in (2, 4, 8, 16, 32) for k in (1, 2, 4, 8, 16) if k < n)

    def chk_pw_sel():
        return all(method_network(f"pairwise_{v}", n, k).num_gates == pw_sel_size(n, k, v)
                   for n in (2, 4, 8, 16, 32) for k in (1, 2, 4, 8, 16, 32) if k <= n
                   for v in ("classic", "bitonic", "half_bitonic"))

    def chk_gap():
        return all(pw_sel_size(n, n // 2, "classic") - pw_sel_size(n, n // 2, "half_bitonic")
                   == pw_variant_gap(n) for n in (8, 16, 32))

    def chk_sd():
        return all(pw_size_difference(ne, ke)
                   == pw_sel_size(2 ** ne, 2 ** ke, "classic")
                   - pw_sel_size(2 ** ne, 2 ** ke, "half_bitonic")
                   for ne in range(1, 6) for ke in range(0, ne + 1))

    def chk_pw_bound():
        return all(pw_sel_size(2 ** ne, 2 ** ke, "half_bitonic")
                   <= pw_half_bitonic_upper_bound(ne, ke)
                   for ne in range(2, 6) for ke in range(1, ne))

    def chk_oe2():
        ok = True
        for k in (2, 4, 8):
            net = build.oe_merge_general(k, k)
            v, c = cnf_cost(net)
            ok = ok and v == oe2_merge_vars(k) and c == oe2_merge_clauses(k)
        return ok

    def chk_oe4_bounds():
        ok = True
        for k in (4, 8, 16):
            net = build.oe4_merge((k, k, k, k), k)
            v, c = cnf_cost(net, range(k))
            ok = ok and v <= oe4_merge_vars_bound(k) and c <= oe4_merge_clauses_bound(k)
        return ok

    def chk_fourw():
        ok = True
        for k in (16, 32, 64):
            cols = (k, k // 2, k // 3, k // 4)
            hist, _ = build.fourw_slope(cols).gate_histogram()
            two = sum(c for (n, _m), c in hist.items() if n == 2)
            three = sum(c for (n, _m), c in hist.items() if n == 3)
            four = sum(c for (n, _m), c in hist.items() if n == 4)
            e2, e3, e4 = fourw_sorter_counts(k)
            for got, want in ((two, e2), (three, e3), (four, e4)):
                ok = ok and abs(got - want) <= Fraction(want, 10)
        return ok

    def chk_seq():
        ok = True
        for n in range(2, 7):
            for k in range(1, n):
                f = CnfFormula()
                lits = f.fresh_vars(n)
                encode_baseline(f, lits, k, "sequential")
                ok = ok and f.num_clauses == sequential_clauses(n, k)
        return ok

    def chk_binom():
        ok = True
        for n in range(2, 8):
            for k in range(0, n):
                f = CnfFormula()
                lits = f.fresh_vars(n)
                encode_baseline(f, lits, k, "binomial")
                ok = ok and f.num_clauses == binomial_clauses(n, k)
        return ok

    return [
        FormulaInfo("oe_sort_size", "exact", "n a power of 2",
                    "n*log(n)*(log(n)-1)/4 + n - 1", oe_sort_size, chk_oe_sort),
        FormulaInfo("oe_merge_size", "exact", "n a power of 2, n >= 2",
                    "(n/2)*(log(n)-1) + 1", oe_merge_size, chk_oe_merge),
        FormulaInfo("pw_merge_size", "exact", "k a power of 2; variants classic/bitonic/half_bitonic",
                    "k*log(k)-k+1 ; k*log(k)/2+k/2 ; k*log(k)/2", pw_merge_size, chk_pw_merge),
        FormulaInfo("bit_merge_size", "exact", "n a power of 2",
                    "n*log(n)/2", bit_merge_size, chk_bit_merge),
        FormulaInfo("half_bit_merge_size", "exact", "n a power of 2",
                    "n*log(n)/2 - n/2", half_bit_merge_size, chk_half_bit_merge),
        FormulaInfo("bit_sel_size", "exact", "n, k powers of 2, k < n",
                    "n*log^2(k)/4 + n*log(k)/4 + 2n - k*log(k)/2 - k - n/k",
                    bit_sel_size, chk_bit_sel),
        FormulaInfo("pw_sel_size", "exact", "n, k powers of 2, k <= n",
                    "recurrence: split + two selections + merger", pw_sel_size, chk_pw_sel),
        FormulaInfo("pw_variant_gap", "exact", "n a power of 2, k = n/2",
                    "n*(log(n)-4)/2 + log(n) + 2", pw_variant_gap, chk_gap),
        FormulaInfo("pw_size_difference", "exact", "exponent pair (n, k), k <= n",
                    "C(n,k)(n+1)/2 - S(n,k)(n-2k+1)/2 - 2^k(k-1) - 1",
                    pw_size_difference, chk_sd),
        FormulaInfo("pw_half_bitonic_upper_bound", "upper_bound", "exponent pair, 0 < k < n",
                    "2^(n-2)((k-m/2-7/4)^2 + 9k/2 + 79/16) + ... , m = min(k, n-k)",
                    pw_half_bitonic_upper_bound, chk_pw_bound),
        FormulaInfo("oe2_merge_vars/clauses", "exact", "k a power of 2",
                    "V = 2k*log(k)+2, C = 3k*log(k)+3", oe2_merge_vars, chk_oe2),
        FormulaInfo("oe4_merge_bounds", "upper_bound", "k a power of 2, s = 4k",
                    "V <= (k-2)log(k)+5k-1, C <= (5k/2-5)log(k)+21k-6",
                    oe4_merge_vars_bound, chk_oe4_bounds),
        FormulaInfo("fourw_sorter_counts", "approximate", "k a power of 2 >= 16 (floors omitted)",
                    "2-sorters 13k/12-1, 3-sorters k/2-1, 4-sorters k*log(k)/4-13k/24",
                    fourw_sorter_counts, chk_fourw),
        FormulaInfo("fourw_merge_vars", "approximate", "k a power of 2 >= 16 (floors omitted)",
                    "k*log(k) + 7k/6 - 5", fourw_merge_vars, None),
        FormulaInfo("dsv_lower_bound", "upper_bound", "k <= n/4, both powers of 4",
                    "(n-k)(5k+2)/(3k)*log(k/2) + 3(n/k-1)", dsv_lower_bound, None),
        FormulaInfo("sequential_clauses", "exact", "1 <= k < n",
                    "2k(n-k) + n - 2k", sequential_clauses, chk_seq),
        FormulaInfo("binomial_clauses", "exact", "0 <= k < n",
                    "C(n, k+1)", binomial_clauses, chk_binom),
    ]


FORMULAS: dict[str, FormulaInfo] = {}


def registry() -> dict[str, FormulaInfo]:
    if not FORMULAS:
        for info in _registry():
            FORMULAS[info.name] = info
    return FORMULAS
