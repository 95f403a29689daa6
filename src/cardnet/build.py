"""Constructors for every comparator/selection network in the package.

All builders are deterministic pure functions: identical parameters produce
identical gate lists and wire numbering, so downstream CNF output is
byte-identical across runs.  Internal helpers operate on (network, wire-list)
pairs.  The column-recursive selection methods (oe4, oe2, fourwise) share one
level builder, _select_columns, run over a method's column split and merger,
whose columns recurse through the caller's select (encode.select_wires, which
may pick another method's level or a direct selector for each); the
power-of-two methods are their own recursions (_emit_pw_sel, _emit_bit_sel).
encode.method_network alone turns either into a method's network.  The
public functions here wrap the sub-constructions (mergers, splitters, the
sorter, the four-wise slope phase, the combine, direct selectors) and mw_sel,
the four-wise selection over an explicit column profile, in a fresh Network
whose inputs are the wire list and whose outputs are the constructed sequence.
carry_chain builds the pseudo-Boolean digit/carry chain as one Network.

Convention: every sorting/selection result is in non-increasing order, and a
"selection" result is a full-length sequence whose k-prefix holds the k
largest elements sorted; the remaining positions carry leftovers (or constant
padding when a sub-result was replaced by a direct selector).
"""

from __future__ import annotations

from typing import Sequence

from .network import Network
from .seqs import even, odd, zip_cols


def _is_pow2(x: int) -> bool:
    return x >= 1 and (x & (x - 1)) == 0


def _sort2(net: Network, a: int, b: int) -> tuple[int, int]:
    hi, lo = net.add_selector((a, b), 2)
    return hi, lo


def _sortm(net: Network, wires: Sequence[int]) -> list[int]:
    """Full sorter gate over up to a handful of wires; identity for length < 2."""
    if len(wires) < 2:
        return list(wires)
    return list(net.add_selector(tuple(wires), len(wires)))


def _columns(wires: Sequence[int], lens: Sequence[int]) -> list[list[int]]:
    """Consecutive slices of wires with the given lengths."""
    cols, at = [], 0
    for ln in lens:
        cols.append(wires[at:at + ln])
        at += ln
    return cols


# ---------------------------------------------------------------------------
# direct selectors and splitters
# ---------------------------------------------------------------------------

def direct_selector(n: int, m: int) -> Network:
    """A single m-selector gate of order n."""
    net = Network(n)
    outs = net.add_selector(net.input_wires(), m)
    net.set_outputs(outs)
    return net


def splitter(kind: str, n: int) -> Network:
    """One layer of 2-sorters: plain (i, i+n/2), bitonic (i, n-i+1), or the
    half variant of the plain splitter with its first quarter removed."""
    if n % 2 != 0:
        raise ValueError("splitter needs even n")
    if kind == "half" and n % 4 != 0:
        raise ValueError("half splitter needs n divisible by 4")
    net = Network(n)
    cur = net.input_wires()
    _emit_splitter(net, cur, kind)
    net.set_outputs(cur)
    return net


def _emit_splitter(net: Network, cur: list[int], kind: str) -> None:
    n = len(cur)
    if kind == "plain":
        pairs = [(i, i + n // 2) for i in range(n // 2)]
    elif kind == "bitonic":
        pairs = [(i, n - 1 - i) for i in range(n // 2)]
    elif kind == "half":
        pairs = [(n // 4 + i, 3 * n // 4 + i) for i in range(n // 4)]
    else:
        raise ValueError(f"unknown splitter kind {kind!r}")
    for i, j in pairs:
        cur[i], cur[j] = _sort2(net, cur[i], cur[j])


# ---------------------------------------------------------------------------
# odd-even merging and sorting
# ---------------------------------------------------------------------------

def _emit_oe_merge(net: Network, xs: list[int], ys: list[int]) -> list[int]:
    """Merge two sorted sequences of arbitrary lengths, odd-even style."""
    if not xs:
        return list(ys)
    if not ys:
        return list(xs)
    if len(xs) == 1 and len(ys) == 1:
        return list(_sort2(net, xs[0], ys[0]))
    v = _emit_oe_merge(net, odd(xs), odd(ys))
    w = _emit_oe_merge(net, even(xs), even(ys))
    out = [v[0]]
    npairs = min(len(w), len(v) - 1)
    for j in range(npairs):
        hi, lo = _sort2(net, w[j], v[j + 1])
        out.extend((hi, lo))
    out.extend(v[npairs + 1:])
    out.extend(w[npairs:])
    return out


def _emit_oe_sort(net: Network, wires: Sequence[int]) -> list[int]:
    if len(wires) <= 1:
        return list(wires)
    h = len(wires) // 2
    a = _emit_oe_sort(net, wires[:h])
    b = _emit_oe_sort(net, wires[h:])
    return _emit_oe_merge(net, a, b)


def oe_merge_general(p: int, q: int) -> Network:
    """Odd-even merger of sorted sequences of lengths p and q (any lengths)."""
    net = Network(p + q)
    wires = net.input_wires()
    net.set_outputs(_emit_oe_merge(net, wires[:p], wires[p:]))
    return net


def oe_sort(n: int) -> Network:
    if not _is_pow2(n):
        raise ValueError("odd-even sorter needs n a power of 2")
    net = Network(n)
    net.set_outputs(_emit_oe_sort(net, net.input_wires()))
    return net


# ---------------------------------------------------------------------------
# bitonic merging and block selection
# ---------------------------------------------------------------------------

def _emit_bit_merge(net: Network, wires: Sequence[int]) -> list[int]:
    """Sort a bitonic sequence: split, then recurse on both halves."""
    if len(wires) == 1:
        return list(wires)
    cur = list(wires)
    _emit_splitter(net, cur, "plain")
    h = len(cur) // 2
    return _emit_bit_merge(net, cur[:h]) + _emit_bit_merge(net, cur[h:])


def _emit_half_bit_merge(net: Network, wires: Sequence[int]) -> list[int]:
    """Sort a v-shaped s-dominating sequence; the plain splitter loses its
    first quarter and the base pair needs no comparator at all."""
    if len(wires) <= 2:
        return list(wires)
    cur = list(wires)
    _emit_splitter(net, cur, "half")
    h = len(cur) // 2
    return _emit_half_bit_merge(net, cur[:h]) + _emit_bit_merge(net, cur[h:])


def bitonic_merge(n: int, half: bool = False) -> Network:
    if not _is_pow2(n) or n < 2:
        raise ValueError("bitonic merger needs n a power of 2, n >= 2")
    if half and n % 4 != 0 and n != 2:
        raise ValueError("half-bitonic merger needs n divisible by 4 (or n = 2)")
    net = Network(n)
    emit = _emit_half_bit_merge if half else _emit_bit_merge
    net.set_outputs(emit(net, net.input_wires()))
    return net


def _emit_bit_sel(net: Network, wires: list[int], k: int) -> list[int]:
    """Block selection: sort k-blocks, then repeatedly bitonic-split pairs of
    blocks, keep the dominating half and re-sort it bitonically."""
    blocks = [_emit_oe_sort(net, wires[i:i + k]) for i in range(0, len(wires), k)]
    residue: list[int] = []
    while len(blocks) > 1:
        nxt = []
        for i in range(0, len(blocks), 2):
            cur = blocks[i] + blocks[i + 1]
            _emit_splitter(net, cur, "bitonic")
            nxt.append(_emit_bit_merge(net, cur[:k]))
            residue.extend(cur[k:])
        blocks = nxt
    return blocks[0] + residue


# ---------------------------------------------------------------------------
# pairwise selection
# ---------------------------------------------------------------------------

def _emit_pw_merge_classic(net: Network, l: list[int], r: list[int], k: int) -> list[int]:
    n = len(l) + len(r)
    if n <= 2 or k == 1:
        return zip_cols(l, r)
    y = _emit_pw_merge_classic(net, odd(l), odd(r), k // 2)
    yp = _emit_pw_merge_classic(net, even(l), even(r), k // 2)
    z = zip_cols(y, yp)
    for i in range(1, k):
        z[2 * i - 1], z[2 * i] = _sort2(net, z[2 * i - 1], z[2 * i])
    return z


def _emit_pw_merge_bitonic(net: Network, l: list[int], r: list[int], k: int,
                           half: bool) -> list[int]:
    # Fold the relevant quarter of each side into a v-shaped s-dominating
    # k-sequence with one bitonic splitter, then sort it.
    cur = l[k // 2: k] + r[: k // 2]
    _emit_splitter(net, cur, "bitonic")
    b = l[: k // 2] + cur[: k // 2]
    residue = cur[k // 2:] + l[k:] + r[k // 2:]
    merged = _emit_half_bit_merge(net, b) if half else _emit_bit_merge(net, b)
    return merged + residue


def pw_merge(n: int, k: int, variant: str = "classic") -> Network:
    """Pairwise merger; the halves are input slots 1..n/2 and n/2+1..n.

    The first half must be top-k sorted, the second top-k/2 sorted, and the
    k/2-prefix of the first must weakly dominate that of the second.
    """
    if not (_is_pow2(n) and _is_pow2(k) and 1 <= k < n and k <= n // 2):
        raise ValueError("pairwise merger needs n, k powers of 2 with k <= n/2")
    net = Network(n)
    wires = net.input_wires()
    l, r = wires[: n // 2], wires[n // 2:]
    if variant == "classic":
        out = _emit_pw_merge_classic(net, l, r, k)
    elif variant in ("bitonic", "half_bitonic"):
        out = _emit_pw_merge_bitonic(net, l, r, k, half=(variant == "half_bitonic"))
    else:
        raise ValueError(f"unknown pairwise merger variant {variant!r}")
    net.set_outputs(out)
    return net


def _emit_pw_sel(net: Network, wires: list[int], k: int, variant: str) -> list[int]:
    n = len(wires)
    if k == n:
        return _emit_oe_sort(net, wires)
    if k == 1:
        if n == 1:
            return wires
        y = net.add_selector(tuple(wires), 1)
        return [y[0]] + [net.const_wire(0)] * (n - 1)
    cur = list(wires)
    _emit_splitter(net, cur, "plain")
    h = n // 2
    l = _emit_pw_sel(net, cur[:h], min(h, k), variant)
    r = _emit_pw_sel(net, cur[h:], min(h, k // 2), variant)
    if variant == "classic":
        return _emit_pw_merge_classic(net, l, r, k)
    return _emit_pw_merge_bitonic(net, l, r, k, half=(variant == "half_bitonic"))


# ---------------------------------------------------------------------------
# four-wise selection (column split + slope-sorting merger)
# ---------------------------------------------------------------------------

def _check_fourw_profile(lens: Sequence[int], k: int) -> None:
    if len(lens) != 4:
        raise ValueError("four-wise merger takes exactly 4 columns")
    c = lens[0]
    if c < 1:
        raise ValueError("four-wise merger needs a non-empty first column")
    expect = [min(c, k // (i + 1)) for i in range(4)]
    if list(lens) != expect:
        raise ValueError(f"column profile {list(lens)} must be {expect} for k={k}")


def _emit_4w_slope(net: Network, cols: list[list[int]]) -> None:
    """Slope-sorting iterations: halve the stride h and sort the diagonal
    chains until column one-counts can differ by at most one."""
    w, x, y, z = cols
    k1, k2, k3, k4 = (len(c) for c in cols)
    d = (k1 - 1).bit_length()
    h = 1 << d
    while h > 1:
        h //= 2
        for j in range(1, min(k3 - h, k4) + 1):
            if j + 3 * h <= k1 and j + 2 * h <= k2:
                z[j - 1], y[j + h - 1], x[j + 2 * h - 1], w[j + 3 * h - 1] = _sortm(
                    net, (z[j - 1], y[j + h - 1], x[j + 2 * h - 1], w[j + 3 * h - 1]))
            elif j + 2 * h <= k2:
                z[j - 1], y[j + h - 1], x[j + 2 * h - 1] = _sortm(
                    net, (z[j - 1], y[j + h - 1], x[j + 2 * h - 1]))
            else:
                z[j - 1], y[j + h - 1] = _sort2(net, z[j - 1], y[j + h - 1])
        for j in range(1, min(k2 - h, k3, h) + 1):
            if j + 2 * h <= k1:
                y[j - 1], x[j + h - 1], w[j + 2 * h - 1] = _sortm(
                    net, (y[j - 1], x[j + h - 1], w[j + 2 * h - 1]))
            else:
                y[j - 1], x[j + h - 1] = _sort2(net, y[j - 1], x[j + h - 1])
        for j in range(1, min(k1 - h, k2, h) + 1):
            x[j - 1], w[j + h - 1] = _sort2(net, x[j - 1], w[j + h - 1])


def _emit_4w_correction(net: Network, cols: list[list[int]], k: int) -> None:
    """Two correction stages restoring row-major order, plus the boundary
    special cases (including k mod 4 == 3)."""
    w, x, y, z = cols
    k1, k2, k3, k4 = (len(c) for c in cols)
    for j in range(1, min(k1 - 2, k4) + 1):
        z[j - 1], w[j + 1] = _sort2(net, z[j - 1], w[j + 1])
    for j in range(1, min(k2 - 1, k4) + 1):
        y[j - 1], z[j - 1], w[j], x[j] = _sortm(
            net, (y[j - 1], z[j - 1], w[j], x[j]))
    if k1 > k4 and k2 == k4 and k4 >= 1:
        y[k4 - 1], z[k4 - 1], w[k4] = _sortm(net, (y[k4 - 1], z[k4 - 1], w[k4]))
    if k % 4 == 3 and k1 > k3 and k4 < k3 and k4 + 1 < k1:
        y[k4], w[k4 + 1] = _sort2(net, y[k4], w[k4 + 1])


def _emit_4w_merge(net: Network, cols: list[list[int]], k: int) -> list[int]:
    cols = [list(c) for c in cols]
    _emit_4w_slope(net, cols)
    _emit_4w_correction(net, cols, k)
    return zip_cols(*cols)


def fourw_slope(col_lens: Sequence[int]) -> Network:
    """The slope-sorting phase of the four-wise merger, as its own network
    (used by the size analytics; the correction stages are excluded)."""
    net = Network(sum(col_lens))
    cols = _columns(net.input_wires(), col_lens)
    _emit_4w_slope(net, cols)
    net.set_outputs(zip_cols(*cols))
    return net


def fourw_merge(col_lens: Sequence[int], k: int) -> Network:
    """Four-wise merger over a four-column tuple with the exact column profile
    (min(c, k/i) for the i-th column); inputs are column-major."""
    _check_fourw_profile(col_lens, k)
    net = Network(sum(col_lens))
    cols = _columns(net.input_wires(), col_lens)
    net.set_outputs(_emit_4w_merge(net, cols, k))
    return net


def even_split4(n: int) -> tuple[int, int, int, int]:
    """Near-even four-way split with non-increasing parts and n1 < n for n >= 2."""
    parts = tuple((n + 4 - i) // 4 for i in range(1, 5))
    return parts  # sums to n


def _mw_split(n: int, k: int, sizes: Sequence[int] | None = None) -> list[tuple[int, int]]:
    """(length, selected) of each column one four-wise level recurses into:
    the columns are sizes, or even_split4(n) by default."""
    sizes = even_split4(n) if sizes is None else sizes
    return [(s, min(s, k // (i + 1))) for i, s in enumerate(sizes)]


def _mw_merge(net: Network, cols: list[list[int]], k: int) -> list[int]:
    """Four-wise merger of the columns' selected prefixes: column i is padded
    with zeros to min(c, k/i) wires (c the first column's length), and the
    padding, which only ever holds zeros, is trimmed off the merged output."""
    zero = net.const_wire(0)
    c = len(cols[0])
    padded = [col + [zero] * (min(c, k // (i + 1)) - len(col)) for i, col in enumerate(cols)]
    pad = sum(map(len, padded)) - sum(map(len, cols))
    res = _emit_4w_merge(net, padded, k)
    return res[:len(res) - pad]


def mw_sel(n: int, k: int, col_sizes: Sequence[int]) -> Network:
    """Four-column selection network over the given column profile at the
    top level and even_split4 below (the fourwise method is this network
    over even_split4(n))."""
    if not 0 <= k <= n:
        raise ValueError("need 0 <= k <= n")
    sizes = list(col_sizes)
    if len(sizes) != 4 or sum(sizes) != n or any(sizes[i] < sizes[i + 1] for i in range(3)) \
            or sizes[0] >= n or sizes[-1] < 0:
        raise ValueError(f"invalid column profile {sizes} for n={n}")

    def select(net: Network, wires: list[int], j: int) -> list[int]:
        return _select_columns(net, wires, j, _mw_split, _mw_merge, select, sort_rows=True)

    net = Network(n)
    net.set_outputs(_select_columns(net, net.input_wires(), k,
                                    lambda m, j: _mw_split(m, j, sizes), _mw_merge, select,
                                    sort_rows=True))
    return net


# ---------------------------------------------------------------------------
# four-way odd-even selection
# ---------------------------------------------------------------------------

def _emit_oe4_combine(net: Network, xs: list[int], ys: list[int]) -> list[int]:
    """Fused combine of two sorted sequences (the x side may hold up to four
    more ones than the y side).  Emits one combine-pair gate per output pair."""
    if not ys:
        return list(xs)
    if len(ys) > len(xs):
        raise ValueError("combine expects the first sequence to be the longer one")
    s = len(xs) + len(ys)
    t_wire = net.const_wire(1)
    f_wire = net.const_wire(0)
    # out-of-range neighbours as padding: TRUE below the ys (y_{-2}, y_{-1}),
    # FALSE past either end; pair m reads y_{m-2..m} and x_{m..m+2}
    ypad = [t_wire, t_wire] + ys + [f_wire] * (len(xs) + 3)
    xpad = xs + [f_wire] * 3
    out: list[int] = []
    for m in range((s + 1) // 2):
        want_y = 2 * m + 2 <= s
        ox, oy = net.add_combine(ypad[m], ypad[m + 1], ypad[m + 2],
                                 xpad[m], xpad[m + 1], xpad[m + 2], True, want_y)
        out.append(ox)
        if oy is not None:
            out.append(oy)
    return out


def oe4_combine(len_x: int, len_y: int, k: int) -> Network:
    """Standalone combine network; inputs are the x sequence then the y one."""
    if len_y > k // 2 or len_x > k // 2 + 2:
        raise ValueError("combine inputs exceed the k/2 (+2) bounds")
    net = Network(len_x + len_y)
    wires = net.input_wires()
    net.set_outputs(_emit_oe4_combine(net, wires[:len_x], wires[len_x:]))
    return net


def _emit_oe4_merge(net: Network, cols: list[list[int]], k: int) -> list[int]:
    cols = [list(c) for c in cols] + [[]] * (4 - len(cols))
    lens = [len(c) for c in cols]
    if lens != sorted(lens, reverse=True):
        raise ValueError("merger columns must have non-increasing lengths")
    w = cols[0]
    if not lens[1]:
        return list(w)
    s = sum(lens)
    if lens[0] == 1:
        flat = [wire for c in cols for wire in c]
        return list(net.add_selector(tuple(flat), min(k, s)))
    sb = sum(ln // 2 for ln in lens)
    sa = s - sb
    ka = min(sa, k // 2 + 2)
    kb = min(sb, k // 2)
    a = _emit_oe4_merge(net, [odd(c) for c in cols], ka)
    b = _emit_oe4_merge(net, [even(c) for c in cols], kb)
    combined = _emit_oe4_combine(net, a[:ka], b[:kb])
    return combined + a[ka:] + b[kb:]


def oe4_merge(col_lens: Sequence[int], k: int) -> Network:
    """Four-way odd-even merger of up to four sorted columns (column-major input)."""
    lens = [ln for ln in col_lens if ln > 0]
    s = sum(lens)
    if not 1 <= k <= s:
        raise ValueError("need 1 <= k <= total length")
    if lens and k < lens[0]:
        raise ValueError("first column may not be longer than k")
    net = Network(s)
    cols = _columns(net.input_wires(), lens)
    net.set_outputs(_emit_oe4_merge(net, cols, k))
    return net


def _oe4_split(n: int, k: int) -> list[tuple[int, int]]:
    """(length, selected) of each non-empty column one four-way odd-even
    level recurses into: the even split, whatever k.  Any split gives an
    arc-consistent network, so the split is chosen by size under lam*V + C
    (measured in docs/encoding-guide.md); this one also recurses only about
    log4(n) deep."""
    return [(s, min(k, s)) for s in even_split4(n) if s]


# ---------------------------------------------------------------------------
# two-column odd-even selection
# ---------------------------------------------------------------------------

def _oe2_split(n: int, k: int) -> list[tuple[int, int]]:
    """(length, selected) of the two halves one odd-even level recurses into."""
    h = (n + 1) // 2
    return [(h, min(k, h)), (n - h, min(k, n - h))]


def _oe2_merge(net: Network, cols: list[list[int]], k: int) -> list[int]:
    """Odd-even merger of the two halves' selected prefixes."""
    return _emit_oe_merge(net, cols[0], cols[1])


# ---------------------------------------------------------------------------
# column-recursive selection (oe4, oe2, fourwise)
# ---------------------------------------------------------------------------

def _select_columns(net: Network, wires: list[int], k: int, split, merge, select,
                    sort_rows: bool = False) -> list[int]:
    """Select the k largest of wires by one level of columns.

    split(n, k) gives each column's (length, selected).  With sort_rows the
    rows across the columns are sorted first, so that the columns' one-counts
    are non-increasing.  select(net, wires, k) builds each column's
    selection, whose k-prefix holds the column's k largest sorted: any
    selection network, or the free wires when a level is priced on its own.
    merge(net, prefixes, k) merges the columns' selected prefixes, and the
    columns' leftovers follow in column order.  Every split in use shrinks
    the longest column to about n/2 or less, so a recursion through select
    is about log n deep.
    """
    n = len(wires)
    if k == 0 or n <= 1:
        return list(wires)
    if k == 1:
        return list(net.add_selector(tuple(wires), 1))
    sizes = split(n, k)
    cols = _columns(wires, [s for s, _ in sizes])
    if sort_rows:
        for row in range(sizes[0][0]):
            members = [i for i, (s, _) in enumerate(sizes) if s > row]
            if len(members) >= 2:
                outs = _sortm(net, [cols[i][row] for i in members])
                for i, wire in zip(members, outs):
                    cols[i][row] = wire
    prefixes, leftovers = [], []
    for col, (_, ki) in zip(cols, sizes):
        sel = select(net, col, ki)
        prefixes.append(sel[:ki])
        leftovers += sel[ki:]
    return merge(net, prefixes, k) + leftovers


# ---------------------------------------------------------------------------
# pseudo-Boolean digit/carry chain
# ---------------------------------------------------------------------------

def carry_chain(positions: Sequence[tuple[int, int, int | None]], select) -> Network:
    """The digit/carry chain of a pseudo-Boolean constraint as one network.

    Each position, least significant first, is (digits, t, radix): it takes
    the next `digits` network inputs, and select(net, wires, t) selects
    their top t.  Those are merged with the carries from below (a four-way
    odd-even merger) to the top t, and every radix-th merged wire is a carry
    into the next position.  The top position has radix None, and its merged
    wires are the outputs.
    """
    net = Network(sum(size for size, _, _ in positions))
    inputs = net.input_wires()
    at = 0
    carries: list[int] = []
    outs: list[int] = []
    for size, t, radix in positions:
        digits = inputs[at:at + size]
        at += size
        t_sel = min(t, size)
        sel = select(net, digits, t_sel)[:t_sel] if size > 1 and t_sel else digits[:t_sel]
        outs = _merge_top(net, sel, carries, t)
        if radix:
            carries = outs[radix - 1::radix]
    net.set_outputs(outs)
    return net


def _merge_top(net: Network, a: list[int], b: list[int], t: int) -> list[int]:
    """The top t of two sorted wire runs."""
    if not b:
        return a[:t]
    if not a:
        return b[:t]
    cols = sorted([a, b], key=len, reverse=True)
    k = min(t, len(a) + len(b))
    return _emit_oe4_merge(net, [col[:k] for col in cols], k)[:t]
