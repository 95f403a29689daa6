"""Construction-level checks: worked examples, gate counts, determinism, and
input-restricted merger sweeps.  The exhaustive 0-1 sweeps live in
test_acceptance.py."""

from itertools import product

import pytest

from cardnet import build
from cardnet.formulas import (bit_sel_size, oe_merge_size, oe_sort_size,
                              pw_merge_size, pw_sel_size, pw_variant_gap)
from cardnet.encode import DirectMixer, cnf_cost, method_network
from cardnet.verify import run_zero_one, selection_failures

from conftest import check_selection_output, is_top_k_sorted, sorted_runs


# -- splitters ---------------------------------------------------------------

def test_plain_splitter_eval():
    assert build.splitter("plain", 4).eval([0, 1, 1, 1]) == [1, 1, 0, 1]


def test_bitonic_splitter_dominates():
    net = build.splitter("bitonic", 4)
    out = net.eval([1, 0, 1, 1])  # sorted halves 10 and 11
    assert out == [1, 1, 0, 1]
    for a in sorted_runs(2):
        for b in sorted_runs(2):
            out = net.eval(list(a) + list(b))
            assert min(out[:2]) >= max(out[2:])


def test_half_splitter_structure():
    net = build.splitter("half", 8)
    assert net.num_gates == 2
    pairs = [g.inputs for g in net.gates]  # input wire ids are the input slots
    assert pairs == [(2, 6), (3, 7)]  # 1-based (3,7) and (4,8)


def test_splitter_parity_errors():
    with pytest.raises(ValueError):
        build.splitter("plain", 5)
    with pytest.raises(ValueError):
        build.splitter("half", 6)


# -- odd-even merging and sorting ---------------------------------------------

def oe_merge2(n):
    """The odd-even merger of two sorted n/2-sequences."""
    return build.oe_merge_general(n // 2, n // 2)


def test_oe_merge2_examples():
    assert oe_merge2(4).eval([1, 0, 1, 1]) == [1, 1, 1, 0]
    assert oe_merge2(2).eval([0, 1]) == [1, 0]


def test_oe_merge2_gate_counts():
    assert oe_merge2(4).num_gates == 3
    assert oe_merge2(8).num_gates == 9
    for n in (2, 4, 8, 16, 32):
        assert oe_merge2(n).num_gates == oe_merge_size(n)


def test_oe_merge2_exhaustive_on_sorted_halves():
    for n in (2, 4, 8):
        net = oe_merge2(n)
        for a in sorted_runs(n // 2):
            for b in sorted_runs(n // 2):
                out = net.eval(list(a) + list(b))
                assert out == sorted(a + b, reverse=True)


def test_oe_merge_general_lengths():
    for p in range(0, 5):
        for q in range(0, 5):
            if p + q == 0:
                continue
            net = build.oe_merge_general(p, q)
            for a in sorted_runs(p):
                for b in sorted_runs(q):
                    assert net.eval(list(a) + list(b)) == sorted(a + b, reverse=True)


def test_oe_sort_counts_and_example():
    assert build.oe_sort(4).eval([0, 1, 1, 0]) == [1, 1, 0, 0]
    assert build.oe_sort(4).num_gates == 5
    assert build.oe_sort(16).num_gates == 63
    for n in (2, 4, 8, 16, 32):
        assert build.oe_sort(n).num_gates == oe_sort_size(n)
    with pytest.raises(ValueError):
        build.oe_sort(6)


# -- bitonic merging ----------------------------------------------------------

def is_bitonic(xs):
    flips = sum(1 for i in range(len(xs) - 1) if xs[i] != xs[i + 1])
    if flips <= 1:
        return True
    return flips == 2 and xs[0] == xs[-1]


def is_vshape_sdominating(xs):
    n = len(xs)
    down_up = any(all(xs[i] >= xs[i + 1] for i in range(j))
                  and all(xs[i] <= xs[i + 1] for i in range(j, n - 1))
                  for j in range(n))
    sdom = all(xs[j] >= xs[n - 1 - j] for j in range(n // 2))
    return down_up and sdom


def test_bitonic_merge_full():
    net = build.bitonic_merge(4)
    assert net.eval([0, 1, 1, 0]) == [1, 1, 0, 0]
    assert build.bitonic_merge(8).num_gates == 12
    for n in (2, 4, 8):
        net = build.bitonic_merge(n)
        for bits in product((0, 1), repeat=n):
            if is_bitonic(bits):
                assert net.eval(list(bits)) == sorted(bits, reverse=True)


def test_bitonic_merge_half():
    assert build.bitonic_merge(8, half=True).num_gates == 8
    for n in (2, 4, 8):
        net = build.bitonic_merge(n, half=True)
        for bits in product((0, 1), repeat=n):
            if is_vshape_sdominating(bits):
                assert net.eval(list(bits)) == sorted(bits, reverse=True)


# -- block bitonic selection ---------------------------------------------------

def test_bit_sel_examples():
    assert method_network("bitonic_sel", 8, 2).num_gates == 13
    assert method_network("bitonic_sel", 8, 2).eval([0, 0, 1, 0, 0, 1, 0, 0])[:2] == [1, 1]
    assert method_network("bitonic_sel", 4, 4).num_gates == build.oe_sort(4).num_gates
    for n in (2, 4, 8, 16, 32):
        for k in (1, 2, 4, 8, 16):
            if k < n:
                assert method_network("bitonic_sel", n, k).num_gates == bit_sel_size(n, k)


# -- pairwise family ------------------------------------------------------------

def pw_merge_valid_inputs(n, k):
    for l in product((0, 1), repeat=n // 2):
        if not is_top_k_sorted(l, min(k, n // 2)):
            continue
        for r in product((0, 1), repeat=n // 2):
            if not is_top_k_sorted(r, min(k // 2, n // 2)):
                continue
            if any(l[i] < r[i] for i in range(k // 2)):
                continue
            yield list(l) + list(r)


@pytest.mark.parametrize("variant", ["classic", "bitonic", "half_bitonic"])
def test_pw_merge_valid_sweep(variant):
    for n, k in ((4, 2), (8, 2), (8, 4), (16, 4)):
        net = build.pw_merge(n, k, variant)
        for bits in pw_merge_valid_inputs(n, k):
            out = net.eval(bits)
            assert check_selection_output(out, k, sum(bits)), (n, k, variant, bits, out)


def test_pw_merge_example():
    net = build.pw_merge(8, 4)
    out = net.eval([1, 1, 0, 0, 1, 0, 0, 0])
    assert out[:4] == [1, 1, 1, 0]


def test_pw_merge_gate_counts():
    for k in (2, 4, 8, 16):
        for variant in ("classic", "bitonic", "half_bitonic"):
            assert build.pw_merge(2 * k, k, variant).num_gates == pw_merge_size(k, variant)
    assert build.pw_merge(8, 4).num_gates == 5
    assert build.pw_merge(8, 4, "half_bitonic").num_gates == 4


def pw_sel(n, k, variant="classic"):
    return method_network(f"pairwise_{variant}", n, k)


def test_pw_sel_gate_counts():
    assert pw_sel(8, 4).num_gates == 19
    assert pw_sel(8, 4, "half_bitonic").num_gates == 18
    assert (pw_sel(16, 8).num_gates
            - pw_sel(16, 8, "half_bitonic").num_gates) == pw_variant_gap(16) == 6
    for n in (2, 4, 8, 16, 32):
        for k in (1, 2, 4, 8, 16, 32):
            if k <= n:
                for variant in ("classic", "bitonic", "half_bitonic"):
                    assert pw_sel(n, k, variant).num_gates == pw_sel_size(n, k, variant)


def test_pw_sel_example():
    out = pw_sel(8, 2).eval([0, 1, 0, 0, 0, 0, 0, 1])
    assert out[:2] == [1, 1]


def test_pw_domain_errors():
    with pytest.raises(ValueError):
        build.pw_merge(8, 8)
    with pytest.raises(ValueError):
        build.pw_merge(8, 4, "zigzag")


# -- four-wise family -----------------------------------------------------------

def test_mw_sel_worked_example():
    # 22 inputs in columns (8, 7, 4, 3), selecting 6
    bits = [int(c) for c in "1111010010000010000101"]
    cols = (8, 7, 4, 3)
    assert bits[:8] == [1, 1, 1, 1, 0, 1, 0, 0]
    assert bits[8:15] == [1, 0, 0, 0, 0, 0, 1]
    assert bits[15:19] == [0, 0, 0, 0]
    assert bits[19:] == [1, 0, 1]
    net = build.mw_sel(22, 6, cols)
    out = net.eval(bits)
    assert out[:6] == [1, 1, 1, 1, 1, 1]  # nine ones in the input


def test_mw_sel_k1_is_single_selector():
    net = method_network("fourwise", 9, 1)
    hist, combines = net.gate_histogram()
    assert hist == {(9, 1): 1} and combines == 0


def test_mw_sel_rejects_bad_profile():
    with pytest.raises(ValueError):
        build.mw_sel(8, 3, (8, 0, 0, 0))   # first column must be < n
    with pytest.raises(ValueError):
        build.mw_sel(8, 3, (2, 2, 2, 1))   # must sum to n
    with pytest.raises(ValueError):
        build.mw_sel(8, 3, (2, 1, 3, 2))   # must be non-increasing
    with pytest.raises(ValueError):
        build.mw_sel(8, 1, (8, 0, 0, 0))   # checked at k = 1 too
    with pytest.raises(ValueError):
        build.mw_sel(1, 1, (5, 5, 5, 5))   # and at n = 1


def fourw_profiles(k, cmax):
    for c in range(max(1, -(-k // 4)), cmax + 1):
        yield tuple(min(c, k // (i + 1)) for i in range(4))


def test_fourw_merge_example():
    net = build.fourw_merge((4, 2, 1, 1), 4)
    out = net.eval([1, 1, 0, 0, 1, 0, 1, 0])
    assert out[:4] == [1, 1, 1, 1]


def test_fourw_merge_zeros():
    net = build.fourw_merge((2, 2, 1, 1), 4)
    assert net.eval([0] * 6) == [0] * 6


def test_fourw_merge_rejects_empty_first_column():
    with pytest.raises(ValueError):
        build.fourw_merge((0, 0, 0, 0), 1)
    with pytest.raises(ValueError):
        build.fourw_merge((3, 2, 1), 4)


def test_fourw_merge_valid_sweep():
    for k in range(1, 9):
        for lens in set(fourw_profiles(k, 6)):
            if sum(lens) > 12 or lens[0] < 1:
                continue
            net = build.fourw_merge(lens, k)
            for ones in product(*[range(l + 1) for l in lens]):
                if not all(min(ones[i], lens[i + 1]) >= ones[i + 1] for i in range(3)):
                    continue
                bits = [b for i, l in enumerate(lens)
                        for b in [1] * ones[i] + [0] * (l - ones[i])]
                out = net.eval(bits)
                assert check_selection_output(out, k, sum(ones)), (lens, k, bits, out)


# -- four-way odd-even family ----------------------------------------------------

def test_oe4_combine_examples():
    net = build.oe4_combine(5, 3, 6)
    assert net.eval([1, 1, 1, 1, 1, 1, 0, 0]) == [1, 1, 1, 1, 1, 1, 0, 0]
    net = build.oe4_combine(1, 0, 2)
    assert net.eval([1]) == [1]
    net = build.oe4_combine(2, 2, 4)
    assert net.eval([1, 0, 1, 0]) == [1, 1, 0, 0]


def test_oe4_combine_valid_sweep():
    for lx in range(1, 6):
        for ly in range(0, lx + 1):
            for k in range(1, 11):
                if ly > k // 2 or lx > k // 2 + 2 or k > lx + ly:
                    continue
                net = build.oe4_combine(lx, ly, k)
                for ox in range(lx + 1):
                    for oy in range(ly + 1):
                        if not oy <= ox <= oy + 4:
                            continue
                        bits = [1] * ox + [0] * (lx - ox) + [1] * oy + [0] * (ly - oy)
                        out = net.eval(bits)
                        assert out == sorted(bits, reverse=True), (lx, ly, k, bits, out)


def test_oe4_merge_worked_example():
    net = build.oe4_merge((6, 6, 6, 6), 6)
    w = [1, 0, 0, 0, 0, 0]
    x = [1, 1, 1, 0, 0, 0]
    y = [1, 0, 0, 0, 0, 0]
    z = [1, 0, 0, 0, 0, 0]
    out = net.eval(w + x + y + z)
    assert out[:6] == [1, 1, 1, 1, 1, 1]


def test_oe4_merge_small_base_case():
    net = build.oe4_merge((1, 1, 1, 1), 2)
    hist, _ = net.gate_histogram()
    assert hist == {(4, 2): 1}
    assert net.eval([1, 1, 0, 0]) == [1, 1]


def test_oe4_merge_valid_sweep():
    profiles = [(1, 1, 1, 1), (2, 1, 1, 1), (2, 2, 2, 1), (3, 2, 1, 0),
                (3, 3, 3, 3), (2, 2, 0, 0), (4, 3, 2, 1), (3, 0, 0, 0)]
    for lens in profiles:
        nz = [l for l in lens if l]
        s = sum(nz)
        for k in range(max(1, nz[0] if nz else 1), s + 1):
            net = build.oe4_merge(lens, k)
            for cols in product(*[sorted_runs(l) for l in nz]):
                bits = [b for col in cols for b in col]
                out = net.eval(bits)
                assert check_selection_output(out, k, sum(bits)), (lens, k, bits, out)


def test_oe4_sel_column_rule():
    # the even split at every level, whatever k, without empty columns
    assert build._oe4_split(100, 20) == [(25, 20)] * 4
    assert build._oe4_split(7, 3) == [(2, 2), (2, 2), (2, 2), (1, 1)]
    assert build._oe4_split(11, 3) == [(3, 3), (3, 3), (3, 3), (2, 2)]
    assert build._oe4_split(16, 16) == [(4, 4)] * 4
    assert build._oe4_split(2, 2) == [(1, 1), (1, 1)]


def test_oe4_selects_on_every_zero_one_input_to_n12():
    # beyond run_zero_one's n <= 8, where the even split first differs from
    # the old tail-column rule: every (n, m), unmixed and mixed at each lam
    for mixer in (None, DirectMixer("oe4", 1), DirectMixer("oe4", 5), DirectMixer("oe4", 20)):
        for n in range(1, 13):
            for m in range(n + 1):
                assert selection_failures(method_network("oe4", n, m, mixer), n, m) is None, \
                    (mixer, n, m)


def test_oe4_sel_examples():
    out = method_network("oe4", 11, 3).eval([0, 1, 1, 0, 0, 0, 0, 0, 0, 0, 1])
    assert out[:3] == [1, 1, 1]
    assert selection_failures(method_network("oe4", 11, 3), 11, 3) is None


def test_m_oe_sel_examples():
    out = method_network("oe2", 8, 2).eval([0, 1, 0, 0, 0, 0, 1, 0])
    assert out[:2] == [1, 1]
    for method in ("oe3", "sequential"):
        with pytest.raises(ValueError):
            method_network(method, 8, 2)
    # the two-column merger of two sorted k-runs costs (2k log k + 2, 3k log k + 3)
    assert cnf_cost(build.oe_merge_general(4, 4)) == (18, 27)


# -- the zero-one suite sees what the encoder builds ---------------------------------

def test_zero_one_suite_catches_broken_fourwise_correction(monkeypatch):
    # the clean run also fills the mixing cost caches, so the stubbed run
    # prices nothing anew and leaves no wrong cost behind
    assert run_zero_one(log=lambda line: None)
    monkeypatch.setattr(build, "_emit_4w_correction", lambda net, cols, k: None)
    failures = []
    assert not run_zero_one(log=failures.append)
    assert any(line.startswith("  FAIL fourwise(") for line in failures)


# -- determinism ------------------------------------------------------------------

def test_builders_are_deterministic():
    for make in (lambda: method_network("oe4", 13, 5),
                 lambda: pw_sel(16, 4, "half_bitonic"),
                 lambda: method_network("fourwise", 11, 4)):
        a, b = make(), make()
        assert a.num_wires == b.num_wires
        assert a.const_sources() == b.const_sources()
        assert a.gates == b.gates
        assert a.outputs == b.outputs
