from fractions import Fraction
from itertools import product

import pytest

from cardnet import build
from cardnet.formulas import (binomial_clauses, bit_merge_size, bit_sel_size,
                              fourw_merge_vars, half_bit_merge_size, oe_sort_size,
                              pw_merge_size, pw_variant_gap, registry, sequential_clauses)
from cardnet.encode import cnf_cost, method_network
from cardnet.network import CombinePair, Network


def test_selector_eval_examples():
    net = build.direct_selector(4, 1)
    assert net.eval([0, 1, 0, 0]) == [1]
    net = build.direct_selector(5, 3)
    assert net.eval([0, 1, 0, 0, 1]) == [1, 1, 0]
    net = build.direct_selector(2, 2)
    assert net.eval([0, 1]) == [1, 0]
    assert build.direct_selector(5, 3).eval([1, 1, 1, 1, 0]) == [1, 1, 1]


def test_eval_validates_input():
    net = build.direct_selector(3, 1)
    with pytest.raises(ValueError):
        net.eval([0, 1])
    with pytest.raises(ValueError):
        net.eval([0, 2, 0])


def test_combine_pair_eval_example():
    # y_{i-2..i} = 1,1,0 and x_{i..i+2} = 1,0,0  ->  y'' = 0, x'' = 1
    net = Network(6)
    ym2, ym1, yy, xx, xp1, xp2 = net.input_wires()
    ox, oy = net.add_combine(ym2, ym1, yy, xx, xp1, xp2, True, True)
    net.set_outputs([ox, oy])
    assert net.eval([1, 1, 0, 1, 0, 0]) == [1, 0]


def test_combine_pair_matches_two_layer_comparators():
    # on inputs consistent with sortedness, the fused outputs equal the
    # max/min results of the two comparator layers
    net = Network(6)
    ym2, ym1, yy, xx, xp1, xp2 = net.input_wires()
    ox, oy = net.add_combine(ym2, ym1, yy, xx, xp1, xp2, True, True)
    net.set_outputs([ox, oy])
    for bits in product((0, 1), repeat=6):
        b_ym2, b_ym1, b_yy, b_xx, b_xp1, b_xp2 = bits
        if not (b_ym2 >= b_ym1 >= b_yy and b_xx >= b_xp1 >= b_xp2):
            continue
        yp = max(b_yy, b_xp2)          # first layer on (y_i, x_{i+2})
        xp_next = min(b_ym1, b_xp1)    # first layer on (y_{i-1}, x_{i+1})
        xp_cur = min(b_ym2, b_xx)      # first layer on (y_{i-2}, x_i)
        want_y = max(yp, xp_next)      # second layer
        want_x = min(max(b_ym1, b_xp1), xp_cur)
        assert net.eval(list(bits)) == [want_x, want_y]


def test_cnf_cost_single_selectors():
    assert cnf_cost(build.direct_selector(4, 4)) == (4, 15)
    assert cnf_cost(build.direct_selector(4, 1)) == (1, 4)
    assert cnf_cost(build.direct_selector(2, 2)) == (2, 3)


def test_cnf_cost_matches_emission():
    from cardnet.cnf import CnfFormula
    from cardnet.encode import emit_network

    for net in (build.oe_sort(8), method_network("oe4", 9, 3),
                method_network("pairwise_classic", 8, 4), method_network("fourwise", 10, 4)):
        f = CnfFormula()
        lits = f.fresh_vars(net.num_inputs)
        before_v, before_c = f.num_vars, f.num_clauses
        emit_network(f, net, lits)
        assert cnf_cost(net) == (f.num_vars - before_v, f.num_clauses - before_c)


def test_gate_histogram():
    hist, combines = build.oe_sort(4).gate_histogram()
    assert hist == {(2, 2): 5} and combines == 0
    hist, combines = build.oe4_combine(5, 3, 6).gate_histogram()
    assert combines == 4 and not hist
    hist, _ = build.direct_selector(6, 3).gate_histogram()
    assert hist == {(6, 3): 1}


def test_permutation_networks_preserve_ones():
    for net, n in ((build.oe_sort(8), 8), (build.oe_merge_general(4, 4), 8),
                   (build.bitonic_merge(8), 8),
                   (build.fourw_merge((4, 2, 1, 1), 4), 8)):
        # no gate discards elements: every selector is a full sorter
        assert all(type(g) is CombinePair or g.m == g.order for g in net.gates)
        for bits in product((0, 1), repeat=n):
            assert sum(net.eval(list(bits))) == sum(bits)


def test_selector_idempotent_on_sorted_input():
    for n in range(1, 7):
        for m in range(1, n + 1):
            net = build.direct_selector(n, m)
            for ones in range(n + 1):
                bits = [1] * ones + [0] * (n - ones)
                assert net.eval(bits) == bits[:m]


def test_closed_form_values():
    assert oe_sort_size(n=4) == 5
    assert oe_sort_size(n=8) == 19
    assert oe_sort_size(n=16) == 63
    assert pw_merge_size(k=4, variant="classic") == 5
    assert pw_merge_size(k=4, variant="half_bitonic") == 4
    assert pw_merge_size(k=8, variant="half_bitonic") == 12
    assert bit_merge_size(n=8) == 12
    assert half_bit_merge_size(n=8) == 8
    assert bit_sel_size(n=8, k=2) == 13
    assert pw_variant_gap(n=16) == 6
    assert binomial_clauses(n=4, k=1) == 6
    assert sequential_clauses(n=4, k=2) == 8
    assert all(registry()[f.__name__].fn is f for f in (oe_sort_size, pw_merge_size,
                                                       bit_sel_size, sequential_clauses))


def test_closed_form_domain_errors():
    with pytest.raises(ValueError):
        oe_sort_size(n=6)
    with pytest.raises(ValueError):
        bit_sel_size(n=8, k=8)
    with pytest.raises(KeyError):
        registry()["nonsense"]


def test_formula_registry_checks_pass():
    for name, info in registry().items():
        if info.check is not None:
            assert info.check(), f"registered formula check failed: {name}"


def test_fourw_approximation_is_fraction():
    v = fourw_merge_vars(k=16)
    assert isinstance(v, Fraction)
