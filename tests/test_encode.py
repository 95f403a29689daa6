"""Clause-emission contracts, normalization, mixing, and baseline encoders."""

import functools
import gc
import hashlib
import inspect
import random
import sys
import tracemalloc
import weakref
from collections import Counter
from unittest import mock

import pytest

from cardnet import build, encode
from cardnet.cnf import FALSE, TRUE, CnfFormula, is_const
from cardnet.cnfp import encode_cnfp, queens_cnfp
from cardnet.encode import (MIXED_METHODS, NETWORK_METHODS, AtMostForm, CardConstraint,
                            Chooser, EncodeOptions, _chooser, _constant_wires,
                            build_selection_network, choose_direct, cnf_cost, emit_bounds,
                            emit_network, encode_atmost, encode_baseline, encode_card,
                            encode_cards, method_network, normalize_card, recursive_cost,
                            select_wires, strengthen)
from cardnet.network import Network
from cardnet.pb import PbConstraint, encode_pb, find_base, normalize_pb, plan_digits
from cardnet.sat import Assignment, Propagator, dpll_sat
from conftest import _propagated, _without_dead_gates, unfolded_bounds
from test_golden import LARGE, SIZES


def test_normalize_card_examples():
    norm = normalize_card(CardConstraint((1, 2, 3), ">=", 2))
    assert len(norm.atmosts) == 1
    assert norm.atmosts[0].lits == (-1, -2, -3) and norm.atmosts[0].k == 1

    norm = normalize_card(CardConstraint((1, 2), "=", 1))
    assert {(f.lits, f.k) for f in norm.atmosts} == {((-1, -2), 1), ((1, 2), 1)}

    norm = normalize_card(CardConstraint((1, 2), "<", 1))
    assert norm.atmosts[0].k == 0 and norm.atmosts[0].lits == (1, 2)

    assert normalize_card(CardConstraint((1, 2), "<=", -1)).trivially_unsat
    assert normalize_card(CardConstraint((1, 2), "<=", 2)).atmosts == ()


def test_normalize_card_folds_constants():
    norm = normalize_card(CardConstraint((1, TRUE, 2), "<=", 1))
    assert norm.atmosts[0] .lits == (1, 2) and norm.atmosts[0].k == 0
    norm = normalize_card(CardConstraint((1, FALSE), "<=", 0))
    assert norm.atmosts[0].lits == (1,) and norm.atmosts[0].k == 0


def test_normalize_card_folds_complementary_pairs():
    # x and ~x count exactly one together; the surplus occurrences remain
    norm = normalize_card(CardConstraint((1, -1, 2, 1, 3, 1), "<=", 3))
    assert norm.atmosts == (AtMostForm((2, 1, 3, 1), 2),)
    norm = normalize_card(CardConstraint((1, -1, -2, 2), "<=", 1))
    assert norm.trivially_unsat


def test_selector_emission_two_sorter():
    f = CnfFormula()
    a, b = f.fresh_vars(2)
    net = Network(2)
    net.set_outputs(net.add_selector(net.input_wires(), 2))
    c, d = emit_network(f, net, [a, b])
    assert sorted(f.clauses) == sorted([(-a, c), (-b, c), (-a, -b, d)])


def test_selector_emission_counts():
    f = CnfFormula()
    lits = f.fresh_vars(3)
    net = Network(3)
    net.set_outputs(net.add_selector(net.input_wires(), 2))
    emit_network(f, net, lits)
    assert f.num_clauses == 6  # C(3,1) + C(3,2)


def test_selector_emission_constant_flow():
    f = CnfFormula()
    a = f.fresh_var()
    net = Network(2)
    net.set_outputs(net.add_selector(net.input_wires(), 2))
    before = f.next_var
    c, d = emit_network(f, net, [a, FALSE])
    assert d is FALSE
    assert f.next_var - before == 1
    assert f.clauses == [(-a, c)]


def test_combine_emission_interior():
    f = CnfFormula()
    ym2, ym1, yy, xx, xp1, xp2 = f.fresh_vars(6)
    net = Network(6)
    ox, oy = net.add_combine(*net.input_wires(), True, True)
    net.set_outputs([ox, oy])
    before = f.next_var
    emit_network(f, net, [ym2, ym1, yy, xx, xp1, xp2])
    assert f.next_var - before == 2
    assert f.num_clauses == 5


def test_combine_emission_boundaries():
    # y_{i-2} constant-true simplifies its guard away
    f = CnfFormula()
    ym1, yy, xx, xp1, xp2 = f.fresh_vars(5)
    net = Network(5)
    wires = net.input_wires()
    ox, oy = net.add_combine(net.const_wire(1), *wires, True, True)
    net.set_outputs([ox, oy])
    emit_network(f, net, [ym1, yy, xx, xp1, xp2])
    x_var = net.outputs[0]
    # x'' = (ym1 & xx) | (TRUE & xp1): two 2-literal implications
    assert (any(len(c) == 2 and -xp1 in c for c in f.clauses))

    # x_{i+2} beyond range drops one implication of y''
    f2 = CnfFormula()
    ym2, ym1, yy, xx, xp1 = f2.fresh_vars(5)
    net2 = Network(5)
    ox, oy = net2.add_combine(*net2.input_wires(), net2.const_wire(0), True, True)
    net2.set_outputs([ox, oy])
    emit_network(f2, net2, [ym2, ym1, yy, xx, xp1])
    assert f2.num_clauses == 4


def test_encode_atmost_direct_selector_counts():
    # 3 literals, bound 1: a direct (3,2)-selector whose asserted second
    # output is folded: it keeps its three clauses without it, and there is
    # no unit
    f = CnfFormula()
    lits = f.fresh_vars(3)
    enc = encode_atmost(f, lits, 1, EncodeOptions(method="oe4"))
    assert f.clauses == [(-1, 4), (-2, 4), (-3, 4), (-1, -2), (-1, -3), (-2, -3)]
    assert f.num_vars == 4  # 1 aux
    assert enc.output_lits == (4, FALSE)


def test_encode_atmost_k0_units():
    f = CnfFormula()
    lits = f.fresh_vars(3)
    enc = encode_atmost(f, lits, 0)
    assert sorted(f.clauses) == [(-3,), (-2,), (-1,)]
    assert enc.output_lits == ()


def test_encode_atmost_rejects_bad_k():
    f = CnfFormula()
    lits = f.fresh_vars(3)
    with pytest.raises(ValueError):
        encode_atmost(f, lits, 3)


def test_choose_direct_examples():
    opts = EncodeOptions()
    assert choose_direct(2, 2, opts)
    assert choose_direct(4, 1, opts)
    assert not choose_direct(100, 2, opts)
    # with direct mixing off the encoder never builds a direct selector
    assert not choose_direct(2, 2, EncodeOptions(direct_mixing=False))
    # deterministic and cached
    assert choose_direct(9, 3, opts) == choose_direct(9, 3, opts)


def test_choose_direct_rejects_non_network_methods():
    for method in ("sequential", "totalizer", "binomial"):
        with pytest.raises(ValueError):
            choose_direct(9, 3, EncodeOptions(method=method))


def test_direct_cost_comparison():
    rv, rc = recursive_cost("oe4", 5, 4, 1)
    assert 5 * 1 + 4 <= 5 * rv + rc


# (direct count, sha256 of the decision bits over 2 <= n <= 64, 1 <= m <= n in
# row-major order).  First recorded from the pricing that rebuilt and dry-ran
# the whole recursive network for every sub-problem; re-recorded once when the
# emitter began to skip gate outputs no read output depends on, so that each
# side of a decision is the exact size of what is emitted for its m-prefix;
# oe4 re-recorded when its levels began to split evenly into four columns;
# auto recorded when it came in, its direct selectors chosen against the
# cheapest of the oe4, oe2 and fourwise levels
SEED_DECISIONS = {
    ("auto", 1): (75, "31626c1ec09e3f5933fda8b78ec2c745a0044f8a599fca89a3d8a6f532c9879d"),
    ("auto", 5): (86, "767cebaf1529b1ce38882fb9efbb4091a56621b5774ab26bae6f405c5ee42019"),
    ("auto", 20): (114, "8e37c72488d3d3b391af0d28ebd628e064685b674f1143954c58c5e18b54703f"),
    ("oe4", 1): (77, "6f5f005be2c305aecec0b34b8d11dc70eab21ff496ff4a44304cd2d117e86b3c"),
    ("oe4", 5): (89, "54d0d2b7c68076168246e22e9afe690f56dacf0bd0276f9ab95c574cb995d453"),
    ("oe4", 20): (121, "c86ef92a350f391fa1dab4e46a5d4f05ad950500aca7d568f885d949c28b866c"),
    ("oe2", 1): (75, "31626c1ec09e3f5933fda8b78ec2c745a0044f8a599fca89a3d8a6f532c9879d"),
    ("oe2", 5): (86, "767cebaf1529b1ce38882fb9efbb4091a56621b5774ab26bae6f405c5ee42019"),
    ("oe2", 20): (115, "bd6c10eb83032b06970ca152ad4861e35f93a5731a2ecd75e46a0a4fd6e34bb1"),
    ("fourwise", 1): (75, "31626c1ec09e3f5933fda8b78ec2c745a0044f8a599fca89a3d8a6f532c9879d"),
    ("fourwise", 5): (89, "97da91dd3c6a2c1d9979384821e61243eabf83eff0c7f7388b434e751869d8bd"),
    ("fourwise", 20): (124, "9fbde98870d1c886743478ada14477f6ae5b1ab975affb8a9aa8e9b6eb7789b9"),
}
LARGE_POINTS = ((256, 33), (300, 17), (129, 128), (200, 3))


@pytest.mark.parametrize("method", MIXED_METHODS)
def test_mixing_decisions_match_seed(method):
    for lam in (1, 5, 20):
        chooser = Chooser(method, lam)
        bits = "".join("1" if chooser.use_direct(n, m) else "0"
                       for n in range(2, 65) for m in range(1, n + 1))
        digest = hashlib.sha256(bits.encode()).hexdigest()
        assert (bits.count("1"), digest) == SEED_DECISIONS[method, lam]
        assert not any(chooser.use_direct(n, m) for n, m in LARGE_POINTS)


@pytest.mark.parametrize("lam", (1, 5, 20))
@pytest.mark.parametrize("method", MIXED_METHODS)
def test_recursive_cost_matches_dry_run(method, lam):
    chooser = Chooser(method, lam)
    points = [(n, m) for n in range(2, 65) for m in range(1, n + 1)]
    for n, m in points + list(LARGE_POINTS[:2]):
        net = method_network(method, n, m, chooser)
        assert recursive_cost(method, lam, n, m) == cnf_cost(net, range(m)), (n, m)


@pytest.mark.parametrize("lam", (1, 5, 20))
@pytest.mark.parametrize("method", MIXED_METHODS)
def test_cost_asserted_matches_dry_run(method, lam):
    # the folded price of each (n, m) selection asserted at its m-th output,
    # and of each level, against a dry run of the network built as priced,
    # emitted with the fold; mixed and with no direct selector
    for chooser in (Chooser(method, lam), Chooser(method, lam, direct=False)):
        for n in range(2, 41):
            for m in range(1, n + 1):
                net = build_selection_network(method, n, m, chooser, asserted=True)
                assert chooser.cost(n, m, True) == cnf_cost(net, range(m), m - 1), (n, m)
                if chooser.use_direct(n, m, True):  # the level it was weighed against
                    net = method_network(method, n, m, chooser, asserted=True)
                    assert chooser.best_level(n, m, True)[1] == cnf_cost(net, range(m), m - 1)


def _prices(chooser, n, m, k, j):
    """What each pricing dry run gives for a seeded (n, m) selection and a
    j <= sum <= k pair: cnf_cost asserted and not, _side_cost in both
    polarities, _level_cost of each level construction, and _bounds_cost."""
    method = chooser.method
    prices = []
    for asserted in (False, True):
        net = build_selection_network(method, n, m, chooser, asserted)
        prices.append(cnf_cost(net, range(m), m - 1 if asserted else None))
        if method in MIXED_METHODS:
            for name in encode._TABLE[method].levels or (method,):
                children = encode._TABLE[name].split(n, m)
                prices.append(encode._level_cost(name, n, m, children, asserted)[:2])
    for atmost in (True, False):
        prices.append(encode._side_cost.__wrapped__(chooser, n, m, atmost))
    prices.append(encode._bounds_cost(chooser, n, k, j))
    return prices


def test_pricing_counts_what_an_emission_stores():
    # the price dry runs emit into a formula that only counts; each price
    # must equal that of the same dry run into a formula that stores
    rng = random.Random(22)
    for method in NETWORK_METHODS:
        chooser = Chooser(method, 5)
        for _ in range(10):
            n = rng.randint(2, 24)
            m = rng.randint(2, n)
            k = rng.randint(1, n - 1)
            j = rng.randint(1, k)
            counted = _prices(chooser, n, m, k, j)
            with mock.patch.object(encode, "CountingFormula", CnfFormula), \
                    mock.patch.object(encode, "_LEVEL_COSTS", {}):
                stored = _prices(chooser, n, m, k, j)
            assert counted == stored, (method, n, m, k, j)


@pytest.mark.parametrize("method", MIXED_METHODS)
def test_recursive_cost_prices_the_unmixed_network(method):
    # lam None takes no direct sub-selection, the network --no-direct builds
    points = [(n, m) for n in range(2, 33) for m in range(1, n + 1)]
    for n, m in points + [(256, 33), (256, 249)]:
        net = method_network(method, n, m)
        assert recursive_cost(method, None, n, m) == cnf_cost(net, range(m)), (n, m)


def test_mixing_preserves_equisatisfiability():
    for n, k in ((6, 2), (9, 4), (12, 3)):
        f = CnfFormula()
        lits = f.fresh_vars(n)
        encode_atmost(f, lits, k, EncodeOptions(method="oe4", direct_mixing=True))
        for bits in range(1 << n):
            fixing = [v if (bits >> i) & 1 else -v for i, v in enumerate(lits)]
            status, _ = dpll_sat(f, fixing)
            assert status == ("SAT" if bin(bits).count("1") <= k else "UNSAT")


def test_sequential_counts():
    f = CnfFormula()
    lits = f.fresh_vars(4)
    encode_baseline(f, lits, 2, "sequential")
    assert f.num_clauses == 8
    assert f.num_vars == 4 + 2 * 2  # k(n-k) aux


def test_binomial_counts():
    f = CnfFormula()
    lits = f.fresh_vars(4)
    encode_baseline(f, lits, 1, "binomial")
    assert f.num_clauses == 6
    assert f.num_vars == 4  # no aux


def test_totalizer_tree_shape_and_node_clauses():
    f = CnfFormula()
    lits = f.fresh_vars(5)
    encode_baseline(f, lits, 2, "totalizer")
    # tree: 5 -> (2, 3), 3 -> (1, 2); linking vars 2 + 3 + 2, root 5, assert 1
    assert f.num_vars == 5 + 2 + 2 + 3 + 5
    # the 3-node (x3 with the pair (x4, x5)) produces exactly these ten clauses
    s3 = (8, 9)        # pair node vars
    s2 = (10, 11, 12)  # 3-node vars
    x3 = 3
    expect = [(-s3[0], s2[0]), (-s3[1], s2[1]), (-x3, s2[0]),
              (-x3, -s3[0], s2[1]), (-x3, -s3[1], s2[2]),
              (-s2[0], x3, s3[0]), (-s2[1], x3, s3[1]), (-s2[2], x3),
              (-s2[1], s3[0]), (-s2[2], s3[1])]
    for clause in expect:
        assert tuple(clause) in f.clauses


def test_baselines_agree_with_binomial():
    for n in range(2, 8):
        for k in range(0, n):
            formulas = {}
            for which in ("binomial", "sequential", "totalizer"):
                f = CnfFormula()
                lits = f.fresh_vars(n)
                encode_baseline(f, lits, k, which)
                formulas[which] = f
            for bits in range(1 << n):
                fixing = [v if (bits >> i) & 1 else -v for i, v in enumerate(range(1, n + 1))]
                verdicts = {which: dpll_sat(f, fixing)[0] for which, f in formulas.items()}
                assert len(set(verdicts.values())) == 1, (n, k, bits, verdicts)


def test_encode_card_equality():
    f = CnfFormula()
    x1, x2 = f.fresh_vars(2)
    encode_card(f, CardConstraint((x1, x2), "=", 1))
    for bits, want in ((0b00, "UNSAT"), (0b01, "SAT"), (0b10, "SAT"), (0b11, "UNSAT")):
        fixing = [v if (bits >> i) & 1 else -v for i, v in enumerate((x1, x2))]
        assert dpll_sat(f, fixing)[0] == want


def test_strengthen_deepens_assertion():
    f = CnfFormula()
    lits = f.fresh_vars(5)
    enc = encode_atmost(f, lits, 3, EncodeOptions(method="oe4"))
    strengthen(enc, 1)
    for bits in range(1 << 5):
        fixing = [v if (bits >> i) & 1 else -v for i, v in enumerate(lits)]
        assert dpll_sat(f, fixing)[0] == ("SAT" if bin(bits).count("1") <= 1 else "UNSAT")


def test_duplicate_literals_allowed():
    f = CnfFormula()
    x1, x2 = f.fresh_vars(2)
    encode_atmost(f, [x1, x1, x2], 1, EncodeOptions(method="oe4"))
    # x1 alone counts twice, so x1 must be false
    assert dpll_sat(f, [x1])[0] == "UNSAT"
    assert dpll_sat(f, [-x1, x2])[0] == "SAT"


# -- bulk clause families ---------------------------------------------------------

def _encode_lines(lines, opts, pb_terms):
    f = CnfFormula()
    f.fresh_vars(12)
    for lits, rel, k in lines:
        encode_card(f, CardConstraint(tuple(lits), rel, k), opts)
    for terms, k in pb_terms:
        for norm in normalize_pb(PbConstraint(tuple(terms), ">=", k)):
            encode_pb(f, norm, opts=opts)
    return f


@pytest.mark.parametrize("method", ("oe4", "oe2", "fourwise", "pairwise_classic", "bitonic_sel"))
def test_bulk_emission_matches_per_clause_emission(method, monkeypatch):
    # the same clauses in the same order, and the same variable numbering, as
    # when every clause goes through add_clause; inputs with repeats,
    # complementary pairs and constants fall back clause by clause
    rng = random.Random(17)
    lines, pb_terms = [], []
    for _ in range(12):
        pool = list(range(1, 13)) + [-v for v in range(1, 13)]
        n = rng.randint(2, 11)
        lits = rng.sample(pool, n) if rng.random() < 0.5 else [
            rng.choice(pool + [TRUE, FALSE]) for _ in range(n)]
        lines.append((lits, rng.choice(("<=", ">=", "=")), rng.randint(0, n)))
        pb_terms.append(([(rng.randint(1, 9), rng.choice(pool)) for _ in range(n)],
                         rng.randint(1, 20)))
    for opts in (EncodeOptions(method=method), EncodeOptions(method=method, direct_mixing=False)):
        bulk = _encode_lines(lines, opts, pb_terms)
        with monkeypatch.context() as m:
            m.setattr(CnfFormula, "distinct_vars", lambda self, lits: False)
            plain = _encode_lines(lines, opts, pb_terms)
        assert bulk.clauses == plain.clauses
        assert (bulk.next_var, bulk.trivially_unsat) == (plain.next_var, plain.trivially_unsat)


def test_no_gate_reads_a_wire_twice():
    # emit_network checks its input literals for distinct variables once and
    # relies on this for every gate: gate outputs get fresh variables
    nets = [method_network(method, n, m, chooser)
            for method in NETWORK_METHODS for n in range(2, 17) for m in range(1, n + 1)
            for chooser in ((None, Chooser(method, 5)) if method in MIXED_METHODS else (None,))]
    select = functools.partial(select_wires, chooser=Chooser("oe4", 5))
    nets += [build.carry_chain([(6, 7, 2), (5, 5, 3), (4, 3, None)], select),
             build.carry_chain([(1, 1, 2), (9, 4, 5), (0, 2, None)], select)]
    for net in nets:
        consts = {w for w, _ in net.const_sources()}
        for gate in net.gates:
            wires = [w for w in gate.inputs if w not in consts]
            assert len(set(wires)) == len(wires), gate


def _pb_chains(rng, count):
    """Random digit/carry chains, built as encode_pb builds them."""
    chains = []
    while len(chains) < count:
        terms = tuple((rng.randint(1, 40), v) for v in range(1, rng.randint(2, 6) + 1))
        c = PbConstraint(terms, ">=", rng.randint(1, sum(a for a, _ in terms)))
        plan = plan_digits(c, find_base([a for a, _ in terms]))
        if plan.positions[-1].max_inputs < plan.assert_index or len(plan.positions) < 2:
            continue
        chains.append(build.carry_chain(
            [(sum(mult for _, mult in pos.bundles), pos.t_outputs, pos.radix)
             for pos in plan.positions],
            functools.partial(select_wires, chooser=Chooser("auto", 5))))
    return chains


def test_constant_folding_is_exact():
    # a wire folds to a constant exactly when it takes that value under
    # every assignment of the free inputs, evaluated exhaustively
    rng = random.Random(3)
    nets = [method_network(method, n, m, chooser)
            for method in NETWORK_METHODS for n in range(2, 11) for m in range(1, n + 1)
            for chooser in ((None, Chooser(method, 5)) if method in MIXED_METHODS else (None,))]
    nets += _pb_chains(rng, 60)
    checked = 0
    for net in nets:
        net.set_outputs(range(net.num_wires))
        for density in (0.2, 0.5, 0.8):
            lits = [rng.choice((TRUE, FALSE)) if rng.random() < density else 1
                    for _ in range(net.num_inputs)]
            free = [i for i, lit in enumerate(lits) if lit is not TRUE and lit is not FALSE]
            for i in free[10:]:
                lits[i] = rng.choice((TRUE, FALSE))
            free = free[:10]
            # lane a assigns bit j of a to the j-th free input
            full = (1 << (1 << len(free))) - 1
            masks = [full if lit is TRUE else 0 for lit in lits]
            for j, i in enumerate(free):
                masks[i] = sum(1 << a for a in range(1 << len(free)) if a >> j & 1)
            want = {w: TRUE if v == full else FALSE
                    for w, v in enumerate(net.eval_masks(masks, full)) if v in (0, full)}
            assert _constant_wires(net, lits) == want, (net.gates, lits)
            checked += 1
    assert checked > 1500


@pytest.mark.parametrize("k", (1, 2))
@pytest.mark.parametrize("mixing", (True, False))
def test_oe4_long_column_chain(k, mixing):
    # 5000 literals: the even four-column split recurses seven levels deep
    # (before it, a first-column chain of n/3 levels), and the solver
    # decides in a loop, so this needs no raised recursion limit
    n = 5000
    f = CnfFormula()
    lits = f.fresh_vars(n)
    enc = encode_atmost(f, lits, k, EncodeOptions(method="oe4", direct_mixing=mixing))
    assert len(enc.output_lits) == k + 1
    if mixing:
        assert not Chooser("oe4", 5).use_direct(n, k + 1, True)
        assert (f.num_vars - n, f.num_clauses) == Chooser("oe4", 5).cost(n, k + 1, True)
    prop = Propagator(f)
    for count in (k, k + 1):
        fixing = [l if i < count else -l for i, l in enumerate(lits)]
        status = prop.propagate(Assignment(), fixing).status
        assert status == ("fixpoint" if count <= k else "conflict")
        # unit propagation leaves auxiliary variables open: the solver
        # decides thousands of them without recursing
        assert dpll_sat(f, fixing)[0] == ("SAT" if count <= k else "UNSAT")


# -- each bound on its cheaper side ----------------------------------------------

def test_atleast_forms_take_the_small_network():
    # >= 8 over 256: a top-8 network instead of a 249-selection network, the
    # figures of oe4 (the default method until auto); auto's top-8 is smaller
    oe4 = EncodeOptions(method="oe4")
    f = CnfFormula()
    lits = f.fresh_vars(256)
    (enc,) = encode_card(f, CardConstraint(tuple(lits), ">=", 8), oe4)
    assert (f.num_vars - 256, f.num_clauses) == (988, 2757)
    g = CnfFormula()
    encode_card(g, CardConstraint(tuple(g.fresh_vars(256)), ">=", 8))
    assert (g.num_vars - 256, g.num_clauses) == (688, 2211)
    assert enc.input_lits == tuple(-l for l in lits) and enc.k == 248
    assert enc.output_lits == ()
    with pytest.raises(ValueError, match="no exposed outputs"):
        strengthen(enc, 100)
    # >= 1 over 64: one selector output, asserted and folded into its clause
    f = CnfFormula()
    encode_card(f, CardConstraint(tuple(f.fresh_vars(64)), ">=", 1), oe4)
    assert (f.num_vars - 64, f.clauses) == (0, [tuple(range(1, 65))])
    # the at-most encoder keeps its contract, its asserted output folded
    f = CnfFormula()
    enc = encode_atmost(f, [-l for l in f.fresh_vars(256)], 248, oe4)
    assert (f.num_vars - 256, f.num_clauses) == (4071, 10803)
    assert len(enc.output_lits) == 249 and enc.output_lits[248] is FALSE


def _weight(f, n, lam):
    return lam * (f.num_vars - n) + f.num_clauses


def _lone_side(method, opts, n, k, atmost):
    """sum(x_1..x_n) <= k on one side, its asserted output read alone: the
    at-most side over encode_atmost's network, or the at-least side over the
    negations."""
    f = CnfFormula()
    lits = f.fresh_vars(n)
    m = k + 1 if atmost else n - k
    net = build_selection_network(method, n, m, _chooser(opts), atmost)
    emit_network(f, net, lits if atmost else [-l for l in lits],
                 "atmost" if atmost else "atleast", (m - 1,), m - 1)
    return f


@pytest.mark.parametrize("method", NETWORK_METHODS)
def test_cheaper_side_is_never_larger(method):
    # encode_card emits one side, read at its asserted output alone, and
    # exposes no output: the at-most side whenever n-k >= k+1, else the
    # cheaper of the two sides under lam*V + C, the at-most side on a tie
    for opts in [EncodeOptions(method=method, lam=lam) for lam in (1, 5, 20)] + [
            EncodeOptions(method=method, direct_mixing=False)]:
        for n in range(2, 13):
            for k in range(1, n):
                f = CnfFormula()
                (enc,) = encode_card(f, CardConstraint(tuple(f.fresh_vars(n)), "<=", k), opts)
                assert enc.output_lits == ()
                g = _lone_side(method, opts, n, k, True)
                if n - k >= k + 1:
                    assert f.clauses == g.clauses, (opts, n, k)
                    continue
                h = _lone_side(method, opts, n, k, False)
                atmost, atleast = _weight(g, n, opts.lam), _weight(h, n, opts.lam)
                if f.clauses == g.clauses:
                    assert atmost <= atleast, (opts, n, k)
                else:
                    assert f.clauses == h.clauses and atleast < atmost, (opts, n, k)


def _atmost_propagates_at_scale(method, mixing):
    # <= 8 over 256 and <= 32 over 1024 in one formula on one propagator, by
    # encode_atmost, which exposes its outputs, and by encode_card, which
    # reads the asserted one alone: k true inputs force every other input
    # false, k+1 true inputs conflict
    rng = random.Random(15)
    f = CnfFormula()
    opts = EncodeOptions(method=method, direct_mixing=mixing)
    cases = []
    for n, k in ((256, 8), (1024, 32)):
        lits = f.fresh_vars(n)
        enc = encode_atmost(f, lits, k, opts)
        assert len(enc.output_lits) == k + 1 and enc.output_lits[k] is FALSE
        cases.append((lits, k))
        lits = f.fresh_vars(n)
        (enc,) = encode_card(f, CardConstraint(tuple(lits), "<=", k), opts)
        assert enc.output_lits == ()
        cases.append((lits, k))
    prop = Propagator(f)
    for lits, k in cases:
        for count in (k, k + 1, k, k + 1):
            chosen = set(rng.sample(lits, count))
            result = prop.propagate(Assignment(), sorted(chosen))
            assert result.status == ("fixpoint" if count <= k else "conflict"), (len(lits), count)
            if count <= k:
                values = result.assignment.values
                assert all(values.get(l) is False for l in lits if l not in chosen)


@pytest.mark.parametrize("mixing", (True, False))
def test_oe4_atmost_propagates_at_scale(mixing):
    _atmost_propagates_at_scale("oe4", mixing)


@pytest.mark.parametrize("mixing", (True, False))
@pytest.mark.parametrize("method", ("oe2", "fourwise", "auto"))
def test_atmost_propagates_at_scale(method, mixing):
    _atmost_propagates_at_scale(method, mixing)


@pytest.mark.parametrize("method", ("oe4", "oe2", "fourwise", "auto"))
def test_atleast_side_propagates_at_scale(method):
    # >= 8 over 256 and >= 32 over 1024 in one formula on one propagator: k-1
    # true inputs (the rest false) conflict, k true inputs do not
    rng = random.Random(12)
    f = CnfFormula()
    cases = []
    for n, k in ((256, 8), (1024, 32)):
        lits = f.fresh_vars(n)
        (enc,) = encode_card(f, CardConstraint(tuple(lits), ">=", k), EncodeOptions(method=method))
        assert enc.output_lits == ()
        cases.append((lits, k))
    prop = Propagator(f)
    for lits, k in cases:
        for count in (k - 1, k, k - 1, k):
            chosen = set(rng.sample(range(len(lits)), count))
            fixing = [l if i in chosen else -l for i, l in enumerate(lits)]
            status = prop.propagate(Assignment(), fixing).status
            assert status == ("conflict" if count < k else "fixpoint"), (len(lits), count)


# -- both bounds on one network ------------------------------------------------------

@pytest.mark.parametrize("mixing", (True, False))
@pytest.mark.parametrize("method", ("auto", "oe4", "oe2", "fourwise"))
def test_paired_bounds_propagate_at_scale(method, mixing):
    # = 8 over 256, <= 40 with >= 24 over 256 (the >= listed in another
    # order) and = 32 over 1024 in one formula on one propagator, each pair
    # on one network (its size is _pair_bounds' dry run's): with j <= sum <= k,
    # k true inputs force the rest false, n-j false inputs force the rest
    # true, and one more of either conflicts
    rng = random.Random(20)
    opts = EncodeOptions(method=method, direct_mixing=mixing)
    chooser = _chooser(opts)
    f = CnfFormula()
    cases = []
    for n, j, k in ((256, 8, 8), (256, 24, 40), (1024, 32, 32)):
        lits = [v if rng.random() < 0.5 else -v for v in f.fresh_vars(n)]
        cards = ([CardConstraint(tuple(lits), "=", k)] if j == k else
                 [CardConstraint(tuple(lits), "<=", k),
                  CardConstraint(tuple(rng.sample(lits, n)), ">=", j)])
        size = f.num_vars, f.num_clauses
        encs = encode_cards(f, cards, opts)
        bounds = [n - j, k] if j == k else [k, n - j]  # in the order of the forms
        assert [(enc.k, enc.output_lits) for enc in encs] == [(b, ()) for b in bounds]
        assert encode._pair_bounds(chooser, n, k, n - j) == (False, k, j)
        assert (f.num_vars - size[0], f.num_clauses - size[1]) == encode._bounds_cost(chooser, n,
                                                                                      k, j)
        cases.append((lits, j, k))
    prop = Propagator(f)
    for lits, j, k in cases:
        n = len(lits)
        for _ in range(2):
            for value, count in ((True, k), (False, n - j), (True, k + 1), (False, n - j + 1)):
                chosen = set(rng.sample(lits, count))
                fixing = sorted(l if value else -l for l in chosen)
                result = prop.propagate(Assignment(), fixing)
                bound = k if value else n - j
                assert result.status == ("fixpoint" if count <= bound else "conflict"), (
                    n, j, k, value, count)
                if count <= bound:
                    values = result.assignment.values
                    # every other literal takes the opposite value
                    assert all(values.get(abs(l)) is ((l > 0) != value) for l in lits
                               if l not in chosen), (n, j, k, value)


# -- the fold at scale -------------------------------------------------------------

def test_fold_matches_root_propagation_at_scale():
    # 150 random pairs (emit_bounds) and 150 random single assertions
    # (emit_network), over every network method mixed and unmixed, n up to
    # 130, literals of random signs and, on the singles, a few constant
    # inputs: each folded emission is its unfolded one after root unit
    # propagation of the assertions' units and dead-gate elimination, or a
    # conflict on both sides.  No input variable is ever assigned.
    rng = random.Random(21)
    for i in range(300):
        method = NETWORK_METHODS[i % len(NETWORK_METHODS)]
        chooser = Chooser(method, 5, rng.random() < 0.5)
        n = rng.randint(2, 130)
        folded, unfolded = CnfFormula(), CnfFormula()
        lits = [v if rng.random() < 0.5 else -v for v in folded.fresh_vars(n)]
        unfolded.fresh_vars(n)
        if i % 2:
            k = rng.randint(1, n - 1)
            j = rng.randint(1, k)
            net = encode._side_network(encode._atmost_side(chooser, n, k))
            case = (method, chooser.direct, n, j, k)
            emit_bounds(folded, net, lits, k, j - 1)
            units = unfolded_bounds(unfolded, net, lits, k, j - 1)
        else:
            m = rng.randint(1, n)
            at = rng.randrange(m)
            polarity = rng.choice(("atmost", "atleast"))
            net = build_selection_network(method, n, m, chooser, rng.random() < 0.5)
            for _ in range(rng.choice((0, 0, 1, 3))):
                lits[rng.randrange(n)] = rng.choice((TRUE, FALSE))
            case = (method, chooser.direct, n, m, at, polarity, lits.count(TRUE),
                    lits.count(FALSE))
            fixed = encode._fold_wires(net, _constant_wires(net, lits),
                                       ((at, polarity == "atmost"),))
            assert fixed is None or min(fixed[0], default=n) >= n, case
            emit_network(folded, net, lits, polarity, (at,), at)
            (out,) = emit_network(unfolded, net, lits, polarity, (at,))
            unit = -out if polarity == "atmost" else out
            unfolded.add_clause([unit])
            units = [] if is_const(unit) or abs(unit) <= n else [unit]
        aux = set(range(n + 1, unfolded.next_var))
        try:
            propagated, assigned = _propagated(unfolded, aux, units)
        except AssertionError:  # a conflict at the root
            propagated = None
        if propagated is None or unfolded.trivially_unsat:
            assert folded.trivially_unsat, case
            continue
        assert assigned <= aux, case
        assert (_without_dead_gates(propagated, aux, set(), False).write_dimacs()
                == folded.write_dimacs()), case


# -- auto: the cheapest construction per level ------------------------------------

@pytest.mark.parametrize("lam", (1, 5, 20, None))
def test_auto_is_never_larger(lam):
    # by emission, on the golden grid (LARGE at lambda 5 only): the at-most
    # encoder under auto costs no more under lam*V + C than under any of the
    # three methods it picks from; lam None is mixing off, where auto weighs
    # its levels at lambda 5
    weight = lam or 5
    points = SIZES + (LARGE if weight == 5 else ())
    for n, k in points:
        sizes = {}
        for method in ("auto", "oe4", "oe2", "fourwise"):
            f = CnfFormula()
            encode_atmost(f, f.fresh_vars(n), k,
                          EncodeOptions(method=method, lam=weight, direct_mixing=lam is not None))
            sizes[method] = weight * (f.num_vars - n) + f.num_clauses
        assert sizes["auto"] == min(sizes.values()), (n, k, sizes)


# -- memory: what an encode call keeps, and its peak ----------------------------

def _recorded(monkeypatch, cls) -> list:
    """Weak references to every instance of cls made while the patch holds."""
    refs = []
    init = cls.__init__

    def recording(self, *args, **kwargs):
        init(self, *args, **kwargs)
        refs.append(weakref.ref(self))

    monkeypatch.setattr(cls, "__init__", recording)
    return refs


def test_encoders_keep_no_network_or_plan(monkeypatch):
    # every network and emission plan that encode_cards and encode_pb build
    # is freed by the time they return, by reference counting alone (the
    # collector is off): each priced side not taken, each shape after its
    # last line, a pair's network, a PB digit chain
    nets, plans = _recorded(monkeypatch, Network), _recorded(monkeypatch, encode._Plan)
    rng = random.Random(23)
    collecting = gc.isenabled()
    gc.disable()
    try:
        for method in ("auto", "oe4", "pairwise_bitonic"):
            opts = EncodeOptions(method=method)
            formula = CnfFormula()
            lits = tuple(formula.fresh_vars(40))
            encode_cards(formula, [CardConstraint(lits, "<=", 25),        # both sides priced
                                   CardConstraint(lits[:30], "=", 12),    # a pair
                                   CardConstraint(lits[5:], ">=", 30),
                                   CardConstraint(lits[::-1], "<=", 25)], opts)  # a shape again
            coeffs = [rng.randint(1, 50) for _ in lits]
            for terms, k in ((zip(coeffs, lits), 300), (zip([1] * 40, lits), 9)):
                for norm in normalize_pb(PbConstraint(tuple(terms), ">=", k)):
                    encode_pb(formula, norm, opts=opts)
        assert nets and plans
        assert not [ref for ref in nets + plans if ref() is not None]
    finally:
        if collecting:
            gc.enable()
    assert encode._SCOPE is None


def test_encode_cards_builds_each_network_once(monkeypatch):
    # the lines of one shape share its network: on the 12-queens file, every
    # network is built once, and none is held when the call returns
    built = Counter()
    real = encode._selection_network
    monkeypatch.setattr(encode, "_selection_network",
                        lambda *key: built.update([key]) or real(*key))
    encode_cnfp(queens_cnfp(12))
    assert len(built) > 1 and max(built.values()) == 1


def test_encode_cards_holds_a_network_while_a_line_needs_it(monkeypatch):
    # <= 20 over 30 prices both sides: the side not taken is freed at once,
    # the other is emitted without a rebuild and freed after its line; the
    # two <= 5 lines share one network, freed before the <= 3 line's is built
    held = []  # networks alive at each build
    nets = []
    real = encode._selection_network

    def build(*key):
        held.append(sum(ref() is not None for ref in nets))
        net = real(*key)
        nets.append(weakref.ref(net))
        return net

    monkeypatch.setattr(encode, "_selection_network", build)
    formula = CnfFormula()
    lits = tuple(formula.fresh_vars(30))
    encode_cards(formula, [CardConstraint(lits, "<=", 20), CardConstraint(lits, "<=", 5),
                           CardConstraint(lits[::-1], "<=", 5), CardConstraint(lits[:20], "<=", 3)])
    assert held == [0, 1, 0, 0]
    assert all(ref() is None for ref in nets)


def test_each_side_is_decided_once(monkeypatch):
    # the emission pass emits the side the decision pass stored: _form_side
    # runs once for each of these three unpaired forms, each priced on both
    # sides
    calls = []
    real = encode._form_side
    monkeypatch.setattr(encode, "_form_side", lambda *args: calls.append(args) or real(*args))
    formula = CnfFormula()
    lits = tuple(formula.fresh_vars(30))
    encode_cards(formula, [CardConstraint(lits, "<=", 20), CardConstraint(lits[:20], ">=", 3),
                           CardConstraint(lits[5:], "<", 20)])
    assert len(calls) == 3


def test_encode_calls_start_no_collection():
    # encode_cards and encode_pb run with the cyclic collector off from
    # their first line to their return: no collection starts while either
    # body runs, on <= 512 over 1024 literals or on a 100-term PB line (over
    # a hundred did when only the emitters switched it off).  A collection
    # that the first allocation after the collector is back on starts is the
    # caller's.  Nothing the calls build is cyclic, so none is left for one
    bodies = {inspect.unwrap(fn).__code__ for fn in (encode_cards, encode_pb)}
    inside = []

    def started(phase, info):
        frame = sys._getframe(1)
        while phase == "start" and frame is not None:
            if frame.f_code in bodies:
                inside.append(info["generation"])
                break
            frame = frame.f_back

    rng = random.Random(100)
    coeffs = [rng.randint(1, 10 ** 4) for _ in range(100)]
    base = find_base(coeffs)
    formula = CnfFormula()
    card = CardConstraint(tuple(formula.fresh_vars(1024)), "<=", 512)
    terms = tuple(zip(coeffs, formula.fresh_vars(100)))
    line = normalize_pb(PbConstraint(terms, ">=", sum(coeffs) // 2))
    collecting = gc.isenabled()
    gc.enable()
    gc.collect()
    gc.callbacks.append(started)
    try:
        encode_cards(formula, [card])
        for norm in line:
            encode_pb(formula, norm, base, EncodeOptions())
    finally:
        gc.callbacks.remove(started)
        if not collecting:
            gc.disable()
    assert inside == []
    assert gc.collect() == 0


def _traced_peak(encode_once) -> tuple[int, int]:
    """Peak traced bytes of encode_once(), a fresh formula's encoding, and
    the entries its clause store holds (literals and clause ends).  A first
    untraced call fills the process-wide price caches, so the traced one
    costs the same whatever ran before."""
    encode_once()
    tracemalloc.start()
    try:
        formula = encode_once()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return peak, sum(map(len, formula.clauses)) + formula.num_clauses


def test_card_line_peaks_within_six_store_sizes():
    # <= 512 over 1024 literals, both sides priced: the network, one walk
    # over it and the clause store (4 bytes an entry) peak at about 20 bytes
    # an entry; three small objects per emitted gate kept in the plan would
    # add about 5
    def encode_once():
        formula = CnfFormula()
        encode_cards(formula, [CardConstraint(tuple(formula.fresh_vars(1024)), "<=", 512)])
        return formula

    peak, entries = _traced_peak(encode_once)
    assert peak <= 6 * 4 * entries


def test_pb_line_peaks_within_six_store_sizes():
    # a 100-term line with coefficients up to 1e4: the digit chain, one walk
    # over it and the clause store peak at about 21 bytes an entry, and
    # about 29 with three small objects per emitted gate in the plan
    rng = random.Random(100)
    coeffs = [rng.randint(1, 10 ** 4) for _ in range(100)]
    base = find_base(coeffs)

    def encode_once():
        formula = CnfFormula()
        terms = tuple(zip(coeffs, formula.fresh_vars(100)))
        for norm in normalize_pb(PbConstraint(terms, ">=", sum(coeffs) // 2)):
            encode_pb(formula, norm, base, EncodeOptions())
        return formula

    peak, entries = _traced_peak(encode_once)
    assert peak <= 6 * 4 * entries
