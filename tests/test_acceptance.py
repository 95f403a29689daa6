"""Acceptance criteria, one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines.  Expected values are either pinned worked examples (verified by
independent arithmetic), brute-force oracles computed in place, or exact
closed forms from the formula registry.
"""

import random
from fractions import Fraction
from itertools import combinations, product

from cardnet import build, encode
from cardnet.cnf import CnfFormula, neg
from cardnet.encode import (EncodeOptions, NETWORK_METHODS, cnf_cost, emit_network,
                            encode_atmost, method_network)
from cardnet.formulas import (bit_sel_size, fourw_merge_vars, fourw_sorter_counts,
                              oe2_merge_clauses, oe2_merge_vars, oe4_merge_clauses_bound,
                              oe4_merge_vars_bound, oe_sort_size, pw_merge_size,
                              pw_variant_gap)
from cardnet.network import Network
from cardnet.pb import (MixedRadixBase, PbConstraint, base_cost, find_base,
                        normalize_pb, encode_pb, simplify_rhs, to_digits)
from cardnet.sat import Propagator, check_arc_consistency, check_forward_prop, dpll_sat
from cardnet.solve import MinimizeConfig, minimize, next_binary_bound
from cardnet.verify import mask_eval, selection_failures

from conftest import (check_selection_output, is_top_k_sorted, reference_eval, solver_cmd,
                      sorted_runs)


def report(line):
    print(f"\nACCEPT {line}")


# --------------------------------------------------------------------------
# C1: zero-one principle, exhaustive over each construction's domain, n <= 12
# --------------------------------------------------------------------------

def _mask_outputs_per_input(net, n):
    masks = mask_eval(net, n)
    return [[(m >> a) & 1 for m in masks] for a in range(1 << n)]


def test_c01_zero_one_principle():
    failures = []

    def sel(name, net, n, k):
        fail = selection_failures(net, n, k)
        if fail:
            failures.append((name, n, k, fail))

    # mask evaluator grounded against a gate-by-gate sorting evaluation
    for net, n in ((method_network("oe4", 6, 3), 6),
                   (method_network("pairwise_classic", 8, 4), 8),
                   (method_network("fourwise", 7, 3), 7)):
        per_input = _mask_outputs_per_input(net, n)
        for a in range(1 << n):
            bits = [(a >> i) & 1 for i in range(n)]
            assert net.eval(bits) == per_input[a] == reference_eval(net, bits)

    # sorters
    for n in (2, 4, 8):
        sel("oe_sort", build.oe_sort(n), n, n)

    # selection networks, unrestricted inputs
    for n in range(1, 13):
        for k in range(0, n + 1):
            sel("oe4", method_network("oe4", n, k), n, k)
            sel("oe2", method_network("oe2", n, k), n, k)
            if n >= 2:
                sel("fourwise", method_network("fourwise", n, k), n, k)
    for n in (4, 8, 12):  # irregular column profiles
        for cols in ((n - 3, 1, 1, 1), (n // 2, n // 2 - 1, 1, 0)):
            if cols[0] >= n or any(cols[i] < cols[i + 1] for i in range(3)):
                continue
            for k in range(0, n + 1):
                sel(f"mw_sel{cols}", build.mw_sel(n, k, cols), n, k)
    for n in (2, 4, 8):
        for k in (1, 2, 4, 8):
            if k > n:
                continue
            sel("bitonic_sel", method_network("bitonic_sel", n, k), n, k)
            for variant in ("classic", "bitonic", "half_bitonic"):
                method = f"pairwise_{variant}"
                sel(method, method_network(method, n, k), n, k)

    # mergers: exhaustive over inputs meeting their contracts
    for n in (2, 4, 8):
        net = build.oe_merge_general(n // 2, n // 2)
        for a in sorted_runs(n // 2):
            for b in sorted_runs(n // 2):
                if net.eval(list(a) + list(b)) != sorted(a + b, reverse=True):
                    failures.append(("oe_merge2", n, a, b))

    def is_bitonic(xs):
        flips = sum(1 for i in range(len(xs) - 1) if xs[i] != xs[i + 1])
        return flips <= 1 or (flips == 2 and xs[0] == xs[-1])

    def is_vsd(xs):
        m = len(xs)
        vshape = any(all(xs[i] >= xs[i + 1] for i in range(j))
                     and all(xs[i] <= xs[i + 1] for i in range(j, m - 1))
                     for j in range(m))
        return vshape and all(xs[j] >= xs[m - 1 - j] for j in range(m // 2))

    for n in (2, 4, 8):
        full = build.bitonic_merge(n)
        halfn = build.bitonic_merge(n, half=True)
        for bits in product((0, 1), repeat=n):
            if is_bitonic(bits) and full.eval(list(bits)) != sorted(bits, reverse=True):
                failures.append(("bitonic_merge", n, bits))
            if is_vsd(bits) and halfn.eval(list(bits)) != sorted(bits, reverse=True):
                failures.append(("half_bitonic_merge", n, bits))

    for n, k in ((4, 2), (8, 2), (8, 4)):
        for variant in ("classic", "bitonic", "half_bitonic"):
            net = build.pw_merge(n, k, variant)
            for l in product((0, 1), repeat=n // 2):
                if not is_top_k_sorted(l, min(k, n // 2)):
                    continue
                for r in product((0, 1), repeat=n // 2):
                    if not is_top_k_sorted(r, min(k // 2, n // 2)):
                        continue
                    if any(l[i] < r[i] for i in range(k // 2)):
                        continue
                    bits = list(l) + list(r)
                    if not check_selection_output(net.eval(bits), k, sum(bits)):
                        failures.append((f"pw_merge[{variant}]", n, k, bits))

    for k in range(1, 13):
        for c in range(max(1, -(-k // 4)), 7):
            lens = tuple(min(c, k // (i + 1)) for i in range(4))
            if sum(lens) > 12:
                continue
            net = build.fourw_merge(lens, k)
            for ones in product(*[range(l + 1) for l in lens]):
                if not all(min(ones[i], lens[i + 1]) >= ones[i + 1] for i in range(3)):
                    continue
                bits = [b for i, l in enumerate(lens)
                        for b in [1] * ones[i] + [0] * (l - ones[i])]
                if not check_selection_output(net.eval(bits), k, sum(ones)):
                    failures.append(("fourw_merge", lens, k, bits))

    for lx in range(1, 9):
        for ly in range(0, min(lx, 10 - lx) + 1):
            for k in range(max(1, 2 * ly, 2 * lx - 4), lx + ly + 1):
                if ly > k // 2 or lx > k // 2 + 2:
                    continue
                net = build.oe4_combine(lx, ly, k)
                for ox in range(lx + 1):
                    for oy in range(ly + 1):
                        if not oy <= ox <= oy + 4:
                            continue
                        bits = [1] * ox + [0] * (lx - ox) + [1] * oy + [0] * (ly - oy)
                        if net.eval(bits) != sorted(bits, reverse=True):
                            failures.append(("oe4_combine", lx, ly, k, bits))

    profiles = [(1, 1, 1, 1), (2, 1, 1, 1), (2, 2, 2, 1), (3, 2, 1, 0),
                (3, 3, 3, 3), (2, 2, 0, 0), (4, 3, 2, 1), (3, 0, 0, 0),
                (3, 3, 2, 2), (4, 4, 2, 1)]
    for lens in profiles:
        nz = [l for l in lens if l]
        s = sum(nz)
        for k in range(nz[0], s + 1):
            net = build.oe4_merge(lens, k)
            for cols in product(*[sorted_runs(l) for l in nz]):
                bits = [b for col in cols for b in col]
                if not check_selection_output(net.eval(bits), k, sum(bits)):
                    failures.append(("oe4_merge", lens, k, bits))

    assert not failures, failures[:10]
    report("C1 zero-one principle (exhaustive, n <= 12): PASS")


# --------------------------------------------------------------------------
# C2: exact size-formula equality
# --------------------------------------------------------------------------

def test_c02_size_formulas_exact():
    for n in (2, 4, 8, 16, 32):
        assert build.oe_sort(n).num_gates == oe_sort_size(n)
    assert oe_sort_size(8) == 19 and oe_sort_size(16) == 63
    for k in (2, 4, 8, 16):
        assert build.pw_merge(2 * k, k, "classic").num_gates == pw_merge_size(k, "classic")
        assert build.pw_merge(2 * k, k, "half_bitonic").num_gates == pw_merge_size(k, "half_bitonic")
    assert pw_merge_size(4, "classic") == 5
    assert pw_merge_size(8, "half_bitonic") == 12
    assert build.bitonic_merge(8).num_gates == 12
    assert method_network("bitonic_sel", 8, 2).num_gates == bit_sel_size(8, 2) == 13
    report("C2 exact size formulas: PASS")


# --------------------------------------------------------------------------
# C3: classic-minus-half-bitonic selection difference at k = n/2
# --------------------------------------------------------------------------

def test_c03_pairwise_variant_gap():
    got = {}
    for n, want in ((8, 1), (16, 6), (32, 23)):
        diff = (method_network("pairwise_classic", n, n // 2).num_gates
                - method_network("pairwise_half_bitonic", n, n // 2).num_gates)
        assert diff == pw_variant_gap(n) == want
        got[n] = diff
    report(f"C3 pairwise variant gap {got}: PASS")


# --------------------------------------------------------------------------
# C4: two-column merger exact (V, C); four-way merger bounds
# --------------------------------------------------------------------------

def test_c04_merger_costs():
    for k in (2, 4, 8):
        v, c = cnf_cost(build.oe_merge_general(k, k))
        assert (v, c) == (oe2_merge_vars(k), oe2_merge_clauses(k))
    assert (oe2_merge_vars(4), oe2_merge_clauses(4)) == (18, 27)
    for k in (4, 8, 16):
        v, c = cnf_cost(build.oe4_merge((k, k, k, k), k), range(k))
        assert v <= oe4_merge_vars_bound(k)
        assert c <= oe4_merge_clauses_bound(k)
    report("C4 merger cost formulas and bounds: PASS")


# --------------------------------------------------------------------------
# C5: equisatisfiability of every encoder against the counting oracle
# --------------------------------------------------------------------------

def test_c05_equisatisfiability_all_methods():
    failures = 0
    for method in NETWORK_METHODS + ("sequential", "totalizer", "binomial"):
        for n in range(1, 9):
            for k in range(0, n):
                f = CnfFormula()
                lits = f.fresh_vars(n)
                encode_atmost(f, lits, k, EncodeOptions(method=method))
                for bits in range(1 << n):
                    fixing = [v if (bits >> i) & 1 else -v for i, v in enumerate(lits)]
                    status, _ = dpll_sat(f, fixing)
                    want = "SAT" if bin(bits).count("1") <= k else "UNSAT"
                    if status != want:
                        failures += 1
    assert failures == 0
    report("C5 equisatisfiability, 10 encoders, n <= 8: PASS")


# --------------------------------------------------------------------------
# C6: arc-consistency and forward propagation
# --------------------------------------------------------------------------

def test_c06_arc_consistency():
    rng = random.Random(20240601)
    failures = []
    for method in NETWORK_METHODS:
        for n in range(2, 11):
            for k in range(0, n):
                f = CnfFormula()
                lits = f.fresh_vars(n)
                enc = encode_atmost(f, lits, k, EncodeOptions(method=method))
                prop = Propagator(f)
                if n <= 8:
                    scenarios = list(combinations(range(n), k))
                else:
                    scenarios = [tuple(rng.sample(range(n), k)) for _ in range(200)]
                for scenario in scenarios:
                    rep = check_arc_consistency(enc, k, scenario, prop=prop)
                    if not rep.passed:
                        failures.append((method, n, k, scenario, rep.detail))
                assert len(enc.output_lits) == (k + 1 if k else 0)
                if k:
                    for i in range(0, min(k + 1, n) + 1):
                        pool = list(combinations(range(n), i))
                        if len(pool) > 12:
                            pool = rng.sample(pool, 12)
                        for subset in pool:
                            rep = check_forward_prop(enc, i, subset, prop=prop)
                            if not rep.passed:
                                failures.append(("fp", method, n, k, i, subset))
    assert not failures, failures[:10]
    report("C6 arc-consistency + forward propagation, n <= 10: PASS")


# --------------------------------------------------------------------------
# C7: fused combine equals the two-layer comparator reference
# --------------------------------------------------------------------------

def _two_layer_reference(lx, ly):
    """Combine built from two layers of plain 2-sorters with the same constant
    boundary conventions as the fused form (TRUE below the ys, FALSE past
    either end)."""
    net = Network(lx + ly)
    wires = net.input_wires()
    xs, ys = wires[:lx], wires[lx:]
    f0, t1 = net.const_wire(0), net.const_wire(1)

    def get_x(i):
        return xs[i] if 0 <= i < lx else f0

    def get_y(i):
        return t1 if i < 0 else (ys[i] if i < ly else f0)

    npairs = (lx + ly + 1) // 2
    yp, xp = {}, {}
    for i in range(-2, npairs):  # layer one: y'_i = max(y_i, x_{i+2}), x'_{i+2} = min
        hi, lo = net.add_selector((get_y(i), get_x(i + 2)), 2)
        yp[i], xp[i + 2] = hi, lo
    layer2 = {}
    for i in range(-1, npairs):  # layer two: y''_i = max(y'_i, x'_{i+1}), x''_{i+1} = min
        hi, lo = net.add_selector((yp[i], xp[i + 1]), 2)
        layer2[i] = (hi, lo)
    out = []
    for j in range(1, lx + ly + 1):
        m = (j - 1) // 2
        out.append(layer2[m - 1][1] if j % 2 else layer2[m][0])
    net.set_outputs(out)
    return net


def _recorded_emission(monkeypatch):
    """The wire literals of each walk made while the patch holds, and each
    combine pair emission, under its two output literals: its six input
    literals, the clause count of its formula before and after it, and the
    formula's next variable then."""
    walks, pairs = [], {}
    walk, combine = encode._walk, encode._combine_outputs

    def recording_walk(*args):
        walks.append(walk(*args))
        return walks[-1]

    def recording_combine(formula, *args):
        before = formula.num_clauses
        combine(formula, *args)
        pairs[args[6:8]] = args[:6], before, formula.num_clauses, formula.next_var

    monkeypatch.setattr(encode, "_walk", recording_walk)
    monkeypatch.setattr(encode, "_combine_outputs", recording_combine)
    return walks, pairs


def test_c07_fused_combine(monkeypatch):
    checked = interior = 0
    for lx in range(1, 9):
        for ly in range(0, min(lx, 10 - lx) + 1):
            for k in range(max(1, 2 * ly, 2 * lx - 4), lx + ly + 1):
                if ly > k // 2 or lx > k // 2 + 2:
                    continue
                fused_net = build.oe4_combine(lx, ly, k)
                ref_net = _two_layer_reference(lx, ly)
                fused_f, ref_f = CnfFormula(), CnfFormula()
                in_f = fused_f.fresh_vars(lx + ly)
                in_r = ref_f.fresh_vars(lx + ly)
                with monkeypatch.context() as patch:
                    walks, emitted = _recorded_emission(patch)
                    outs_f = emit_network(fused_f, fused_net, in_f)
                outs_r = emit_network(ref_f, ref_net, in_r)
                # an interior pair, both outputs emitted over six wires that
                # are not constant, is emitted over its own wires and adds
                # exactly 5 clauses and 2 variables: the last two allocated,
                # which with its own wires are every variable of its clauses
                wire_lits, = walks
                clauses = list(fused_f.clauses)
                consts = encode._constant_wires(fused_net, in_f)
                for gate in fused_net.gates:
                    if (gate.out_x is None or gate.out_y is None
                            or not consts.keys().isdisjoint(gate.inputs)):
                        continue
                    own = tuple(wire_lits[w] for w in gate.inputs)
                    x, y = wire_lits[gate.out_x], wire_lits[gate.out_y]
                    ins, before, after, next_var = emitted[x, y]
                    assert ins == own and after - before == 5
                    assert {x, y} == {next_var - 2, next_var - 1}
                    added = {abs(l) for c in clauses[before:after] for l in c}
                    assert added == set(map(abs, own)) | {x, y}
                    interior += 1
                for ox in range(lx + 1):
                    for oy in range(ly + 1):
                        if not oy <= ox <= oy + 4:
                            continue
                        bits = [1] * ox + [0] * (lx - ox) + [1] * oy + [0] * (ly - oy)
                        fix_f = [v if b else -v for v, b in zip(in_f, bits)]
                        fix_r = [v if b else -v for v, b in zip(in_r, bits)]
                        for j in range(lx + ly):
                            a = dpll_sat(fused_f, fix_f + [neg(outs_f[j])])[0]
                            b = dpll_sat(ref_f, fix_r + [neg(outs_r[j])])[0]
                            assert a == b, (lx, ly, k, bits, j)
                        checked += 1
    assert checked > 100 and interior == 15
    report(f"C7 fused combine vs two-layer reference ({checked} fixings, "
           f"{interior} interior pairs): PASS")


# --------------------------------------------------------------------------
# C8: four-wise merger comparator accounting (slope iterations, +-10%)
# --------------------------------------------------------------------------

def test_c08_fourwise_accounting():
    for k in (16, 32, 64):
        cols = (k, k // 2, k // 3, k // 4)
        hist, _ = build.fourw_slope(cols).gate_histogram()
        got = {order: sum(cnt for (o, _m), cnt in hist.items() if o == order)
               for order in (2, 3, 4)}
        e2, e3, e4 = fourw_sorter_counts(k)
        for order, want in ((2, e2), (3, e3), (4, e4)):
            assert abs(got[order] - want) <= Fraction(want, 10), (k, order)
        v = 2 * got[2] + 3 * got[3] + 4 * got[4]
        want_v = fourw_merge_vars(k)
        assert abs(v - want_v) <= Fraction(want_v, 10)
    report("C8 four-wise comparator accounting within 10%: PASS")


# --------------------------------------------------------------------------
# C9: mixed radix digits and optimal base search
# --------------------------------------------------------------------------

def test_c09_mixed_radix():
    assert to_digits(164, MixedRadixBase((3, 5))) == [2, 4, 10]
    assert base_cost([2, 2, 2, 2, 5, 18], find_base([2, 2, 2, 2, 5, 18])) <= 8

    primes = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47)

    def exhaustive(coeffs):
        best = sum(coeffs)
        stack = [((), 1)]
        while stack:
            radices, w = stack.pop()
            best = min(best, base_cost(coeffs, MixedRadixBase(radices)))
            for p in primes:
                if w * p <= max(coeffs):
                    stack.append((radices + (p,), w * p))
        return best

    rng = random.Random(1234)
    for _ in range(50):
        coeffs = [rng.randint(1, 60) for _ in range(rng.randint(1, 8))]
        assert base_cost(coeffs, find_base(coeffs)) == exhaustive(coeffs)
    report("C9 mixed radix digits and base search: PASS")


# --------------------------------------------------------------------------
# C10: pseudo-Boolean end-to-end equisatisfiability
# --------------------------------------------------------------------------

def test_c10_pb_end_to_end():
    # pinned example
    f = CnfFormula()
    f.fresh_vars(2)
    c = PbConstraint(((5, 1), (7, 2)), ">=", 9)
    assert simplify_rhs(c, MixedRadixBase((2, 2))) == (3, 12)
    enc = encode_pb(f, c, MixedRadixBase((2, 2)))
    # the asserted third top output is folded to TRUE and read alone, so no
    # output is exposed; the only units are the two inputs, which the bound
    # forces
    assert enc.output_lits == ()
    assert [cl for cl in f.clauses if len(cl) == 1] == [(1,), (2,)]

    rng = random.Random(77)
    for _ in range(200):
        n = rng.randint(1, 8)
        coeffs = [rng.randint(1, 20) for _ in range(n)]
        lits = [(i + 1) * rng.choice((1, -1)) for i in range(n)]
        k = rng.randint(1, sum(coeffs))
        c = PbConstraint(tuple(zip(coeffs, lits)), ">=", k)
        f = CnfFormula()
        f.fresh_vars(n)
        for norm in normalize_pb(c):
            encode_pb(f, norm)
        for bits in range(1 << n):
            model = {v: bool((bits >> (v - 1)) & 1) for v in range(1, n + 1)}
            fixing = [v if model[v] else -v for v in range(1, n + 1)]
            want = "SAT" if c.holds(model) else "UNSAT"
            assert dpll_sat(f, fixing)[0] == want, (coeffs, lits, k, bits)
    report("C10 pseudo-Boolean equisatisfiability (200 random): PASS")


# --------------------------------------------------------------------------
# C11: optimization strategies return the exhaustive optimum
# --------------------------------------------------------------------------

def test_c11_optimization():
    assert next_binary_bound(10, 0, 3) == 6
    from cardnet.pb import PbProblem

    rng = random.Random(5150)
    cmd = solver_cmd()
    for trial in range(50):
        n = rng.randint(2, 5)
        cons = []
        for _ in range(rng.randint(1, 3)):
            coeffs = [rng.randint(1, 9) for _ in range(n)]
            lits = [(i + 1) * rng.choice((1, -1)) for i in range(n)]
            cons.append(PbConstraint(tuple(zip(coeffs, lits)),
                                     rng.choice([">=", "<=", "="]),
                                     rng.randint(0, sum(coeffs))))
        obj = [(rng.randint(-5, 5), i + 1) for i in range(n)]
        prob = PbProblem(cons, obj, {f"x{i}": i for i in range(1, n + 1)})
        best = None
        for bits in range(1 << n):
            model = {v: bool((bits >> (v - 1)) & 1) for v in range(1, n + 1)}
            if all(c.holds(model) for c in cons):
                val = sum(a for a, l in obj
                          if (model[abs(l)] if l > 0 else not model[abs(l)]))
                best = val if best is None else min(best, val)
        for strategy in ("sequential", "binary"):
            res = minimize(prob, cfg=MinimizeConfig(strategy=strategy, q=3,
                                                    switch_gap=96, solver_cmd=cmd))
            if best is None:
                assert res.status == "INFEASIBLE", (trial, strategy)
            else:
                assert res.status == "OPTIMAL" and res.value == best, (trial, strategy)
                assert all(c.holds(res.model) for c in cons)
    report("C11 optimization strategies match brute force (50 problems): PASS")


# --------------------------------------------------------------------------
# C12: variable saving of the four-column network over the two-column one
# --------------------------------------------------------------------------

def test_c12_dsv_positive():
    gaps = {}
    for n, k in ((64, 4), (256, 4), (256, 16)):
        v2, _ = cnf_cost(method_network("oe2", n, k))
        v4, _ = cnf_cost(method_network("oe4", n, k))
        assert v2 - v4 > 0, (n, k, v2, v4)
        gaps[(n, k)] = v2 - v4
    report(f"C12 variable saving two-column minus four-column {gaps}: PASS")


# --------------------------------------------------------------------------
# C13: queens demo fidelity
# --------------------------------------------------------------------------

def test_c13_queens_demo():
    from cardnet.cnfp import encode_cnfp, queens_cnfp

    formula = encode_cnfp(queens_cnfp(4), EncodeOptions(method="binomial"))
    assert formula.num_clauses == 84
    blocked = CnfFormula()
    blocked.fresh_vars(formula.num_vars)
    for cl in formula.clauses:
        blocked.add_clause(cl)
    models = 0
    while models <= 4:
        status, model = dpll_sat(blocked)
        if status == "UNSAT":
            break
        models += 1
        blocked.add_clause([-v if model[v] else v for v in range(1, 17)])
    assert models == 2
    report("C13 queens demo: 84 clauses, 2 models: PASS")
