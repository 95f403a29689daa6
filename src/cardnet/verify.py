"""In-process verification suites behind the `verify` CLI subcommand.

These are compact mirrors of the test suite: the zero-one suite checks the
odd-even sorter and every network method of the method table, unmixed and
mixed with direct selectors, exactly as the encoder builds them, over all 0-1
inputs at desk scale; the arc-consistency and equisatisfiability suites drive
the propagation harnesses, and the sizes suite evaluates every registered
closed form against freshly built networks and checks the mixing cost
recurrence against dry runs of the networks it prices.
"""

from __future__ import annotations

import random
from itertools import combinations

from . import build
from .cnf import CnfFormula
from .encode import (METHODS, MIXED_METHODS, NETWORK_METHODS, CardConstraint, Chooser,
                     EncodeOptions, build_selection_network, cnf_cost, encode_atmost,
                     encode_card, method_network, recursive_cost)
from .formulas import registry
from .network import Network, thresholds
from .sat import Propagator, check_arc_consistency, dpll_sat


def _input_masks(n: int) -> tuple[list[int], int]:
    """Per input i, the bitmask over all 2^n assignments a with bit i set,
    and the mask of every assignment."""
    lanes = range(1 << n)
    return [sum(1 << a for a in lanes if (a >> i) & 1) for i in range(n)], (1 << (1 << n)) - 1


def threshold_masks(n: int) -> list[int]:
    """For each p, the bitmask over all 2^n assignments marking inputs with at
    least p ones; index 0 is the all-ones mask."""
    masks, full = _input_masks(n)
    return thresholds(masks, n, full)


def mask_eval(net: Network, n: int) -> list[int]:
    """Evaluate the network over all 2^n inputs at once with bit-parallel masks."""
    return net.eval_masks(*_input_masks(n))


def selection_failures(net: Network, n: int, k: int) -> str | None:
    """Check, over all 2^n inputs at once, that the output prefix equals the
    input threshold functions and that no tail position beats position k."""
    outs = mask_eval(net, n)
    th = threshold_masks(n)
    kk = min(k, len(outs))
    for p in range(1, kk + 1):
        want = th[p] if p <= n else 0
        if outs[p - 1] != want:
            return f"output {p} differs from the {p}-threshold"
    if kk:
        gate_mask = outs[kk - 1]
        for t in range(kk, len(outs)):
            if outs[t] & ~gate_mask:
                return f"tail position {t + 1} not dominated"
    return None


def run_zero_one(limit: int = 8, log=print) -> bool:
    """The odd-even sorter, then every network method without and with direct
    mixing (lambda 5), for every 0 <= k <= n <= limit, built by
    build_selection_network as the encoder builds it."""
    ok = True

    def check(name: str, net: Network, n: int, k: int):
        nonlocal ok
        fail = selection_failures(net, n, k)
        if fail:
            ok = False
            log(f"  FAIL {name}: {fail}")

    for n in (2, 4, 8):
        if n <= limit:
            check(f"oe_sort({n})", build.oe_sort(n), n, n)
    for method in NETWORK_METHODS:
        for chooser in (None, Chooser(method, 5)):
            name = method if chooser is None else f"{method} mixed"
            for n in range(1, limit + 1):
                for k in range(0, n + 1):
                    check(f"{name}({n},{k})", build_selection_network(method, n, k, chooser),
                          n, k)
    log(f"zero-one suite: {'PASS' if ok else 'FAIL'}")
    return ok


def _card_encodings(n: int, opts: EncodeOptions):
    """(label, formula, encoded at-most forms, source constraint) over n
    fresh inputs: the at-most encoder for every 0 <= k < n, then encode_card
    for every relation and 0 <= k <= n, whose forms may be on either side."""
    for k in range(n):
        formula = CnfFormula()
        c = CardConstraint(tuple(formula.fresh_vars(n)), "<=", k)
        yield f"atmost k={k}", formula, [encode_atmost(formula, c.lits, k, opts)], c
    for rel in ("<=", ">=", "="):
        for k in range(n + 1):
            formula = CnfFormula()
            c = CardConstraint(tuple(formula.fresh_vars(n)), rel, k)
            yield f"card {rel} {k}", formula, encode_card(formula, c, opts), c


def run_ac(limit: int = 6, log=print) -> bool:
    """Arc-consistency of every encoded at-most form at its bound, on up to
    20 scenarios each, for the at-most encoder and encode_card."""
    ok = True
    rng = random.Random(2024)
    for method in ("auto", "oe4", "oe2"):
        for n in range(2, limit + 1):
            for label, formula, encs, _ in _card_encodings(n, EncodeOptions(method=method)):
                prop = Propagator(formula)
                for enc in encs:
                    subsets = list(combinations(range(n), enc.k))
                    if len(subsets) > 20:
                        subsets = rng.sample(subsets, 20)
                    for subset in subsets:
                        report = check_arc_consistency(enc, enc.k, subset, prop=prop)
                        if not report.passed:
                            ok = False
                            log(f"  FAIL ac {method} n={n} {label} form k={enc.k} "
                                f"{subset}: {report.detail}")
    log(f"arc-consistency suite: {'PASS' if ok else 'FAIL'}")
    return ok


def run_equisat(limit: int = 5, log=print) -> bool:
    """Under every full input fixing the encoding is satisfiable exactly when
    the constraint holds, for every method, the at-most encoder and
    encode_card."""
    ok = True
    for method in METHODS:
        for n in range(1, limit + 1):
            for label, formula, _, c in _card_encodings(n, EncodeOptions(method=method)):
                for bits in range(1 << n):
                    fixing = [v if (bits >> i) & 1 else -v for i, v in enumerate(c.lits)]
                    status, _ = dpll_sat(formula, fixing)
                    want = "SAT" if c.holds(bin(bits).count("1")) else "UNSAT"
                    if status != want:
                        ok = False
                        log(f"  FAIL equisat {method} n={n} {label} bits={bits:0{n}b}")
    log(f"equisatisfiability suite: {'PASS' if ok else 'FAIL'}")
    return ok


def mixing_cost_failures(limit: int = 16, lam: int = 5) -> list[str]:
    """Sub-problems up to order limit where the mixing cost recurrence differs
    from a dry run of the network built with the same mixing decisions, or
    with none (lam None), read to its m-prefix."""
    fails = []
    for method in MIXED_METHODS:
        for mix_lam in (lam, None):
            chooser = Chooser(method, mix_lam) if mix_lam else None
            for n in range(2, limit + 1):
                for m in range(1, n + 1):
                    net = method_network(method, n, m, chooser)
                    if recursive_cost(method, mix_lam, n, m) != cnf_cost(net, range(m)):
                        fails.append(f"{method} lam={mix_lam} n={n} m={m}")
    return fails


def run_sizes(log=print) -> dict[str, bool]:
    results: dict[str, bool] = {}
    for name, info in registry().items():
        if info.check is None:
            continue
        passed = bool(info.check())
        results[name] = passed
        log(f"  {'PASS' if passed else 'FAIL'} {name}")
    fails = mixing_cost_failures()
    results["mixing_cost_recurrence"] = not fails
    for fail in fails:
        log(f"  FAIL mixing cost recurrence {fail}")
    log(f"  {'FAIL' if fails else 'PASS'} mixing_cost_recurrence")
    log(f"sizes suite: {'PASS' if all(results.values()) else 'FAIL'}")
    return results


def run_suite(which: str, log=print) -> bool:
    if which == "zero-one":
        return run_zero_one(log=log)
    if which == "ac":
        return run_ac(log=log)
    if which == "equisat":
        return run_equisat(log=log)
    if which == "sizes":
        return all(run_sizes(log=log).values())
    if which == "all":
        results = [run_zero_one(log=log), run_ac(log=log), run_equisat(log=log),
                   all(run_sizes(log=log).values())]
        return all(results)
    raise ValueError(f"unknown suite {which!r}")
