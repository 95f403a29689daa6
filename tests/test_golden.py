"""Golden DIMACS gate: sha256 of the exact output bytes over a fixed grid.

Every refactor of network construction, direct mixing or clause emission
must keep these hashes.  A changed hash means the encoder now writes
different bytes, which is a behaviour change and never a reason to
re-record.  The flagged goal-bound cases (`goal-*`) pin the flag literal
that `encode_goal_bound` appends to every clause of the bound.

The seven cases `queens8-{oe4,oe2,fourwise}` and `opb-a-*` were re-recorded
once, when `encode_card` and the unit-coefficient branch of `encode_pb` began
to encode an at-most form on its cheaper side: their `>=` and `=` lines, the
length-2 diagonals of queens 8 and opb-a's `<= 4` over six unit terms now
become small selection networks in the zero-propagating polarity.

Every hash was re-recorded once more when `emit_network` began to emit only
the gate outputs that the outputs its caller reads depend on (the first k+1
outputs of an at-most network, the one asserted output of the at-least side,
the carries of a PB position below the top).  230 of the 275 cases changed:
- 223 only lose dead gates: the same network, emitted pruned.  That is every
  case except the 45 below and the 7 re-priced ones.
- 7 also build a different network, because mixing now prices each side of a
  decision by the exact size of its pruned emission: oe2-n8-k3-lam5-mix,
  oe2-n13-k4-lam5-mix, fourwise-n37-k9-lam1-mix, fourwise-n37-k9-lam5-mix,
  fourwise-n100-k17-lam1-mix, fourwise-n256-k33-lam5-mix and
  fourwise-n300-k17-lam5-mix.
- 45 kept their bytes: the card cases whose whole network is one direct
  selector (every method at n5-k2 mixed, and n8-k3 mixed at lam 20 for all
  methods and at lam 5 for the pairwise and bitonic ones), the baselines'
  goal-u cases and every goal-neg case.
test_pruning_matches_dead_gate_elimination ties every case's pruned bytes to
its full emission, so the pruning itself is checked, not only pinned.

32 cases were re-recorded when oe4 began to split every level evenly into
four columns and the sequential counter began to keep only its live band of
counts: 29 of the 34 oe4 grid cases, queens8-oe4, goal-u-oe4 and
goal-u-sequential.  The oe4-n5-k2 cases kept their bytes (below n = 8 the
split was even before), as did oe4-n8-k3-lam20-mix (one direct selector)
and every other case.

The 41 `auto` cases (its grid cases, queens8-auto, opb-*-auto and
goal-*-auto) were added when the method came in, without changing any other
hash: each of the paper's methods keeps its own two-way choice between its
level and a direct selector.

278 cases were re-recorded when every asserted network output began to be
folded into its cone instead of getting a unit clause: all 264 card cases
(the grid and LARGE), the four queens8 cases and the ten opb cases.  The
asserted output, and every gate output root propagation of its unit fixes,
lost its variable, its unit and the clauses that propagation satisfies.
6 card cases also build a different network, because encode_atmost now
builds its top selection by the folded price (Chooser.cost(n, m, True)):
auto-n5-k2-lam1-mix, auto-n8-k3-lam1-mix, auto-n8-k3-lam5-mix,
auto-n8-k3-nomix, pairwise_classic-n8-k3-lam5-mix and
fourwise-n5-k2-lam1-mix.  The 38 goal cases kept their bytes: each is
flagged, and a flagged bound was then still emitted unfolded.
test_fold_matches_root_propagation ties every folded case to its unfolded
emission, so the fold itself is checked, not only pinned.

24 goal cases were re-recorded when a flagged bound began to be encoded as
the unflagged one, folded, with the flag's literal appended to each clause:
goal-w-*, goal-wide-* and goal-u-* of the eight network methods.  Each
loses the asserted outputs' units and what their root propagation fixes,
and goal-u's at-most form is also built, and its side chosen, by the
folded price.  The other 14 kept their bytes: goal-u of sequential, totalizer and
binomial emits no network, and every goal-neg case is an impossible bound,
the unit ~flag alone.

38 cases were re-recorded when encode_card and encode_pb began to read
their asserted output alone: the four queens8 cases, the ten opb cases, and
goal-w-*, goal-u-* and goal-wide-* of the eight network methods.  Each loses
the gates that only the outputs nobody read needed.  9 of them also change
a network choice, because each side of a form is now priced by that lone
read: the at-most side of the length-2 diagonals of queens8-* (`<= 1` over
two literals) and of opb-a-*'s `<= 4` over six unit terms now costs what the
at-least side costs, and a tie takes the at-most side.  The card grid and
LARGE cases kept their bytes: they call encode_atmost, which reads every
output, as does every goal-neg case and goal-u of the three baselines.

The 128 `eq-*` and `pair-*` cases were added when the two forms of an `=`
constraint, and a `<=` line and a `>=` line over one literal multiset in a
CNFP file, began to share one network where that is cheaper
(encode.emit_bounds); 92 of them take it.  test_fold_matches_root_propagation
ties each shared network to its two clause sets emitted unfolded.

The five `opb-c-*` cases were added when the forms of a PB line whose
coefficients are all 1 began to go to one encode_cards call
(solve.encode_problem), so that the two bounds of its two unit `=` lines
can share one network; its `>= 4` and `<= 8` lines over the same terms stay
two lines, each encoded alone, and its weighted `=` line takes two digit
chains.  No other hash changed.
"""

import hashlib

import pytest

from cardnet import encode, pb
from cardnet.cnf import CnfFormula, is_const, neg
from cardnet.cnfp import encode_cnfp, parse_cnfp, queens_cnfp
from cardnet.encode import (METHODS, NETWORK_METHODS, CardConstraint, EncodeOptions,
                            encode_atmost, encode_card)
from cardnet.pb import encode_goal_bound, parse_opb
from cardnet.solve import encode_problem
from conftest import _propagated, _without_dead_gates, unfolded_bounds

SIZES = ((5, 2), (8, 3), (13, 4), (16, 7), (24, 5), (37, 9), (64, 12), (100, 17))
LAMBDAS = (1, 5, 20)
# large n and deeper recursion, for auto and the three methods it picks from
LARGE = ((256, 33), (300, 17))

OPB_FILES = {
    "opb-a": "* small mixed-relation instance\n"
             "+3 x1 +5 x2 +7 x3 +2 x4 +4 x5 +6 x6 >= 11 ;\n"
             "+1 x1 +1 x2 +1 x3 +1 x4 +1 x5 +1 x6 <= 4 ;\n"
             "+2 x2 -3 x4 +5 x6 = 4 ;\n",
    "opb-b": "min: +4 y1 +3 y2 +2 y3 ;\n"
             + "".join(f"+{c} y{i} " for i, c in enumerate(
                 (12, 7, 7, 5, 9, 14, 3, 11, 6, 8, 10, 4), start=1))
             + ">= 40 ;\n"
             + "".join(f"+{c} y{i} " for i, c in enumerate(
                 (2, 9, 4, 4, 1, 6, 8, 3, 5, 7, 2, 6), start=1))
             + "<= 25 ;\n",
    "opb-c": "* unit = lines: each line's two bounds may share one network\n"
             + "".join(f"+1 z{i} " for i in range(1, 25)) + "= 9 ;\n"
             + "".join(f"-1 z{i} " for i in range(3, 15)) + "+1 z15 +1 z16 = -7 ;\n"
             + "".join(f"+1 z{i} " for i in range(1, 13)) + ">= 4 ;\n"
             + "".join(f"+1 z{i} " for i in range(1, 13)) + "<= 8 ;\n"
             + "+3 z1 +2 z5 +4 z9 -2 z12 = 3 ;\n",
}

# objective coefficients and bound of the flagged goal-bound cases; goal-w and
# goal-wide need the PB pipeline, so they run for the network methods only
GOAL_OBJECTIVES = {
    "goal-w": ((3, 5, -2, 7, 4, 6, 1, -4, 9, 2, 8, 5), 14),
    "goal-u": ((1,) * 12, 5),
    "goal-neg": ((2, 3, 4), -1),
    "goal-wide": ((1, 2, 3, 1, 2, 3, 5, 1, 2, 3, 1, 2, 3, 5, 1, 2, 3, 1, 2, 3), 17),
}


def _sha(formula):
    return hashlib.sha256(formula.write_dimacs().encode()).hexdigest()


def _card_case(method, n, k, lam, mixing):
    f = CnfFormula()
    lits = f.fresh_vars(n)
    encode_atmost(f, lits, k, EncodeOptions(method=method, lam=lam, direct_mixing=mixing))
    return f


def _signed(n):
    return [v if v % 3 else -v for v in range(1, n + 1)]


def _eq_case(method, n, k):
    f = CnfFormula()
    f.fresh_vars(n)
    encode_card(f, CardConstraint(tuple(_signed(n)), "=", k), EncodeOptions(method=method))
    return f


def _pair_case(method, n, j, k):
    # a <= line and a >= line over one literal multiset, listed in two orders
    lits = _signed(n)
    text = (f"p cnf+ {n} 2\n" + " ".join(map(str, lits)) + f" <= {k}\n"
            + " ".join(map(str, reversed(lits))) + f" >= {j}\n")
    return encode_cnfp(parse_cnfp(text), EncodeOptions(method=method))


def _queens_case(method):
    # queens 8 plus `=` and `>=` lines, which the CNFP text grammar cannot carry
    problem = queens_cnfp(8)
    for r in range(8):
        problem.card_lines.append(CardConstraint(tuple(f * 8 + r + 1 for f in range(8)), "=", 1))
    problem.card_lines.append(CardConstraint(tuple(range(1, 65, 3)), ">=", 6))
    problem.card_lines.append(CardConstraint(tuple(range(2, 65, 5)), ">=", 3))
    return encode_cnfp(problem, EncodeOptions(method=method))


def _opb_case(name, method):
    return encode_problem(parse_opb(OPB_FILES[name]), EncodeOptions(method=method)).formula


def _goal_case(name, method):
    # goal-wide runs with mixing off so the full networks carry the flag
    coeffs, bound = GOAL_OBJECTIVES[name]
    f = CnfFormula()
    xs = f.fresh_vars(len(coeffs))
    flag = f.fresh_var()
    encode_goal_bound(f, list(zip(coeffs, xs)), bound, flag,
                      EncodeOptions(method=method, direct_mixing=name != "goal-wide"))
    return f


def cases():
    """(case id, thunk encoding the case into a new formula)."""
    out = []
    for method in NETWORK_METHODS:
        for n, k in SIZES:
            # lambda only matters with mixing on
            for lam in LAMBDAS:
                out.append((f"{method}-n{n}-k{k}-lam{lam}-mix",
                            lambda m=method, n=n, k=k, lam=lam: _card_case(m, n, k, lam, True)))
            out.append((f"{method}-n{n}-k{k}-nomix",
                        lambda m=method, n=n, k=k: _card_case(m, n, k, 5, False)))
    for method in ("auto", "oe4", "oe2", "fourwise"):
        for n, k in LARGE:
            out.append((f"{method}-n{n}-k{k}-lam5-mix",
                        lambda m=method, n=n, k=k: _card_case(m, n, k, 5, True)))
        out.append((f"queens8-{method}", lambda m=method: _queens_case(m)))
    for method in NETWORK_METHODS:
        for n, k in SIZES:
            out.append((f"eq-{method}-n{n}-k{k}", lambda m=method, n=n, k=k: _eq_case(m, n, k)))
            j = (k + 1) // 2
            out.append((f"pair-{method}-n{n}-j{j}-k{k}",
                        lambda m=method, n=n, j=j, k=k: _pair_case(m, n, j, k)))
    for name in OPB_FILES:
        for method in ("auto", "oe4", "oe2", "fourwise", "pairwise_half_bitonic"):
            out.append((f"{name}-{method}", lambda nm=name, m=method: _opb_case(nm, m)))
    for name in GOAL_OBJECTIVES:
        for method in NETWORK_METHODS if name in ("goal-w", "goal-wide") else METHODS:
            out.append((f"{name}-{method}", lambda nm=name, m=method: _goal_case(nm, m)))
    return out


GOLDEN = {
    "oe4-n5-k2-lam1-mix":
        "60ce109334d3da873196d3c87a59008da0e8a2871193894fc29ca4404b8ca78a",
    "oe4-n5-k2-lam5-mix":
        "60ce109334d3da873196d3c87a59008da0e8a2871193894fc29ca4404b8ca78a",
    "oe4-n5-k2-lam20-mix":
        "60ce109334d3da873196d3c87a59008da0e8a2871193894fc29ca4404b8ca78a",
    "oe4-n5-k2-nomix":
        "63819ac0d1c0770a3213337ebe4c8402666217888a3c713e6a8c184ec3b5f549",
    "oe4-n8-k3-lam1-mix":
        "0ccd8ad47997ce4df11aab6eeb6fe57cd9bbbc2530aec7cd32def5b26bdc89d0",
    "oe4-n8-k3-lam5-mix":
        "0ccd8ad47997ce4df11aab6eeb6fe57cd9bbbc2530aec7cd32def5b26bdc89d0",
    "oe4-n8-k3-lam20-mix":
        "ae5a96d7e51de3bc9801f7095438605252074bcb42c7d9461ce0df55af3f300a",
    "oe4-n8-k3-nomix":
        "0ccd8ad47997ce4df11aab6eeb6fe57cd9bbbc2530aec7cd32def5b26bdc89d0",
    "oe4-n13-k4-lam1-mix":
        "84ea52523e0fe88bf9caf8f5560a91efb58b842530eeb8059dedd9080bfbf2a9",
    "oe4-n13-k4-lam5-mix":
        "84ea52523e0fe88bf9caf8f5560a91efb58b842530eeb8059dedd9080bfbf2a9",
    "oe4-n13-k4-lam20-mix":
        "84ea52523e0fe88bf9caf8f5560a91efb58b842530eeb8059dedd9080bfbf2a9",
    "oe4-n13-k4-nomix":
        "84ea52523e0fe88bf9caf8f5560a91efb58b842530eeb8059dedd9080bfbf2a9",
    "oe4-n16-k7-lam1-mix":
        "4b52748e2c1368e3ec4a47198a08bf5641009eaff7cc4abfcf92c2fd77eb38d2",
    "oe4-n16-k7-lam5-mix":
        "4b52748e2c1368e3ec4a47198a08bf5641009eaff7cc4abfcf92c2fd77eb38d2",
    "oe4-n16-k7-lam20-mix":
        "4b52748e2c1368e3ec4a47198a08bf5641009eaff7cc4abfcf92c2fd77eb38d2",
    "oe4-n16-k7-nomix":
        "4b52748e2c1368e3ec4a47198a08bf5641009eaff7cc4abfcf92c2fd77eb38d2",
    "oe4-n24-k5-lam1-mix":
        "313ca6e9e595c38d5a90b58f15088463b27b201070caea43e5940f2ffd07d021",
    "oe4-n24-k5-lam5-mix":
        "b6ee5da6dc8322c04cda092d99a14a3ced176fdf2b24aac4b4719a500f41b88a",
    "oe4-n24-k5-lam20-mix":
        "b6ee5da6dc8322c04cda092d99a14a3ced176fdf2b24aac4b4719a500f41b88a",
    "oe4-n24-k5-nomix":
        "313ca6e9e595c38d5a90b58f15088463b27b201070caea43e5940f2ffd07d021",
    "oe4-n37-k9-lam1-mix":
        "14790231bceeda01fe37ec6bebd6ff1496f2769318469879da448efa879fd359",
    "oe4-n37-k9-lam5-mix":
        "14790231bceeda01fe37ec6bebd6ff1496f2769318469879da448efa879fd359",
    "oe4-n37-k9-lam20-mix":
        "922c176120a6d1e7e323da48e87c301e171f1064e7f52544867307c4286cd12f",
    "oe4-n37-k9-nomix":
        "14790231bceeda01fe37ec6bebd6ff1496f2769318469879da448efa879fd359",
    "oe4-n64-k12-lam1-mix":
        "abc957ef19c74d36a3c6f6dd5426c14a231e5c1f70160956cc7f1db2758145fc",
    "oe4-n64-k12-lam5-mix":
        "abc957ef19c74d36a3c6f6dd5426c14a231e5c1f70160956cc7f1db2758145fc",
    "oe4-n64-k12-lam20-mix":
        "abc957ef19c74d36a3c6f6dd5426c14a231e5c1f70160956cc7f1db2758145fc",
    "oe4-n64-k12-nomix":
        "abc957ef19c74d36a3c6f6dd5426c14a231e5c1f70160956cc7f1db2758145fc",
    "oe4-n100-k17-lam1-mix":
        "e401554bedf3f566a43af542e329d4bc278e6aa9a1b72e0d84c44eaf21f4b090",
    "oe4-n100-k17-lam5-mix":
        "b5b6bb20106f0935a1cc947687917643cc8004820bd5ed8b0736a64f0087afce",
    "oe4-n100-k17-lam20-mix":
        "e55ecaf5ab1e8b9fa6da0e2bc8410a5f23396ee468e429d5e4624ee309afacc0",
    "oe4-n100-k17-nomix":
        "e401554bedf3f566a43af542e329d4bc278e6aa9a1b72e0d84c44eaf21f4b090",
    "oe2-n5-k2-lam1-mix":
        "60ce109334d3da873196d3c87a59008da0e8a2871193894fc29ca4404b8ca78a",
    "oe2-n5-k2-lam5-mix":
        "60ce109334d3da873196d3c87a59008da0e8a2871193894fc29ca4404b8ca78a",
    "oe2-n5-k2-lam20-mix":
        "60ce109334d3da873196d3c87a59008da0e8a2871193894fc29ca4404b8ca78a",
    "oe2-n5-k2-nomix":
        "4ced4d1eae83b38e7be6c9ee3cb1bc6eeac4932595a8f4ced12cb7111c2cc970",
    "oe2-n8-k3-lam1-mix":
        "5b5ce270d3b9cacd39979b6ead7b4492006d8e644b4215fa53a803243d429e2a",
    "oe2-n8-k3-lam5-mix":
        "5b5ce270d3b9cacd39979b6ead7b4492006d8e644b4215fa53a803243d429e2a",
    "oe2-n8-k3-lam20-mix":
        "ae5a96d7e51de3bc9801f7095438605252074bcb42c7d9461ce0df55af3f300a",
    "oe2-n8-k3-nomix":
        "024c275ccd4aa7aeb2bbace51fa6798a167636aae501163e2cce70ad5a929928",
    "oe2-n13-k4-lam1-mix":
        "9fde198c8142eaa855a3de8d251b6952875ffe1e461dc76f81a85b4ea56ae980",
    "oe2-n13-k4-lam5-mix":
        "0de3bd211f737f75ebf4a0d72792b20a1b8cd87fca611a5fa9c50c89304cbf34",
    "oe2-n13-k4-lam20-mix":
        "583599747f1d206ff4ba197720fb6acf3062d76f0cb023f07c4d3df3e43593f5",
    "oe2-n13-k4-nomix":
        "53e8b51f4e0b3f03f732867cf51b36007f6b52d6650284be31e7f1fba97f9c58",
    "oe2-n16-k7-lam1-mix":
        "a2c741b0cfeb018df23d95212fc1a8e417d934feff222b04b1e958e108957473",
    "oe2-n16-k7-lam5-mix":
        "a2c741b0cfeb018df23d95212fc1a8e417d934feff222b04b1e958e108957473",
    "oe2-n16-k7-lam20-mix":
        "c3503e8dc3f24ec40f5569b6d4d5f0182de96d740e9f0a8423ae3817c16ba4d9",
    "oe2-n16-k7-nomix":
        "6436fa60a9a6be07e870663ef79d4149bd5c836360be78623a620fa5d85ecbda",
    "oe2-n24-k5-lam1-mix":
        "becbcb18b8cad13169d51d1023a607758d9e6178843b44f619cfd968c821493c",
    "oe2-n24-k5-lam5-mix":
        "656f7d1115a421b761a99f50503b8a8ac37b00f7ba484ee2dc792f900ae91f05",
    "oe2-n24-k5-lam20-mix":
        "656f7d1115a421b761a99f50503b8a8ac37b00f7ba484ee2dc792f900ae91f05",
    "oe2-n24-k5-nomix":
        "f8d1e88725685d90a509ca76765acda7460d7e356237ac7daefd7f8c0f4d6524",
    "oe2-n37-k9-lam1-mix":
        "773c5ef2392213b05e97b3ea32f1f4440da894caea5c05e6abbd0aecb851b9b5",
    "oe2-n37-k9-lam5-mix":
        "773c5ef2392213b05e97b3ea32f1f4440da894caea5c05e6abbd0aecb851b9b5",
    "oe2-n37-k9-lam20-mix":
        "05c66a1909d08c622206f447c7cc228a7ae57e2618f36a5bce91158e4417bc6e",
    "oe2-n37-k9-nomix":
        "8e7f47df908e673bd25e3f362e381ed9befb133182d2dea09fdc6c3cc4ed5e8b",
    "oe2-n64-k12-lam1-mix":
        "e3dea0d6d8b18785c229b77a6a51e1497b051328a1924bf166606ccf918ca482",
    "oe2-n64-k12-lam5-mix":
        "e3dea0d6d8b18785c229b77a6a51e1497b051328a1924bf166606ccf918ca482",
    "oe2-n64-k12-lam20-mix":
        "683dfbd29fc0a201d285328fc336e0a28569f6ac1bd6282d600b4871cc59bc36",
    "oe2-n64-k12-nomix":
        "268a5a914e1ed77d6aca84ba301004c97e45f02d54e206f34af1d388790db0cb",
    "oe2-n100-k17-lam1-mix":
        "46492d21e8f14a1eb0c0b736262dab17e544e3711d66061c84c93b7da1350cf4",
    "oe2-n100-k17-lam5-mix":
        "38d2e738c23bbc4a0c336ddf7e5bda76ed443eae093cd49e4076a5d30a18cc67",
    "oe2-n100-k17-lam20-mix":
        "1d444346f35a0281511e7a60cc6e46f883f2d3493f81083d2435446ae5aae32e",
    "oe2-n100-k17-nomix":
        "fd220a5ffbb9ba261fb66a9ca1b3268a561433313fa17c6aad05300fc1b65114",
    "pairwise_classic-n5-k2-lam1-mix":
        "60ce109334d3da873196d3c87a59008da0e8a2871193894fc29ca4404b8ca78a",
    "pairwise_classic-n5-k2-lam5-mix":
        "60ce109334d3da873196d3c87a59008da0e8a2871193894fc29ca4404b8ca78a",
    "pairwise_classic-n5-k2-lam20-mix":
        "60ce109334d3da873196d3c87a59008da0e8a2871193894fc29ca4404b8ca78a",
    "pairwise_classic-n5-k2-nomix":
        "21a8e085be0e4708c498e03d27685f3fe9226cb331b7eb7b1e89f0434fb08897",
    "pairwise_classic-n8-k3-lam1-mix":
        "5b65defcf1aa8b9118baa834899757eadf5c526e67b58a032c0695abab18b809",
    "pairwise_classic-n8-k3-lam5-mix":
        "5b65defcf1aa8b9118baa834899757eadf5c526e67b58a032c0695abab18b809",
    "pairwise_classic-n8-k3-lam20-mix":
        "ae5a96d7e51de3bc9801f7095438605252074bcb42c7d9461ce0df55af3f300a",
    "pairwise_classic-n8-k3-nomix":
        "5b65defcf1aa8b9118baa834899757eadf5c526e67b58a032c0695abab18b809",
    "pairwise_classic-n13-k4-lam1-mix":
        "cc4f506e070666343988b7ce536f8b917f2f144033e0a759d4825ed8fe9e8cc6",
    "pairwise_classic-n13-k4-lam5-mix":
        "cc4f506e070666343988b7ce536f8b917f2f144033e0a759d4825ed8fe9e8cc6",
    "pairwise_classic-n13-k4-lam20-mix":
        "cc4f506e070666343988b7ce536f8b917f2f144033e0a759d4825ed8fe9e8cc6",
    "pairwise_classic-n13-k4-nomix":
        "cc4f506e070666343988b7ce536f8b917f2f144033e0a759d4825ed8fe9e8cc6",
    "pairwise_classic-n16-k7-lam1-mix":
        "3c9d49cb67594539a9be8400af06851f24c31127ba7689f361a7058e8faada4c",
    "pairwise_classic-n16-k7-lam5-mix":
        "3c9d49cb67594539a9be8400af06851f24c31127ba7689f361a7058e8faada4c",
    "pairwise_classic-n16-k7-lam20-mix":
        "3c9d49cb67594539a9be8400af06851f24c31127ba7689f361a7058e8faada4c",
    "pairwise_classic-n16-k7-nomix":
        "3c9d49cb67594539a9be8400af06851f24c31127ba7689f361a7058e8faada4c",
    "pairwise_classic-n24-k5-lam1-mix":
        "03b488e185aa6b57cb5e9a42db3748d4996484e59208cd6f4d18cf87f0d1aebf",
    "pairwise_classic-n24-k5-lam5-mix":
        "03b488e185aa6b57cb5e9a42db3748d4996484e59208cd6f4d18cf87f0d1aebf",
    "pairwise_classic-n24-k5-lam20-mix":
        "03b488e185aa6b57cb5e9a42db3748d4996484e59208cd6f4d18cf87f0d1aebf",
    "pairwise_classic-n24-k5-nomix":
        "03b488e185aa6b57cb5e9a42db3748d4996484e59208cd6f4d18cf87f0d1aebf",
    "pairwise_classic-n37-k9-lam1-mix":
        "1218b0726852821ea6caeb7a3121dfeed93d2583ec6ac70b6bc30ba85f5c9857",
    "pairwise_classic-n37-k9-lam5-mix":
        "1218b0726852821ea6caeb7a3121dfeed93d2583ec6ac70b6bc30ba85f5c9857",
    "pairwise_classic-n37-k9-lam20-mix":
        "1218b0726852821ea6caeb7a3121dfeed93d2583ec6ac70b6bc30ba85f5c9857",
    "pairwise_classic-n37-k9-nomix":
        "1218b0726852821ea6caeb7a3121dfeed93d2583ec6ac70b6bc30ba85f5c9857",
    "pairwise_classic-n64-k12-lam1-mix":
        "e04a16a872c51b26f33744d3ce56f5c0a1a03c22e04e737bec4e2bb10cafb392",
    "pairwise_classic-n64-k12-lam5-mix":
        "e04a16a872c51b26f33744d3ce56f5c0a1a03c22e04e737bec4e2bb10cafb392",
    "pairwise_classic-n64-k12-lam20-mix":
        "e04a16a872c51b26f33744d3ce56f5c0a1a03c22e04e737bec4e2bb10cafb392",
    "pairwise_classic-n64-k12-nomix":
        "e04a16a872c51b26f33744d3ce56f5c0a1a03c22e04e737bec4e2bb10cafb392",
    "pairwise_classic-n100-k17-lam1-mix":
        "4ddfc7df93bb1aeb08355c3c480a7ec0dcc8ed272da7b75a9e63cd1b1825eb83",
    "pairwise_classic-n100-k17-lam5-mix":
        "4ddfc7df93bb1aeb08355c3c480a7ec0dcc8ed272da7b75a9e63cd1b1825eb83",
    "pairwise_classic-n100-k17-lam20-mix":
        "4ddfc7df93bb1aeb08355c3c480a7ec0dcc8ed272da7b75a9e63cd1b1825eb83",
    "pairwise_classic-n100-k17-nomix":
        "4ddfc7df93bb1aeb08355c3c480a7ec0dcc8ed272da7b75a9e63cd1b1825eb83",
    "pairwise_bitonic-n5-k2-lam1-mix":
        "60ce109334d3da873196d3c87a59008da0e8a2871193894fc29ca4404b8ca78a",
    "pairwise_bitonic-n5-k2-lam5-mix":
        "60ce109334d3da873196d3c87a59008da0e8a2871193894fc29ca4404b8ca78a",
    "pairwise_bitonic-n5-k2-lam20-mix":
        "60ce109334d3da873196d3c87a59008da0e8a2871193894fc29ca4404b8ca78a",
    "pairwise_bitonic-n5-k2-nomix":
        "582260013cd13824d5cfb7815b5ea118d066c9d40c6bc3f5d4f35f639a821860",
    "pairwise_bitonic-n8-k3-lam1-mix":
        "4ce09425ad00c2c3d7dc121d8a5f48851de7ca73a368f068e1ea004e52dfcca3",
    "pairwise_bitonic-n8-k3-lam5-mix":
        "ae5a96d7e51de3bc9801f7095438605252074bcb42c7d9461ce0df55af3f300a",
    "pairwise_bitonic-n8-k3-lam20-mix":
        "ae5a96d7e51de3bc9801f7095438605252074bcb42c7d9461ce0df55af3f300a",
    "pairwise_bitonic-n8-k3-nomix":
        "4ce09425ad00c2c3d7dc121d8a5f48851de7ca73a368f068e1ea004e52dfcca3",
    "pairwise_bitonic-n13-k4-lam1-mix":
        "9326f099f52f62e434b513b588b3ead5c656abd94f5e77ad3d1a42faad9d5fac",
    "pairwise_bitonic-n13-k4-lam5-mix":
        "9326f099f52f62e434b513b588b3ead5c656abd94f5e77ad3d1a42faad9d5fac",
    "pairwise_bitonic-n13-k4-lam20-mix":
        "9326f099f52f62e434b513b588b3ead5c656abd94f5e77ad3d1a42faad9d5fac",
    "pairwise_bitonic-n13-k4-nomix":
        "9326f099f52f62e434b513b588b3ead5c656abd94f5e77ad3d1a42faad9d5fac",
    "pairwise_bitonic-n16-k7-lam1-mix":
        "6496d0701464e0ee98beea90f694c8a32f6bfdc7a8da4d5badc0fb3ab00bb659",
    "pairwise_bitonic-n16-k7-lam5-mix":
        "6496d0701464e0ee98beea90f694c8a32f6bfdc7a8da4d5badc0fb3ab00bb659",
    "pairwise_bitonic-n16-k7-lam20-mix":
        "6496d0701464e0ee98beea90f694c8a32f6bfdc7a8da4d5badc0fb3ab00bb659",
    "pairwise_bitonic-n16-k7-nomix":
        "6496d0701464e0ee98beea90f694c8a32f6bfdc7a8da4d5badc0fb3ab00bb659",
    "pairwise_bitonic-n24-k5-lam1-mix":
        "b09074178bed8a90d9dd71b0ab0e0ea5e21f3f55b9eab15b26b48eca2497ff1b",
    "pairwise_bitonic-n24-k5-lam5-mix":
        "b09074178bed8a90d9dd71b0ab0e0ea5e21f3f55b9eab15b26b48eca2497ff1b",
    "pairwise_bitonic-n24-k5-lam20-mix":
        "b09074178bed8a90d9dd71b0ab0e0ea5e21f3f55b9eab15b26b48eca2497ff1b",
    "pairwise_bitonic-n24-k5-nomix":
        "b09074178bed8a90d9dd71b0ab0e0ea5e21f3f55b9eab15b26b48eca2497ff1b",
    "pairwise_bitonic-n37-k9-lam1-mix":
        "5c7a25096ecdbac96f2c6951d78e8a0de24b68050b6a6024052631d3f181855f",
    "pairwise_bitonic-n37-k9-lam5-mix":
        "5c7a25096ecdbac96f2c6951d78e8a0de24b68050b6a6024052631d3f181855f",
    "pairwise_bitonic-n37-k9-lam20-mix":
        "5c7a25096ecdbac96f2c6951d78e8a0de24b68050b6a6024052631d3f181855f",
    "pairwise_bitonic-n37-k9-nomix":
        "5c7a25096ecdbac96f2c6951d78e8a0de24b68050b6a6024052631d3f181855f",
    "pairwise_bitonic-n64-k12-lam1-mix":
        "ede6c8a47048317ea8b75d32d0f5ceeb113708f40bad95fff24379e172357438",
    "pairwise_bitonic-n64-k12-lam5-mix":
        "ede6c8a47048317ea8b75d32d0f5ceeb113708f40bad95fff24379e172357438",
    "pairwise_bitonic-n64-k12-lam20-mix":
        "ede6c8a47048317ea8b75d32d0f5ceeb113708f40bad95fff24379e172357438",
    "pairwise_bitonic-n64-k12-nomix":
        "ede6c8a47048317ea8b75d32d0f5ceeb113708f40bad95fff24379e172357438",
    "pairwise_bitonic-n100-k17-lam1-mix":
        "9969c24ba715eefd7a963c3a6c156787ab471b3fbd098aa8a5852eb6c5dcd51a",
    "pairwise_bitonic-n100-k17-lam5-mix":
        "9969c24ba715eefd7a963c3a6c156787ab471b3fbd098aa8a5852eb6c5dcd51a",
    "pairwise_bitonic-n100-k17-lam20-mix":
        "9969c24ba715eefd7a963c3a6c156787ab471b3fbd098aa8a5852eb6c5dcd51a",
    "pairwise_bitonic-n100-k17-nomix":
        "9969c24ba715eefd7a963c3a6c156787ab471b3fbd098aa8a5852eb6c5dcd51a",
    "pairwise_half_bitonic-n5-k2-lam1-mix":
        "60ce109334d3da873196d3c87a59008da0e8a2871193894fc29ca4404b8ca78a",
    "pairwise_half_bitonic-n5-k2-lam5-mix":
        "60ce109334d3da873196d3c87a59008da0e8a2871193894fc29ca4404b8ca78a",
    "pairwise_half_bitonic-n5-k2-lam20-mix":
        "60ce109334d3da873196d3c87a59008da0e8a2871193894fc29ca4404b8ca78a",
    "pairwise_half_bitonic-n5-k2-nomix":
        "ab7123927283d53733bb9f96c9ee00a966120ba92f3ff3b47ab7ac8b6f501b10",
    "pairwise_half_bitonic-n8-k3-lam1-mix":
        "6d78ede1aa53d8c490c002a5ffa907425db00af49b0cacc45c62bfb2dd50464a",
    "pairwise_half_bitonic-n8-k3-lam5-mix":
        "ae5a96d7e51de3bc9801f7095438605252074bcb42c7d9461ce0df55af3f300a",
    "pairwise_half_bitonic-n8-k3-lam20-mix":
        "ae5a96d7e51de3bc9801f7095438605252074bcb42c7d9461ce0df55af3f300a",
    "pairwise_half_bitonic-n8-k3-nomix":
        "6d78ede1aa53d8c490c002a5ffa907425db00af49b0cacc45c62bfb2dd50464a",
    "pairwise_half_bitonic-n13-k4-lam1-mix":
        "5da2c5fe2d6d0cc7f781403d7b5fc4e85af89b5f2ea5ae07c7fdbd1efea4acd2",
    "pairwise_half_bitonic-n13-k4-lam5-mix":
        "5da2c5fe2d6d0cc7f781403d7b5fc4e85af89b5f2ea5ae07c7fdbd1efea4acd2",
    "pairwise_half_bitonic-n13-k4-lam20-mix":
        "5da2c5fe2d6d0cc7f781403d7b5fc4e85af89b5f2ea5ae07c7fdbd1efea4acd2",
    "pairwise_half_bitonic-n13-k4-nomix":
        "5da2c5fe2d6d0cc7f781403d7b5fc4e85af89b5f2ea5ae07c7fdbd1efea4acd2",
    "pairwise_half_bitonic-n16-k7-lam1-mix":
        "8a1ba783ab61c67a1e60618fb215cc99f483068bb409851d2d654eaf596812ff",
    "pairwise_half_bitonic-n16-k7-lam5-mix":
        "8a1ba783ab61c67a1e60618fb215cc99f483068bb409851d2d654eaf596812ff",
    "pairwise_half_bitonic-n16-k7-lam20-mix":
        "8a1ba783ab61c67a1e60618fb215cc99f483068bb409851d2d654eaf596812ff",
    "pairwise_half_bitonic-n16-k7-nomix":
        "8a1ba783ab61c67a1e60618fb215cc99f483068bb409851d2d654eaf596812ff",
    "pairwise_half_bitonic-n24-k5-lam1-mix":
        "d7c4f35bbecd8348eed25d5b77d561ecaac2f27bd3e464b2db531dff29b34bac",
    "pairwise_half_bitonic-n24-k5-lam5-mix":
        "d7c4f35bbecd8348eed25d5b77d561ecaac2f27bd3e464b2db531dff29b34bac",
    "pairwise_half_bitonic-n24-k5-lam20-mix":
        "d7c4f35bbecd8348eed25d5b77d561ecaac2f27bd3e464b2db531dff29b34bac",
    "pairwise_half_bitonic-n24-k5-nomix":
        "d7c4f35bbecd8348eed25d5b77d561ecaac2f27bd3e464b2db531dff29b34bac",
    "pairwise_half_bitonic-n37-k9-lam1-mix":
        "10e8403cdb113d51d92236e42337e5719ec3a752c76321b45d3656047c042706",
    "pairwise_half_bitonic-n37-k9-lam5-mix":
        "10e8403cdb113d51d92236e42337e5719ec3a752c76321b45d3656047c042706",
    "pairwise_half_bitonic-n37-k9-lam20-mix":
        "10e8403cdb113d51d92236e42337e5719ec3a752c76321b45d3656047c042706",
    "pairwise_half_bitonic-n37-k9-nomix":
        "10e8403cdb113d51d92236e42337e5719ec3a752c76321b45d3656047c042706",
    "pairwise_half_bitonic-n64-k12-lam1-mix":
        "024033b3d73f8945ea86812b176966ccd0aa299d44732a875e9c05af8e55a245",
    "pairwise_half_bitonic-n64-k12-lam5-mix":
        "024033b3d73f8945ea86812b176966ccd0aa299d44732a875e9c05af8e55a245",
    "pairwise_half_bitonic-n64-k12-lam20-mix":
        "024033b3d73f8945ea86812b176966ccd0aa299d44732a875e9c05af8e55a245",
    "pairwise_half_bitonic-n64-k12-nomix":
        "024033b3d73f8945ea86812b176966ccd0aa299d44732a875e9c05af8e55a245",
    "pairwise_half_bitonic-n100-k17-lam1-mix":
        "c7ee96d4b371c2eff26bf7eb0cc7e03806c4fa1632b1002ebd4877ff34d2b97f",
    "pairwise_half_bitonic-n100-k17-lam5-mix":
        "c7ee96d4b371c2eff26bf7eb0cc7e03806c4fa1632b1002ebd4877ff34d2b97f",
    "pairwise_half_bitonic-n100-k17-lam20-mix":
        "c7ee96d4b371c2eff26bf7eb0cc7e03806c4fa1632b1002ebd4877ff34d2b97f",
    "pairwise_half_bitonic-n100-k17-nomix":
        "c7ee96d4b371c2eff26bf7eb0cc7e03806c4fa1632b1002ebd4877ff34d2b97f",
    "fourwise-n5-k2-lam1-mix":
        "151a570875b2f8a55d7e42dadb8ab1811c9eb2dc1025522b295ce9da703fb4e3",
    "fourwise-n5-k2-lam5-mix":
        "60ce109334d3da873196d3c87a59008da0e8a2871193894fc29ca4404b8ca78a",
    "fourwise-n5-k2-lam20-mix":
        "60ce109334d3da873196d3c87a59008da0e8a2871193894fc29ca4404b8ca78a",
    "fourwise-n5-k2-nomix":
        "151a570875b2f8a55d7e42dadb8ab1811c9eb2dc1025522b295ce9da703fb4e3",
    "fourwise-n8-k3-lam1-mix":
        "df2c7b3920caba25e0b8593e664d861d1f74e8a7f61e3cbadf1ae01f750a6e53",
    "fourwise-n8-k3-lam5-mix":
        "df2c7b3920caba25e0b8593e664d861d1f74e8a7f61e3cbadf1ae01f750a6e53",
    "fourwise-n8-k3-lam20-mix":
        "ae5a96d7e51de3bc9801f7095438605252074bcb42c7d9461ce0df55af3f300a",
    "fourwise-n8-k3-nomix":
        "df2c7b3920caba25e0b8593e664d861d1f74e8a7f61e3cbadf1ae01f750a6e53",
    "fourwise-n13-k4-lam1-mix":
        "4be8d80b4a19d7ec8c64d950305c1011b2bc34ada2340910663dc4943a02209c",
    "fourwise-n13-k4-lam5-mix":
        "4be8d80b4a19d7ec8c64d950305c1011b2bc34ada2340910663dc4943a02209c",
    "fourwise-n13-k4-lam20-mix":
        "4be8d80b4a19d7ec8c64d950305c1011b2bc34ada2340910663dc4943a02209c",
    "fourwise-n13-k4-nomix":
        "4be8d80b4a19d7ec8c64d950305c1011b2bc34ada2340910663dc4943a02209c",
    "fourwise-n16-k7-lam1-mix":
        "597965bf6d5626e128ff5a6a072c78bd8fd40045b506f424e76602930f69ab9b",
    "fourwise-n16-k7-lam5-mix":
        "597965bf6d5626e128ff5a6a072c78bd8fd40045b506f424e76602930f69ab9b",
    "fourwise-n16-k7-lam20-mix":
        "597965bf6d5626e128ff5a6a072c78bd8fd40045b506f424e76602930f69ab9b",
    "fourwise-n16-k7-nomix":
        "597965bf6d5626e128ff5a6a072c78bd8fd40045b506f424e76602930f69ab9b",
    "fourwise-n24-k5-lam1-mix":
        "56e828a169c606f153b48168746d1bfd9e32fe5e620de758e7bbb2f7bd6ec8d1",
    "fourwise-n24-k5-lam5-mix":
        "9e0515526c55b9bdbd690f099c7bfb7ad73e6aa237dd09b759498b1687ba3d0f",
    "fourwise-n24-k5-lam20-mix":
        "9e0515526c55b9bdbd690f099c7bfb7ad73e6aa237dd09b759498b1687ba3d0f",
    "fourwise-n24-k5-nomix":
        "f788bea0c0769acbf301a4f3b63d6c6accdb1b2d4fce0176d208f3d4e9fd6498",
    "fourwise-n37-k9-lam1-mix":
        "46c172be8ae100730c1a6efa3ac9fd2ef60cd321e012ce74f5648d99e38eca88",
    "fourwise-n37-k9-lam5-mix":
        "a1b60f7173604426805b427247ac86de50a4d4d12e5a99265f295e53594c827c",
    "fourwise-n37-k9-lam20-mix":
        "5a0815634f2a4c46a463e297469cfc43ab9bd531190e97339472e90b2613beb9",
    "fourwise-n37-k9-nomix":
        "46c172be8ae100730c1a6efa3ac9fd2ef60cd321e012ce74f5648d99e38eca88",
    "fourwise-n64-k12-lam1-mix":
        "3f30c1a155d8b49e2343ad9cb1cdf64e08b38342cc2f1eb8eaec2be61f1634cb",
    "fourwise-n64-k12-lam5-mix":
        "3f30c1a155d8b49e2343ad9cb1cdf64e08b38342cc2f1eb8eaec2be61f1634cb",
    "fourwise-n64-k12-lam20-mix":
        "3f30c1a155d8b49e2343ad9cb1cdf64e08b38342cc2f1eb8eaec2be61f1634cb",
    "fourwise-n64-k12-nomix":
        "3f30c1a155d8b49e2343ad9cb1cdf64e08b38342cc2f1eb8eaec2be61f1634cb",
    "fourwise-n100-k17-lam1-mix":
        "739abcf8043812a47da23142de2156582a22c29d5a085ab59ac0b25a2f5628a5",
    "fourwise-n100-k17-lam5-mix":
        "9be39cdddbc1d6b68bf5b18792d1c982fc06cb172f368bc8bd52b44153bfb46b",
    "fourwise-n100-k17-lam20-mix":
        "9be39cdddbc1d6b68bf5b18792d1c982fc06cb172f368bc8bd52b44153bfb46b",
    "fourwise-n100-k17-nomix":
        "c395ca2a67d4b44b5caef0df62ac6a3237f89817fed35823b90f092d3f4fbb15",
    "bitonic_sel-n5-k2-lam1-mix":
        "60ce109334d3da873196d3c87a59008da0e8a2871193894fc29ca4404b8ca78a",
    "bitonic_sel-n5-k2-lam5-mix":
        "60ce109334d3da873196d3c87a59008da0e8a2871193894fc29ca4404b8ca78a",
    "bitonic_sel-n5-k2-lam20-mix":
        "60ce109334d3da873196d3c87a59008da0e8a2871193894fc29ca4404b8ca78a",
    "bitonic_sel-n5-k2-nomix":
        "6c4b8922c5d944b8b5257ccdc9a684ba5e1bc7432111e51cbdb61e440aa24d22",
    "bitonic_sel-n8-k3-lam1-mix":
        "aeb4b848799e37a1cc152945443ae269638d9d603689d6d9b4a858f7d53033dc",
    "bitonic_sel-n8-k3-lam5-mix":
        "ae5a96d7e51de3bc9801f7095438605252074bcb42c7d9461ce0df55af3f300a",
    "bitonic_sel-n8-k3-lam20-mix":
        "ae5a96d7e51de3bc9801f7095438605252074bcb42c7d9461ce0df55af3f300a",
    "bitonic_sel-n8-k3-nomix":
        "aeb4b848799e37a1cc152945443ae269638d9d603689d6d9b4a858f7d53033dc",
    "bitonic_sel-n13-k4-lam1-mix":
        "58ea760abc94de0b0cc139f9894c97ef9ee37c430d84b57326f7d8fe50e2921c",
    "bitonic_sel-n13-k4-lam5-mix":
        "58ea760abc94de0b0cc139f9894c97ef9ee37c430d84b57326f7d8fe50e2921c",
    "bitonic_sel-n13-k4-lam20-mix":
        "58ea760abc94de0b0cc139f9894c97ef9ee37c430d84b57326f7d8fe50e2921c",
    "bitonic_sel-n13-k4-nomix":
        "58ea760abc94de0b0cc139f9894c97ef9ee37c430d84b57326f7d8fe50e2921c",
    "bitonic_sel-n16-k7-lam1-mix":
        "a751212d5745a5db73076d3edea6b52cba01ac6e78de56f706ab8a87bd73afa3",
    "bitonic_sel-n16-k7-lam5-mix":
        "a751212d5745a5db73076d3edea6b52cba01ac6e78de56f706ab8a87bd73afa3",
    "bitonic_sel-n16-k7-lam20-mix":
        "a751212d5745a5db73076d3edea6b52cba01ac6e78de56f706ab8a87bd73afa3",
    "bitonic_sel-n16-k7-nomix":
        "a751212d5745a5db73076d3edea6b52cba01ac6e78de56f706ab8a87bd73afa3",
    "bitonic_sel-n24-k5-lam1-mix":
        "a5a2d1e7cf59a6eafbf7860910a2d159b0a2d7038fb52255eaab8590a7540abc",
    "bitonic_sel-n24-k5-lam5-mix":
        "a5a2d1e7cf59a6eafbf7860910a2d159b0a2d7038fb52255eaab8590a7540abc",
    "bitonic_sel-n24-k5-lam20-mix":
        "a5a2d1e7cf59a6eafbf7860910a2d159b0a2d7038fb52255eaab8590a7540abc",
    "bitonic_sel-n24-k5-nomix":
        "a5a2d1e7cf59a6eafbf7860910a2d159b0a2d7038fb52255eaab8590a7540abc",
    "bitonic_sel-n37-k9-lam1-mix":
        "53cbf048e227b2f2a4fdcca3ad67decedfbae24eba94105622b46b4246c1009d",
    "bitonic_sel-n37-k9-lam5-mix":
        "53cbf048e227b2f2a4fdcca3ad67decedfbae24eba94105622b46b4246c1009d",
    "bitonic_sel-n37-k9-lam20-mix":
        "53cbf048e227b2f2a4fdcca3ad67decedfbae24eba94105622b46b4246c1009d",
    "bitonic_sel-n37-k9-nomix":
        "53cbf048e227b2f2a4fdcca3ad67decedfbae24eba94105622b46b4246c1009d",
    "bitonic_sel-n64-k12-lam1-mix":
        "9b79f12d9fb66f4ba33bda85f520240f2525e0a209fac5018858ffef29c10176",
    "bitonic_sel-n64-k12-lam5-mix":
        "9b79f12d9fb66f4ba33bda85f520240f2525e0a209fac5018858ffef29c10176",
    "bitonic_sel-n64-k12-lam20-mix":
        "9b79f12d9fb66f4ba33bda85f520240f2525e0a209fac5018858ffef29c10176",
    "bitonic_sel-n64-k12-nomix":
        "9b79f12d9fb66f4ba33bda85f520240f2525e0a209fac5018858ffef29c10176",
    "bitonic_sel-n100-k17-lam1-mix":
        "661f820616afd457554d9c31bcfa58eac219428c66c1f99996f26c00e89fa901",
    "bitonic_sel-n100-k17-lam5-mix":
        "661f820616afd457554d9c31bcfa58eac219428c66c1f99996f26c00e89fa901",
    "bitonic_sel-n100-k17-lam20-mix":
        "661f820616afd457554d9c31bcfa58eac219428c66c1f99996f26c00e89fa901",
    "bitonic_sel-n100-k17-nomix":
        "661f820616afd457554d9c31bcfa58eac219428c66c1f99996f26c00e89fa901",
    "oe4-n256-k33-lam5-mix":
        "bb476c65acfffdea09d967c86e6816a3059058ef9fe0eff3ef8ad4a051f6bd93",
    "oe4-n300-k17-lam5-mix":
        "40638e24ec647abba6e7f341ecdab7c7d182603c7b8454ea9861c606b5e08c75",
    "queens8-oe4":
        "c7fced821974bd433086e7453ffd6867fb0058f6dca5bbdcee0c03c33c0253e8",
    "oe2-n256-k33-lam5-mix":
        "1f3a3618be7a3d41696b34ac8d3d1b43d69bcc53e842519aba27d1edc371ed67",
    "oe2-n300-k17-lam5-mix":
        "c899b8d1f104b0c8eae5b83ae70a7a3efb7b2612ba6d3e489b797c04d52dd27a",
    "queens8-oe2":
        "50c953ab5d8f1f15e3a6d25fcbb87348129d58cb5f012c377e7b2b8f87da9b87",
    "fourwise-n256-k33-lam5-mix":
        "728f0d070a9e477994cf4563137e62a9c69e52b08b398d188b9ea9ed2a9176cc",
    "fourwise-n300-k17-lam5-mix":
        "fc1fcf050c42a5e4551772d546ba3bb9b3ac275f05ed1cabaa447f4004762bc2",
    "queens8-fourwise":
        "c676416581d9d3c3d26520471eff7df402f6e75bcf87c38bd18f97c3ea9b1186",
    "opb-a-oe4":
        "fc12e77dafe00862b251081706d5aa97b9a0f169eb036a52e831d10dcd8a1eac",
    "opb-a-oe2":
        "fc12e77dafe00862b251081706d5aa97b9a0f169eb036a52e831d10dcd8a1eac",
    "opb-a-fourwise":
        "fc12e77dafe00862b251081706d5aa97b9a0f169eb036a52e831d10dcd8a1eac",
    "opb-a-pairwise_half_bitonic":
        "fc12e77dafe00862b251081706d5aa97b9a0f169eb036a52e831d10dcd8a1eac",
    "opb-b-oe4":
        "185253dd470d9473f653b6de92e2ffdc95a2514a969da3afd09b632b923385b1",
    "opb-b-oe2":
        "942e4e4959be97ecc4d004b21c332344a31f16de90ef4b5a7a03e1921ac45a6d",
    "opb-b-fourwise":
        "155cc2e10f9600d83f0dc598c4b3b367149508f9c60ea79ac9f1527317401222",
    "opb-b-pairwise_half_bitonic":
        "155cc2e10f9600d83f0dc598c4b3b367149508f9c60ea79ac9f1527317401222",
    "opb-c-oe4":
        "57116628cd62cfb86e928284aa2cc7745e7a4c985b999854eb43916ae1622ce7",
    "opb-c-oe2":
        "1f573fefdaa581b012c775edbc0b6aea0956d78da8ba50dbc120d1ee9f17f853",
    "opb-c-fourwise":
        "7739d2b6970471a7e37709801f1e635c8a9a807a06ea91b984a4c267002018f4",
    "opb-c-pairwise_half_bitonic":
        "f3d9b2dcc65b9224b0cd434f0869764ec04273c351d9bc6fab765ccc3b8f2353",
    # flagged goal bounds
    "goal-w-oe4":
        "0357171926b503d23fd5af390ac777dd361642c447ad92b67eea28f93f15b917",
    "goal-w-oe2":
        "8d3069a4a826c0fc26bbc235d799fc4a5f48fd0dd8f36bc92130fa29dac5394a",
    "goal-w-pairwise_classic":
        "d31b40901d9e3204dbcb3b95943bb3701bde116525f1b756e65d25a4b7f1a8d4",
    "goal-w-pairwise_bitonic":
        "d31b40901d9e3204dbcb3b95943bb3701bde116525f1b756e65d25a4b7f1a8d4",
    "goal-w-pairwise_half_bitonic":
        "d31b40901d9e3204dbcb3b95943bb3701bde116525f1b756e65d25a4b7f1a8d4",
    "goal-w-fourwise":
        "d31b40901d9e3204dbcb3b95943bb3701bde116525f1b756e65d25a4b7f1a8d4",
    "goal-w-bitonic_sel":
        "d31b40901d9e3204dbcb3b95943bb3701bde116525f1b756e65d25a4b7f1a8d4",
    "goal-u-oe4":
        "9053fb2f7111ae7636a477a7493c4e8345e7db5b40dbc91181058596f08eb82d",
    "goal-u-oe2":
        "1b5512701b7cf119836595f36d47f6e7a9e7bc8a20f621726bfcffc9b4b22fa1",
    "goal-u-pairwise_classic":
        "03dafb53d58955694c48806e17553ee8b4f7adcf04e968fc3d42976dd4456942",
    "goal-u-pairwise_bitonic":
        "064a06a271a0e888980efee6e6ef02b0ff267b45206ae2e49d53d3d68ffb5244",
    "goal-u-pairwise_half_bitonic":
        "634b904a9652c9f34e845057ffc717d46d2c76f0a6ff01b88dfcfb43d9d9c8ab",
    "goal-u-fourwise":
        "0e54ba1cbf90fd9e3bf75b9f6591faa94cffa7a99b887f4ce7edfb71ee6bf319",
    "goal-u-bitonic_sel":
        "aaf2c16508532a90cf06b9d162d3189db370f08cfd7569fc28078aa96c9ef756",
    "goal-u-sequential":
        "126172491c1672015c762115c42c07f6b9f07514116a163326f6b2f341fd9600",
    "goal-u-totalizer":
        "908a2aa45f5eb73f278a5458da826a926448a3cca7cc25bd49416971a81b4708",
    "goal-u-binomial":
        "c1da32bda5eaad388041f72d99bfc7f43f0e60445522f5166d59ba2adea4b09e",
    "goal-neg-oe4":
        "ad39d322de4d6430d3f5fdb327f1a19861f42880c6deaa5c8c737d1131d699f3",
    "goal-neg-oe2":
        "ad39d322de4d6430d3f5fdb327f1a19861f42880c6deaa5c8c737d1131d699f3",
    "goal-neg-pairwise_classic":
        "ad39d322de4d6430d3f5fdb327f1a19861f42880c6deaa5c8c737d1131d699f3",
    "goal-neg-pairwise_bitonic":
        "ad39d322de4d6430d3f5fdb327f1a19861f42880c6deaa5c8c737d1131d699f3",
    "goal-neg-pairwise_half_bitonic":
        "ad39d322de4d6430d3f5fdb327f1a19861f42880c6deaa5c8c737d1131d699f3",
    "goal-neg-fourwise":
        "ad39d322de4d6430d3f5fdb327f1a19861f42880c6deaa5c8c737d1131d699f3",
    "goal-neg-bitonic_sel":
        "ad39d322de4d6430d3f5fdb327f1a19861f42880c6deaa5c8c737d1131d699f3",
    "goal-neg-sequential":
        "ad39d322de4d6430d3f5fdb327f1a19861f42880c6deaa5c8c737d1131d699f3",
    "goal-neg-totalizer":
        "ad39d322de4d6430d3f5fdb327f1a19861f42880c6deaa5c8c737d1131d699f3",
    "goal-neg-binomial":
        "ad39d322de4d6430d3f5fdb327f1a19861f42880c6deaa5c8c737d1131d699f3",
    "goal-wide-oe4":
        "879fe21bf71427c8ae54119ed47965499c84023f5ef1493f66b2edbcf8fa52f5",
    "goal-wide-oe2":
        "bd9aaa1f5301ca710c8aed3ce8beb1d0cfa21d924b1cb23dd5760fb00a6a3aec",
    "goal-wide-pairwise_classic":
        "0636c0f7620643d0c2a4f2127f9a64ed19ace5cee6f88f224f6b96ec958f906e",
    "goal-wide-pairwise_bitonic":
        "0636c0f7620643d0c2a4f2127f9a64ed19ace5cee6f88f224f6b96ec958f906e",
    "goal-wide-pairwise_half_bitonic":
        "0636c0f7620643d0c2a4f2127f9a64ed19ace5cee6f88f224f6b96ec958f906e",
    "goal-wide-fourwise":
        "4a5a658cd1fbb8c37cd03baacd22cb2a22a30a834421231293d0ed05263e9c21",
    "goal-wide-bitonic_sel":
        "0636c0f7620643d0c2a4f2127f9a64ed19ace5cee6f88f224f6b96ec958f906e",
    "auto-n5-k2-lam1-mix":
        "151a570875b2f8a55d7e42dadb8ab1811c9eb2dc1025522b295ce9da703fb4e3",
    "auto-n5-k2-lam5-mix":
        "60ce109334d3da873196d3c87a59008da0e8a2871193894fc29ca4404b8ca78a",
    "auto-n5-k2-lam20-mix":
        "60ce109334d3da873196d3c87a59008da0e8a2871193894fc29ca4404b8ca78a",
    "auto-n5-k2-nomix":
        "151a570875b2f8a55d7e42dadb8ab1811c9eb2dc1025522b295ce9da703fb4e3",
    "auto-n8-k3-lam1-mix":
        "5b5ce270d3b9cacd39979b6ead7b4492006d8e644b4215fa53a803243d429e2a",
    "auto-n8-k3-lam5-mix":
        "5b5ce270d3b9cacd39979b6ead7b4492006d8e644b4215fa53a803243d429e2a",
    "auto-n8-k3-lam20-mix":
        "ae5a96d7e51de3bc9801f7095438605252074bcb42c7d9461ce0df55af3f300a",
    "auto-n8-k3-nomix":
        "5b5ce270d3b9cacd39979b6ead7b4492006d8e644b4215fa53a803243d429e2a",
    "auto-n13-k4-lam1-mix":
        "84ea52523e0fe88bf9caf8f5560a91efb58b842530eeb8059dedd9080bfbf2a9",
    "auto-n13-k4-lam5-mix":
        "4be8d80b4a19d7ec8c64d950305c1011b2bc34ada2340910663dc4943a02209c",
    "auto-n13-k4-lam20-mix":
        "583599747f1d206ff4ba197720fb6acf3062d76f0cb023f07c4d3df3e43593f5",
    "auto-n13-k4-nomix":
        "4be8d80b4a19d7ec8c64d950305c1011b2bc34ada2340910663dc4943a02209c",
    "auto-n16-k7-lam1-mix":
        "4b52748e2c1368e3ec4a47198a08bf5641009eaff7cc4abfcf92c2fd77eb38d2",
    "auto-n16-k7-lam5-mix":
        "4b52748e2c1368e3ec4a47198a08bf5641009eaff7cc4abfcf92c2fd77eb38d2",
    "auto-n16-k7-lam20-mix":
        "4b52748e2c1368e3ec4a47198a08bf5641009eaff7cc4abfcf92c2fd77eb38d2",
    "auto-n16-k7-nomix":
        "4b52748e2c1368e3ec4a47198a08bf5641009eaff7cc4abfcf92c2fd77eb38d2",
    "auto-n24-k5-lam1-mix":
        "94babedd1e2876cec8d421dd06d52242a2ae77d9cb2b37c72df210978810e4db",
    "auto-n24-k5-lam5-mix":
        "9e0515526c55b9bdbd690f099c7bfb7ad73e6aa237dd09b759498b1687ba3d0f",
    "auto-n24-k5-lam20-mix":
        "9e0515526c55b9bdbd690f099c7bfb7ad73e6aa237dd09b759498b1687ba3d0f",
    "auto-n24-k5-nomix":
        "9e17f0d026e096461dc76918c02967e217713e3e3810faaf1e984c26d99b7b48",
    "auto-n37-k9-lam1-mix":
        "6667b44b0d32a7774cf1234d85e2ad0cb972378132d1a483c0e13d129676db84",
    "auto-n37-k9-lam5-mix":
        "770ae0fab7df3d8e03d6facca55faed7caf6932c4b38d3d114ecbbb3c8e34a75",
    "auto-n37-k9-lam20-mix":
        "ed5cc927d5c2cc6335a3e82a76b86e259c098337dacdb648e2b0f646836a3b80",
    "auto-n37-k9-nomix":
        "6667b44b0d32a7774cf1234d85e2ad0cb972378132d1a483c0e13d129676db84",
    "auto-n64-k12-lam1-mix":
        "024a4a4f1d61a0ee1d7d8a3b63c24d3b6b7644186f55578012c97857729753c2",
    "auto-n64-k12-lam5-mix":
        "024a4a4f1d61a0ee1d7d8a3b63c24d3b6b7644186f55578012c97857729753c2",
    "auto-n64-k12-lam20-mix":
        "ba30023f437f6f999026d8df80af469538c115da76ed2567582fa2d6c0d5102c",
    "auto-n64-k12-nomix":
        "024a4a4f1d61a0ee1d7d8a3b63c24d3b6b7644186f55578012c97857729753c2",
    "auto-n100-k17-lam1-mix":
        "8e22722398ae9961b17661e9a92da0888cfd11044a044972fd4dc1c32a509af8",
    "auto-n100-k17-lam5-mix":
        "149938a790092784d5876a7cf7121b34ac1f0fa3b122736f168b2cd3e0f87091",
    "auto-n100-k17-lam20-mix":
        "755cb07fd5fa680afab785bff1db8d4b0e882343187c6f6d054c88540bc73aba",
    "auto-n100-k17-nomix":
        "8e6d3a55387beae4a9bdad60f3e1a7274b738b8418bcf067d1aac13dbd2c994a",
    "auto-n256-k33-lam5-mix":
        "ce4d890626006cc157a1bcea2acad0bfca093899bb1c9b533db6db6d9f27dcc8",
    "auto-n300-k17-lam5-mix":
        "a0c71a47f52d2e7b4fb79768b7125591e53af0b07074ab52a691d304efa67466",
    "queens8-auto":
        "b02e5d8a90624df528dc072fbc1c0734965767d7ad62c0ea9b44241bd91bb93b",
    "opb-a-auto":
        "fc12e77dafe00862b251081706d5aa97b9a0f169eb036a52e831d10dcd8a1eac",
    "opb-b-auto":
        "185253dd470d9473f653b6de92e2ffdc95a2514a969da3afd09b632b923385b1",
    "opb-c-auto":
        "57116628cd62cfb86e928284aa2cc7745e7a4c985b999854eb43916ae1622ce7",
    "goal-w-auto":
        "0357171926b503d23fd5af390ac777dd361642c447ad92b67eea28f93f15b917",
    "goal-u-auto":
        "9053fb2f7111ae7636a477a7493c4e8345e7db5b40dbc91181058596f08eb82d",
    "goal-neg-auto":
        "ad39d322de4d6430d3f5fdb327f1a19861f42880c6deaa5c8c737d1131d699f3",
    "goal-wide-auto":
        "879fe21bf71427c8ae54119ed47965499c84023f5ef1493f66b2edbcf8fa52f5",
    # = lines and <= / >= pairs over one literal multiset
    "eq-auto-n5-k2":
        "c63940fbb059046a6e48dc909bcf24894d48da80def52cf7b2b0a56b862fe877",
    "pair-auto-n5-j1-k2":
        "4d93c42d67ccc599059573ebc82bf543848d04baa2aee7ca74b7c92e3edbee2b",
    "eq-auto-n8-k3":
        "a6dc6517d2911102ca1c290e39ed9154c82067e9f6bb64382ceaa89d9d729784",
    "pair-auto-n8-j2-k3":
        "08255feec6a6c922048929b1b3958fd46b2ea5f53f5863b91369b72793cc323a",
    "eq-auto-n13-k4":
        "dc6b82cd09548b19e07c4624d9dbbf94c92f9cadb23b9b958d5c58b5525d0c4e",
    "pair-auto-n13-j2-k4":
        "b80e403f21061d6011fb1d83e45032a6f140c8315659bdd79f347cf3cb867d2e",
    "eq-auto-n16-k7":
        "0050d6b276995aed52e0ac01d0a075d7eb7e3a56c9aa54ac32950c25ced1fda5",
    "pair-auto-n16-j4-k7":
        "88b75c70f6ab0ce7a9783b3ea76f22e22652f886fb9b4193270fb20e99ae21bb",
    "eq-auto-n24-k5":
        "bb2349be04ee3746d0f5214d5dbe1ee19dfd9613221ee139465645d23d261914",
    "pair-auto-n24-j3-k5":
        "a8e682818e2bbb15f0fea5df390eaf65352c71de4332135182f25a6aaa4b16c7",
    "eq-auto-n37-k9":
        "27e3b81b7df772291d4e035707f74636f5ffcc102faa090b50ef287591644ed2",
    "pair-auto-n37-j5-k9":
        "5d4027dfb76bc5df2b383df0dd4ee406a4c5db2799840e9888fb1701b2a9416a",
    "eq-auto-n64-k12":
        "0dc87aec8d089cb3ee67fbcdb86f1df35229de503a0f001b9fda13b5b01f027f",
    "pair-auto-n64-j6-k12":
        "9ece5c889e1130d8e01a5c0d8bbee551ee1c796ea49a9e78074b193bc6c7bf8e",
    "eq-auto-n100-k17":
        "b967afde5e1f7c40fd6861e1e708559d307abe28ca3ed73d33c6f1f6836f489e",
    "pair-auto-n100-j9-k17":
        "5dfb0e9a40732526a8eedfc256ba58b9dbdacfce639283963c3bc918fd306886",
    "eq-oe4-n5-k2":
        "c63940fbb059046a6e48dc909bcf24894d48da80def52cf7b2b0a56b862fe877",
    "pair-oe4-n5-j1-k2":
        "4d93c42d67ccc599059573ebc82bf543848d04baa2aee7ca74b7c92e3edbee2b",
    "eq-oe4-n8-k3":
        "5e0dbfa902e5f33f46d071e8f8a9ec2a90f811a982f910ca00c25c4551294e64",
    "pair-oe4-n8-j2-k3":
        "38daeddbd4cde0f7d1f00a7ef4dd1df0da7e13010c4f6954c298e5fbb92b750e",
    "eq-oe4-n13-k4":
        "0a12fb3198951a439f9e565387860bf4bca85665e03498bef8ba4eedb5759b32",
    "pair-oe4-n13-j2-k4":
        "cdedb7a83078e903cd7bd97531f9eb9e09da6003f4427adaed80a4fff3837c4a",
    "eq-oe4-n16-k7":
        "0050d6b276995aed52e0ac01d0a075d7eb7e3a56c9aa54ac32950c25ced1fda5",
    "pair-oe4-n16-j4-k7":
        "88b75c70f6ab0ce7a9783b3ea76f22e22652f886fb9b4193270fb20e99ae21bb",
    "eq-oe4-n24-k5":
        "dce5b36aaefe3ce84d1487992ddb31b132a3e268b3fbc956af74c9763286489b",
    "pair-oe4-n24-j3-k5":
        "46b247f57b8f91091239b78490a0352e6da85c4e371ca5454956ac2da7a73de2",
    "eq-oe4-n37-k9":
        "b15ee585da78e92343a67dcd97258690d2ed689fae8efc654a2784cd6ae3006e",
    "pair-oe4-n37-j5-k9":
        "111d65568c9942c0efa29cdd30bd3e7e64f350619772adf400c4a4615c07a31c",
    "eq-oe4-n64-k12":
        "541aa98030d873b1755055dc06dd47b3e4d4cc073998e4385e924239a5caf155",
    "pair-oe4-n64-j6-k12":
        "90814d85fa705c4c01756a839585390a9aa94be497cabe44b95af4a961923ba9",
    "eq-oe4-n100-k17":
        "54e85f7e2fbd1fbf8946f84b54740af17131e622829f06dfa97a5b4e8c8e8e0e",
    "pair-oe4-n100-j9-k17":
        "6ef8958e24b243e4897fb7e2d78e214141871ebfc1500ee7794e9da66671a0a5",
    "eq-oe2-n5-k2":
        "c63940fbb059046a6e48dc909bcf24894d48da80def52cf7b2b0a56b862fe877",
    "pair-oe2-n5-j1-k2":
        "4d93c42d67ccc599059573ebc82bf543848d04baa2aee7ca74b7c92e3edbee2b",
    "eq-oe2-n8-k3":
        "a6dc6517d2911102ca1c290e39ed9154c82067e9f6bb64382ceaa89d9d729784",
    "pair-oe2-n8-j2-k3":
        "08255feec6a6c922048929b1b3958fd46b2ea5f53f5863b91369b72793cc323a",
    "eq-oe2-n13-k4":
        "f97f66c051775a6966b2158f4ae05106d557030effdd4ca7dceb8b0d2d894b2e",
    "pair-oe2-n13-j2-k4":
        "f50f0ef1643d0cf5d9b2535dc8c795d44dd709bd56c9a4dd331409d05458f9bf",
    "eq-oe2-n16-k7":
        "83476f60b84e1199b590f26b0a76982b7ec52a7587006e350ddac38940d7fdd6",
    "pair-oe2-n16-j4-k7":
        "dac48ff8270b9ad13829ff5a3ad5a31e448df9ef4430a6700b68c1d7e78bacf6",
    "eq-oe2-n24-k5":
        "ad17acc99e2735e820f1574627cbddfa45fb6a2f694625047fc6b6fc39ce8f90",
    "pair-oe2-n24-j3-k5":
        "1c155883370f6b9ea8d57bd884427f231db153a62e174f26d1a825955aa138eb",
    "eq-oe2-n37-k9":
        "55f1926c731bc8438d1f5ad4d6520e22a95493f7d4437bd73d8622c519de4401",
    "pair-oe2-n37-j5-k9":
        "b5cf19d034483cdd5499535a99ad786df6cf9e5df9a0d7679375f9f6242a4233",
    "eq-oe2-n64-k12":
        "d5ec59cbd8f971390e1ed090dd989c7790325614a2638d3710d86b3c2e416854",
    "pair-oe2-n64-j6-k12":
        "a25a75e81a6e99b87c402433f93dbd3af57db6e26c3aec04bc7cc7f4648fbf65",
    "eq-oe2-n100-k17":
        "2da781b9308add1570f222469a7c79c0689f103fa18d84fa4287d60c8fd5c21d",
    "pair-oe2-n100-j9-k17":
        "c58f2261d6162f859c7a40a3222c7a77cb74f2157a3efe3a7c2cf5df651fe4ba",
    "eq-pairwise_classic-n5-k2":
        "c63940fbb059046a6e48dc909bcf24894d48da80def52cf7b2b0a56b862fe877",
    "pair-pairwise_classic-n5-j1-k2":
        "4d93c42d67ccc599059573ebc82bf543848d04baa2aee7ca74b7c92e3edbee2b",
    "eq-pairwise_classic-n8-k3":
        "aebc9e8bc061849d063728c494df88b26c3e2ab6d91be44919c052fbb4ded1ac",
    "pair-pairwise_classic-n8-j2-k3":
        "886103831895850321167477e10c6d98c5e467465418f1af439e5c2f41a064ff",
    "eq-pairwise_classic-n13-k4":
        "8dc0c00c9de76127c9248535f0fa4e490adb1fd6d6783f5a9491ca55c7f58236",
    "pair-pairwise_classic-n13-j2-k4":
        "e7f47e885891b216e48d367e52d7fc877122556dae83c2a58be96a55e1be7069",
    "eq-pairwise_classic-n16-k7":
        "d2856bc22dfb5aeafe39deaa3cdb9377f7e212ff77a1b3a52783c04497c721b6",
    "pair-pairwise_classic-n16-j4-k7":
        "d26256fe62eed470c37c3c13cd06dfc028a17891ae1f67bd61c8df010bc42773",
    "eq-pairwise_classic-n24-k5":
        "cd41b341e2641ff9f6242b6e2d1bbc068704354b3d71ded3460acef143794893",
    "pair-pairwise_classic-n24-j3-k5":
        "38af526a0c1afef430a9de32ccf83810c81936140b9ac68a8805295a675025cd",
    "eq-pairwise_classic-n37-k9":
        "b5354489f699a1eee7f4956251aeff38f4b7487b54f7bdd907b46f6930fc023b",
    "pair-pairwise_classic-n37-j5-k9":
        "067e02422bb73b9e5fd2558184a3db14425b118e8e0876a8f5a8f4b13f3bc40b",
    "eq-pairwise_classic-n64-k12":
        "66782af2dd7b8cdaeb26480ff4b52e07e0a45ee59e51df6e2c98819e97a03102",
    "pair-pairwise_classic-n64-j6-k12":
        "8943138d28fd7d849f75635b9c570d9779f9635cfe4ba9f373d77f15b18f19e4",
    "eq-pairwise_classic-n100-k17":
        "8a86e51aa720cf4b438efc68a6fac4c63cd948fa250c192e0f90ea33294e93f4",
    "pair-pairwise_classic-n100-j9-k17":
        "8fe1263c7d69e32c78ee0a57340ff60ca0b1987f3737e1413d73e2209ec6bb6b",
    "eq-pairwise_bitonic-n5-k2":
        "c63940fbb059046a6e48dc909bcf24894d48da80def52cf7b2b0a56b862fe877",
    "pair-pairwise_bitonic-n5-j1-k2":
        "4d93c42d67ccc599059573ebc82bf543848d04baa2aee7ca74b7c92e3edbee2b",
    "eq-pairwise_bitonic-n8-k3":
        "57071b423e8306e64b93d160ae8391a41a5c74b3d8913e6af449684c9ab24edb",
    "pair-pairwise_bitonic-n8-j2-k3":
        "6e5091a21e5b68fa59fa629da5257a7f31fb6ffbd5782ef8a6076b0881144371",
    "eq-pairwise_bitonic-n13-k4":
        "1c9878264f4d95c802020a1ff5c9238908defbc9e8176150f0c12b5f1bd097d4",
    "pair-pairwise_bitonic-n13-j2-k4":
        "468b01c7c41ed3a9ba68193b1ff97095a6258a41709fcab990ee0dbd5e9ef3ba",
    "eq-pairwise_bitonic-n16-k7":
        "b88a25c6176dcfad4e5fe17eb12fd564cb044dda11d7ffb00d50edef2bfdb020",
    "pair-pairwise_bitonic-n16-j4-k7":
        "d4c112fcf690eb8113527fdc51e148cc43a3da228dfc7787402fefac6a000977",
    "eq-pairwise_bitonic-n24-k5":
        "c7b9afb7afc479ac8b7e1fd36bb836261ad79af445ced7baf97a8d56fb9f7f32",
    "pair-pairwise_bitonic-n24-j3-k5":
        "2819983e7ebb72f051b9b4fad180198bcf5829b99dc2df46cf5fce8a5ed185d1",
    "eq-pairwise_bitonic-n37-k9":
        "fbe468e9a8d7b527f7d3c40057407bd45bd9354ec0a65e10cf97c594125c1dbe",
    "pair-pairwise_bitonic-n37-j5-k9":
        "49590cb8c8d30768330476419640870b6fd875c4bccf155a6155009ea613087e",
    "eq-pairwise_bitonic-n64-k12":
        "395718300bd89ef9a5e4df106df49f993bf94c9370788d030c49a8575d5044f7",
    "pair-pairwise_bitonic-n64-j6-k12":
        "e96fec75c036813fcc09a5629550131d376b975609913fe036ce9d5ba955ed2c",
    "eq-pairwise_bitonic-n100-k17":
        "ef04460bf24a45218effbd27ce9aa2e10a5a89d82de25c0e1eea05959bb2edca",
    "pair-pairwise_bitonic-n100-j9-k17":
        "76d52162440cba143bf6bc59e80655f450e86307478f03ccc486cacca9931e67",
    "eq-pairwise_half_bitonic-n5-k2":
        "c63940fbb059046a6e48dc909bcf24894d48da80def52cf7b2b0a56b862fe877",
    "pair-pairwise_half_bitonic-n5-j1-k2":
        "4d93c42d67ccc599059573ebc82bf543848d04baa2aee7ca74b7c92e3edbee2b",
    "eq-pairwise_half_bitonic-n8-k3":
        "57071b423e8306e64b93d160ae8391a41a5c74b3d8913e6af449684c9ab24edb",
    "pair-pairwise_half_bitonic-n8-j2-k3":
        "6e5091a21e5b68fa59fa629da5257a7f31fb6ffbd5782ef8a6076b0881144371",
    "eq-pairwise_half_bitonic-n13-k4":
        "ec11d0221099df2b0dca99762fcc1007d5b91a3d57c311e5b8e8a193dd68b661",
    "pair-pairwise_half_bitonic-n13-j2-k4":
        "9c51df90a32b5e77a6f21f91b3bdd04833bf5151daf73e498003fed896169b20",
    "eq-pairwise_half_bitonic-n16-k7":
        "923c407ffca77c8e8e9e4d5d2c80018dafc2ae10585497ad03c7cb1df495e9fb",
    "pair-pairwise_half_bitonic-n16-j4-k7":
        "22efb5f269c6bff444f00427d6928e4e948f66306e312c0d34db1773a63a6bcb",
    "eq-pairwise_half_bitonic-n24-k5":
        "b06b2d1a08bc83f36451d18832b2d63236c851ea1e9d838c0872bc7c7b045b7b",
    "pair-pairwise_half_bitonic-n24-j3-k5":
        "58b910afd1d348b0c1d7814d880e2264915e711563b43af7ff6be802102dac10",
    "eq-pairwise_half_bitonic-n37-k9":
        "6174b68f43c59e6efd2bd9c2a245a5bb7918dfcb7a5d49f791b8db40178ab4dd",
    "pair-pairwise_half_bitonic-n37-j5-k9":
        "58029b29f3127b1c37daa045b780db08ee27a9105138460ddd89c03667bb7afe",
    "eq-pairwise_half_bitonic-n64-k12":
        "8636520a99c12a86e365ea8a477d0114b66c38789fa547e5e65c53301146e835",
    "pair-pairwise_half_bitonic-n64-j6-k12":
        "00b48d3d59ad1ea9d6cb39fd085a42e716e3d025269a195892e3f1170bad7222",
    "eq-pairwise_half_bitonic-n100-k17":
        "52958814b8d90bebc492d493a14d32eec9050d6df859dc60e855b0d2d7735a60",
    "pair-pairwise_half_bitonic-n100-j9-k17":
        "364068f34220dc2d5d722c1e74aa6964fb7dc59a853fc188bb2dd859b6d1d748",
    "eq-fourwise-n5-k2":
        "c63940fbb059046a6e48dc909bcf24894d48da80def52cf7b2b0a56b862fe877",
    "pair-fourwise-n5-j1-k2":
        "4d93c42d67ccc599059573ebc82bf543848d04baa2aee7ca74b7c92e3edbee2b",
    "eq-fourwise-n8-k3":
        "d624ea0a4cd5ca24c16dad0c66a27f9b68618f7e810fc925a2938795198fdd6d",
    "pair-fourwise-n8-j2-k3":
        "7b75a0ffbc5a3ab133a9fde1cb263dddce78156a93ed94f2a52402937b86ed61",
    "eq-fourwise-n13-k4":
        "dc6b82cd09548b19e07c4624d9dbbf94c92f9cadb23b9b958d5c58b5525d0c4e",
    "pair-fourwise-n13-j2-k4":
        "b80e403f21061d6011fb1d83e45032a6f140c8315659bdd79f347cf3cb867d2e",
    "eq-fourwise-n16-k7":
        "75e8d4f039514f15d7d8ca2fd7caa75c3fe8a24b47cebce9fae1825524dc822c",
    "pair-fourwise-n16-j4-k7":
        "a7c0654bbac40241b5ab6f438a3ccc976b48e8891cf7a3114e9c73283c48c032",
    "eq-fourwise-n24-k5":
        "bb2349be04ee3746d0f5214d5dbe1ee19dfd9613221ee139465645d23d261914",
    "pair-fourwise-n24-j3-k5":
        "a8e682818e2bbb15f0fea5df390eaf65352c71de4332135182f25a6aaa4b16c7",
    "eq-fourwise-n37-k9":
        "ba7cfd7ac9cc74f180ea093051364f73df7bd6f7aa6fd34b2f013954277276e1",
    "pair-fourwise-n37-j5-k9":
        "c1a54ad7f23ad18c1ec1255112dc3cbb45666b59370232eb988030bb31ee754c",
    "eq-fourwise-n64-k12":
        "bbedc563a80bfb974db2a9c08843909962775348febdb622dd8eb7da3231cdac",
    "pair-fourwise-n64-j6-k12":
        "edce7bafe605f7b7c1ec7453f0ac2e8cf0819286358086313e8a3e4ac5d30b81",
    "eq-fourwise-n100-k17":
        "7617f014d534f2371ce5ffdb95336ed05b47e63304414d2a38e1cdcdeafc37ce",
    "pair-fourwise-n100-j9-k17":
        "c5ebc240ba4cc442984984138e5576047cdf4889b01cb6cc3382c8468971f823",
    "eq-bitonic_sel-n5-k2":
        "c63940fbb059046a6e48dc909bcf24894d48da80def52cf7b2b0a56b862fe877",
    "pair-bitonic_sel-n5-j1-k2":
        "4d93c42d67ccc599059573ebc82bf543848d04baa2aee7ca74b7c92e3edbee2b",
    "eq-bitonic_sel-n8-k3":
        "57071b423e8306e64b93d160ae8391a41a5c74b3d8913e6af449684c9ab24edb",
    "pair-bitonic_sel-n8-j2-k3":
        "6e5091a21e5b68fa59fa629da5257a7f31fb6ffbd5782ef8a6076b0881144371",
    "eq-bitonic_sel-n13-k4":
        "3c48ca498bd0f4fd57ef59b0f4785a0b208dcf69273b7864938e64e5a94aaa3b",
    "pair-bitonic_sel-n13-j2-k4":
        "eddb887de2ec62525efcad5e80f84a159c8c3fdc2fa44bdda39d6346a30db8f2",
    "eq-bitonic_sel-n16-k7":
        "09fe3bf9fa756c6d80784f70bccc0d91f3adb0b18a408dbeaeb89c81d41b9ca7",
    "pair-bitonic_sel-n16-j4-k7":
        "54d41621a6a01e4784f9f0251e81d6d7fca9428f97d06fdb1910656beaae4ec6",
    "eq-bitonic_sel-n24-k5":
        "6360ffa8a2da5d731eb5b4fdce282113e3fd32baba5905e5340c1d7c92261e2d",
    "pair-bitonic_sel-n24-j3-k5":
        "022f3e30fa452882df0f9d90f3b4becb114640b9a6e739846fdf5a45fdd9a531",
    "eq-bitonic_sel-n37-k9":
        "f768562c497161bb059b8daae27ab5f22a6cd6b6346fda76e9ebae476435f124",
    "pair-bitonic_sel-n37-j5-k9":
        "ead183ce98fd6226c3dfdc474628b7832da4f2e89859339c1c810a65cc1498ad",
    "eq-bitonic_sel-n64-k12":
        "fbb3dcc90b472174963fa00698b0ce68db868a7388d03e06218f2e0bc190644a",
    "pair-bitonic_sel-n64-j6-k12":
        "48cfebd0fb0f6a289773d3da69ee35c45382d8230277dd8a57e9b3bce4a63aab",
    "eq-bitonic_sel-n100-k17":
        "c8b0b76dedd9e2a225392edd6e67d1f2b58a5fa79a44480c71ff69010cc901ee",
    "pair-bitonic_sel-n100-j9-k17":
        "8c7995bb1d95279d77778a78a27e1ebd5f0b295e9b29e9750a72ebcb3d157d26",
}


def test_golden_grid_is_complete():
    assert sorted(GOLDEN) == sorted(case_id for case_id, _ in cases())


def _group(method):
    """The golden cases of one test group."""
    prefix = "opb-" if method == "opb" else method + "-"
    group = [(case_id, thunk) for case_id, thunk in cases() if case_id.startswith(prefix)]
    assert group
    return group


GROUPS = NETWORK_METHODS + ("queens8", "opb", "goal", "eq", "pair")


@pytest.mark.parametrize("method", GROUPS)
def test_golden_dimacs(method):
    for case_id, thunk in _group(method):
        assert _sha(thunk()) == GOLDEN[case_id], case_id


def _price_caches():
    """Entry counts of the price caches.  The tests below patch emit_network
    module-wide, so a price computed during a patched run would come from
    the patched emission; each case first runs unpatched to fill them, and
    its patched run must add no entry."""
    return (len(encode._LEVEL_COSTS), encode.Chooser.best_level.cache_info().currsize,
            encode.Chooser.use_direct.cache_info().currsize,
            encode._side_cost.cache_info().currsize, encode._pair_bounds.cache_info().currsize)


@pytest.mark.parametrize("method", GROUPS)
def test_pruning_matches_dead_gate_elimination(method, monkeypatch):
    # every network emitted in full, whatever its caller reads: the variables
    # it allocates are auxiliary, those of the read outputs exposed; an
    # asserted output is folded on both sides.  A network that carries both
    # bounds of a pair (emit_bounds) stays pruned: its emission is defined on
    # the cones of its two assertions, since root propagation over the whole
    # network in both polarities can derive more and keep more.
    real = encode.emit_network
    aux, exposed = set(), set()

    def emit_everything(formula, net, input_lits, polarity="atmost", reads=None, asserts=None):
        start = formula.next_var
        outs = real(formula, net, input_lits, polarity, None, asserts)
        aux.update(range(start, formula.next_var))
        read = outs if reads is None else [outs[i] for i in reads]
        exposed.update(abs(lit) for lit in read if not is_const(lit))
        return read

    for case_id, thunk in _group(method):
        pruned = thunk()
        priced = _price_caches()
        aux.clear()
        exposed.clear()
        with monkeypatch.context() as patch:
            patch.setattr(encode, "emit_network", emit_everything)
            patch.setattr(pb, "emit_network", emit_everything)
            full = thunk()
        assert _price_caches() == priced, case_id
        assert (_without_dead_gates(full, aux, exposed).write_dimacs()
                == pruned.write_dimacs()), case_id


def _assumed(formula, lit):
    """formula with lit assumed true: ~lit removed from every clause."""
    return CnfFormula(formula.next_var,
                      [tuple(l for l in clause if l != -lit) for clause in formula.clauses],
                      formula.trivially_unsat)


@pytest.mark.parametrize("method", GROUPS)
def test_fold_matches_root_propagation(method, monkeypatch):
    # each network emitted as before the fold: pruned to what its caller
    # reads, plus the unit of the asserted output; the variables it allocates
    # are auxiliary, those of the other read outputs exposed.  Root unit
    # propagation of those units, then dead-gate elimination, gives the
    # folded bytes: the fold assigns what propagation assigns and keeps every
    # other clause.  An exposed output left in no clause (a PB top output the
    # fold makes constant) is dropped as well.  A network that carries both
    # bounds of a pair is emitted as its two polarities over shared
    # variables, each with its unit, and propagation runs over both clause
    # sets together.  A goal case's flag is assumed true on both sides:
    # ~flag is stripped from every clause.
    real = encode.emit_network
    aux, exposed, units = set(), set(), []

    def emit_unfolded(formula, net, input_lits, polarity="atmost", reads=None, asserts=None):
        start = formula.next_var
        outs = real(formula, net, input_lits, polarity, reads, None)
        aux.update(range(start, formula.next_var))
        asserted = None if asserts is None else outs[list(reads).index(asserts)]
        exposed.update(abs(lit) for lit in outs if not is_const(lit) and lit is not asserted)
        if asserts is not None:
            unit = neg(asserted) if polarity == "atmost" else asserted
            formula.add_clause([unit])
            if not is_const(unit):
                units.append(unit)
        return outs

    def bounds_unfolded(formula, net, input_lits, upper, lower):
        # a variable for every wire past the inputs, in wire order, as
        # emit_bounds numbers the gate outputs it keeps
        start = formula.next_var
        units.extend(unfolded_bounds(formula, net, input_lits, upper, lower))
        aux.update(range(start, formula.next_var))

    for case_id, thunk in _group(method):
        folded = thunk()  # first, so that every price is cached from real emission
        priced = _price_caches()
        aux.clear()
        exposed.clear()
        units.clear()
        with monkeypatch.context() as patch:
            patch.setattr(encode, "emit_network", emit_unfolded)
            patch.setattr(pb, "emit_network", emit_unfolded)
            patch.setattr(encode, "emit_bounds", bounds_unfolded)
            unfolded = thunk()
        assert _price_caches() == priced, case_id
        if case_id.startswith("goal-"):  # _goal_case's flag follows the objective
            flag = len(GOAL_OBJECTIVES[case_id.rsplit("-", 1)[0]][0]) + 1
            folded, unfolded = _assumed(folded, flag), _assumed(unfolded, flag)
        propagated, assigned = _propagated(unfolded, aux, units)
        assert assigned <= aux, case_id
        assert (_without_dead_gates(propagated, aux, exposed - assigned, False).write_dimacs()
                == folded.write_dimacs()), case_id
