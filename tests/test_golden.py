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
"""

import hashlib
from collections import Counter, defaultdict

import pytest

from cardnet import encode, pb
from cardnet.cnf import CnfFormula, is_const, neg
from cardnet.cnfp import encode_cnfp, queens_cnfp
from cardnet.encode import (METHODS, NETWORK_METHODS, CardConstraint, EncodeOptions,
                            encode_atmost)
from cardnet.pb import encode_goal_bound, parse_opb
from cardnet.solve import encode_problem

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
        "dbc38ae772e609c3ab9535638a255b88464f55e61838c23e8b9ed51d56583d30",
    "oe2-n256-k33-lam5-mix":
        "1f3a3618be7a3d41696b34ac8d3d1b43d69bcc53e842519aba27d1edc371ed67",
    "oe2-n300-k17-lam5-mix":
        "c899b8d1f104b0c8eae5b83ae70a7a3efb7b2612ba6d3e489b797c04d52dd27a",
    "queens8-oe2":
        "c95353858cd64463b5b8fbec1f9d9a1a73e88748621e7638df1432abfa7889e0",
    "fourwise-n256-k33-lam5-mix":
        "728f0d070a9e477994cf4563137e62a9c69e52b08b398d188b9ea9ed2a9176cc",
    "fourwise-n300-k17-lam5-mix":
        "fc1fcf050c42a5e4551772d546ba3bb9b3ac275f05ed1cabaa447f4004762bc2",
    "queens8-fourwise":
        "d84d446a0b5c1eb81eb93a4b5ee31baa67f0bfe09aa50276542d6f8129c960ff",
    "opb-a-oe4":
        "fb12c3dcc1d6a3c77813e84188e1b175046df933dbd6c42ed0f911eb7fbe131a",
    "opb-a-oe2":
        "fb12c3dcc1d6a3c77813e84188e1b175046df933dbd6c42ed0f911eb7fbe131a",
    "opb-a-fourwise":
        "fb12c3dcc1d6a3c77813e84188e1b175046df933dbd6c42ed0f911eb7fbe131a",
    "opb-a-pairwise_half_bitonic":
        "fb12c3dcc1d6a3c77813e84188e1b175046df933dbd6c42ed0f911eb7fbe131a",
    "opb-b-oe4":
        "693545558d89023cf3300e49bd14ec3ab60217c4f5587ca878a6910002f9a98b",
    "opb-b-oe2":
        "9d14474192413bceb1ec454cb200235bb6885adaed626182a61f136cfafde8d2",
    "opb-b-fourwise":
        "08ec68a77c2e839d72d84d0c24c0cb1bde968caa8edfbb1940911fed85cba573",
    "opb-b-pairwise_half_bitonic":
        "08ec68a77c2e839d72d84d0c24c0cb1bde968caa8edfbb1940911fed85cba573",
    # flagged goal bounds
    "goal-w-oe4":
        "6a14b670785bdc422e063b9c2a73c6547d30652dd24eac2d040b76c38559dacb",
    "goal-w-oe2":
        "0eb5c9b1a0f5f8428501ca62ccbd9eb3c00118b9f1e23c57ffac0d1eecb04808",
    "goal-w-pairwise_classic":
        "907865c1f8e7df42bf77c6c39a544790949d3231c8e75f8a4c29c50d35e1298a",
    "goal-w-pairwise_bitonic":
        "907865c1f8e7df42bf77c6c39a544790949d3231c8e75f8a4c29c50d35e1298a",
    "goal-w-pairwise_half_bitonic":
        "907865c1f8e7df42bf77c6c39a544790949d3231c8e75f8a4c29c50d35e1298a",
    "goal-w-fourwise":
        "907865c1f8e7df42bf77c6c39a544790949d3231c8e75f8a4c29c50d35e1298a",
    "goal-w-bitonic_sel":
        "907865c1f8e7df42bf77c6c39a544790949d3231c8e75f8a4c29c50d35e1298a",
    "goal-u-oe4":
        "5d3591ca6bba180a06ff7f82c778aff6c6197ec5bf6e391f9c48b2bd4f9a0a40",
    "goal-u-oe2":
        "3e50d118f04cb34f6ec88a654c99990f705159fbdeee36926cc9fbdeb337cd09",
    "goal-u-pairwise_classic":
        "decd73111a0ef1ebda93ece1b5ba709edb69281654e70a8dacf53a2c86860fd0",
    "goal-u-pairwise_bitonic":
        "cbf22752fa6b25c5ff8743de91b4ddb2ded3b4149d6a1a3f34031a3d17351eb4",
    "goal-u-pairwise_half_bitonic":
        "4dba4f2fd4534e22e0919f401aac29eba0e9a6e1ddea58068109e3592c5f3b6e",
    "goal-u-fourwise":
        "e6bfc9d4f6f29f7b0380d1f3ff4cb996690b9206b46cf57fb929eb5c3b391140",
    "goal-u-bitonic_sel":
        "e927efb8321ef5c971802a845aefd5283b8a5a31b397fbb0e39d29cd64e3a7d5",
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
        "c45231088fa6d1306cebefae7b7b7e51086428cf0f862bb9b45a8df4e874a331",
    "goal-wide-oe2":
        "bb53122524446a2bd2c700a11ef6d61992a36fd9ea23c96e82660d896930708a",
    "goal-wide-pairwise_classic":
        "bbad1ec2974c5f8d62775ca51a03b4e87341bdcf99d31d6a3424c28743840ee4",
    "goal-wide-pairwise_bitonic":
        "bbad1ec2974c5f8d62775ca51a03b4e87341bdcf99d31d6a3424c28743840ee4",
    "goal-wide-pairwise_half_bitonic":
        "bbad1ec2974c5f8d62775ca51a03b4e87341bdcf99d31d6a3424c28743840ee4",
    "goal-wide-fourwise":
        "ff436f4b17dadafeca34d0d64b04d338a65cd6968905329c5dcaf2802e5a3b27",
    "goal-wide-bitonic_sel":
        "bbad1ec2974c5f8d62775ca51a03b4e87341bdcf99d31d6a3424c28743840ee4",
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
        "1b871fbf0c8ef0ab85f9d214f3774d6c9248141bfc8f53f84a39100a6f7a8c48",
    "opb-a-auto":
        "fb12c3dcc1d6a3c77813e84188e1b175046df933dbd6c42ed0f911eb7fbe131a",
    "opb-b-auto":
        "693545558d89023cf3300e49bd14ec3ab60217c4f5587ca878a6910002f9a98b",
    "goal-w-auto":
        "6a14b670785bdc422e063b9c2a73c6547d30652dd24eac2d040b76c38559dacb",
    "goal-u-auto":
        "5d3591ca6bba180a06ff7f82c778aff6c6197ec5bf6e391f9c48b2bd4f9a0a40",
    "goal-neg-auto":
        "ad39d322de4d6430d3f5fdb327f1a19861f42880c6deaa5c8c737d1131d699f3",
    "goal-wide-auto":
        "c45231088fa6d1306cebefae7b7b7e51086428cf0f862bb9b45a8df4e874a331",
}


def test_golden_grid_is_complete():
    assert sorted(GOLDEN) == sorted(case_id for case_id, _ in cases())


def _group(method):
    """The golden cases of one test group."""
    prefix = "opb-" if method == "opb" else method + "-"
    group = [(case_id, thunk) for case_id, thunk in cases() if case_id.startswith(prefix)]
    assert group
    return group


GROUPS = NETWORK_METHODS + ("queens8", "opb", "goal")


@pytest.mark.parametrize("method", GROUPS)
def test_golden_dimacs(method):
    for case_id, thunk in _group(method):
        assert _sha(thunk()) == GOLDEN[case_id], case_id


def _without_dead_gates(formula, aux, exposed, keep_exposed=True):
    """formula after deleting, repeatedly, every clause that holds a literal
    of an auxiliary variable, not exposed, whose complement occurs nowhere,
    with the surviving variables renumbered in order.  keep_exposed False
    also drops an exposed auxiliary variable that no clause holds."""
    clauses = formula.clauses
    while True:
        occurs = Counter(lit for clause in clauses for lit in clause)
        pure = {lit for lit in occurs
                if abs(lit) in aux and abs(lit) not in exposed and -lit not in occurs}
        if not pure:
            break
        clauses = [clause for clause in clauses if pure.isdisjoint(clause)]
    used = {abs(lit) for clause in clauses for lit in clause}
    kept = [v for v in range(1, formula.next_var)
            if v not in aux or v in used or keep_exposed and v in exposed]
    new = {v: i for i, v in enumerate(kept, 1)}
    return CnfFormula(len(kept) + 1,
                      [tuple(new[lit] if lit > 0 else -new[-lit] for lit in clause)
                       for clause in clauses],
                      formula.trivially_unsat)


def _price_caches():
    """Entry counts of the price caches.  The tests below patch emit_network
    module-wide, so a price computed during a patched run would come from
    the patched emission; each case first runs unpatched to fill them, and
    its patched run must add no entry."""
    return (len(encode._LEVEL_COSTS), encode.Chooser.best_level.cache_info().currsize,
            encode.Chooser.use_direct.cache_info().currsize,
            encode._atleast_cost.cache_info().currsize)


@pytest.mark.parametrize("method", GROUPS)
def test_pruning_matches_dead_gate_elimination(method, monkeypatch):
    # every network emitted in full, whatever its caller reads: the variables
    # it allocates are auxiliary, those of the read outputs exposed; an
    # asserted output is folded on both sides
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


def _propagated(formula, aux, units):
    """formula after root unit propagation of units over the auxiliary
    variables aux: every clause a propagated literal satisfies dropped, and
    every literal it falsifies removed.  An input variable is never
    assigned, so a clause left with one input literal stays, as a unit.
    Returns the formula and the assigned variables."""
    occurs = defaultdict(list)
    for clause in formula.clauses:
        for lit in clause:
            occurs[-lit].append(clause)
    value = {}

    def satisfied(clause):
        return any(value.get(abs(lit)) == (lit > 0) for lit in clause)

    queue = list(units)
    while queue:
        lit = queue.pop()
        if abs(lit) in value:
            assert value[abs(lit)] == (lit > 0), "conflict at the root"
            continue
        value[abs(lit)] = lit > 0
        for clause in occurs[lit]:
            if not satisfied(clause):
                left = [l for l in clause if abs(l) not in value]
                assert left, "conflict at the root"
                if len(left) == 1 and abs(left[0]) in aux:
                    queue.append(left[0])
    clauses = [tuple(lit for lit in clause if abs(lit) not in value)
               for clause in formula.clauses if not satisfied(clause)]
    return CnfFormula(formula.next_var, clauses, formula.trivially_unsat), set(value)


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
    # fold makes constant) is dropped as well.  A goal case's flag is assumed
    # true on both sides: ~flag is stripped from every clause.
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

    for case_id, thunk in _group(method):
        folded = thunk()  # first, so that every price is cached from real emission
        priced = _price_caches()
        aux.clear()
        exposed.clear()
        units.clear()
        with monkeypatch.context() as patch:
            patch.setattr(encode, "emit_network", emit_unfolded)
            patch.setattr(pb, "emit_network", emit_unfolded)
            unfolded = thunk()
        assert _price_caches() == priced, case_id
        if case_id.startswith("goal-"):  # _goal_case's flag follows the objective
            flag = len(GOAL_OBJECTIVES[case_id.rsplit("-", 1)[0]][0]) + 1
            folded, unfolded = _assumed(folded, flag), _assumed(unfolded, flag)
        propagated, assigned = _propagated(unfolded, aux, units)
        assert assigned <= aux, case_id
        assert (_without_dead_gates(propagated, aux, exposed - assigned, False).write_dimacs()
                == folded.write_dimacs()), case_id
