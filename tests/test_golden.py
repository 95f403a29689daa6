"""Golden DIMACS gate: sha256 of the exact output bytes over a fixed grid.

Every refactor of network construction, direct mixing or clause emission
must keep these hashes.  A changed hash means the encoder now writes
different bytes, which is a behaviour change and never a reason to
re-record.  The flagged goal-bound cases (`goal-*`) pin the guard literal
that `encode_goal_bound` disjoins into every clause it adds.

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
"""

import hashlib
from collections import Counter

import pytest

from cardnet import encode, pb
from cardnet.cnf import CnfFormula, is_const
from cardnet.cnfp import encode_cnfp, queens_cnfp
from cardnet.encode import (METHODS, NETWORK_METHODS, CardConstraint, EncodeOptions,
                            encode_atmost)
from cardnet.pb import encode_goal_bound, parse_opb
from cardnet.solve import encode_problem

SIZES = ((5, 2), (8, 3), (13, 4), (16, 7), (24, 5), (37, 9), (64, 12), (100, 17))
LAMBDAS = (1, 5, 20)
# large n and deeper recursion, for the three mixing methods
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
    # goal-wide runs with mixing off so the full networks carry the guard
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
    for method in ("oe4", "oe2", "fourwise"):
        for n, k in LARGE:
            out.append((f"{method}-n{n}-k{k}-lam5-mix",
                        lambda m=method, n=n, k=k: _card_case(m, n, k, 5, True)))
        out.append((f"queens8-{method}", lambda m=method: _queens_case(m)))
    for name in OPB_FILES:
        for method in ("oe4", "oe2", "fourwise", "pairwise_half_bitonic"):
            out.append((f"{name}-{method}", lambda nm=name, m=method: _opb_case(nm, m)))
    for name in GOAL_OBJECTIVES:
        for method in NETWORK_METHODS if name in ("goal-w", "goal-wide") else METHODS:
            out.append((f"{name}-{method}", lambda nm=name, m=method: _goal_case(nm, m)))
    return out


GOLDEN = {
    "oe4-n5-k2-lam1-mix":
        "5eb181e2ddb1efa0dfb6d4e6e8fe0cb5d92193850e2798e2ac6007a479648a93",
    "oe4-n5-k2-lam5-mix":
        "5eb181e2ddb1efa0dfb6d4e6e8fe0cb5d92193850e2798e2ac6007a479648a93",
    "oe4-n5-k2-lam20-mix":
        "5eb181e2ddb1efa0dfb6d4e6e8fe0cb5d92193850e2798e2ac6007a479648a93",
    "oe4-n5-k2-nomix":
        "faa7df91f6dbc44071585768ccc3eca71079c6e23e5e457a5d6c8827a14f3692",
    "oe4-n8-k3-lam1-mix":
        "02b8385766ebdc73a7cab65e2875cd4fd7da6f4b6fdfd086fe0a6ea533c73d43",
    "oe4-n8-k3-lam5-mix":
        "02b8385766ebdc73a7cab65e2875cd4fd7da6f4b6fdfd086fe0a6ea533c73d43",
    "oe4-n8-k3-lam20-mix":
        "4522a8ea3de97e6fb2275bb2e69c74bb92ba7181406ee2c3030c8c0324c636fa",
    "oe4-n8-k3-nomix":
        "02b8385766ebdc73a7cab65e2875cd4fd7da6f4b6fdfd086fe0a6ea533c73d43",
    "oe4-n13-k4-lam1-mix":
        "f4a91eb2026b0c2e19a055095eb5f068d1a5ea6bfcbdfd362efe118ef46c1e63",
    "oe4-n13-k4-lam5-mix":
        "f4a91eb2026b0c2e19a055095eb5f068d1a5ea6bfcbdfd362efe118ef46c1e63",
    "oe4-n13-k4-lam20-mix":
        "f4a91eb2026b0c2e19a055095eb5f068d1a5ea6bfcbdfd362efe118ef46c1e63",
    "oe4-n13-k4-nomix":
        "f4a91eb2026b0c2e19a055095eb5f068d1a5ea6bfcbdfd362efe118ef46c1e63",
    "oe4-n16-k7-lam1-mix":
        "10b93118f0450e3432762fdf499cfbc4e81bffd13e5d85fca36f501371f571e3",
    "oe4-n16-k7-lam5-mix":
        "10b93118f0450e3432762fdf499cfbc4e81bffd13e5d85fca36f501371f571e3",
    "oe4-n16-k7-lam20-mix":
        "10b93118f0450e3432762fdf499cfbc4e81bffd13e5d85fca36f501371f571e3",
    "oe4-n16-k7-nomix":
        "10b93118f0450e3432762fdf499cfbc4e81bffd13e5d85fca36f501371f571e3",
    "oe4-n24-k5-lam1-mix":
        "c7a404de693c81316ff6f4f32202fe5ed71c5515643dbe56dfe829b5aa7f66d6",
    "oe4-n24-k5-lam5-mix":
        "79d934dbbeb17e3d5e337430a1e04ae0de8defd5536a5d0b1b4ec586e8a125b0",
    "oe4-n24-k5-lam20-mix":
        "79d934dbbeb17e3d5e337430a1e04ae0de8defd5536a5d0b1b4ec586e8a125b0",
    "oe4-n24-k5-nomix":
        "c7a404de693c81316ff6f4f32202fe5ed71c5515643dbe56dfe829b5aa7f66d6",
    "oe4-n37-k9-lam1-mix":
        "9a8377c8f5106ad1fe7fbdb4ec035e93cd562a7a0f21a52ffb95a193ded9289d",
    "oe4-n37-k9-lam5-mix":
        "9a8377c8f5106ad1fe7fbdb4ec035e93cd562a7a0f21a52ffb95a193ded9289d",
    "oe4-n37-k9-lam20-mix":
        "acfd55a2d6b1808ed9ef00a99bea78fd1bb118466d8924ff88ced2a2033335a8",
    "oe4-n37-k9-nomix":
        "9a8377c8f5106ad1fe7fbdb4ec035e93cd562a7a0f21a52ffb95a193ded9289d",
    "oe4-n64-k12-lam1-mix":
        "71da27fe98d1a26c354a414b5380375307c9e576c30c6cd6ddcc95aa208686e8",
    "oe4-n64-k12-lam5-mix":
        "71da27fe98d1a26c354a414b5380375307c9e576c30c6cd6ddcc95aa208686e8",
    "oe4-n64-k12-lam20-mix":
        "71da27fe98d1a26c354a414b5380375307c9e576c30c6cd6ddcc95aa208686e8",
    "oe4-n64-k12-nomix":
        "71da27fe98d1a26c354a414b5380375307c9e576c30c6cd6ddcc95aa208686e8",
    "oe4-n100-k17-lam1-mix":
        "63d7789647f6654b42b0a6c09c049a8ff729c468036dcbaf704d793a92227314",
    "oe4-n100-k17-lam5-mix":
        "e77e6946c95b06e5f18ba34dfb0752d78c041484ed192fe82b9bba1cc77f2a29",
    "oe4-n100-k17-lam20-mix":
        "aa12bb4852693cc8fc40794df21802d0605ff0d82188192c549e1451aa6ea41e",
    "oe4-n100-k17-nomix":
        "63d7789647f6654b42b0a6c09c049a8ff729c468036dcbaf704d793a92227314",
    "oe2-n5-k2-lam1-mix":
        "5eb181e2ddb1efa0dfb6d4e6e8fe0cb5d92193850e2798e2ac6007a479648a93",
    "oe2-n5-k2-lam5-mix":
        "5eb181e2ddb1efa0dfb6d4e6e8fe0cb5d92193850e2798e2ac6007a479648a93",
    "oe2-n5-k2-lam20-mix":
        "5eb181e2ddb1efa0dfb6d4e6e8fe0cb5d92193850e2798e2ac6007a479648a93",
    "oe2-n5-k2-nomix":
        "860b3dd36a5c4040722e52db9ed351635cd81e5734e1bebafc1471337ac61f56",
    "oe2-n8-k3-lam1-mix":
        "2e44ee52fe24bee977fa84f895b678581dc77dfe1476b3e93436975297fcc44a",
    "oe2-n8-k3-lam5-mix":
        "2e44ee52fe24bee977fa84f895b678581dc77dfe1476b3e93436975297fcc44a",
    "oe2-n8-k3-lam20-mix":
        "4522a8ea3de97e6fb2275bb2e69c74bb92ba7181406ee2c3030c8c0324c636fa",
    "oe2-n8-k3-nomix":
        "efe529e1c6a1bb2a1ea6cf46f8a2c908dee3f5b680188a5086f0fbecfabdf556",
    "oe2-n13-k4-lam1-mix":
        "357b09f7bf5bbdcd2f1cfaf03d917e0a6ca94d1b8e00561cffde0b0185719941",
    "oe2-n13-k4-lam5-mix":
        "4ba47128642ec2a6ad9cfde837cdcf07032818cb8b4900ff3272f3562fe4162b",
    "oe2-n13-k4-lam20-mix":
        "e2a4ade911d278fde9fa00d1f33103e93113b168ff6380c7d1c2d8847b829628",
    "oe2-n13-k4-nomix":
        "4a52186a59d2ada9d9cf2e2656edbab37484b55f8e6ae4bf8a223b5ecc5ea390",
    "oe2-n16-k7-lam1-mix":
        "d147e976ba3f4f236ea5bb5a6aae98efdcbe96969ec225001f9fec7cd4bc3bf5",
    "oe2-n16-k7-lam5-mix":
        "d147e976ba3f4f236ea5bb5a6aae98efdcbe96969ec225001f9fec7cd4bc3bf5",
    "oe2-n16-k7-lam20-mix":
        "c88ce8bca310052f40e9388a0c72a10487729ea935c68c4ed7d9119c6468100d",
    "oe2-n16-k7-nomix":
        "14078ac59570ea702c9ff24a90c6420cbc0cc63c005e193d5a29678b6fea3c35",
    "oe2-n24-k5-lam1-mix":
        "c07148a8f255f2d339edd21c4dde94efd3a8818d53ca2ee782e1e143bfd7fd45",
    "oe2-n24-k5-lam5-mix":
        "6627e41c182e35146cd3838c42c47bfd0e0516143f29efc8a75accfc6d598201",
    "oe2-n24-k5-lam20-mix":
        "6627e41c182e35146cd3838c42c47bfd0e0516143f29efc8a75accfc6d598201",
    "oe2-n24-k5-nomix":
        "41d8445b9ba669933a60f18315fecdc85686edb301cc75ba923b5921a9029620",
    "oe2-n37-k9-lam1-mix":
        "c9c3743fef1d37e4378d132e68cd5de4f2159b2ee11eec7e7827767f2c878f07",
    "oe2-n37-k9-lam5-mix":
        "c9c3743fef1d37e4378d132e68cd5de4f2159b2ee11eec7e7827767f2c878f07",
    "oe2-n37-k9-lam20-mix":
        "a69715822dbbf7dda9c68d84c3e35654f56a5217fef5b5a29adb8905dd0e4fc1",
    "oe2-n37-k9-nomix":
        "88b8cf80bd0ace61395fd3974fa58e7b43f2903180604562ffe851bb9ba5652d",
    "oe2-n64-k12-lam1-mix":
        "d3cc88e0e4a963c5ab653d7afed376a2d2ec74b361cba1964a025e4f11dc0450",
    "oe2-n64-k12-lam5-mix":
        "d3cc88e0e4a963c5ab653d7afed376a2d2ec74b361cba1964a025e4f11dc0450",
    "oe2-n64-k12-lam20-mix":
        "c5476735277c0038a85def62e5d55d74c1b684238306931ce3bb30ec2bf215f1",
    "oe2-n64-k12-nomix":
        "ebb2e8a185b88f5c77dc9795938883b27752644bc9f43b134a90eed7c4bff0ee",
    "oe2-n100-k17-lam1-mix":
        "c8f35b770321315504f176cfdb60e9109f1627f51e15154fad023506720a1437",
    "oe2-n100-k17-lam5-mix":
        "14608d5372900694ab6b6052b245386f429f1a769acc1b48646346fa7a0def08",
    "oe2-n100-k17-lam20-mix":
        "3b7834456382ddd52b90d05e34c8acd6e60438b363c2356c2d9c208589156a9a",
    "oe2-n100-k17-nomix":
        "8c9f478159dff73caae3ffabe8b1a3402f3b34fcc460b747a54a57b7cc6a307a",
    "pairwise_classic-n5-k2-lam1-mix":
        "5eb181e2ddb1efa0dfb6d4e6e8fe0cb5d92193850e2798e2ac6007a479648a93",
    "pairwise_classic-n5-k2-lam5-mix":
        "5eb181e2ddb1efa0dfb6d4e6e8fe0cb5d92193850e2798e2ac6007a479648a93",
    "pairwise_classic-n5-k2-lam20-mix":
        "5eb181e2ddb1efa0dfb6d4e6e8fe0cb5d92193850e2798e2ac6007a479648a93",
    "pairwise_classic-n5-k2-nomix":
        "fa9ea456da21a513d12de3a3a7017388c504fca9dafe96be95b953456d4ae954",
    "pairwise_classic-n8-k3-lam1-mix":
        "dc368b9c7d49726d414a7203dd52cc0e8cfda332ea5e04bcabdf9bb90b237581",
    "pairwise_classic-n8-k3-lam5-mix":
        "4522a8ea3de97e6fb2275bb2e69c74bb92ba7181406ee2c3030c8c0324c636fa",
    "pairwise_classic-n8-k3-lam20-mix":
        "4522a8ea3de97e6fb2275bb2e69c74bb92ba7181406ee2c3030c8c0324c636fa",
    "pairwise_classic-n8-k3-nomix":
        "dc368b9c7d49726d414a7203dd52cc0e8cfda332ea5e04bcabdf9bb90b237581",
    "pairwise_classic-n13-k4-lam1-mix":
        "15b3fabb799dfb30243ed618e6317dbd06f54673b7d13400db6a17002ea6556f",
    "pairwise_classic-n13-k4-lam5-mix":
        "15b3fabb799dfb30243ed618e6317dbd06f54673b7d13400db6a17002ea6556f",
    "pairwise_classic-n13-k4-lam20-mix":
        "15b3fabb799dfb30243ed618e6317dbd06f54673b7d13400db6a17002ea6556f",
    "pairwise_classic-n13-k4-nomix":
        "15b3fabb799dfb30243ed618e6317dbd06f54673b7d13400db6a17002ea6556f",
    "pairwise_classic-n16-k7-lam1-mix":
        "3effff10e85abf3382ecb6c7ff0bf5314f6606f458491e658c7e6bec6b9ad6c5",
    "pairwise_classic-n16-k7-lam5-mix":
        "3effff10e85abf3382ecb6c7ff0bf5314f6606f458491e658c7e6bec6b9ad6c5",
    "pairwise_classic-n16-k7-lam20-mix":
        "3effff10e85abf3382ecb6c7ff0bf5314f6606f458491e658c7e6bec6b9ad6c5",
    "pairwise_classic-n16-k7-nomix":
        "3effff10e85abf3382ecb6c7ff0bf5314f6606f458491e658c7e6bec6b9ad6c5",
    "pairwise_classic-n24-k5-lam1-mix":
        "a7dbb00f93a2c79b4a4f98aa369f2b886d08aa6dc5d54fab2c6f8a68f30b195c",
    "pairwise_classic-n24-k5-lam5-mix":
        "a7dbb00f93a2c79b4a4f98aa369f2b886d08aa6dc5d54fab2c6f8a68f30b195c",
    "pairwise_classic-n24-k5-lam20-mix":
        "a7dbb00f93a2c79b4a4f98aa369f2b886d08aa6dc5d54fab2c6f8a68f30b195c",
    "pairwise_classic-n24-k5-nomix":
        "a7dbb00f93a2c79b4a4f98aa369f2b886d08aa6dc5d54fab2c6f8a68f30b195c",
    "pairwise_classic-n37-k9-lam1-mix":
        "cd16be8943b4c91e20c0dde3a25c37664590ccb63e400cb003d096b68208d6e7",
    "pairwise_classic-n37-k9-lam5-mix":
        "cd16be8943b4c91e20c0dde3a25c37664590ccb63e400cb003d096b68208d6e7",
    "pairwise_classic-n37-k9-lam20-mix":
        "cd16be8943b4c91e20c0dde3a25c37664590ccb63e400cb003d096b68208d6e7",
    "pairwise_classic-n37-k9-nomix":
        "cd16be8943b4c91e20c0dde3a25c37664590ccb63e400cb003d096b68208d6e7",
    "pairwise_classic-n64-k12-lam1-mix":
        "3bca31ad36cba2e2f24485e9cb718e337b7b0d69520208e25f63209a28491ca4",
    "pairwise_classic-n64-k12-lam5-mix":
        "3bca31ad36cba2e2f24485e9cb718e337b7b0d69520208e25f63209a28491ca4",
    "pairwise_classic-n64-k12-lam20-mix":
        "3bca31ad36cba2e2f24485e9cb718e337b7b0d69520208e25f63209a28491ca4",
    "pairwise_classic-n64-k12-nomix":
        "3bca31ad36cba2e2f24485e9cb718e337b7b0d69520208e25f63209a28491ca4",
    "pairwise_classic-n100-k17-lam1-mix":
        "b12962fcbd83a41827711fa355db2c84ccf8f49e580a3e519635c2e89ccf87aa",
    "pairwise_classic-n100-k17-lam5-mix":
        "b12962fcbd83a41827711fa355db2c84ccf8f49e580a3e519635c2e89ccf87aa",
    "pairwise_classic-n100-k17-lam20-mix":
        "b12962fcbd83a41827711fa355db2c84ccf8f49e580a3e519635c2e89ccf87aa",
    "pairwise_classic-n100-k17-nomix":
        "b12962fcbd83a41827711fa355db2c84ccf8f49e580a3e519635c2e89ccf87aa",
    "pairwise_bitonic-n5-k2-lam1-mix":
        "5eb181e2ddb1efa0dfb6d4e6e8fe0cb5d92193850e2798e2ac6007a479648a93",
    "pairwise_bitonic-n5-k2-lam5-mix":
        "5eb181e2ddb1efa0dfb6d4e6e8fe0cb5d92193850e2798e2ac6007a479648a93",
    "pairwise_bitonic-n5-k2-lam20-mix":
        "5eb181e2ddb1efa0dfb6d4e6e8fe0cb5d92193850e2798e2ac6007a479648a93",
    "pairwise_bitonic-n5-k2-nomix":
        "ef363634748ba3040ef7be82ed5b568e0eac9e1cc197020f4a1a5ca722ccff4f",
    "pairwise_bitonic-n8-k3-lam1-mix":
        "6e604a7e67dee37772dc1b834b6f449cf714990ac60997dc58cf06bfdc89f12c",
    "pairwise_bitonic-n8-k3-lam5-mix":
        "4522a8ea3de97e6fb2275bb2e69c74bb92ba7181406ee2c3030c8c0324c636fa",
    "pairwise_bitonic-n8-k3-lam20-mix":
        "4522a8ea3de97e6fb2275bb2e69c74bb92ba7181406ee2c3030c8c0324c636fa",
    "pairwise_bitonic-n8-k3-nomix":
        "6e604a7e67dee37772dc1b834b6f449cf714990ac60997dc58cf06bfdc89f12c",
    "pairwise_bitonic-n13-k4-lam1-mix":
        "bc5b4ba26204395423e0bf2aac257146bf6d9c3059cc8620636b6e1dd440023c",
    "pairwise_bitonic-n13-k4-lam5-mix":
        "bc5b4ba26204395423e0bf2aac257146bf6d9c3059cc8620636b6e1dd440023c",
    "pairwise_bitonic-n13-k4-lam20-mix":
        "bc5b4ba26204395423e0bf2aac257146bf6d9c3059cc8620636b6e1dd440023c",
    "pairwise_bitonic-n13-k4-nomix":
        "bc5b4ba26204395423e0bf2aac257146bf6d9c3059cc8620636b6e1dd440023c",
    "pairwise_bitonic-n16-k7-lam1-mix":
        "d8d85b5af191ded01dfaeea05dd304b0bf72ba16eee73ed75c7c9f7b9faa27b7",
    "pairwise_bitonic-n16-k7-lam5-mix":
        "d8d85b5af191ded01dfaeea05dd304b0bf72ba16eee73ed75c7c9f7b9faa27b7",
    "pairwise_bitonic-n16-k7-lam20-mix":
        "d8d85b5af191ded01dfaeea05dd304b0bf72ba16eee73ed75c7c9f7b9faa27b7",
    "pairwise_bitonic-n16-k7-nomix":
        "d8d85b5af191ded01dfaeea05dd304b0bf72ba16eee73ed75c7c9f7b9faa27b7",
    "pairwise_bitonic-n24-k5-lam1-mix":
        "675299cb9617e64bee5143c9de5653f001fd115fec0a54e1bb4a904e16e860df",
    "pairwise_bitonic-n24-k5-lam5-mix":
        "675299cb9617e64bee5143c9de5653f001fd115fec0a54e1bb4a904e16e860df",
    "pairwise_bitonic-n24-k5-lam20-mix":
        "675299cb9617e64bee5143c9de5653f001fd115fec0a54e1bb4a904e16e860df",
    "pairwise_bitonic-n24-k5-nomix":
        "675299cb9617e64bee5143c9de5653f001fd115fec0a54e1bb4a904e16e860df",
    "pairwise_bitonic-n37-k9-lam1-mix":
        "34af83c5a3a95381dab826c855447b849399c681a59cf65cd1edb650ea8f4d93",
    "pairwise_bitonic-n37-k9-lam5-mix":
        "34af83c5a3a95381dab826c855447b849399c681a59cf65cd1edb650ea8f4d93",
    "pairwise_bitonic-n37-k9-lam20-mix":
        "34af83c5a3a95381dab826c855447b849399c681a59cf65cd1edb650ea8f4d93",
    "pairwise_bitonic-n37-k9-nomix":
        "34af83c5a3a95381dab826c855447b849399c681a59cf65cd1edb650ea8f4d93",
    "pairwise_bitonic-n64-k12-lam1-mix":
        "03aec1f908b497c79ce203c2a23008a1246fd8e4993ddc09a4fa3f3142ee0532",
    "pairwise_bitonic-n64-k12-lam5-mix":
        "03aec1f908b497c79ce203c2a23008a1246fd8e4993ddc09a4fa3f3142ee0532",
    "pairwise_bitonic-n64-k12-lam20-mix":
        "03aec1f908b497c79ce203c2a23008a1246fd8e4993ddc09a4fa3f3142ee0532",
    "pairwise_bitonic-n64-k12-nomix":
        "03aec1f908b497c79ce203c2a23008a1246fd8e4993ddc09a4fa3f3142ee0532",
    "pairwise_bitonic-n100-k17-lam1-mix":
        "d9bd111e65513aba671c7cd4b9400a7d4065b8e1ab82d9bf43227d1ef74fff63",
    "pairwise_bitonic-n100-k17-lam5-mix":
        "d9bd111e65513aba671c7cd4b9400a7d4065b8e1ab82d9bf43227d1ef74fff63",
    "pairwise_bitonic-n100-k17-lam20-mix":
        "d9bd111e65513aba671c7cd4b9400a7d4065b8e1ab82d9bf43227d1ef74fff63",
    "pairwise_bitonic-n100-k17-nomix":
        "d9bd111e65513aba671c7cd4b9400a7d4065b8e1ab82d9bf43227d1ef74fff63",
    "pairwise_half_bitonic-n5-k2-lam1-mix":
        "5eb181e2ddb1efa0dfb6d4e6e8fe0cb5d92193850e2798e2ac6007a479648a93",
    "pairwise_half_bitonic-n5-k2-lam5-mix":
        "5eb181e2ddb1efa0dfb6d4e6e8fe0cb5d92193850e2798e2ac6007a479648a93",
    "pairwise_half_bitonic-n5-k2-lam20-mix":
        "5eb181e2ddb1efa0dfb6d4e6e8fe0cb5d92193850e2798e2ac6007a479648a93",
    "pairwise_half_bitonic-n5-k2-nomix":
        "58a9a8d324b5ba6f1b975980660f074a954b521678fd60fc22c1fcdb5d1bf402",
    "pairwise_half_bitonic-n8-k3-lam1-mix":
        "f4856819c58e60a04990e553346748a6ad09c1ff6dbb4d27c1a60e619b9d9af1",
    "pairwise_half_bitonic-n8-k3-lam5-mix":
        "4522a8ea3de97e6fb2275bb2e69c74bb92ba7181406ee2c3030c8c0324c636fa",
    "pairwise_half_bitonic-n8-k3-lam20-mix":
        "4522a8ea3de97e6fb2275bb2e69c74bb92ba7181406ee2c3030c8c0324c636fa",
    "pairwise_half_bitonic-n8-k3-nomix":
        "f4856819c58e60a04990e553346748a6ad09c1ff6dbb4d27c1a60e619b9d9af1",
    "pairwise_half_bitonic-n13-k4-lam1-mix":
        "a6037f6f3abc7dc62a88319059c07590d7e21103bdb3f185dddd29867187f484",
    "pairwise_half_bitonic-n13-k4-lam5-mix":
        "a6037f6f3abc7dc62a88319059c07590d7e21103bdb3f185dddd29867187f484",
    "pairwise_half_bitonic-n13-k4-lam20-mix":
        "a6037f6f3abc7dc62a88319059c07590d7e21103bdb3f185dddd29867187f484",
    "pairwise_half_bitonic-n13-k4-nomix":
        "a6037f6f3abc7dc62a88319059c07590d7e21103bdb3f185dddd29867187f484",
    "pairwise_half_bitonic-n16-k7-lam1-mix":
        "378d8d292fda9c427d6937ff358656c150a75c18151c3353055195c86da3cb51",
    "pairwise_half_bitonic-n16-k7-lam5-mix":
        "378d8d292fda9c427d6937ff358656c150a75c18151c3353055195c86da3cb51",
    "pairwise_half_bitonic-n16-k7-lam20-mix":
        "378d8d292fda9c427d6937ff358656c150a75c18151c3353055195c86da3cb51",
    "pairwise_half_bitonic-n16-k7-nomix":
        "378d8d292fda9c427d6937ff358656c150a75c18151c3353055195c86da3cb51",
    "pairwise_half_bitonic-n24-k5-lam1-mix":
        "11bb0ea06e5f5ff53070a02309e1e33f272adab589296023e1daba9713f90a07",
    "pairwise_half_bitonic-n24-k5-lam5-mix":
        "11bb0ea06e5f5ff53070a02309e1e33f272adab589296023e1daba9713f90a07",
    "pairwise_half_bitonic-n24-k5-lam20-mix":
        "11bb0ea06e5f5ff53070a02309e1e33f272adab589296023e1daba9713f90a07",
    "pairwise_half_bitonic-n24-k5-nomix":
        "11bb0ea06e5f5ff53070a02309e1e33f272adab589296023e1daba9713f90a07",
    "pairwise_half_bitonic-n37-k9-lam1-mix":
        "d205314ad97e9ebfe9ac42641a2c63aa3dfb05c18a2356ee2a5c1864d6d74a54",
    "pairwise_half_bitonic-n37-k9-lam5-mix":
        "d205314ad97e9ebfe9ac42641a2c63aa3dfb05c18a2356ee2a5c1864d6d74a54",
    "pairwise_half_bitonic-n37-k9-lam20-mix":
        "d205314ad97e9ebfe9ac42641a2c63aa3dfb05c18a2356ee2a5c1864d6d74a54",
    "pairwise_half_bitonic-n37-k9-nomix":
        "d205314ad97e9ebfe9ac42641a2c63aa3dfb05c18a2356ee2a5c1864d6d74a54",
    "pairwise_half_bitonic-n64-k12-lam1-mix":
        "a00e5d34be5635fd272d053efdd376b936f01f6c6400705e0fcac1fcba6ce1c3",
    "pairwise_half_bitonic-n64-k12-lam5-mix":
        "a00e5d34be5635fd272d053efdd376b936f01f6c6400705e0fcac1fcba6ce1c3",
    "pairwise_half_bitonic-n64-k12-lam20-mix":
        "a00e5d34be5635fd272d053efdd376b936f01f6c6400705e0fcac1fcba6ce1c3",
    "pairwise_half_bitonic-n64-k12-nomix":
        "a00e5d34be5635fd272d053efdd376b936f01f6c6400705e0fcac1fcba6ce1c3",
    "pairwise_half_bitonic-n100-k17-lam1-mix":
        "4e42c9fc60cedfee6aa1233ae2c85fdfe04fc5704e2c4bbf253a21b2d6b02378",
    "pairwise_half_bitonic-n100-k17-lam5-mix":
        "4e42c9fc60cedfee6aa1233ae2c85fdfe04fc5704e2c4bbf253a21b2d6b02378",
    "pairwise_half_bitonic-n100-k17-lam20-mix":
        "4e42c9fc60cedfee6aa1233ae2c85fdfe04fc5704e2c4bbf253a21b2d6b02378",
    "pairwise_half_bitonic-n100-k17-nomix":
        "4e42c9fc60cedfee6aa1233ae2c85fdfe04fc5704e2c4bbf253a21b2d6b02378",
    "fourwise-n5-k2-lam1-mix":
        "5eb181e2ddb1efa0dfb6d4e6e8fe0cb5d92193850e2798e2ac6007a479648a93",
    "fourwise-n5-k2-lam5-mix":
        "5eb181e2ddb1efa0dfb6d4e6e8fe0cb5d92193850e2798e2ac6007a479648a93",
    "fourwise-n5-k2-lam20-mix":
        "5eb181e2ddb1efa0dfb6d4e6e8fe0cb5d92193850e2798e2ac6007a479648a93",
    "fourwise-n5-k2-nomix":
        "0ab841407ad1dc84150455b1f3837b41902416f057cae4c882ff288e14fc4514",
    "fourwise-n8-k3-lam1-mix":
        "b9a7897146938b487e5c481f3f70b21239c74e41de4b64e7b0ac0ef5730c9b81",
    "fourwise-n8-k3-lam5-mix":
        "b9a7897146938b487e5c481f3f70b21239c74e41de4b64e7b0ac0ef5730c9b81",
    "fourwise-n8-k3-lam20-mix":
        "4522a8ea3de97e6fb2275bb2e69c74bb92ba7181406ee2c3030c8c0324c636fa",
    "fourwise-n8-k3-nomix":
        "b9a7897146938b487e5c481f3f70b21239c74e41de4b64e7b0ac0ef5730c9b81",
    "fourwise-n13-k4-lam1-mix":
        "e69f95dec8cb4d441810a558799d8aa611d237bc3ee9d02b2b9e53ff0e0e4ca1",
    "fourwise-n13-k4-lam5-mix":
        "e69f95dec8cb4d441810a558799d8aa611d237bc3ee9d02b2b9e53ff0e0e4ca1",
    "fourwise-n13-k4-lam20-mix":
        "e69f95dec8cb4d441810a558799d8aa611d237bc3ee9d02b2b9e53ff0e0e4ca1",
    "fourwise-n13-k4-nomix":
        "e69f95dec8cb4d441810a558799d8aa611d237bc3ee9d02b2b9e53ff0e0e4ca1",
    "fourwise-n16-k7-lam1-mix":
        "b75d948c28800e792711e1bad961c9fe1384a44670a8521b6577936409f60128",
    "fourwise-n16-k7-lam5-mix":
        "b75d948c28800e792711e1bad961c9fe1384a44670a8521b6577936409f60128",
    "fourwise-n16-k7-lam20-mix":
        "b75d948c28800e792711e1bad961c9fe1384a44670a8521b6577936409f60128",
    "fourwise-n16-k7-nomix":
        "b75d948c28800e792711e1bad961c9fe1384a44670a8521b6577936409f60128",
    "fourwise-n24-k5-lam1-mix":
        "390dfb0150fdb3b1d3e456ad2aad89def6eeda7a64c05613c49b45630a886e70",
    "fourwise-n24-k5-lam5-mix":
        "91934e8d9c7674a07159b2e01f31c20740d51f38c5f6b8b4d5bfa4316297cf13",
    "fourwise-n24-k5-lam20-mix":
        "91934e8d9c7674a07159b2e01f31c20740d51f38c5f6b8b4d5bfa4316297cf13",
    "fourwise-n24-k5-nomix":
        "38e9e1c9b4e231a2db4f8e601c2e3c3e0972d98fa0eafb9b18d11c136052ca10",
    "fourwise-n37-k9-lam1-mix":
        "5a940f75f902ea2b45a1e3e9818bc5c13d60301f6366733652189e24f07c4c41",
    "fourwise-n37-k9-lam5-mix":
        "228aef741c84bb2410bc38a29bb30d010b1965b995ec20c73433a1446b6a5b10",
    "fourwise-n37-k9-lam20-mix":
        "cd8444885feab13a9984051b23fc307dd9b9dcb8d4f6e4d829be2dd492aae39d",
    "fourwise-n37-k9-nomix":
        "5a940f75f902ea2b45a1e3e9818bc5c13d60301f6366733652189e24f07c4c41",
    "fourwise-n64-k12-lam1-mix":
        "9e3f4acf4f06d2524b77c7f82649c6c16de24ee90973bb06f477a996876baa5b",
    "fourwise-n64-k12-lam5-mix":
        "9e3f4acf4f06d2524b77c7f82649c6c16de24ee90973bb06f477a996876baa5b",
    "fourwise-n64-k12-lam20-mix":
        "9e3f4acf4f06d2524b77c7f82649c6c16de24ee90973bb06f477a996876baa5b",
    "fourwise-n64-k12-nomix":
        "9e3f4acf4f06d2524b77c7f82649c6c16de24ee90973bb06f477a996876baa5b",
    "fourwise-n100-k17-lam1-mix":
        "758f0f6f4825e83f68821d85125e8c7b422f432cedcb95dfe0e65daacecc4c30",
    "fourwise-n100-k17-lam5-mix":
        "2f1134b0680c6e203fdebf080f928df00d096053989005e82137b809936f126c",
    "fourwise-n100-k17-lam20-mix":
        "2f1134b0680c6e203fdebf080f928df00d096053989005e82137b809936f126c",
    "fourwise-n100-k17-nomix":
        "97fcf6188412b04edfe9df4c5af80f72ed9730b1f8ae90094ce4a15118075bfe",
    "bitonic_sel-n5-k2-lam1-mix":
        "5eb181e2ddb1efa0dfb6d4e6e8fe0cb5d92193850e2798e2ac6007a479648a93",
    "bitonic_sel-n5-k2-lam5-mix":
        "5eb181e2ddb1efa0dfb6d4e6e8fe0cb5d92193850e2798e2ac6007a479648a93",
    "bitonic_sel-n5-k2-lam20-mix":
        "5eb181e2ddb1efa0dfb6d4e6e8fe0cb5d92193850e2798e2ac6007a479648a93",
    "bitonic_sel-n5-k2-nomix":
        "9284b0ba7b39afcbf99cb4f9c79fe2068737a551298e38a593a7fc7625f85af3",
    "bitonic_sel-n8-k3-lam1-mix":
        "5ff94544cb49ee5f8872c8ea48a7c228352db62bcac1257a9dcf38e32a9407af",
    "bitonic_sel-n8-k3-lam5-mix":
        "4522a8ea3de97e6fb2275bb2e69c74bb92ba7181406ee2c3030c8c0324c636fa",
    "bitonic_sel-n8-k3-lam20-mix":
        "4522a8ea3de97e6fb2275bb2e69c74bb92ba7181406ee2c3030c8c0324c636fa",
    "bitonic_sel-n8-k3-nomix":
        "5ff94544cb49ee5f8872c8ea48a7c228352db62bcac1257a9dcf38e32a9407af",
    "bitonic_sel-n13-k4-lam1-mix":
        "436729c217af0dfd7ff2a207d3db489fc21ddc05a1040635314e1014d74bef6c",
    "bitonic_sel-n13-k4-lam5-mix":
        "436729c217af0dfd7ff2a207d3db489fc21ddc05a1040635314e1014d74bef6c",
    "bitonic_sel-n13-k4-lam20-mix":
        "436729c217af0dfd7ff2a207d3db489fc21ddc05a1040635314e1014d74bef6c",
    "bitonic_sel-n13-k4-nomix":
        "436729c217af0dfd7ff2a207d3db489fc21ddc05a1040635314e1014d74bef6c",
    "bitonic_sel-n16-k7-lam1-mix":
        "6f5fc07fd70d9ed25dab1fd3eb2830e12f197abf18ed3697abdd45691e9e8089",
    "bitonic_sel-n16-k7-lam5-mix":
        "6f5fc07fd70d9ed25dab1fd3eb2830e12f197abf18ed3697abdd45691e9e8089",
    "bitonic_sel-n16-k7-lam20-mix":
        "6f5fc07fd70d9ed25dab1fd3eb2830e12f197abf18ed3697abdd45691e9e8089",
    "bitonic_sel-n16-k7-nomix":
        "6f5fc07fd70d9ed25dab1fd3eb2830e12f197abf18ed3697abdd45691e9e8089",
    "bitonic_sel-n24-k5-lam1-mix":
        "7eedd67723bd02bafcaab8465280ec9099bd2fc6761ca1f67ec86b65de650a86",
    "bitonic_sel-n24-k5-lam5-mix":
        "7eedd67723bd02bafcaab8465280ec9099bd2fc6761ca1f67ec86b65de650a86",
    "bitonic_sel-n24-k5-lam20-mix":
        "7eedd67723bd02bafcaab8465280ec9099bd2fc6761ca1f67ec86b65de650a86",
    "bitonic_sel-n24-k5-nomix":
        "7eedd67723bd02bafcaab8465280ec9099bd2fc6761ca1f67ec86b65de650a86",
    "bitonic_sel-n37-k9-lam1-mix":
        "d65255cb91d62cd96f822b631aee74c9be41234ac3770bd8aabd70ffec9db24c",
    "bitonic_sel-n37-k9-lam5-mix":
        "d65255cb91d62cd96f822b631aee74c9be41234ac3770bd8aabd70ffec9db24c",
    "bitonic_sel-n37-k9-lam20-mix":
        "d65255cb91d62cd96f822b631aee74c9be41234ac3770bd8aabd70ffec9db24c",
    "bitonic_sel-n37-k9-nomix":
        "d65255cb91d62cd96f822b631aee74c9be41234ac3770bd8aabd70ffec9db24c",
    "bitonic_sel-n64-k12-lam1-mix":
        "b28da12e936ab27a78c7c666e8769722ef92b1055927fd3a3bc335f9eb9bd994",
    "bitonic_sel-n64-k12-lam5-mix":
        "b28da12e936ab27a78c7c666e8769722ef92b1055927fd3a3bc335f9eb9bd994",
    "bitonic_sel-n64-k12-lam20-mix":
        "b28da12e936ab27a78c7c666e8769722ef92b1055927fd3a3bc335f9eb9bd994",
    "bitonic_sel-n64-k12-nomix":
        "b28da12e936ab27a78c7c666e8769722ef92b1055927fd3a3bc335f9eb9bd994",
    "bitonic_sel-n100-k17-lam1-mix":
        "d324650c7856ddf06a4ac8108c5c6faffa7bad5708643cda425883dd16e3e352",
    "bitonic_sel-n100-k17-lam5-mix":
        "d324650c7856ddf06a4ac8108c5c6faffa7bad5708643cda425883dd16e3e352",
    "bitonic_sel-n100-k17-lam20-mix":
        "d324650c7856ddf06a4ac8108c5c6faffa7bad5708643cda425883dd16e3e352",
    "bitonic_sel-n100-k17-nomix":
        "d324650c7856ddf06a4ac8108c5c6faffa7bad5708643cda425883dd16e3e352",
    "oe4-n256-k33-lam5-mix":
        "5c5e3213346686a933dfda58fc7fe886a0ec90def0bad53d91e5bc55f3e5277e",
    "oe4-n300-k17-lam5-mix":
        "fd127f946618dcdbaa1326b41872b26aca77e39937ad2b5966542ab4f2d9f59f",
    "queens8-oe4":
        "a88db318dcf2c6b7f5c4b5e9136c5556665c846f5b9359c3a92296ee411df54b",
    "oe2-n256-k33-lam5-mix":
        "57d0aa9a8fb6d7963c67bb35d2fe165183d56d08c74eeaef01ada1c9d7aed178",
    "oe2-n300-k17-lam5-mix":
        "0d8eb7bbef67da46e06ead29d66276f56d98c6acdff4c4d8e65d6570d1375be8",
    "queens8-oe2":
        "ca51583690bbbec5749639c66f34391a91d50e9b1a2cd1bf725ebfa178430986",
    "fourwise-n256-k33-lam5-mix":
        "3bc408ea365feb9eea4bf70bffc089503a49077870e4a371969e570f05897d1a",
    "fourwise-n300-k17-lam5-mix":
        "e7ddc6037ac3ed7cda0f831c0a3e4f7dad9a7859823e27e03ee17a2af29207b1",
    "queens8-fourwise":
        "030eec85eefee3d154a43d9ba040870729e862c1ab36545f802c2d6a45f45b2e",
    "opb-a-oe4":
        "48c2fd0564c543502081536bd982d91f5c707b282090a47c278c2e9e3d99c192",
    "opb-a-oe2":
        "48c2fd0564c543502081536bd982d91f5c707b282090a47c278c2e9e3d99c192",
    "opb-a-fourwise":
        "48c2fd0564c543502081536bd982d91f5c707b282090a47c278c2e9e3d99c192",
    "opb-a-pairwise_half_bitonic":
        "48c2fd0564c543502081536bd982d91f5c707b282090a47c278c2e9e3d99c192",
    "opb-b-oe4":
        "aeacca0b1a0d8f6844b8882d402953d15aa853688655421287b60f8810a90763",
    "opb-b-oe2":
        "ddecbebf3a5b09d8a7d9db79fc3a1bc25a99bb61eb5484acc7ad1136374dba4d",
    "opb-b-fourwise":
        "fc58e0fb6cb8766bf510c4b057d100611bf716262e19045625c7e47a97d35fe1",
    "opb-b-pairwise_half_bitonic":
        "fc58e0fb6cb8766bf510c4b057d100611bf716262e19045625c7e47a97d35fe1",
    # flagged goal bounds
    "goal-w-oe4":
        "68c3cbb0b41e21ac29aae8513b26a5bdbf62a9c3edc1040cf307eddaf126efa5",
    "goal-w-oe2":
        "2f85dc3f55014141c8dc84de54c41fe17d623949a583a830346b0b86e819ee3b",
    "goal-w-pairwise_classic":
        "3e1d9483cf3518fc283c923ae2759dad162981db9ee447f4c4ee422db4466fcd",
    "goal-w-pairwise_bitonic":
        "3e1d9483cf3518fc283c923ae2759dad162981db9ee447f4c4ee422db4466fcd",
    "goal-w-pairwise_half_bitonic":
        "3e1d9483cf3518fc283c923ae2759dad162981db9ee447f4c4ee422db4466fcd",
    "goal-w-fourwise":
        "3e1d9483cf3518fc283c923ae2759dad162981db9ee447f4c4ee422db4466fcd",
    "goal-w-bitonic_sel":
        "3e1d9483cf3518fc283c923ae2759dad162981db9ee447f4c4ee422db4466fcd",
    "goal-u-oe4":
        "4a57e5c00e3280b15fb5e61d748383dc36385e65fefa124cc83213ccc0056dac",
    "goal-u-oe2":
        "5b528fc21a006437e72757012ead6f892b3a43ad7bd41077e446c8c3034d0bff",
    "goal-u-pairwise_classic":
        "27fd195a04a0ef91330ef206bee7d57fef8289edb67ee642d6b05321236c69f3",
    "goal-u-pairwise_bitonic":
        "da29378efc5ac7425036d60c0def0880da979a7116b5f96e15cb574eab22ced0",
    "goal-u-pairwise_half_bitonic":
        "64ec2e58c6e15317e376dca3e1f8b4daf5463ad68117dbaaa04b5b79806cba4b",
    "goal-u-fourwise":
        "3f18e9f989718fbefd7c54e168cdc3953b233469b24aa995dc5e15e421cb1f9f",
    "goal-u-bitonic_sel":
        "eefccc55d178aaa8ff094d44166479c347fcb2503c6b83861894d40a7beb294a",
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
        "2255d312dcd44a6b8490a3178ba4ec2bc32b10e743d14251abecfbafd7560d02",
    "goal-wide-oe2":
        "d58d12f2f92032a13168e006757672afc91a9ee749b7c21c30a5478bd99c8e77",
    "goal-wide-pairwise_classic":
        "c59374709a614ee8a91b555e8ffbc8bb2558952567f956bde33c9d21cc1b435c",
    "goal-wide-pairwise_bitonic":
        "c59374709a614ee8a91b555e8ffbc8bb2558952567f956bde33c9d21cc1b435c",
    "goal-wide-pairwise_half_bitonic":
        "c59374709a614ee8a91b555e8ffbc8bb2558952567f956bde33c9d21cc1b435c",
    "goal-wide-fourwise":
        "d86ff5a03a0678c2e04a5d509077d7714b5189ec2983441f8e9dbb2fd3d59dd2",
    "goal-wide-bitonic_sel":
        "c59374709a614ee8a91b555e8ffbc8bb2558952567f956bde33c9d21cc1b435c",
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


def _without_dead_gates(formula, aux, exposed):
    """formula after deleting, repeatedly, every clause that holds a literal
    of an auxiliary variable, not exposed, whose complement occurs nowhere,
    with the surviving variables renumbered in order."""
    clauses = formula.clauses
    while True:
        occurs = Counter(lit for clause in clauses for lit in clause)
        pure = {lit for lit in occurs
                if abs(lit) in aux and abs(lit) not in exposed and -lit not in occurs}
        if not pure:
            break
        clauses = [clause for clause in clauses if pure.isdisjoint(clause)]
    used = {abs(lit) for clause in clauses for lit in clause}
    kept = [v for v in range(1, formula.next_var) if v not in aux or v in used or v in exposed]
    new = {v: i for i, v in enumerate(kept, 1)}
    return CnfFormula(len(kept) + 1,
                      [tuple(new[lit] if lit > 0 else -new[-lit] for lit in clause)
                       for clause in clauses],
                      formula.trivially_unsat)


@pytest.mark.parametrize("method", GROUPS)
def test_pruning_matches_dead_gate_elimination(method, monkeypatch):
    # every network emitted in full, whatever its caller reads: the variables
    # it allocates are auxiliary, those of the read outputs exposed
    real = encode.emit_network
    aux, exposed = set(), set()

    def emit_everything(formula, net, input_lits, polarity="atmost", reads=None):
        start = formula.next_var
        outs = real(formula, net, input_lits, polarity)
        aux.update(range(start, formula.next_var))
        read = outs if reads is None else [outs[i] for i in reads]
        exposed.update(abs(lit) for lit in read if not is_const(lit))
        return read

    for case_id, thunk in _group(method):
        pruned = thunk()
        aux.clear()
        exposed.clear()
        with monkeypatch.context() as patch:
            patch.setattr(encode, "emit_network", emit_everything)
            patch.setattr(pb, "emit_network", emit_everything)
            full = thunk()
        assert (_without_dead_gates(full, aux, exposed).write_dimacs()
                == pruned.write_dimacs()), case_id
