"""Golden DIMACS gate: sha256 of the exact output bytes over a fixed grid.

Every refactor of network construction, direct mixing or clause emission
must keep these hashes.  They were recorded from the code before the cost
recurrence replaced dry-run pricing of mixing decisions; a changed hash means
the encoder now writes different bytes, which is a behaviour change and never
a reason to re-record.  The flagged goal-bound cases (`goal-*`) were recorded
from the code before clause families were emitted in bulk; they pin the guard
literal that `encode_goal_bound` disjoins into every clause it adds.

The seven cases `queens8-{oe4,oe2,fourwise}` and `opb-a-*` were re-recorded
once, when `encode_card` and the unit-coefficient branch of `encode_pb` began
to encode an at-most form on its cheaper side: their `>=` and `=` lines, the
length-2 diagonals of queens 8 and opb-a's `<= 4` over six unit terms now
become small selection networks in the zero-propagating polarity.  Every
other case kept its bytes through that change.
"""

import hashlib

import pytest

from cardnet.cnf import CnfFormula
from cardnet.cnfp import encode_cnfp, queens_cnfp
from cardnet.encode import (METHODS, NETWORK_METHODS, CardConstraint, EncodeOptions,
                            encode_atmost)
from cardnet.pb import encode_goal_bound, parse_opb
from cardnet.solve import encode_problem

SIZES = ((5, 2), (8, 3), (13, 4), (16, 7), (24, 5), (37, 9), (64, 12), (100, 17))
LAMBDAS = (1, 5, 20)
# long oe4 column chains and deep recursion, for the three mixing methods
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
    return _sha(f)


def _queens_case(method):
    # queens 8 plus `=` and `>=` lines, which the CNFP text grammar cannot carry
    problem = queens_cnfp(8)
    for r in range(8):
        problem.card_lines.append(CardConstraint(tuple(f * 8 + r + 1 for f in range(8)), "=", 1))
    problem.card_lines.append(CardConstraint(tuple(range(1, 65, 3)), ">=", 6))
    problem.card_lines.append(CardConstraint(tuple(range(2, 65, 5)), ">=", 3))
    return _sha(encode_cnfp(problem, EncodeOptions(method=method)))


def _opb_case(name, method):
    return _sha(encode_problem(parse_opb(OPB_FILES[name]), EncodeOptions(method=method)).formula)


def _goal_case(name, method):
    # goal-wide runs with mixing off so the full networks carry the guard
    coeffs, bound = GOAL_OBJECTIVES[name]
    f = CnfFormula()
    xs = f.fresh_vars(len(coeffs))
    flag = f.fresh_var()
    encode_goal_bound(f, list(zip(coeffs, xs)), bound, flag,
                      EncodeOptions(method=method, direct_mixing=name != "goal-wide"))
    return _sha(f)


def cases():
    """(case id, thunk computing the DIMACS sha256)."""
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
        "31d73b89177dedd9e733e70a82e49211e76b8a1851c7b90bedfd86750c9cf84d",
    "oe4-n8-k3-lam1-mix":
        "bf004b313b83044d21fcf9719923ac2fb9e1a2ace00326f2ace5e540891208c9",
    "oe4-n8-k3-lam5-mix":
        "bf004b313b83044d21fcf9719923ac2fb9e1a2ace00326f2ace5e540891208c9",
    "oe4-n8-k3-lam20-mix":
        "4522a8ea3de97e6fb2275bb2e69c74bb92ba7181406ee2c3030c8c0324c636fa",
    "oe4-n8-k3-nomix":
        "2a6cb83620cb576f69e4e95485c45761cd7de041da91e08598e1d92840fb5f08",
    "oe4-n13-k4-lam1-mix":
        "db8d6b6a69c70999148c5bdead6a8f37bd76feb7d007d31ea67da1005506737e",
    "oe4-n13-k4-lam5-mix":
        "db8d6b6a69c70999148c5bdead6a8f37bd76feb7d007d31ea67da1005506737e",
    "oe4-n13-k4-lam20-mix":
        "e597b068c1f0d24e2f8fd7a9790e4f973d36c364d351ad02a480e4def4da6c31",
    "oe4-n13-k4-nomix":
        "db8d6b6a69c70999148c5bdead6a8f37bd76feb7d007d31ea67da1005506737e",
    "oe4-n16-k7-lam1-mix":
        "57dc8ba724e980b62408d808749a67d09f24beafb1066ba511af9ab54f60e12b",
    "oe4-n16-k7-lam5-mix":
        "57dc8ba724e980b62408d808749a67d09f24beafb1066ba511af9ab54f60e12b",
    "oe4-n16-k7-lam20-mix":
        "57dc8ba724e980b62408d808749a67d09f24beafb1066ba511af9ab54f60e12b",
    "oe4-n16-k7-nomix":
        "57dc8ba724e980b62408d808749a67d09f24beafb1066ba511af9ab54f60e12b",
    "oe4-n24-k5-lam1-mix":
        "04680a001df0329477ef44ebd752a173e0ea10affd0a37d72bcab3565c96e821",
    "oe4-n24-k5-lam5-mix":
        "0fd0c43eb2f72fcca39988e6fc7905e560bc5217e776f0f80a5cafed0ace30a8",
    "oe4-n24-k5-lam20-mix":
        "4cb5050a1e63bf0ad272acd49322fbb45ed9d0116b0d85f8cc0e3b65670abc70",
    "oe4-n24-k5-nomix":
        "04680a001df0329477ef44ebd752a173e0ea10affd0a37d72bcab3565c96e821",
    "oe4-n37-k9-lam1-mix":
        "19603ff2ceb3e14e40edb136fbc73daca10d4e64c52b610dcae0d2818f8d86ed",
    "oe4-n37-k9-lam5-mix":
        "19603ff2ceb3e14e40edb136fbc73daca10d4e64c52b610dcae0d2818f8d86ed",
    "oe4-n37-k9-lam20-mix":
        "ffa0bbfbe8bddb55da022bb0aabf7dba32a8dea188b10893ee21a248486188d2",
    "oe4-n37-k9-nomix":
        "19603ff2ceb3e14e40edb136fbc73daca10d4e64c52b610dcae0d2818f8d86ed",
    "oe4-n64-k12-lam1-mix":
        "ca06d37549bc24bfce459b464992ced63ba69e9e7eae27dc5fd0cf0f10e40cc9",
    "oe4-n64-k12-lam5-mix":
        "ca06d37549bc24bfce459b464992ced63ba69e9e7eae27dc5fd0cf0f10e40cc9",
    "oe4-n64-k12-lam20-mix":
        "ca06d37549bc24bfce459b464992ced63ba69e9e7eae27dc5fd0cf0f10e40cc9",
    "oe4-n64-k12-nomix":
        "ca06d37549bc24bfce459b464992ced63ba69e9e7eae27dc5fd0cf0f10e40cc9",
    "oe4-n100-k17-lam1-mix":
        "ca4c137bb645cb23e50881b98e140b239539a693eee7b9f18cdc343787f1972c",
    "oe4-n100-k17-lam5-mix":
        "ca4c137bb645cb23e50881b98e140b239539a693eee7b9f18cdc343787f1972c",
    "oe4-n100-k17-lam20-mix":
        "ca4c137bb645cb23e50881b98e140b239539a693eee7b9f18cdc343787f1972c",
    "oe4-n100-k17-nomix":
        "ca4c137bb645cb23e50881b98e140b239539a693eee7b9f18cdc343787f1972c",
    "oe2-n5-k2-lam1-mix":
        "5eb181e2ddb1efa0dfb6d4e6e8fe0cb5d92193850e2798e2ac6007a479648a93",
    "oe2-n5-k2-lam5-mix":
        "5eb181e2ddb1efa0dfb6d4e6e8fe0cb5d92193850e2798e2ac6007a479648a93",
    "oe2-n5-k2-lam20-mix":
        "5eb181e2ddb1efa0dfb6d4e6e8fe0cb5d92193850e2798e2ac6007a479648a93",
    "oe2-n5-k2-nomix":
        "27be3c8192da220d404ece08fb5cbc8aa1f6155b6cf731b7119e9e1345de7568",
    "oe2-n8-k3-lam1-mix":
        "8eb9b997012c9192080f86ba8003ff4aba137a4f6ce26c97efd583575f5f7f8a",
    "oe2-n8-k3-lam5-mix":
        "4522a8ea3de97e6fb2275bb2e69c74bb92ba7181406ee2c3030c8c0324c636fa",
    "oe2-n8-k3-lam20-mix":
        "4522a8ea3de97e6fb2275bb2e69c74bb92ba7181406ee2c3030c8c0324c636fa",
    "oe2-n8-k3-nomix":
        "aad3a06600ba4acf4c0f906690a76fd2b68c17ef32b05e0d33f603bea08c03d5",
    "oe2-n13-k4-lam1-mix":
        "5acc1f3cc6767b76a4680da1dcb67a561dbf39d57366bbe930dcfbae3b8b40c8",
    "oe2-n13-k4-lam5-mix":
        "9d8b70c3c7d570574b78c61cf3ddb5aa8a48e704bfa6a650fa71a48ffe893c94",
    "oe2-n13-k4-lam20-mix":
        "9d8b70c3c7d570574b78c61cf3ddb5aa8a48e704bfa6a650fa71a48ffe893c94",
    "oe2-n13-k4-nomix":
        "6bb207d9575cb5fc923572abcf83914912dd248dacc8dd0e53d294cdee70f94f",
    "oe2-n16-k7-lam1-mix":
        "13312f2242d1f9fc3caebf137dc632407e4f8aeacd5b00e8889b049570466eea",
    "oe2-n16-k7-lam5-mix":
        "13312f2242d1f9fc3caebf137dc632407e4f8aeacd5b00e8889b049570466eea",
    "oe2-n16-k7-lam20-mix":
        "6cf58f94d239ca7447d87302a18da50465132e3dddb26de1ea03414272fbf117",
    "oe2-n16-k7-nomix":
        "053f0f0bcfdafa6f7adab5087bbde20e023a36f74fb7bd945cd23c667d1d5f91",
    "oe2-n24-k5-lam1-mix":
        "93b85acff71d9f73e0723776b2e8ef40698c8124e2c8bafbb0161fba7f186155",
    "oe2-n24-k5-lam5-mix":
        "0d86987bf4ea7dd34d2d6d6270c4f0bcc8d66a1f4e08d2e470597989141839b0",
    "oe2-n24-k5-lam20-mix":
        "0d86987bf4ea7dd34d2d6d6270c4f0bcc8d66a1f4e08d2e470597989141839b0",
    "oe2-n24-k5-nomix":
        "6fc1f9f5f233430f6ea56b7a6b717424a76fe9f2aeb43d9c1a52a1571a0de58c",
    "oe2-n37-k9-lam1-mix":
        "3d86b4cbd2a53073ec1c575aeab9296f2c544668326d69ce1167bcb6e4186334",
    "oe2-n37-k9-lam5-mix":
        "3d86b4cbd2a53073ec1c575aeab9296f2c544668326d69ce1167bcb6e4186334",
    "oe2-n37-k9-lam20-mix":
        "173b468bb6927099eb5f1a29406d429ccc834036be768d2619eb0362bed584cf",
    "oe2-n37-k9-nomix":
        "b17c3cbf8dc1073075b520a101a9397e205b873d8a6d2113fdcbefe34fc47854",
    "oe2-n64-k12-lam1-mix":
        "34f4547035e8c9af7b2c5be44e669641536f4adbc363d5275c8f3ef66749216c",
    "oe2-n64-k12-lam5-mix":
        "34f4547035e8c9af7b2c5be44e669641536f4adbc363d5275c8f3ef66749216c",
    "oe2-n64-k12-lam20-mix":
        "f42e540594779b63b977a1122277ecad3b1d36f8c96558b69331ba3f85909e98",
    "oe2-n64-k12-nomix":
        "fa0638c3d31f228e7cdc5969f3ae13ee1f34dfe98e63514e22a52e3cd10f6983",
    "oe2-n100-k17-lam1-mix":
        "a62f57599caa0fe79eca0682aaa19d390341711d5a6d5dabdb9562df4c5268ab",
    "oe2-n100-k17-lam5-mix":
        "ed7c24cc51c8da8b64dd5c7838784dea92fea9edf2099f6b7775989d98376c3e",
    "oe2-n100-k17-lam20-mix":
        "e8e560acd1e97dd99e2f6a5a1fa154de617fda326d9b4de3f63d44fd34101fa5",
    "oe2-n100-k17-nomix":
        "a6b833efe9267cbd7b971046935c198ae8723e4c06b425f4b099ca36c740edfd",
    "pairwise_classic-n5-k2-lam1-mix":
        "5eb181e2ddb1efa0dfb6d4e6e8fe0cb5d92193850e2798e2ac6007a479648a93",
    "pairwise_classic-n5-k2-lam5-mix":
        "5eb181e2ddb1efa0dfb6d4e6e8fe0cb5d92193850e2798e2ac6007a479648a93",
    "pairwise_classic-n5-k2-lam20-mix":
        "5eb181e2ddb1efa0dfb6d4e6e8fe0cb5d92193850e2798e2ac6007a479648a93",
    "pairwise_classic-n5-k2-nomix":
        "054788580d8613a884354d433d467597b0a2a0fbadb58c2fbd912cae8402124b",
    "pairwise_classic-n8-k3-lam1-mix":
        "cebe0d761bc9e9012d473c050aa45e50208416d05c32739acaaa21a47759ea46",
    "pairwise_classic-n8-k3-lam5-mix":
        "4522a8ea3de97e6fb2275bb2e69c74bb92ba7181406ee2c3030c8c0324c636fa",
    "pairwise_classic-n8-k3-lam20-mix":
        "4522a8ea3de97e6fb2275bb2e69c74bb92ba7181406ee2c3030c8c0324c636fa",
    "pairwise_classic-n8-k3-nomix":
        "cebe0d761bc9e9012d473c050aa45e50208416d05c32739acaaa21a47759ea46",
    "pairwise_classic-n13-k4-lam1-mix":
        "4b9f415b5730618bf1843555dc72efa8ffb40be8da8f04ff206bf269773315ca",
    "pairwise_classic-n13-k4-lam5-mix":
        "4b9f415b5730618bf1843555dc72efa8ffb40be8da8f04ff206bf269773315ca",
    "pairwise_classic-n13-k4-lam20-mix":
        "4b9f415b5730618bf1843555dc72efa8ffb40be8da8f04ff206bf269773315ca",
    "pairwise_classic-n13-k4-nomix":
        "4b9f415b5730618bf1843555dc72efa8ffb40be8da8f04ff206bf269773315ca",
    "pairwise_classic-n16-k7-lam1-mix":
        "57f8934f7c5c7ea1734bd0150398c61093740551177e7dc4190d6d45f12bbf79",
    "pairwise_classic-n16-k7-lam5-mix":
        "57f8934f7c5c7ea1734bd0150398c61093740551177e7dc4190d6d45f12bbf79",
    "pairwise_classic-n16-k7-lam20-mix":
        "57f8934f7c5c7ea1734bd0150398c61093740551177e7dc4190d6d45f12bbf79",
    "pairwise_classic-n16-k7-nomix":
        "57f8934f7c5c7ea1734bd0150398c61093740551177e7dc4190d6d45f12bbf79",
    "pairwise_classic-n24-k5-lam1-mix":
        "450fe93aa902b6d1fffaba0306a7b64bf6dc0e1159ab05de0af9090d20f8fbb9",
    "pairwise_classic-n24-k5-lam5-mix":
        "450fe93aa902b6d1fffaba0306a7b64bf6dc0e1159ab05de0af9090d20f8fbb9",
    "pairwise_classic-n24-k5-lam20-mix":
        "450fe93aa902b6d1fffaba0306a7b64bf6dc0e1159ab05de0af9090d20f8fbb9",
    "pairwise_classic-n24-k5-nomix":
        "450fe93aa902b6d1fffaba0306a7b64bf6dc0e1159ab05de0af9090d20f8fbb9",
    "pairwise_classic-n37-k9-lam1-mix":
        "1d8495e722bd694433b8961c427f4cb34a38f39f74fe2cc17bf05f5a13b4fc77",
    "pairwise_classic-n37-k9-lam5-mix":
        "1d8495e722bd694433b8961c427f4cb34a38f39f74fe2cc17bf05f5a13b4fc77",
    "pairwise_classic-n37-k9-lam20-mix":
        "1d8495e722bd694433b8961c427f4cb34a38f39f74fe2cc17bf05f5a13b4fc77",
    "pairwise_classic-n37-k9-nomix":
        "1d8495e722bd694433b8961c427f4cb34a38f39f74fe2cc17bf05f5a13b4fc77",
    "pairwise_classic-n64-k12-lam1-mix":
        "48cf2e954236e43bea29f9ee3a27433355b3a367f5c69ac9438e7936bb1fe8af",
    "pairwise_classic-n64-k12-lam5-mix":
        "48cf2e954236e43bea29f9ee3a27433355b3a367f5c69ac9438e7936bb1fe8af",
    "pairwise_classic-n64-k12-lam20-mix":
        "48cf2e954236e43bea29f9ee3a27433355b3a367f5c69ac9438e7936bb1fe8af",
    "pairwise_classic-n64-k12-nomix":
        "48cf2e954236e43bea29f9ee3a27433355b3a367f5c69ac9438e7936bb1fe8af",
    "pairwise_classic-n100-k17-lam1-mix":
        "94d1b3ddf164483f7a8c6857f155a3fb9c59995743b25ac320bf94a2b7bfde73",
    "pairwise_classic-n100-k17-lam5-mix":
        "94d1b3ddf164483f7a8c6857f155a3fb9c59995743b25ac320bf94a2b7bfde73",
    "pairwise_classic-n100-k17-lam20-mix":
        "94d1b3ddf164483f7a8c6857f155a3fb9c59995743b25ac320bf94a2b7bfde73",
    "pairwise_classic-n100-k17-nomix":
        "94d1b3ddf164483f7a8c6857f155a3fb9c59995743b25ac320bf94a2b7bfde73",
    "pairwise_bitonic-n5-k2-lam1-mix":
        "5eb181e2ddb1efa0dfb6d4e6e8fe0cb5d92193850e2798e2ac6007a479648a93",
    "pairwise_bitonic-n5-k2-lam5-mix":
        "5eb181e2ddb1efa0dfb6d4e6e8fe0cb5d92193850e2798e2ac6007a479648a93",
    "pairwise_bitonic-n5-k2-lam20-mix":
        "5eb181e2ddb1efa0dfb6d4e6e8fe0cb5d92193850e2798e2ac6007a479648a93",
    "pairwise_bitonic-n5-k2-nomix":
        "df94fe1916882d41068fe24443e0d6450184dbd6b47e524e82517ceddd2dabdb",
    "pairwise_bitonic-n8-k3-lam1-mix":
        "706348e4fd956f85f9831a778c78b99631ac34c7810c9d8b3dc5886c4cbe1510",
    "pairwise_bitonic-n8-k3-lam5-mix":
        "4522a8ea3de97e6fb2275bb2e69c74bb92ba7181406ee2c3030c8c0324c636fa",
    "pairwise_bitonic-n8-k3-lam20-mix":
        "4522a8ea3de97e6fb2275bb2e69c74bb92ba7181406ee2c3030c8c0324c636fa",
    "pairwise_bitonic-n8-k3-nomix":
        "706348e4fd956f85f9831a778c78b99631ac34c7810c9d8b3dc5886c4cbe1510",
    "pairwise_bitonic-n13-k4-lam1-mix":
        "97493041eb389c2d92de199d9f6de4594e0842bfd67157eecce8056fff72f0c9",
    "pairwise_bitonic-n13-k4-lam5-mix":
        "97493041eb389c2d92de199d9f6de4594e0842bfd67157eecce8056fff72f0c9",
    "pairwise_bitonic-n13-k4-lam20-mix":
        "97493041eb389c2d92de199d9f6de4594e0842bfd67157eecce8056fff72f0c9",
    "pairwise_bitonic-n13-k4-nomix":
        "97493041eb389c2d92de199d9f6de4594e0842bfd67157eecce8056fff72f0c9",
    "pairwise_bitonic-n16-k7-lam1-mix":
        "0f331687ea3f5a32845efd94f67c97029205708ff8ad1311be01c67c0ce57d0e",
    "pairwise_bitonic-n16-k7-lam5-mix":
        "0f331687ea3f5a32845efd94f67c97029205708ff8ad1311be01c67c0ce57d0e",
    "pairwise_bitonic-n16-k7-lam20-mix":
        "0f331687ea3f5a32845efd94f67c97029205708ff8ad1311be01c67c0ce57d0e",
    "pairwise_bitonic-n16-k7-nomix":
        "0f331687ea3f5a32845efd94f67c97029205708ff8ad1311be01c67c0ce57d0e",
    "pairwise_bitonic-n24-k5-lam1-mix":
        "5f3b9e2a6590f8e85b6a035920e58fdb38ad384281fd301ce940288268006130",
    "pairwise_bitonic-n24-k5-lam5-mix":
        "5f3b9e2a6590f8e85b6a035920e58fdb38ad384281fd301ce940288268006130",
    "pairwise_bitonic-n24-k5-lam20-mix":
        "5f3b9e2a6590f8e85b6a035920e58fdb38ad384281fd301ce940288268006130",
    "pairwise_bitonic-n24-k5-nomix":
        "5f3b9e2a6590f8e85b6a035920e58fdb38ad384281fd301ce940288268006130",
    "pairwise_bitonic-n37-k9-lam1-mix":
        "f523de0da71caaaf59f8bd35882ac6de5a1ce64c0d6a29fd113c637262d47151",
    "pairwise_bitonic-n37-k9-lam5-mix":
        "f523de0da71caaaf59f8bd35882ac6de5a1ce64c0d6a29fd113c637262d47151",
    "pairwise_bitonic-n37-k9-lam20-mix":
        "f523de0da71caaaf59f8bd35882ac6de5a1ce64c0d6a29fd113c637262d47151",
    "pairwise_bitonic-n37-k9-nomix":
        "f523de0da71caaaf59f8bd35882ac6de5a1ce64c0d6a29fd113c637262d47151",
    "pairwise_bitonic-n64-k12-lam1-mix":
        "821e916bb9439a95b47e61d608c303472ea487d49c2a82ce903d36f82f948703",
    "pairwise_bitonic-n64-k12-lam5-mix":
        "821e916bb9439a95b47e61d608c303472ea487d49c2a82ce903d36f82f948703",
    "pairwise_bitonic-n64-k12-lam20-mix":
        "821e916bb9439a95b47e61d608c303472ea487d49c2a82ce903d36f82f948703",
    "pairwise_bitonic-n64-k12-nomix":
        "821e916bb9439a95b47e61d608c303472ea487d49c2a82ce903d36f82f948703",
    "pairwise_bitonic-n100-k17-lam1-mix":
        "c4c0e18b64c39d7b93abc3eed5d3a378f918d7b20dd1dd7d7fd56d7cee71ced2",
    "pairwise_bitonic-n100-k17-lam5-mix":
        "c4c0e18b64c39d7b93abc3eed5d3a378f918d7b20dd1dd7d7fd56d7cee71ced2",
    "pairwise_bitonic-n100-k17-lam20-mix":
        "c4c0e18b64c39d7b93abc3eed5d3a378f918d7b20dd1dd7d7fd56d7cee71ced2",
    "pairwise_bitonic-n100-k17-nomix":
        "c4c0e18b64c39d7b93abc3eed5d3a378f918d7b20dd1dd7d7fd56d7cee71ced2",
    "pairwise_half_bitonic-n5-k2-lam1-mix":
        "5eb181e2ddb1efa0dfb6d4e6e8fe0cb5d92193850e2798e2ac6007a479648a93",
    "pairwise_half_bitonic-n5-k2-lam5-mix":
        "5eb181e2ddb1efa0dfb6d4e6e8fe0cb5d92193850e2798e2ac6007a479648a93",
    "pairwise_half_bitonic-n5-k2-lam20-mix":
        "5eb181e2ddb1efa0dfb6d4e6e8fe0cb5d92193850e2798e2ac6007a479648a93",
    "pairwise_half_bitonic-n5-k2-nomix":
        "015f92df1e7490b96ef9002c49f89ce068dffd229c41746c8789d1f1b54e71f8",
    "pairwise_half_bitonic-n8-k3-lam1-mix":
        "17a4002e539316c5afc8fdc5ffb21f8f4790c6b7ccfbded0a0618f6ba622359d",
    "pairwise_half_bitonic-n8-k3-lam5-mix":
        "4522a8ea3de97e6fb2275bb2e69c74bb92ba7181406ee2c3030c8c0324c636fa",
    "pairwise_half_bitonic-n8-k3-lam20-mix":
        "4522a8ea3de97e6fb2275bb2e69c74bb92ba7181406ee2c3030c8c0324c636fa",
    "pairwise_half_bitonic-n8-k3-nomix":
        "17a4002e539316c5afc8fdc5ffb21f8f4790c6b7ccfbded0a0618f6ba622359d",
    "pairwise_half_bitonic-n13-k4-lam1-mix":
        "4b757b8be75e7c3814f5b143141f307cd57fef3a82ba38e78ac8e61c5cf507aa",
    "pairwise_half_bitonic-n13-k4-lam5-mix":
        "4b757b8be75e7c3814f5b143141f307cd57fef3a82ba38e78ac8e61c5cf507aa",
    "pairwise_half_bitonic-n13-k4-lam20-mix":
        "4b757b8be75e7c3814f5b143141f307cd57fef3a82ba38e78ac8e61c5cf507aa",
    "pairwise_half_bitonic-n13-k4-nomix":
        "4b757b8be75e7c3814f5b143141f307cd57fef3a82ba38e78ac8e61c5cf507aa",
    "pairwise_half_bitonic-n16-k7-lam1-mix":
        "4d106d184676b575b2d73cf2c035fa229d4e34ab56d6d4d9963d28437e8a4985",
    "pairwise_half_bitonic-n16-k7-lam5-mix":
        "4d106d184676b575b2d73cf2c035fa229d4e34ab56d6d4d9963d28437e8a4985",
    "pairwise_half_bitonic-n16-k7-lam20-mix":
        "4d106d184676b575b2d73cf2c035fa229d4e34ab56d6d4d9963d28437e8a4985",
    "pairwise_half_bitonic-n16-k7-nomix":
        "4d106d184676b575b2d73cf2c035fa229d4e34ab56d6d4d9963d28437e8a4985",
    "pairwise_half_bitonic-n24-k5-lam1-mix":
        "619a6d2d70f48e17f27a370923fedb58d3284bd5fd744b5ca8e791080229b876",
    "pairwise_half_bitonic-n24-k5-lam5-mix":
        "619a6d2d70f48e17f27a370923fedb58d3284bd5fd744b5ca8e791080229b876",
    "pairwise_half_bitonic-n24-k5-lam20-mix":
        "619a6d2d70f48e17f27a370923fedb58d3284bd5fd744b5ca8e791080229b876",
    "pairwise_half_bitonic-n24-k5-nomix":
        "619a6d2d70f48e17f27a370923fedb58d3284bd5fd744b5ca8e791080229b876",
    "pairwise_half_bitonic-n37-k9-lam1-mix":
        "5a4d112f1f01e561d672ec2fcb1737689408238bcc6391d8b5556dda42131d80",
    "pairwise_half_bitonic-n37-k9-lam5-mix":
        "5a4d112f1f01e561d672ec2fcb1737689408238bcc6391d8b5556dda42131d80",
    "pairwise_half_bitonic-n37-k9-lam20-mix":
        "5a4d112f1f01e561d672ec2fcb1737689408238bcc6391d8b5556dda42131d80",
    "pairwise_half_bitonic-n37-k9-nomix":
        "5a4d112f1f01e561d672ec2fcb1737689408238bcc6391d8b5556dda42131d80",
    "pairwise_half_bitonic-n64-k12-lam1-mix":
        "ee08377fd3813724811d821f463e56f35f74fe5d758623d66c2ca6d83b2b5dab",
    "pairwise_half_bitonic-n64-k12-lam5-mix":
        "ee08377fd3813724811d821f463e56f35f74fe5d758623d66c2ca6d83b2b5dab",
    "pairwise_half_bitonic-n64-k12-lam20-mix":
        "ee08377fd3813724811d821f463e56f35f74fe5d758623d66c2ca6d83b2b5dab",
    "pairwise_half_bitonic-n64-k12-nomix":
        "ee08377fd3813724811d821f463e56f35f74fe5d758623d66c2ca6d83b2b5dab",
    "pairwise_half_bitonic-n100-k17-lam1-mix":
        "adff5813e71f70dbf46f26009ee58399e56ecc213e499cb12bda8838b3c6ed00",
    "pairwise_half_bitonic-n100-k17-lam5-mix":
        "adff5813e71f70dbf46f26009ee58399e56ecc213e499cb12bda8838b3c6ed00",
    "pairwise_half_bitonic-n100-k17-lam20-mix":
        "adff5813e71f70dbf46f26009ee58399e56ecc213e499cb12bda8838b3c6ed00",
    "pairwise_half_bitonic-n100-k17-nomix":
        "adff5813e71f70dbf46f26009ee58399e56ecc213e499cb12bda8838b3c6ed00",
    "fourwise-n5-k2-lam1-mix":
        "5eb181e2ddb1efa0dfb6d4e6e8fe0cb5d92193850e2798e2ac6007a479648a93",
    "fourwise-n5-k2-lam5-mix":
        "5eb181e2ddb1efa0dfb6d4e6e8fe0cb5d92193850e2798e2ac6007a479648a93",
    "fourwise-n5-k2-lam20-mix":
        "5eb181e2ddb1efa0dfb6d4e6e8fe0cb5d92193850e2798e2ac6007a479648a93",
    "fourwise-n5-k2-nomix":
        "16c522026ef42d0c84ff24a9eb9fdc5bc2c65b5a0a1772bed55662828088331e",
    "fourwise-n8-k3-lam1-mix":
        "66b12d7a00ed858cf0ea434b31673528a3f9863b20823d73f47823a719ca1ea3",
    "fourwise-n8-k3-lam5-mix":
        "66b12d7a00ed858cf0ea434b31673528a3f9863b20823d73f47823a719ca1ea3",
    "fourwise-n8-k3-lam20-mix":
        "4522a8ea3de97e6fb2275bb2e69c74bb92ba7181406ee2c3030c8c0324c636fa",
    "fourwise-n8-k3-nomix":
        "66b12d7a00ed858cf0ea434b31673528a3f9863b20823d73f47823a719ca1ea3",
    "fourwise-n13-k4-lam1-mix":
        "3199fda000042db3f30b9d0b51047fbf05a67610a227ea52a2b84662361d4f49",
    "fourwise-n13-k4-lam5-mix":
        "3199fda000042db3f30b9d0b51047fbf05a67610a227ea52a2b84662361d4f49",
    "fourwise-n13-k4-lam20-mix":
        "3199fda000042db3f30b9d0b51047fbf05a67610a227ea52a2b84662361d4f49",
    "fourwise-n13-k4-nomix":
        "29c51621e9a9a3bc0e3890192854288a199f79447c176f12a9e0d5a52e051f7a",
    "fourwise-n16-k7-lam1-mix":
        "e88db804cb09ab163506df2a67dd4202b95ad55ea09fdf4545810e3f495940f2",
    "fourwise-n16-k7-lam5-mix":
        "e88db804cb09ab163506df2a67dd4202b95ad55ea09fdf4545810e3f495940f2",
    "fourwise-n16-k7-lam20-mix":
        "e88db804cb09ab163506df2a67dd4202b95ad55ea09fdf4545810e3f495940f2",
    "fourwise-n16-k7-nomix":
        "8f9882469a08ea24d4f9080043a97a2cf5667822e7d1840d8599a94ea6a9aa0f",
    "fourwise-n24-k5-lam1-mix":
        "29a0a1351c524280026a8aa4db2026f558108fa904fdb5d5d5f2e3dd8c1cc679",
    "fourwise-n24-k5-lam5-mix":
        "0b6fd69264d6d8c973fdcf30597d181ec671eac3a495739f8974648ade76b88a",
    "fourwise-n24-k5-lam20-mix":
        "0b6fd69264d6d8c973fdcf30597d181ec671eac3a495739f8974648ade76b88a",
    "fourwise-n24-k5-nomix":
        "a24161645972b9423055ed9b5361975e6d6545e3924642bb8b3dc2e0e8fe940b",
    "fourwise-n37-k9-lam1-mix":
        "c835271ba0469f0beabb8edb57c89d5d63089eebecfcbcfd60a4dfa2be606866",
    "fourwise-n37-k9-lam5-mix":
        "4d23b95a462c438a054a9008c190e995d856bd5e0b712d87653ec4b23ae582df",
    "fourwise-n37-k9-lam20-mix":
        "3230c1f0186f9c0fc8046f1a84738c7e0497826fa06241e8942155475b7b3613",
    "fourwise-n37-k9-nomix":
        "dee39ad966d2cb29ba56f793e93b3a087a746c38cc85b06f607b6cb8061ff7f2",
    "fourwise-n64-k12-lam1-mix":
        "c1d5ba4f2ed0d006119f195aa8dc1c9254d91720f616a3f56c06f7ba665d6ec4",
    "fourwise-n64-k12-lam5-mix":
        "c1d5ba4f2ed0d006119f195aa8dc1c9254d91720f616a3f56c06f7ba665d6ec4",
    "fourwise-n64-k12-lam20-mix":
        "c1d5ba4f2ed0d006119f195aa8dc1c9254d91720f616a3f56c06f7ba665d6ec4",
    "fourwise-n64-k12-nomix":
        "744e603be1d7c711fe257168fccb833d2746d45cd502365df1ced0a9688b7fa4",
    "fourwise-n100-k17-lam1-mix":
        "e4324d2fc7c0041183ad6975e7703233baa64f82951b04e598dbc66c42f5b6c1",
    "fourwise-n100-k17-lam5-mix":
        "eb1108912dd4eb99253c8d808d7c1ae2dab299bc5974bc209ea6c27893bd86b8",
    "fourwise-n100-k17-lam20-mix":
        "eb1108912dd4eb99253c8d808d7c1ae2dab299bc5974bc209ea6c27893bd86b8",
    "fourwise-n100-k17-nomix":
        "fd1f19485bd15696e26eacd31844067c0120aea2292a084da45aa8e769d5364d",
    "bitonic_sel-n5-k2-lam1-mix":
        "5eb181e2ddb1efa0dfb6d4e6e8fe0cb5d92193850e2798e2ac6007a479648a93",
    "bitonic_sel-n5-k2-lam5-mix":
        "5eb181e2ddb1efa0dfb6d4e6e8fe0cb5d92193850e2798e2ac6007a479648a93",
    "bitonic_sel-n5-k2-lam20-mix":
        "5eb181e2ddb1efa0dfb6d4e6e8fe0cb5d92193850e2798e2ac6007a479648a93",
    "bitonic_sel-n5-k2-nomix":
        "ab5a69bc6a9081bef0c3d9bcd6613cef1fed953bdf7d0aa1b4c9b24c46202db5",
    "bitonic_sel-n8-k3-lam1-mix":
        "b88c03a5facacf7577e361660316e1fa2da42c2dad8138dd96bd193599903a85",
    "bitonic_sel-n8-k3-lam5-mix":
        "4522a8ea3de97e6fb2275bb2e69c74bb92ba7181406ee2c3030c8c0324c636fa",
    "bitonic_sel-n8-k3-lam20-mix":
        "4522a8ea3de97e6fb2275bb2e69c74bb92ba7181406ee2c3030c8c0324c636fa",
    "bitonic_sel-n8-k3-nomix":
        "b88c03a5facacf7577e361660316e1fa2da42c2dad8138dd96bd193599903a85",
    "bitonic_sel-n13-k4-lam1-mix":
        "12ba79503ceb73c9a29345045c5f793ebacc6bf5f11c742ea7e6d9ace2120ea9",
    "bitonic_sel-n13-k4-lam5-mix":
        "12ba79503ceb73c9a29345045c5f793ebacc6bf5f11c742ea7e6d9ace2120ea9",
    "bitonic_sel-n13-k4-lam20-mix":
        "12ba79503ceb73c9a29345045c5f793ebacc6bf5f11c742ea7e6d9ace2120ea9",
    "bitonic_sel-n13-k4-nomix":
        "12ba79503ceb73c9a29345045c5f793ebacc6bf5f11c742ea7e6d9ace2120ea9",
    "bitonic_sel-n16-k7-lam1-mix":
        "dd0d17d2ff1fefa25dae0c6701540bf0725fcf40cafe28def75d8238b1fffee9",
    "bitonic_sel-n16-k7-lam5-mix":
        "dd0d17d2ff1fefa25dae0c6701540bf0725fcf40cafe28def75d8238b1fffee9",
    "bitonic_sel-n16-k7-lam20-mix":
        "dd0d17d2ff1fefa25dae0c6701540bf0725fcf40cafe28def75d8238b1fffee9",
    "bitonic_sel-n16-k7-nomix":
        "dd0d17d2ff1fefa25dae0c6701540bf0725fcf40cafe28def75d8238b1fffee9",
    "bitonic_sel-n24-k5-lam1-mix":
        "56ccc47c49c4862a4ddbdee4b094d316bb0924ef5e1aa36810c9506785441aea",
    "bitonic_sel-n24-k5-lam5-mix":
        "56ccc47c49c4862a4ddbdee4b094d316bb0924ef5e1aa36810c9506785441aea",
    "bitonic_sel-n24-k5-lam20-mix":
        "56ccc47c49c4862a4ddbdee4b094d316bb0924ef5e1aa36810c9506785441aea",
    "bitonic_sel-n24-k5-nomix":
        "56ccc47c49c4862a4ddbdee4b094d316bb0924ef5e1aa36810c9506785441aea",
    "bitonic_sel-n37-k9-lam1-mix":
        "24d3d3111a96038573fe4d4402cc8ad3d59d807d31bd11365d571a28ce6cdd37",
    "bitonic_sel-n37-k9-lam5-mix":
        "24d3d3111a96038573fe4d4402cc8ad3d59d807d31bd11365d571a28ce6cdd37",
    "bitonic_sel-n37-k9-lam20-mix":
        "24d3d3111a96038573fe4d4402cc8ad3d59d807d31bd11365d571a28ce6cdd37",
    "bitonic_sel-n37-k9-nomix":
        "24d3d3111a96038573fe4d4402cc8ad3d59d807d31bd11365d571a28ce6cdd37",
    "bitonic_sel-n64-k12-lam1-mix":
        "ac47f917b5580af4b1d47cf3e382c315d8e538c0714d9795134539e731b89ae1",
    "bitonic_sel-n64-k12-lam5-mix":
        "ac47f917b5580af4b1d47cf3e382c315d8e538c0714d9795134539e731b89ae1",
    "bitonic_sel-n64-k12-lam20-mix":
        "ac47f917b5580af4b1d47cf3e382c315d8e538c0714d9795134539e731b89ae1",
    "bitonic_sel-n64-k12-nomix":
        "ac47f917b5580af4b1d47cf3e382c315d8e538c0714d9795134539e731b89ae1",
    "bitonic_sel-n100-k17-lam1-mix":
        "ad384042ee51d87a2a36c7e99153f18d31f1bb83fc3ae2b6479cf3f8da41ec81",
    "bitonic_sel-n100-k17-lam5-mix":
        "ad384042ee51d87a2a36c7e99153f18d31f1bb83fc3ae2b6479cf3f8da41ec81",
    "bitonic_sel-n100-k17-lam20-mix":
        "ad384042ee51d87a2a36c7e99153f18d31f1bb83fc3ae2b6479cf3f8da41ec81",
    "bitonic_sel-n100-k17-nomix":
        "ad384042ee51d87a2a36c7e99153f18d31f1bb83fc3ae2b6479cf3f8da41ec81",
    "oe4-n256-k33-lam5-mix":
        "5662f968fae93a423b0bb32d117f81bb0da01a79df598bc72d89cd20e5224058",
    "oe4-n300-k17-lam5-mix":
        "3deed255f85084f4b3597389b213fdec23a13b23dbf874e5434d2d2a1ca4c74d",
    "queens8-oe4":
        "fe58b43d6179580810d54c5601cb5a9f21f5ac54e6a7d6a3a5370ebd24b376a8",
    "oe2-n256-k33-lam5-mix":
        "25d74626ff86f67e4453beb0dc06f10ae0370a4b5b494f4cdd22dc2fc6c15703",
    "oe2-n300-k17-lam5-mix":
        "6f61045bbbdffaf93a17dfd5c62c3a7cb311575640935e9a6d17c359f6c69e62",
    "queens8-oe2":
        "1b442c41818f597c182d11b54fd5ba5501c0cdf58d73db8386e374d5be716303",
    "fourwise-n256-k33-lam5-mix":
        "85f943920c150d2c70c12f9b827dad6dd35212b86b9d9a228b0eb451b266e7a0",
    "fourwise-n300-k17-lam5-mix":
        "85902d5900fb29660567a3131c639845aa04b437b358cdfa4d49044ec812d576",
    "queens8-fourwise":
        "4692283ec34517b17d62b5b7d58cc146335adfb77b60910af021d9a57c1905c3",
    "opb-a-oe4":
        "6e3332bfaace03d36f48484e50aaf1d7ee274adc5c9eac76eaed2fd42af1a297",
    "opb-a-oe2":
        "6e3332bfaace03d36f48484e50aaf1d7ee274adc5c9eac76eaed2fd42af1a297",
    "opb-a-fourwise":
        "6e3332bfaace03d36f48484e50aaf1d7ee274adc5c9eac76eaed2fd42af1a297",
    "opb-a-pairwise_half_bitonic":
        "6e3332bfaace03d36f48484e50aaf1d7ee274adc5c9eac76eaed2fd42af1a297",
    "opb-b-oe4":
        "556ec90e9dbd6407b72d7333cfc32ad71adddf2bd12d25500f786ec1a7806307",
    "opb-b-oe2":
        "58a8e80cd292901fad825ddd952c4f1b11fe991bf309b65ed9329793ad0242b6",
    "opb-b-fourwise":
        "8021152d0429682eaf8ea2ea8d02c840c27ce54f42d14cfb010d2d324edf712f",
    "opb-b-pairwise_half_bitonic":
        "8021152d0429682eaf8ea2ea8d02c840c27ce54f42d14cfb010d2d324edf712f",
    # flagged goal bounds
    "goal-w-oe4":
        "c490be7a9066e41aa74cd697fa07ead2dccd4cfa9bad21ed8da9b2dc4a36c0bf",
    "goal-w-oe2":
        "2dd40bea51908ad519a04e17fb053e6dc577d8f46bc389af3fcaabfb62e83097",
    "goal-w-pairwise_classic":
        "1debded0d5f590bb10f2a99df2959280c0e3aab2ff64d4bcfe17cb30a391743c",
    "goal-w-pairwise_bitonic":
        "1debded0d5f590bb10f2a99df2959280c0e3aab2ff64d4bcfe17cb30a391743c",
    "goal-w-pairwise_half_bitonic":
        "1debded0d5f590bb10f2a99df2959280c0e3aab2ff64d4bcfe17cb30a391743c",
    "goal-w-fourwise":
        "1debded0d5f590bb10f2a99df2959280c0e3aab2ff64d4bcfe17cb30a391743c",
    "goal-w-bitonic_sel":
        "1debded0d5f590bb10f2a99df2959280c0e3aab2ff64d4bcfe17cb30a391743c",
    "goal-u-oe4":
        "e9d4b54bef91339bff967d648f05f4339a458f9489812ba655b4194f82aeff5b",
    "goal-u-oe2":
        "1223eed7faaf127d2d44dee6015dc0d89b20757c4b429df18077dbf58f7ab795",
    "goal-u-pairwise_classic":
        "4e6ccdfa3809b6e4e79374c47131a36d47117d1f53888c97ed89afc5c4176fd1",
    "goal-u-pairwise_bitonic":
        "72980fa3567bf2ac2e3c8673456fda237028c7eff95ca58fb64e8fa95e904ad2",
    "goal-u-pairwise_half_bitonic":
        "8da508600af26fb5c89156568a1443bc12ceb4173cc39143592343fe22e7f7cf",
    "goal-u-fourwise":
        "ac2f5b5bccac5c6cfdb1992b8cf93e2c58ab045747fd3e2df09894ccfec61d68",
    "goal-u-bitonic_sel":
        "0c1b50ac5584ecbec60b30ba2267916c4fbee04c9900d5475860e718bf94bd48",
    "goal-u-sequential":
        "93403b0577f2689296cdb38903ffdc096298c74fc7d7889ea76aad5ba5293bfd",
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
        "a4e6c83286983db6f8ef0d5879b18ceba5209caeef7a2f283668b585180ded3c",
    "goal-wide-oe2":
        "8580d013db57ed4f00675ac168129c8a9877c242b5c04b017d29e1d2d6bc6501",
    "goal-wide-pairwise_classic":
        "d95238914b212320aa0e4c6acd18d2bbf837b27f41a108ed3310030081f55354",
    "goal-wide-pairwise_bitonic":
        "d95238914b212320aa0e4c6acd18d2bbf837b27f41a108ed3310030081f55354",
    "goal-wide-pairwise_half_bitonic":
        "d95238914b212320aa0e4c6acd18d2bbf837b27f41a108ed3310030081f55354",
    "goal-wide-fourwise":
        "7b9ac7cc9fe9753d9f0a57c156afa47d522ae153e04f0c97cca2a335ec9b36f6",
    "goal-wide-bitonic_sel":
        "d95238914b212320aa0e4c6acd18d2bbf837b27f41a108ed3310030081f55354",
}


def test_golden_grid_is_complete():
    assert sorted(GOLDEN) == sorted(case_id for case_id, _ in cases())


@pytest.mark.parametrize("method", NETWORK_METHODS + ("queens8", "opb", "goal"))
def test_golden_dimacs(method):
    checked = 0
    for case_id, thunk in cases():
        if case_id.startswith(method + "-") or (method == "opb" and case_id.startswith("opb-")):
            assert thunk() == GOLDEN[case_id], case_id
            checked += 1
    assert checked
