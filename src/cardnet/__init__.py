"""cardnet: cardinality and pseudo-Boolean constraints compiled to CNF via
generalized selection networks, with propagation-quality verification tools
and an optimization driver for external SAT solvers."""

from .cnf import FALSE, TRUE, CnfFormula, Lit, neg
from .encode import (CardConstraint, EncodeOptions, EncodedConstraint,
                     choose_direct, cnf_cost, encode_atmost, encode_baseline,
                     encode_card, normalize_card, strengthen)
from .network import Network
from .pb import (MixedRadixBase, PbConstraint, PbProblem, encode_pb, find_base,
                 normalize_pb, parse_opb, simplify_rhs, to_digits, value_of)
from .sat import (Assignment, Propagator, UpResult, check_arc_consistency,
                  check_forward_prop, dpll_sat, unit_propagate)
from .solve import MinimizeConfig, MinimizeResult, SolverResult, minimize, solve_decision

__all__ = [
    "FALSE", "TRUE", "CnfFormula", "Lit", "neg",
    "CardConstraint", "EncodeOptions", "EncodedConstraint", "choose_direct",
    "encode_atmost", "encode_baseline", "encode_card", "normalize_card", "strengthen",
    "Network", "cnf_cost",
    "MixedRadixBase", "PbConstraint", "PbProblem", "encode_pb", "find_base",
    "normalize_pb", "parse_opb", "simplify_rhs", "to_digits", "value_of",
    "Assignment", "Propagator", "UpResult", "check_arc_consistency",
    "check_forward_prop", "dpll_sat", "unit_propagate",
    "MinimizeConfig", "MinimizeResult", "SolverResult", "minimize", "solve_decision",
]

__version__ = "0.1.0"
