"""cardnet: cardinality and pseudo-Boolean constraints compiled to CNF via
generalized selection networks, with propagation-quality verification tools
and an optimization driver for external SAT solvers."""

from importlib import import_module

# The names below are loaded from their modules on first access (PEP 562),
# so importing one submodule, as each `cardnet` command does, does not
# import the rest.
_EXPORTS = {
    "cnf": ("FALSE", "TRUE", "CnfFormula", "Lit", "neg"),
    "encode": ("CardConstraint", "EncodeOptions", "EncodedConstraint", "choose_direct",
               "encode_atmost", "encode_baseline", "encode_card", "normalize_card",
               "strengthen", "cnf_cost"),
    "network": ("Network",),
    "pb": ("MixedRadixBase", "PbConstraint", "PbProblem", "encode_pb", "find_base",
           "normalize_pb", "parse_opb", "simplify_rhs", "to_digits", "value_of"),
    "sat": ("Assignment", "Propagator", "UpResult", "check_arc_consistency",
            "check_forward_prop", "dpll_sat", "unit_propagate"),
    "solve": ("MinimizeConfig", "MinimizeResult", "SolverResult", "minimize",
              "solve_decision"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = list(_MODULE_OF)

__version__ = "0.1.0"


def __getattr__(name: str):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value
