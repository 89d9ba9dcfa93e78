"""Subgame-perfect investment, consumption and life-insurance policies.

Solves the equilibrium value coefficient of a CRRA investor with general
(e.g. hyperbolic) discounting by an explicit backward scheme, evaluates
the resulting feedback policies, and verifies the value-function fixed
point by seeded Monte Carlo simulation.

The namespace is lazy (PEP 562): ``import tcpolicy`` loads no submodule,
and a public name imports its submodule on first access.  So each
command, and each library caller, imports only the modules it runs.
"""

import importlib

# submodule -> the public names the package re-exports from it
_EXPORTS = {
    "closed_form": ("StationarySolution", "a_exponential", "a_log", "b_function", "solve_b", "solve_stationary"),
    "ie_solver": (
        "BoundsReport", "ConvergenceReport", "SolutionGrid", "a_priori_bounds", "convergence_report", "solve_a",
    ),
    "model": (
        "AffineExponential", "AffineHazard", "ConstantHazard", "ConstantPayout", "ConstantWeight", "EULER",
        "EXACT_Y", "Exponential", "Hyperbolic", "InsuranceIncomeSpec", "InverseHazardPayout", "LogTaperWeight",
        "MarketParams", "ModelSpec", "PreferenceParams", "SimConfig", "SumOfExponentials", "ValidationError",
        "check_assumption_a1", "constant_K", "kernel_Q", "kernel_q", "survival", "weight_M",
    ),
    "policy": ("PolicyTriple", "consumption_rate", "find_satiation", "legacy", "policy_at", "value_function"),
    "simulate": (
        "EstimateReport", "FixedPointReport", "WealthEnsemble", "estimate_J_kernel", "estimate_J_mortality",
        "simulate_wealth", "verify_fixed_point",
    ),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}
_SUBMODULES = frozenset(_EXPORTS) | {"cli"}

__all__ = sorted(_MODULE_OF)
__version__ = "0.1.0"


def __getattr__(name):
    if name in _SUBMODULES:  # the import binds it in globals()
        return importlib.import_module(f".{name}", __name__)
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(importlib.import_module(f".{_MODULE_OF[name]}", __name__), name)
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
