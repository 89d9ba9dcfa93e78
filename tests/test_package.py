"""The package namespace: its pinned public names, resolved lazily."""

import importlib
import sys

import pytest

import tcpolicy

# submodule -> the public names ``tcpolicy`` re-exports from it
PUBLIC = {
    "closed_form": ["StationarySolution", "a_exponential", "a_log", "b_function", "solve_b", "solve_stationary"],
    "ie_solver": ["BoundsReport", "ConvergenceReport", "SolutionGrid", "a_priori_bounds", "convergence_report", "solve_a"],
    "model": [
        "AffineExponential", "AffineHazard", "ConstantHazard", "ConstantPayout", "ConstantWeight", "EULER",
        "EXACT_Y", "Exponential", "Hyperbolic", "InsuranceIncomeSpec", "InverseHazardPayout", "LogTaperWeight",
        "MarketParams", "ModelSpec", "PreferenceParams", "SimConfig", "SumOfExponentials", "ValidationError",
        "check_assumption_a1", "constant_K", "kernel_Q", "kernel_q", "survival", "weight_M",
    ],
    "policy": ["PolicyTriple", "consumption_rate", "find_satiation", "legacy", "policy_at", "value_function"],
    "simulate": [
        "EstimateReport", "FixedPointReport", "WealthEnsemble", "estimate_J_kernel", "estimate_J_mortality",
        "simulate_wealth", "verify_fixed_point",
    ],
}
PUBLIC_NAMES = sorted(name for names in PUBLIC.values() for name in names)


def test_public_names_are_pinned():
    assert len(PUBLIC_NAMES) == 49
    assert sorted(tcpolicy.__all__) == PUBLIC_NAMES


@pytest.mark.parametrize("module, name", [(m, n) for m, names in PUBLIC.items() for n in names])
def test_public_name_is_its_submodule_object(module, name):
    assert getattr(tcpolicy, name) is getattr(importlib.import_module(f"tcpolicy.{module}"), name)
    assert name in dir(tcpolicy)


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no attribute 'no_such_name'"):
        tcpolicy.no_such_name
    with pytest.raises(ImportError):
        from tcpolicy import no_such_name  # noqa: F401


def test_star_import_binds_exactly_the_public_names():
    namespace = {}
    exec("from tcpolicy import *", namespace)
    assert sorted(name for name in namespace if name != "__builtins__") == PUBLIC_NAMES


def test_submodules_are_package_attributes():
    for module in [*PUBLIC, "cli"]:
        assert getattr(tcpolicy, module) is sys.modules[f"tcpolicy.{module}"]
    from tcpolicy import simulate

    assert simulate is tcpolicy.simulate


def test_sim_config_is_defined_once():
    assert tcpolicy.simulate.SimConfig is tcpolicy.model.SimConfig is tcpolicy.SimConfig
    assert (tcpolicy.simulate.EXACT_Y, tcpolicy.simulate.EULER) == (tcpolicy.model.EXACT_Y, tcpolicy.model.EULER)
