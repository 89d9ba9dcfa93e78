"""Subgame-perfect investment, consumption and life-insurance policies.

Solves the equilibrium value coefficient of a CRRA investor with general
(e.g. hyperbolic) discounting by an explicit backward scheme, evaluates
the resulting feedback policies, and verifies the value-function fixed
point by seeded Monte Carlo simulation.
"""

from .closed_form import (
    StationarySolution,
    a_exponential,
    a_log,
    b_function,
    solve_b,
    solve_stationary,
)
from .ie_solver import (
    BoundsReport,
    ConvergenceReport,
    SolutionGrid,
    a_priori_bounds,
    convergence_report,
    solve_a,
)
from .model import (
    AffineExponential,
    AffineHazard,
    ConstantHazard,
    ConstantPayout,
    ConstantWeight,
    Exponential,
    Hyperbolic,
    InsuranceIncomeSpec,
    InverseHazardPayout,
    LogTaperWeight,
    MarketParams,
    ModelSpec,
    PreferenceParams,
    SumOfExponentials,
    ValidationError,
    check_assumption_a1,
    constant_K,
    kernel_Q,
    kernel_q,
    survival,
    weight_M,
)
from .policy import PolicyTriple, consumption_rate, find_satiation, legacy, policy_at, value_function
from .simulate import (
    EULER,
    EXACT_Y,
    EstimateReport,
    FixedPointReport,
    SimConfig,
    WealthEnsemble,
    estimate_J_kernel,
    estimate_J_mortality,
    simulate_wealth,
    verify_fixed_point,
)

__version__ = "0.1.0"
