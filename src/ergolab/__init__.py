"""Two-engine laboratory: exact ergodic audits for upper expectations on finite
spaces, and a computational study of circle heat flow under volatility
uncertainty (monotone PDE scheme, wrapped-Gaussian kernels, DP control oracle,
Monte Carlo scenarios)."""

from .credal import (
    AuditReport,
    ContractError,
    EventSet,
    InputError,
    PriorSet,
    ProbVector,
    Rv,
    axiom_audit,
    capacity,
    has_no_mean_uncertainty,
    is_polar,
    lower_exp,
    mean_uncertainty_space_audit,
    upper_exp,
)
from .finite import (
    FiniteMap,
    FiniteSystem,
    fixed_space_audit,
    grand_orbits,
    invariant_sets,
    is_ergodic,
    is_expectation_preserving,
    maximal_ergodic_check,
    prior_catalog,
    pushforward,
    slln_audit,
    indecomposability_audit,
)
from .gheat import (
    CircleGrid,
    GHeatParams,
    GridFn,
    convergence_profile,
    g_operator,
    invariant_expectation,
    mean,
    second_diff,
    semigroup_check,
    solve,
    steady_state_audit,
    step_explicit,
)
from .scenario import (
    PathSample,
    VolPolicy,
    capacity_estimate,
    default_policy_suite,
    dp_upper_expectation,
    simulate_path,
    slln_experiment,
    strong_regularity_audit,
    time_average,
)
from .wrapped import (
    WrappedKernelSpec,
    linear_semigroup,
    regularity_bound,
    wrapped_gauss,
)

__version__ = "0.1.0"
