"""Higher-order Taylor approximation of re-weighted M-estimator solutions.

Solve once, factorize once, differentiate once, then approximate the re-fit
for any weighting of the data (leave-out CV, k-fold, bootstrap) by an
arbitrary-order expansion in the weights, with exact re-fit oracles and
computable error bounds.
"""

from .bounds import (
    BoundConstants,
    ConditionCheck,
    DomainSampler,
    bounds_report,
    check_condition,
    default_sampler,
    derivative_norm_bounds,
    estimate_constants,
    hessian_inverse_norm_check,
    taylor_error_bound,
    theta_difference_bound,
)
from .expansion import (
    HessianFactor,
    SingularHessianError,
    SolveConfig,
    SolverError,
    TaylorExpansion,
    evaluate_dtheta,
    evaluate_g_block,
    evaluate_theta_ij,
    exact_refit,
    factorize_hessian,
    refit_block,
    solve_base,
)
from .forward_ad import (
    K_MAX,
    NonFiniteValueError,
    TaylorScalar,
    g_theta_derivative,
    g_theta_tensor,
    g_weight_derivative,
)
from .models import (
    Dataset,
    DatasetError,
    EstimatingProblem,
    WeightVector,
    bootstrap_weight_blocks,
    bootstrap_weights,
    evaluate_g,
    kfold_weights,
    leave_kappa_out_weights,
    load_dataset,
    loo_weights,
    make_problem,
)
from .resampling import (
    CvReport,
    GeneratorConfig,
    ScalingReport,
    bootstrap_linear_samples,
    bootstrap_samples,
    ij_linear_covariance,
    linear_covariance,
    run_cv,
    sandwich_covariance,
    scaling_study,
)
from .terms import (
    DerivativeTerm,
    TermTable,
    build_term_tables,
    differentiate_term,
    term_tables,
    verify_table_invariants,
)

__version__ = "0.1.0"
