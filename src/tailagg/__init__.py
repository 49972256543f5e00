"""Tail-risk aggregation for asymptotically independent rapidly-varying risks.

Closed-form tail approximations for sums, linear combinations and power
transforms; finite-threshold diagnostics for the hypotheses behind them;
exact and Monte Carlo ground truth (plain and conditional); and a two-stage
minimax portfolio allocator with a simulation audit.
"""

from .asymptotics import (
    ApproxRecipe,
    ApproxResult,
    approx_linear,
    approx_powers,
    approx_sum_d,
    approx_sum_pair,
    probe_tail_ratio,
)
from .diagnostics import (
    AssumptionReport,
    Trend,
    check_asy_indep,
    check_conditional,
    check_joint_aux,
    check_mda_gumbel,
    check_subexp_criterion,
    check_tail_ratio,
    classify_trend,
    default_grid,
)
from .errors import (
    AuxiliaryNotDiverging,
    AuxiliaryUnavailable,
    HeavierLaterTail,
    InfeasibleConstraint,
    NearTieWarning,
    NonStabilizingRatio,
    TailAggError,
    UnsupportedConstraint,
    UnsupportedKind,
    ZeroTailRatio,
)
from .joint import (
    JointModel,
    bivariate_lognormal,
    bivariate_normal_orthant_log,
    comonotone_inverse,
    iid_pair,
    joint_from_config,
    joint_to_config,
    min_construction,
    mixed_min,
)
from .models import (
    AuxiliaryFn,
    TailModel,
    exponential,
    lognormal,
    log_weibull,
    log_weibull_min,
    model_from_config,
    model_to_config,
    self_neglect_profile,
    std_normal,
    weibull_type,
)
from .portfolio import (
    GridAudit,
    GridConstraint,
    LinearConstraint,
    PortfolioProblem,
    PortfolioSolution,
    grid_verify,
    single_asset_extremes,
    solve_two_stage,
)
from .rare_event import (
    EstimateResult,
    RatioVsAsymptotic,
    cond_mc_lognormal,
    cond_mc_lognormal_curve,
    cond_mc_terms,
    exact_comonotone_lognormal,
    exact_lognormal_pair,
    exact_lognormal_single,
    plain_mc,
    ratio_vs_asymptotic,
)

__version__ = "0.1.0"
