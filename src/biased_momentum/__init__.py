"""Parallel momentum methods under biased gradient estimation.

A numpy simulation library for server-worker momentum SGD with biased
gradient estimators (top-k sparsification, scaled sign, clipping,
composite/meta-learning subsampling), the closed-form constants of its
convergence analysis, and audits that check the resulting inequalities
against measured trajectories.
"""

from .audit import (
    AuditOutcome,
    audit_affine_variance,
    audit_descent,
    audit_figure2_qualitative,
    audit_gradients,
    audit_theorem_ncvx,
    audit_theorem_pl,
    finite_difference_gradient,
    verify_config,
)
from .composite import (
    CompositeProblem,
    chained_gradient,
    inner_value,
    make_maml,
    make_toy_composite,
    measure_composite_sigmas,
)
from .engine import (
    IterationRecord,
    MomentumState,
    RunConfig,
    RunResult,
    TrialStats,
    init_state,
    run,
    run_trials,
    step,
    write_run_csv,
)
from .errors import ConfigurationError, DataError
from .estimators import (
    EstimatorSpec,
    aggregate,
    apply_estimator,
    clip,
    composite_estimate,
    measure_eta,
    scaled_sign,
    scaled_sign_alpha,
    top_k,
    worker_estimate,
)
from .problems import (
    NoiseSpec,
    Problem,
    QuadraticProblem,
    full_gradient,
    make_logistic_l2,
    make_nonconvex_reg,
    make_quadratic,
    make_synthetic_classification,
    problem_from_dict,
)
from .theory import (
    TheoryReport,
    affine_constants_clip,
    affine_constants_composite,
    affine_constants_compression,
    build_theory_report,
    lemma1_constants,
    lemma_stepsize_bound,
    lyapunov_weight,
    measure_heterogeneity,
    measure_suboptimality,
    momentum_alpha,
    stepsize_bounds,
    theorem_bounds,
    theta0_value,
)

__version__ = "0.1.0"
