"""Runtime verification of the convergence theory against measured runs.

Each check is a pure function of recorded trajectory data plus a
TheoryReport, returning an AuditOutcome with the worst observed margin
(negative margin = violation): the first NaN, which fails the check, or
else the first minimum.  The trajectory checks (``record_audits``) read
the columns of a run's (trial, k) table (``engine.TrialStats``), whether
it comes from the engine or from a run CSV; the premise constants are
measured along the iterates of its row 0, which only the engine's
TrialStats holds, so a run read back from its CSV replays trial 0
(``pilot_report``).
Inadmissible configurations are reported as skipped, never as passed:

* descent check      -- the per-step Lyapunov inequality, on realized
  (pathwise) quantities,
* min-gradient check -- theta0/K + floor against the min-over-k trial mean,
* linear-rate check  -- the geometric envelope on E[phi^k] for PL problems,
* error-model check  -- measured E||eta||^2 against B ||grad f||^2 + C at
  sampled iterates,
* gradient check     -- analytic vs central finite differences,
* sweep orderings    -- qualitative monotonicity of plateaus / time-to-loss.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, replace
from typing import Mapping, Sequence

import numpy as np

from .composite import CompositeProblem
from .engine import RunConfig, TrialStats, per_k_stats, run_trials
from .errors import ConfigurationError
from .estimators import EstimatorSpec, measure_eta
from .problems import NoiseSpec, Problem, as_point_stack, as_points, full_gradient
from .rng import STREAM_MEASURE, row_dot, substream
from .theory import TheoryReport, build_theory_report, measured_premise, theorem_bounds

__all__ = [
    "AuditOutcome",
    "audit_descent",
    "audit_theorem_ncvx",
    "audit_theorem_pl",
    "audit_affine_variance",
    "audit_gradients",
    "audit_figure2_qualitative",
    "finite_difference_gradient",
    "pilot_points",
    "pilot_report",
    "record_audits",
    "verify_config",
]

# standard errors of a measured mean that the statistical checks add to
# their bound (min-gradient, linear-rate and error-model checks)
STDERR_MULT = 3.0


@dataclass(frozen=True)
class AuditOutcome:
    check_name: str
    status: str  # "passed" | "failed" | "skipped"
    worst_margin: float | None = None
    location: str | None = None
    tolerance: float | None = None
    note: str | None = None

    @property
    def passed(self) -> bool:
        return self.status == "passed"

    @property
    def failed(self) -> bool:
        return self.status == "failed"

    def to_dict(self) -> dict:
        return asdict(self)


def _worst(name, margins, where, tolerance, note) -> AuditOutcome:
    """Outcome of a check from its margins, in check order: the worst is the
    first NaN, which fails, or else the first minimum, at ``where(index)``."""
    i = int(np.argmin(margins))  # np.argmin picks the first NaN if there is one
    status = "passed" if margins[i] >= -tolerance else "failed"
    return AuditOutcome(name, status, float(margins[i]), where(i), tolerance, note)


def _skip(name, note) -> AuditOutcome:
    return AuditOutcome(name, "skipped", note=note)


# ---------------------------------------------------------------------------
# descent inequality, checked pathwise on consecutive recorded iterations


def audit_descent(
    stats: TrialStats,
    report: TheoryReport,
    rel_tol: float = 1e-9,
) -> AuditOutcome:
    """Per-step check of

    phi_{k+1} <= (f_k - f*) - (gamma/2)||grad f_k||^2 + B1 ||grad f_k - v_{k-1}||^2
                 - B2 ||x_{k+1} - x_k||^2 + B3 ||eta_k||^2

    with phi recomputed from the recorded fields using the report's A, on
    every pair (k, k+1) inside a trial's recorded length, in (trial, k)
    order: a NaN margin fails the check, and the worst is otherwise the
    first minimum.  Skipped when f* is unknown or the configuration is
    outside the regime where the inequality is established (B2 < 0 or
    gamma above its ceiling).
    """
    name = "descent_inequality"
    if report.f_star is None:
        return _skip(name, "f* unknown; Lyapunov gap undefined")
    if report.B2 < 0:
        return _skip(name, f"B2 = {report.B2:.6g} < 0; outside the descent regime")
    if not report.gamma_ok:
        return _skip(name, "gamma above the admissible ceiling")
    gamma, A = report.gamma, report.A_used
    B1, B2, B3 = report.B1, report.B2, report.B3
    a = {name: column[:, :-1] for name, column in stats.table.items()}
    b = {name: column[:, 1:] for name, column in stats.table.items()}
    with np.errstate(over="ignore", invalid="ignore"):
        lhs = (b["f"] - report.f_star) + A * b["v_error_sq"]
        rhs = (
            (a["f"] - report.f_star)
            - 0.5 * gamma * a["grad_norm_sq"]
            + B1 * a["v_error_sq"]
            - B2 * a["step_norm_sq"]
            + B3 * a["eta_norm_sq"]
        )
        margin = (rhs - lhs) / np.maximum(np.maximum(1.0, np.abs(lhs)), np.abs(rhs))
    pairs = np.arange(stats.k_max - 1) < np.array(stats.lengths)[:, None] - 1
    trial, k = np.nonzero(pairs)
    if not trial.size:
        return _skip(name, "no consecutive record pairs to check")
    return _worst(name, margin[pairs], lambda i: f"trial {trial[i]}, k={k[i]}", rel_tol,
                  f"{trial.size} steps checked")


# ---------------------------------------------------------------------------
# min-gradient bound (general smooth case)


def audit_theorem_ncvx(
    stats: TrialStats,
    report: TheoryReport,
    min_prefix: int = 10,
) -> AuditOutcome:
    """min over k < K of the trial-mean ||grad f||^2 against theta0/K + floor,
    for every prefix K from min_prefix up to the recorded horizon."""
    name = "min_gradient_bound"
    if report.theta0 is None or report.floor_ncvx is None:
        return _skip(name, "theta0 or floor unknown (f* or C unavailable)")
    if not report.cond_B_ncvx_ok:
        return _skip(name, "(1 - beta^2/2) B > 1/4")
    if not report.gamma_ok_ncvx:
        return _skip(name, "gamma above the general-smooth ceiling")
    k_max = stats.k_max
    if k_max < min_prefix:
        return _skip(name, f"need at least {min_prefix} iterations")
    ncvx_rhs, _ = theorem_bounds(report)
    mean = stats.mean["grad_norm_sq"]
    run_min = np.minimum.accumulate(mean)
    # first k of each running minimum: a later tie does not move it, and the
    # first NaN is one (the running minimum keeps it; ~(nan >= m) is True)
    new_min = np.r_[True, ~(mean[1:] >= run_min[:-1]) & ~np.isnan(run_min[:-1])]
    argmin = np.maximum.accumulate(np.where(new_min, np.arange(k_max), 0))
    K = np.arange(min_prefix, k_max + 1)
    j = argmin[K - 1]
    bound = ncvx_rhs(K) + STDERR_MULT * stats.stderr["grad_norm_sq"][j]
    margin = (bound - run_min[K - 1]) / np.maximum(1.0, bound)
    return _worst(name, margin, lambda i: f"prefix K={K[i]} (min at k={j[i]})", 0.0,
                  f"prefixes {min_prefix}..{k_max}")


# ---------------------------------------------------------------------------
# linear rate under the PL condition


def audit_theorem_pl(
    stats: TrialStats,
    report: TheoryReport,
    rel_tol: float = 1e-10,
) -> AuditOutcome:
    """Trial-mean phi^k (recomputed with the PL weight) against
    (1 - mu gamma / 2)^k phi^0 + floor at every k."""
    name = "pl_linear_rate"
    if report.mu <= 0 or report.f_star is None:
        return _skip(name, "no PL certificate or f* unknown")
    if report.phi0_pl is None or report.floor_pl is None:
        return _skip(name, "phi0 or floor unavailable")
    if not report.cond_B_pl_ok:
        return _skip(name, "(2 - beta/2 - beta^2) B > 1/4")
    if not report.gamma_ok_pl:
        return _skip(name, "gamma above the PL ceiling")
    if stats.k_max == 0:
        return _skip(name, "empty trajectory")
    # phi from raw fields, independent of the engine's recorded phi column
    phi = (stats.table["f"] - report.f_star) + report.A_pl * stats.table["v_error_sq"]
    mean_phi, se = per_k_stats(phi, stats.lengths)
    _, pl_rhs = theorem_bounds(report)
    # pl_rhs per k keeps Python's float power: np.power differs from it in the last bit
    bound = np.array([pl_rhs(k) for k in range(stats.k_max)]) + STDERR_MULT * se
    margin = (bound - mean_phi) / np.maximum(np.maximum(bound, np.abs(mean_phi)), 1e-300)
    return _worst(name, margin, lambda k: f"k={k}", rel_tol, f"k=0..{stats.k_max - 1}")


# ---------------------------------------------------------------------------
# error-model (affine variance) bound at sampled iterates


def audit_affine_variance(
    problem: Problem,
    points: Sequence[np.ndarray],
    spec: EstimatorSpec,
    noise: NoiseSpec | None,
    report: TheoryReport,
    draws: int = 1000,
    seed: int = 0,
) -> AuditOutcome:
    """measured mean ||eta||^2 + 3 stderr <= B ||grad f||^2 + C at each point."""
    name = "affine_variance_bound"
    if report.C_var is None:
        return _skip(name, "C unavailable for this configuration")
    if len(points) == 0:
        return _skip(name, "no sample points")
    margins = []
    for j, x in enumerate(points):
        rng = substream(seed, STREAM_MEASURE, 100 + j)
        mean, se, grad_sq = measure_eta(problem, x, spec, noise, samples=draws, rng=rng)
        bound = report.B_var * grad_sq + report.C_var
        margins.append((bound - (mean + STDERR_MULT * se)) / max(1.0, bound))
    return _worst(name, margins, lambda j: f"point {j}", 0.0,
                  f"{len(points)} points x {draws} draws")


# ---------------------------------------------------------------------------
# gradient oracle (central finite differences)


def finite_difference_gradient(problem: Problem, x: np.ndarray) -> np.ndarray:
    """Central differences with step 1e-6 * max(1, ||x||) per coordinate, at
    one point or at each point of a (..., d) stack (one pair of f calls)."""
    x = as_points(x, problem.dimension)
    h = 1e-6 * np.maximum(1.0, np.sqrt(row_dot(x, x)))[..., None]
    steps = h[..., None] * np.eye(problem.dimension)
    x = x[..., None, :]
    return (problem.f(x + steps) - problem.f(x - steps)) / (2.0 * h)


def audit_gradients(
    problem: Problem,
    n_points: int = 100,
    seed: int = 0,
    rel_tol: float | None = None,
) -> AuditOutcome:
    """Analytic full gradient vs finite differences at seeded random points
    (point j from its own stream), both evaluated on the stack of points."""
    name = "gradient_oracle"
    if rel_tol is None:
        rel_tol = 1e-4 if isinstance(problem, CompositeProblem) else 1e-5
    d = problem.dimension
    x = as_point_stack([substream(seed, STREAM_MEASURE, 200 + j).standard_normal(d)
                        for j in range(n_points)], d)
    gn = finite_difference_gradient(problem, x)
    err = full_gradient(problem, x) - gn
    rel = np.sqrt(row_dot(err, err)) / np.maximum(1.0, np.sqrt(row_dot(gn, gn)))
    return _worst(name, rel_tol - rel, lambda j: f"point {j}", 0.0,
                  f"{n_points} points, tol {rel_tol}")


# ---------------------------------------------------------------------------
# qualitative sweep orderings (bias / noise / compression level)


def audit_figure2_qualitative(rows: Sequence[Mapping], axis_kind: str) -> AuditOutcome:
    """Ordering checks over a sweep summary.

    rows: mappings with axis_value, plateau_mean, iters_to_threshold,
    diverged_count, sorted here by axis_value.  axis_kind selects the check:
    "delta" / "sigma2" expect the final plateau to be nondecreasing in the
    axis; "top_k" expects iterations-to-threshold nonincreasing in k.
    Diverged points are excluded and reported.
    """
    name = f"sweep_ordering_{axis_kind}"
    if axis_kind not in ("delta", "sigma2", "top_k"):
        raise ConfigurationError(f"unknown axis kind {axis_kind!r}")
    usable = sorted(
        (r for r in rows if not r.get("diverged_count", 0)),
        key=lambda r: r["axis_value"],
    )
    dropped = len(rows) - len(usable)
    if len(usable) < 2:
        return _skip(name, f"fewer than 2 usable points ({dropped} diverged)")
    if axis_kind in ("delta", "sigma2"):
        vals = [r["final_plateau_mean"] for r in usable]
        diffs = np.diff(vals)  # expect >= 0
    else:
        vals = [r["iters_to_threshold"] for r in usable]
        if any(v is None or v < 0 for v in vals):
            return _skip(name, "threshold never reached at some sweep point")
        diffs = -np.diff(vals)  # expect iters nonincreasing
    j = int(np.argmin(diffs))
    note = f"{len(usable)} points" + (f", {dropped} diverged excluded" if dropped else "")
    return _worst(name, [float(diffs[j]) / max(1.0, abs(vals[j]))],
                  lambda _: f"between points {j} and {j + 1}", 1e-9, note)


# ---------------------------------------------------------------------------
# full battery for one configuration


def pilot_points(stats: TrialStats, max_points: int = 20) -> list:
    """Evenly spaced iterates of the trajectory in row 0 of a run's
    TrialStats (x^0 .. x^{lengths[0]}), for premise measurement."""
    xs = stats.iterates[0, :stats.lengths[0] + 1]
    if len(xs) > max_points:
        xs = xs[np.linspace(0, len(xs) - 1, max_points).astype(int)]
    return list(xs)


def pilot_report(
    cfg: RunConfig, stats: TrialStats | None = None, max_points: int = 20
) -> tuple[TheoryReport, list | None]:
    """Theory report of cfg with the premise constants measured along trial 0
    of its runs; also returns those pilot points.  Without stats, trial 0 is
    replayed when the estimator kind measures a premise, and otherwise no
    trial runs and the points are None."""
    if stats is None and measured_premise(cfg.problem, cfg.estimator) is not None:
        stats = run_trials(replace(cfg, trials=1))
    points = None if stats is None else pilot_points(stats, max_points)
    report = build_theory_report(
        cfg.problem,
        cfg.gamma,
        cfg.beta,
        cfg.estimator,
        cfg.noise,
        x0=cfg.resolve_x0(),
        v_init=cfg.v_init,
        pilot_points=points,
    )
    return report, points


def record_audits(stats: TrialStats, report: TheoryReport) -> list[AuditOutcome]:
    """The audits of a run's (trial, k) table: descent and both convergence bounds."""
    return [check(stats, report) for check in (audit_descent, audit_theorem_ncvx, audit_theorem_pl)]


def verify_config(
    cfg: RunConfig,
    eta_draws: int = 1000,
    eta_points: int = 20,
) -> tuple[TheoryReport, list[AuditOutcome], TrialStats]:
    """Run the full audit battery for a configuration.

    Pipeline: all trials -> premise constants measured along trial 0 ->
    theory report -> gradient oracle, error-model bound, descent inequality
    and both convergence bounds on the trials.
    """
    stats = run_trials(cfg)
    report, points = pilot_report(cfg, stats, eta_points)
    outcomes = [
        audit_gradients(cfg.problem, n_points=25, seed=cfg.seed),
        audit_affine_variance(
            cfg.problem, points, cfg.estimator, cfg.noise, report,
            draws=eta_draws, seed=cfg.seed,
        ),
        *record_audits(stats, report),
    ]
    diverged = [r for r, flag in enumerate(stats.diverged) if flag]
    if diverged:
        r = diverged[0]
        outcomes.append(
            AuditOutcome(
                "divergence",
                "failed",
                note=f"{len(diverged)} of {cfg.trials} trials diverged; first: trial "
                     f"{r} at k={stats.lengths[r]}, {stats.reasons[r]}",
            )
        )
    return report, outcomes, stats
