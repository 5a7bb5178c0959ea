"""Runtime verification of the convergence theory against measured runs.

Each check is a pure function of recorded trajectory data plus a
TheoryReport, returning an AuditOutcome with the worst observed margin
(negative margin = violation).  Inadmissible configurations are reported
as skipped, never as passed:

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

from dataclasses import asdict, dataclass
from typing import Mapping, Sequence

import numpy as np

from .engine import IterationRecord, RunConfig, RunResult, TrialStats, per_k_stats, run_trials
from .errors import ConfigurationError
from .estimators import EstimatorSpec, measure_eta
from .problems import NoiseSpec, Problem, as_param_vector, full_gradient
from .rng import STREAM_MEASURE, substream
from .theory import TheoryReport, build_theory_report, theorem_bounds

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
    "verify_config",
]


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


def _outcome(name, margin, location, tolerance, note=None) -> AuditOutcome:
    status = "passed" if margin >= -tolerance else "failed"
    return AuditOutcome(name, status, float(margin), location, tolerance, note)


def _skip(name, note) -> AuditOutcome:
    return AuditOutcome(name, "skipped", note=note)


# ---------------------------------------------------------------------------
# descent inequality, checked pathwise on consecutive recorded iterations


def audit_descent(
    results: Sequence[RunResult] | Sequence[Sequence[IterationRecord]],
    report: TheoryReport,
    rel_tol: float = 1e-9,
) -> AuditOutcome:
    """Per-step check of

    phi_{k+1} <= (f_k - f*) - (gamma/2)||grad f_k||^2 + B1 ||grad f_k - v_{k-1}||^2
                 - B2 ||x_{k+1} - x_k||^2 + B3 ||eta_k||^2

    with phi recomputed from the recorded fields using the report's A.
    Skipped when f* is unknown or the configuration is outside the regime
    where the inequality is established (B2 < 0 or gamma above its ceiling).
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
    worst = np.inf
    where = None
    checked = 0
    for res in results:
        recs = res.records if isinstance(res, RunResult) else res
        trial = res.trial if isinstance(res, RunResult) else 0
        for a, b in zip(recs[:-1], recs[1:]):
            f_gap = a.f - report.f_star
            lhs = (b.f - report.f_star) + A * b.v_error_sq
            rhs = (
                f_gap
                - 0.5 * gamma * a.grad_norm_sq
                + B1 * a.v_error_sq
                - B2 * a.step_norm_sq
                + B3 * a.eta_norm_sq
            )
            scale = max(1.0, abs(lhs), abs(rhs))
            margin = (rhs - lhs) / scale
            checked += 1
            if margin < worst:
                worst, where = margin, f"trial {trial}, k={a.k}"
    if checked == 0:
        return _skip(name, "no consecutive record pairs to check")
    return _outcome(name, worst, where, rel_tol, note=f"{checked} steps checked")


# ---------------------------------------------------------------------------
# min-gradient bound (general smooth case)


def audit_theorem_ncvx(
    stats: TrialStats,
    report: TheoryReport,
    min_prefix: int = 10,
    stderr_mult: float = 3.0,
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
    se = stats.stderr["grad_norm_sq"]
    worst = np.inf
    where = None
    run_min = np.minimum.accumulate(mean)
    argmin = np.zeros(k_max, dtype=int)
    for k in range(1, k_max):
        argmin[k] = argmin[k - 1] if mean[argmin[k - 1]] <= mean[k] else k
    for K in range(min_prefix, k_max + 1):
        j = argmin[K - 1]
        bound = ncvx_rhs(K) + stderr_mult * se[j]
        scale = max(1.0, bound)
        margin = (bound - run_min[K - 1]) / scale
        if margin < worst:
            worst, where = margin, f"prefix K={K} (min at k={j})"
    return _outcome(name, worst, where, 0.0, note=f"prefixes {min_prefix}..{k_max}")


# ---------------------------------------------------------------------------
# linear rate under the PL condition


def audit_theorem_pl(
    stats: TrialStats,
    report: TheoryReport,
    rel_tol: float = 1e-10,
    stderr_mult: float = 3.0,
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
    _, mean_phi, _, se = per_k_stats(phi)
    k_max = stats.k_max
    _, pl_rhs = theorem_bounds(report)
    worst = np.inf
    where = None
    for k in range(k_max):
        bound = pl_rhs(k) + stderr_mult * se[k]
        scale = max(bound, abs(mean_phi[k]), 1e-300)
        margin = (bound - mean_phi[k]) / scale
        if margin < worst:
            worst, where = margin, f"k={k}"
    return _outcome(name, worst, where, rel_tol, note=f"k=0..{k_max - 1}")


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
    stderr_mult: float = 3.0,
) -> AuditOutcome:
    """measured mean ||eta||^2 + 3 stderr <= B ||grad f||^2 + C at each point."""
    name = "affine_variance_bound"
    if report.C_var is None:
        return _skip(name, "C unavailable for this configuration")
    if not points:
        return _skip(name, "no sample points")
    worst = np.inf
    where = None
    for j, x in enumerate(points):
        x = as_param_vector(x, problem.dimension)
        rng = substream(seed, STREAM_MEASURE, 100 + j)
        mean, se = measure_eta(problem, x, spec, noise, samples=draws, rng=rng)
        g = full_gradient(problem, x)
        bound = report.B_var * float(g @ g) + report.C_var
        scale = max(1.0, bound)
        margin = (bound - (mean + stderr_mult * se)) / scale
        if margin < worst:
            worst, where = margin, f"point {j}"
    return _outcome(name, worst, where, 0.0, note=f"{len(points)} points x {draws} draws")


# ---------------------------------------------------------------------------
# gradient oracle (central finite differences)


def finite_difference_gradient(problem: Problem, x: np.ndarray) -> np.ndarray:
    """Central differences with step 1e-6 * max(1, ||x||) per coordinate."""
    x = as_param_vector(x, problem.dimension)
    h = 1e-6 * max(1.0, float(np.linalg.norm(x)))
    g = np.empty_like(x)
    e = np.zeros_like(x)
    for i in range(x.size):
        e[i] = h
        g[i] = (problem.f(x + e) - problem.f(x - e)) / (2.0 * h)
        e[i] = 0.0
    return g


def audit_gradients(
    problem: Problem,
    n_points: int = 100,
    seed: int = 0,
    rel_tol: float | None = None,
) -> AuditOutcome:
    """Analytic full gradient vs finite differences at seeded random points."""
    name = "gradient_oracle"
    if rel_tol is None:
        rel_tol = 1e-4 if problem.kind in ("maml", "composite_finite_sum") else 1e-5
    worst = np.inf
    where = None
    for j in range(n_points):
        rng = substream(seed, STREAM_MEASURE, 200 + j)
        x = rng.standard_normal(problem.dimension)
        ga = full_gradient(problem, x)
        gn = finite_difference_gradient(problem, x)
        rel = float(np.linalg.norm(ga - gn)) / max(1.0, float(np.linalg.norm(gn)))
        margin = rel_tol - rel
        if margin < worst:
            worst, where = margin, f"point {j}"
    return _outcome(name, worst, where, 0.0, note=f"{n_points} points, tol {rel_tol}")


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
    worst = float(diffs[j]) / max(1.0, abs(vals[j]))
    note = f"{len(usable)} points" + (f", {dropped} diverged excluded" if dropped else "")
    return _outcome(name, worst, f"between points {j} and {j + 1}", 1e-9, note=note)


# ---------------------------------------------------------------------------
# full battery for one configuration


def pilot_points(result: RunResult, max_points: int = 20) -> list:
    """Evenly spaced iterates of a trajectory, for premise measurement."""
    xs = list(result.iterates)
    if len(xs) <= max_points:
        return xs
    idx = np.linspace(0, len(xs) - 1, max_points).astype(int)
    return [xs[i] for i in idx]


def pilot_report(
    cfg: RunConfig, stats: TrialStats, max_points: int = 20
) -> tuple[TheoryReport, list]:
    """Theory report of cfg with the premise constants measured along trial 0
    of its runs; also returns those pilot points."""
    points = pilot_points(stats.results[0], max_points)
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
        audit_descent(stats.results, report),
        audit_theorem_ncvx(stats, report),
        audit_theorem_pl(stats, report),
    ]
    if any(res.diverged for res in stats.results):
        outcomes.append(
            AuditOutcome(
                "divergence",
                "failed",
                note=f"{sum(r.diverged for r in stats.results)} of {cfg.trials} trials diverged",
            )
        )
    return report, outcomes, stats
