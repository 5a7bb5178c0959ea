"""Closed-form constants and admissibility conditions of the momentum analysis.

Everything here is stateless arithmetic on (gamma, beta, L, mu) plus the
error-model constants (B_var, C_var) of the active gradient estimator:

* descent-inequality weights B1, B2, B3 for a Lyapunov weight A,
* the step-size ceilings gamma <= 1/(L (sqrt(alpha) + 1)) with
  alpha = 2(1-beta)(beta+2)/beta^2 (general smooth case) and
  alpha = 4(1-beta)(beta+2)/beta^2 (PL case, additionally beta/(2 mu)),
* the error-model constants for compression, clipping and composite
  subsampling, and the resulting convergence floors.

Heterogeneity and suboptimality constants that the error models assume as
given are *measured* from pilot trajectories (max over sampled iterates,
with a 1.1 safety factor) rather than postulated.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import ConfigurationError
from .estimators import EstimatorSpec
from .problems import NoiseSpec, Problem, as_param_vector, full_gradient
from .rng import pairwise_mean

__all__ = [
    "TheoryReport",
    "momentum_alpha",
    "analysis_regime",
    "lemma_stepsize_bound",
    "lyapunov_weight",
    "lemma1_constants",
    "stepsize_bounds",
    "affine_constants_compression",
    "affine_constants_clip",
    "affine_constants_composite",
    "theta0_value",
    "theorem_bounds",
    "measure_heterogeneity",
    "measure_suboptimality",
    "build_theory_report",
]


def momentum_alpha(beta: float, regime: str) -> float:
    """Auxiliary alpha: 2(1-b)(b+2)/b^2 (ncvx) or 4(1-b)(b+2)/b^2 (pl)."""
    _check_beta(beta)
    scale = {"ncvx": 2.0, "pl": 4.0}[regime]
    return scale * (1.0 - beta) * (beta + 2.0) / beta**2


def _check_beta(beta: float) -> None:
    if not 0.0 < beta <= 1.0:
        raise ConfigurationError(f"beta must be in (0, 1], got {beta}")


def analysis_regime(problem: Problem) -> str:
    """"pl" when the problem certifies mu > 0 and knows f*, else "ncvx"."""
    return "pl" if (problem.mu > 0 and problem.f_star is not None) else "ncvx"


def lemma_stepsize_bound(a: float, b: float, c: float) -> float:
    """Largest gamma with a/gamma - b - c*gamma >= 0: 1/(sqrt(c/a) + b/a)."""
    if a <= 0 or b < 0 or c < 0:
        raise ConfigurationError("need a > 0 and b, c >= 0")
    return 1.0 / (math.sqrt(c / a) + b / a)


def lyapunov_weight(gamma: float, beta: float, regime: str) -> float:
    """Weight A of the potential f - f* + A ||grad f - v||^2.

    gamma (1-beta)/beta in the general smooth analysis, doubled for the PL
    analysis; zero at beta = 1 where the potential is the plain gap.
    """
    _check_beta(beta)
    scale = {"ncvx": 1.0, "pl": 2.0}[regime]
    return scale * gamma * (1.0 - beta) / beta


def lemma1_constants(gamma: float, beta: float, L: float, A: float) -> tuple[float, float, float]:
    """Descent-inequality weights for Lyapunov weight A:

    B1 = gamma (1-beta)/2 + A (1 - beta/2)
    B2 = 1/(2 gamma) - L/2 - A (beta+2) L^2 / beta
    B3 = gamma beta/2 + A beta (1 + beta/2)
    """
    if gamma <= 0:
        raise ConfigurationError(f"gamma must be > 0, got {gamma}")
    _check_beta(beta)
    if A < 0:
        raise ConfigurationError(f"A must be >= 0, got {A}")
    B1 = gamma * (1.0 - beta) / 2.0 + A * (1.0 - beta / 2.0)
    B2 = 1.0 / (2.0 * gamma) - L / 2.0 - A * (beta + 2.0) * L**2 / beta
    B3 = gamma * beta / 2.0 + A * beta * (1.0 + beta / 2.0)
    return B1, B2, B3


def stepsize_bounds(beta: float, L: float, mu: float = 0.0) -> tuple[float, float | None]:
    """(gamma_max_ncvx, gamma_max_pl); the PL bound is None when mu = 0.

    gamma_max_ncvx = 1/(L (sqrt(alpha_ncvx) + 1));
    gamma_max_pl = min(1/(L (sqrt(alpha_pl) + 1)), beta/(2 mu)).
    Each returned ceiling is re-verified against the underlying inequality
    a/gamma - b - c gamma >= 0 with the (a, b, c) of the matching proof.
    """
    _check_beta(beta)
    if L <= 0:
        raise ConfigurationError(f"L must be > 0, got {L}")
    a, b = 0.5, L / 2.0

    c_ncvx = (1.0 - beta) * (beta + 2.0) * L**2 / beta**2
    g_ncvx = 1.0 / (L * (math.sqrt(momentum_alpha(beta, "ncvx")) + 1.0))
    _assert_stepsize_ok(g_ncvx, a, b, c_ncvx)

    if mu <= 0:
        return g_ncvx, None
    c_pl = 2.0 * (1.0 - beta) * (beta + 2.0) * L**2 / beta**2
    g_pl = min(
        1.0 / (L * (math.sqrt(momentum_alpha(beta, "pl")) + 1.0)),
        beta / (2.0 * mu),
    )
    _assert_stepsize_ok(min(g_pl, lemma_stepsize_bound(a, b, c_pl)), a, b, c_pl)
    return g_ncvx, g_pl


def _assert_stepsize_ok(gamma: float, a: float, b: float, c: float) -> None:
    slack = a / gamma - b - c * gamma
    if slack < -1e-9 * max(1.0, b + c * gamma):
        raise AssertionError(f"step-size bound violated: slack {slack}")


def affine_constants_compression(
    alpha_c: float, sigma2: float, delta2_het: float
) -> tuple[float, float]:
    """(B, C) for an alpha-contractive compressor:

    B = 1 - alpha/8
    C = (1 - alpha/4)(1 + 8/alpha) delta^2
        + [(1 - alpha/2)(1 + 4/alpha) + (1 + 2/alpha)] sigma^2

    sigma^2 bounds the per-worker gradient error, delta^2 the worker-to-
    global gradient heterogeneity.
    """
    if not 0.0 < alpha_c <= 1.0:
        raise ConfigurationError(f"alpha must be in (0, 1], got {alpha_c}")
    if sigma2 < 0 or delta2_het < 0:
        raise ConfigurationError("sigma2 and delta2 must be >= 0")
    B = 1.0 - alpha_c / 8.0
    C = (1.0 - alpha_c / 4.0) * (1.0 + 8.0 / alpha_c) * delta2_het + (
        (1.0 - alpha_c / 2.0) * (1.0 + 4.0 / alpha_c) + (1.0 + 2.0 / alpha_c)
    ) * sigma2
    return B, C


def affine_constants_clip(
    sigma2: float, L: float, delta_subopt: float, tau: float
) -> tuple[float, float]:
    """(B=0, C) for clipping at threshold tau:

    C = max(2 sigma^2 + 4 L delta + tau^2, 0) + 2 sigma^2

    delta bounds f(x) - f* along the trajectory.
    """
    if sigma2 < 0 or L < 0 or delta_subopt < 0:
        raise ConfigurationError("sigma2, L, delta must be >= 0")
    if not tau > 0:
        raise ConfigurationError(f"tau must be > 0, got {tau}")
    C = max(2.0 * sigma2 + 4.0 * L * delta_subopt + tau**2, 0.0) + 2.0 * sigma2
    return 0.0, C


def affine_constants_composite(
    ell_g: float,
    ell_F: float,
    L_F: float,
    sigma_F2: float,
    sigma_dg2: float,
    sigma_g2: float,
    S_F: int,
    S_g: int,
    L_g: float = 0.0,
) -> tuple[float, float, float]:
    """(B=0, C, L) for doubly subsampled composite gradients:

    C = 3 ell_g^2 sigma_F^2 / S_F + 3 ell_F^2 sigma_dg^2 / S_g
        + 3 ell_g^2 L_F^2 sigma_g^2 / S_g

    and the composite objective smoothness L = L_g ell_F + ell_g^2 L_F.
    """
    if S_F < 1 or S_g < 1:
        raise ConfigurationError("batch sizes must be >= 1")
    C = (
        3.0 * ell_g**2 * sigma_F2 / S_F
        + 3.0 * ell_F**2 * sigma_dg2 / S_g
        + 3.0 * ell_g**2 * L_F**2 * sigma_g2 / S_g
    )
    return 0.0, C, L_g * ell_F + ell_g**2 * L_F


def theta0_value(gamma: float, beta: float, f0_gap: float, grad_v_err0_sq: float) -> float:
    """(4/gamma)(f(x0) - f*) + (4(1-beta)/beta) ||grad f(x0) - v^{-1}||^2."""
    _check_beta(beta)
    return 4.0 / gamma * f0_gap + 4.0 * (1.0 - beta) / beta * grad_v_err0_sq


# ---------------------------------------------------------------------------
# measured premise constants


def measure_heterogeneity(p: Problem, points: Sequence[np.ndarray], safety: float = 1.1) -> float:
    """Max over sampled iterates of max_i ||grad f_i(x) - grad f(x)||^2, x safety."""
    worst = 0.0
    for x in points:
        x = as_param_vector(x, p.dimension)
        grads = [p.worker_grad(i, x) for i in range(p.n_workers)]
        g = pairwise_mean(grads)
        for gi in grads:
            diff = gi - g
            worst = max(worst, float(diff @ diff))
    return safety * worst


def measure_suboptimality(p: Problem, points: Sequence[np.ndarray], safety: float = 1.1) -> float:
    """Max over sampled iterates of f(x) - f*, times the safety factor."""
    if p.f_star is None:
        raise ConfigurationError("suboptimality needs a known f*")
    worst = max(p.f(as_param_vector(x, p.dimension)) - p.f_star for x in points)
    return safety * max(worst, 0.0)


# ---------------------------------------------------------------------------
# assembled report


@dataclass(frozen=True)
class TheoryReport:
    """Every derived constant and admissibility flag for one configuration."""

    gamma: float
    beta: float
    L: float
    mu: float
    f_star: float | None
    regime: str  # "pl" when mu > 0 and f* is known, else "ncvx"
    estimator_kind: str
    alpha_ncvx: float
    alpha_pl: float
    gamma_max_ncvx: float
    gamma_max_pl: float | None
    A_ncvx: float
    A_pl: float
    A_used: float
    B1: float
    B2: float
    B3: float
    B_var: float | None
    C_var: float | None
    theta0: float | None
    phi0_pl: float | None
    f0_gap: float | None
    grad_v_err0_sq: float
    floor_ncvx: float | None
    floor_pl: float | None
    cond_B_ncvx_ok: bool
    cond_B_pl_ok: bool
    gamma_ok_ncvx: bool
    gamma_ok_pl: bool
    gamma_ok: bool
    alpha_contraction: float | None = None
    sigma2_worker: float | None = None
    delta2_het: float | None = None
    delta_subopt: float | None = None
    composite_sigmas: tuple | None = None

    def to_dict(self) -> dict:
        d = asdict(self)
        if self.composite_sigmas is not None:
            d["composite_sigmas"] = list(self.composite_sigmas)
        return d

    @classmethod
    def from_dict(cls, d: dict) -> "TheoryReport":
        d = dict(d)
        if d.get("composite_sigmas") is not None:
            d["composite_sigmas"] = tuple(d["composite_sigmas"])
        return cls(**d)


def theorem_bounds(report: TheoryReport) -> tuple[Callable, Callable | None]:
    """Right-hand-side curves of the two convergence guarantees.

    ncvx_rhs(K) = theta0/K + 4(1 - beta^2/2) C       (min-gradient bound)
    pl_rhs(K)   = (1 - mu gamma/2)^K phi0 + (2/mu)(2 - beta/2 - beta^2) C

    Computable pieces are used as-is; a curve is None when its inputs
    (f*, mu or C) are unknown.  Admissibility is NOT checked here -- read
    the report's flags before trusting a curve as a guarantee.
    """
    ncvx_rhs = None
    if report.theta0 is not None and report.floor_ncvx is not None:
        theta0, floor = report.theta0, report.floor_ncvx

        def ncvx_rhs(K: int, _t=theta0, _f=floor) -> float:
            if K < 1:
                raise ConfigurationError("K must be >= 1")
            return _t / K + _f

    pl_rhs = None
    if (
        report.mu > 0
        and report.phi0_pl is not None
        and report.floor_pl is not None
    ):
        rate = 1.0 - report.mu * report.gamma / 2.0
        phi0, floor = report.phi0_pl, report.floor_pl

        def pl_rhs(K: int, _r=rate, _p=phi0, _f=floor) -> float:
            if K < 0:
                raise ConfigurationError("K must be >= 0")
            return _r**K * _p + _f

    return ncvx_rhs, pl_rhs


def build_theory_report(
    problem: Problem,
    gamma: float,
    beta: float,
    estimator: EstimatorSpec,
    noise: NoiseSpec | None = None,
    *,
    x0: np.ndarray,
    v_init: str = "grad_at_x0",
    pilot_points: Sequence[np.ndarray] | None = None,
) -> TheoryReport:
    """Derive all constants for one configuration.

    ``pilot_points`` are trajectory iterates used to measure the premise
    constants (heterogeneity for compression, suboptimality for clipping,
    component variances for composite subsampling); they default to [x0].

    The per-worker gradient-error bound is exact for the synthetic noise
    model: E||g_i - grad f_i||^2 = d * sigma2 + ||offset||^2.
    """
    if gamma <= 0:
        raise ConfigurationError(f"gamma must be > 0, got {gamma}")
    _check_beta(beta)
    x0 = as_param_vector(x0, problem.dimension)
    noise = noise or NoiseSpec()
    pilot = list(pilot_points) if pilot_points else [x0]
    L, mu, f_star = problem.L, problem.mu, problem.f_star
    d = problem.dimension

    alpha_ncvx = momentum_alpha(beta, "ncvx")
    alpha_pl = momentum_alpha(beta, "pl")
    gamma_max_ncvx, gamma_max_pl = stepsize_bounds(beta, L, mu)
    A_ncvx = lyapunov_weight(gamma, beta, "ncvx")
    A_pl = lyapunov_weight(gamma, beta, "pl")
    regime = analysis_regime(problem)
    A_used = A_pl if regime == "pl" else A_ncvx
    B1, B2, B3 = lemma1_constants(gamma, beta, L, A_used)

    sigma2_worker = d * noise.sigma2 + noise.offset_norm_sq(d)
    alpha_c = estimator.contraction_alpha(d)
    delta2_het = delta_subopt = None
    composite_sigmas = None

    if estimator.kind == "identity":
        # exact: eta = offset + mean of n independent gaussians
        B_var = 0.0
        C_var = noise.offset_norm_sq(d) + d * noise.sigma2 / problem.n_workers
    elif estimator.kind in ("top_k", "scaled_sign"):
        delta2_het = measure_heterogeneity(problem, pilot)
        B_var, C_var = affine_constants_compression(alpha_c, sigma2_worker, delta2_het)
    elif estimator.kind == "clip":
        if f_star is None:
            B_var, C_var = 0.0, None
        else:
            delta_subopt = measure_suboptimality(problem, pilot)
            B_var, C_var = affine_constants_clip(sigma2_worker, L, delta_subopt, estimator.tau)
    elif estimator.kind == "composite":
        from .composite import CompositeProblem, measure_composite_sigmas

        if not isinstance(problem, CompositeProblem):
            raise ConfigurationError("composite estimator needs a composite problem")
        composite_sigmas = measure_composite_sigmas(problem, pilot)
        sig_g2, sig_dg2, sig_F2 = composite_sigmas
        B_var, C_var, _ = affine_constants_composite(
            problem.ell_g,
            problem.ell_F,
            problem.L_F,
            sig_F2,
            sig_dg2,
            sig_g2,
            estimator.s_f,
            estimator.s_g,
            L_g=problem.L_g,
        )
    else:  # pragma: no cover - KINDS is closed
        raise ConfigurationError(f"unknown estimator kind {estimator.kind!r}")

    if v_init == "grad_at_x0":
        grad_v_err0_sq = 0.0
    elif v_init == "zero":
        grad0 = full_gradient(problem, x0)
        grad_v_err0_sq = float(grad0 @ grad0)
    else:
        raise ConfigurationError(f"unknown v_init {v_init!r}")

    f0_gap = theta0 = phi0_pl = None
    if f_star is not None:
        f0_gap = problem.f(x0) - f_star
        theta0 = theta0_value(gamma, beta, f0_gap, grad_v_err0_sq)
        phi0_pl = f0_gap + A_pl * grad_v_err0_sq

    floor_ncvx = floor_pl = None
    if C_var is not None:
        floor_ncvx = 4.0 * (1.0 - beta**2 / 2.0) * C_var
        if mu > 0:
            floor_pl = (2.0 / mu) * (2.0 - beta / 2.0 - beta**2) * C_var

    cond_B_ncvx_ok = C_var is not None and (1.0 - beta**2 / 2.0) * B_var <= 0.25
    cond_B_pl_ok = C_var is not None and (2.0 - beta / 2.0 - beta**2) * B_var <= 0.25
    gamma_ok_ncvx = gamma <= gamma_max_ncvx
    gamma_ok_pl = gamma_max_pl is not None and gamma <= gamma_max_pl
    gamma_ok = gamma_ok_pl if regime == "pl" else gamma_ok_ncvx

    return TheoryReport(
        gamma=gamma,
        beta=beta,
        L=L,
        mu=mu,
        f_star=f_star,
        regime=regime,
        estimator_kind=estimator.kind,
        alpha_ncvx=alpha_ncvx,
        alpha_pl=alpha_pl,
        gamma_max_ncvx=gamma_max_ncvx,
        gamma_max_pl=gamma_max_pl,
        A_ncvx=A_ncvx,
        A_pl=A_pl,
        A_used=A_used,
        B1=B1,
        B2=B2,
        B3=B3,
        B_var=B_var,
        C_var=C_var,
        theta0=theta0,
        phi0_pl=phi0_pl,
        f0_gap=f0_gap,
        grad_v_err0_sq=grad_v_err0_sq,
        floor_ncvx=floor_ncvx,
        floor_pl=floor_pl,
        cond_B_ncvx_ok=cond_B_ncvx_ok,
        cond_B_pl_ok=cond_B_pl_ok,
        gamma_ok_ncvx=gamma_ok_ncvx,
        gamma_ok_pl=gamma_ok_pl,
        gamma_ok=gamma_ok,
        alpha_contraction=alpha_c,
        sigma2_worker=sigma2_worker,
        delta2_het=delta2_het,
        delta_subopt=delta_subopt,
        composite_sigmas=composite_sigmas,
    )
