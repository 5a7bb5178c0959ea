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
times the SAFETY factor) rather than postulated.  A TheoryReport stores
the premises of one configuration and derives every other field from them;
``build_theory_report`` is the one way to a report: it measures the
premise at the pilot points it is given and computes every other one from
the configuration.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field, fields
from typing import Callable, Sequence

import numpy as np

from .errors import ConfigurationError
from .composite import measure_composite_sigmas
from .estimators import EstimatorSpec
from .problems import (SAFETY, NoiseSpec, Problem, as_param_vector, as_point_stack,
                       full_gradient)
from .rng import pairwise_mean, row_dot

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
    "measured_premise",
    "build_theory_report",
]


def momentum_alpha(beta: float, regime: str) -> float:
    """Auxiliary alpha: 2(1-b)(b+2)/b^2 (ncvx) or 4(1-b)(b+2)/b^2 (pl)."""
    check_beta(beta)
    scale = {"ncvx": 2.0, "pl": 4.0}[regime]
    return scale * (1.0 - beta) * (beta + 2.0) / beta**2


def check_beta(beta: float) -> None:
    """Refuse a beta outside (0, 1], or one whose square, a divisor of the constants, is 0."""
    if not (0.0 < beta <= 1.0 and beta**2 > 0):
        raise ConfigurationError(f"beta must be in (0, 1] with beta^2 > 0 (beta = 0 freezes the "
                                 f"estimate), got {beta}")


def analysis_regime(problem: Problem | TheoryReport) -> str:
    """"pl" when mu > 0 is certified and f* is known, else "ncvx"."""
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
    check_beta(beta)
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
    check_beta(beta)
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
    check_beta(beta)
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
    slack = a / gamma - b - c * gamma if gamma > 0 else math.inf  # a zero ceiling always holds
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
    check_beta(beta)
    return 4.0 / gamma * f0_gap + 4.0 * (1.0 - beta) / beta * grad_v_err0_sq


# ---------------------------------------------------------------------------
# measured premise constants


def measure_heterogeneity(p: Problem, points: Sequence[np.ndarray]) -> float:
    """Max over sampled iterates of max_i ||grad f_i(x) - grad f(x)||^2, x SAFETY.

    A NaN square (from an overflowed gradient) is left out of the max.
    """
    grads = p.worker_grads(as_point_stack(points, p.dimension))
    diff = grads - pairwise_mean(grads, axis=-2)[..., None, :]
    return SAFETY * float(np.fmax.reduce(row_dot(diff, diff), axis=None, initial=0.0))


def measure_suboptimality(p: Problem, points: Sequence[np.ndarray]) -> float:
    """Max over sampled iterates of f(x) - f*, times SAFETY."""
    if p.f_star is None:
        raise ConfigurationError("suboptimality needs a known f*")
    worst = max((p.f(as_point_stack(points, p.dimension)) - p.f_star).tolist())
    return SAFETY * max(worst, 0.0)


# ---------------------------------------------------------------------------
# assembled report


@dataclass(frozen=True)
class TheoryReport:
    """The 15 premises of one configuration (its init fields) and every
    constant and admissibility flag they give, derived in __post_init__."""

    gamma: float
    beta: float
    L: float
    mu: float
    f_star: float | None
    regime: str = field(init=False)  # "pl" when mu > 0 and f* is known, else "ncvx"
    estimator_kind: str
    alpha_ncvx: float = field(init=False)
    alpha_pl: float = field(init=False)
    gamma_max_ncvx: float = field(init=False)
    gamma_max_pl: float | None = field(init=False)
    A_ncvx: float = field(init=False)
    A_pl: float = field(init=False)
    A_used: float = field(init=False)
    B1: float = field(init=False)
    B2: float = field(init=False)
    B3: float = field(init=False)
    B_var: float
    C_var: float | None
    theta0: float | None = field(init=False)
    phi0_pl: float | None = field(init=False)
    f0_gap: float | None
    grad_v_err0_sq: float
    floor_ncvx: float | None = field(init=False)
    floor_pl: float | None = field(init=False)
    cond_B_ncvx_ok: bool = field(init=False)
    cond_B_pl_ok: bool = field(init=False)
    gamma_ok_ncvx: bool = field(init=False)
    gamma_ok_pl: bool = field(init=False)
    gamma_ok: bool = field(init=False)
    alpha_contraction: float | None = None
    sigma2_worker: float | None = None
    delta2_het: float | None = None
    delta_subopt: float | None = None
    composite_sigmas: tuple | None = None

    def __post_init__(self):
        gamma, beta, L, mu, C = self.gamma, self.beta, self.L, self.mu, self.C_var
        regime = analysis_regime(self)
        alpha_ncvx, alpha_pl = momentum_alpha(beta, "ncvx"), momentum_alpha(beta, "pl")
        gamma_max_ncvx, gamma_max_pl = stepsize_bounds(beta, L, mu)
        A_ncvx, A_pl = lyapunov_weight(gamma, beta, "ncvx"), lyapunov_weight(gamma, beta, "pl")
        A_used = A_pl if regime == "pl" else A_ncvx
        B1, B2, B3 = lemma1_constants(gamma, beta, L, A_used)
        theta0 = phi0_pl = floor_ncvx = floor_pl = None
        if self.f0_gap is not None:
            theta0 = theta0_value(gamma, beta, self.f0_gap, self.grad_v_err0_sq)
            phi0_pl = self.f0_gap + A_pl * self.grad_v_err0_sq
        if C is not None:
            floor_ncvx = 4.0 * (1.0 - beta**2 / 2.0) * C
            if mu > 0:
                floor_pl = (2.0 / mu) * (2.0 - beta / 2.0 - beta**2) * C
        cond_B_ncvx_ok = C is not None and (1.0 - beta**2 / 2.0) * self.B_var <= 0.25
        cond_B_pl_ok = C is not None and (2.0 - beta / 2.0 - beta**2) * self.B_var <= 0.25
        gamma_ok_ncvx = gamma <= gamma_max_ncvx
        gamma_ok_pl = gamma_max_pl is not None and gamma <= gamma_max_pl
        gamma_ok = gamma_ok_pl if regime == "pl" else gamma_ok_ncvx
        derived = locals()  # each derived field is the local of its name
        for f in fields(self):
            if not f.init:
                object.__setattr__(self, f.name, derived[f.name])

    def to_dict(self) -> dict:
        d = asdict(self)
        if self.composite_sigmas is not None:
            d["composite_sigmas"] = list(self.composite_sigmas)
        return d


def theorem_bounds(report: TheoryReport) -> tuple[Callable, Callable | None]:
    """Right-hand-side curves of the two convergence guarantees.

    ncvx_rhs(K) = theta0/K + 4(1 - beta^2/2) C       (min-gradient bound; K int or array)
    pl_rhs(K)   = (1 - mu gamma/2)^K phi0 + (2/mu)(2 - beta/2 - beta^2) C

    Computable pieces are used as-is; a curve is None when its inputs
    (f*, mu or C) are unknown.  Admissibility is NOT checked here -- read
    the report's flags before trusting a curve as a guarantee.
    """
    ncvx_rhs = None
    if report.theta0 is not None and report.floor_ncvx is not None:
        theta0, floor = report.theta0, report.floor_ncvx

        def ncvx_rhs(K, _t=theta0, _f=floor):
            if np.any(np.asarray(K) < 1):
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


def measured_premise(problem: Problem, estimator: EstimatorSpec) -> str | None:
    """The premise the estimator kind measures at pilot points, if any:
    delta2_het (top-k, scaled sign), delta_subopt (clip with f* known) or
    composite_sigmas (composite).  Raises unless the spec runs on problem."""
    estimator.contraction_alpha(problem)
    return {"top_k": "delta2_het", "scaled_sign": "delta2_het", "composite": "composite_sigmas",
            "clip": None if problem.f_star is None else "delta_subopt"}.get(estimator.kind)


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
    """The report of one configuration, with its measured premise (see
    measured_premise) taken at ``pilot_points`` (trajectory iterates); None
    means [x0], and an empty sequence is refused.  Every other premise is
    exact.

    The per-worker gradient-error bound is exact for the synthetic noise
    model: E||g_i - grad f_i||^2 = d * sigma2 + ||offset||^2.
    """
    x0 = as_param_vector(x0, problem.dimension)
    if pilot_points is not None and len(pilot_points) == 0:
        raise ConfigurationError("need at least one pilot point")
    points = [x0] if pilot_points is None else pilot_points
    noise = noise or NoiseSpec()
    name = measured_premise(problem, estimator)
    L, f_star, d = problem.L, problem.f_star, problem.dimension

    sigma2_worker = d * noise.sigma2 + noise.offset_norm_sq(d)
    alpha_c = estimator.contraction_alpha(problem)
    delta2_het = delta_subopt = composite_sigmas = None
    with np.errstate(over="ignore", invalid="ignore"):  # an overflowing point or x0: inf or NaN
        if estimator.kind == "identity":
            # exact: eta = offset + mean of n independent gaussians
            B_var = 0.0
            C_var = noise.offset_norm_sq(d) + d * noise.sigma2 / problem.n_workers
        elif name == "delta2_het":
            delta2_het = measure_heterogeneity(problem, points)
            B_var, C_var = affine_constants_compression(alpha_c, sigma2_worker, delta2_het)
        elif name == "delta_subopt":
            delta_subopt = measure_suboptimality(problem, points)
            B_var, C_var = affine_constants_clip(sigma2_worker, L, delta_subopt, estimator.tau)
        elif estimator.kind == "clip":  # f* unknown
            B_var, C_var = 0.0, None
        else:  # composite
            composite_sigmas = sig_g2, sig_dg2, sig_F2 = measure_composite_sigmas(problem, points)
            B_var, C_var, _ = affine_constants_composite(
                problem.ell_g, problem.ell_F, problem.L_F, sig_F2, sig_dg2, sig_g2,
                estimator.s_f, estimator.s_g, L_g=problem.L_g)
            if not noise.is_null:  # the composite C covers subsampling error alone
                C_var = None

        if v_init == "grad_at_x0":
            grad_v_err0_sq = 0.0
        elif v_init == "zero":
            grad0 = full_gradient(problem, x0)
            grad_v_err0_sq = float(grad0 @ grad0)
        else:
            raise ConfigurationError(f"unknown v_init {v_init!r}")
        f0_gap = None if f_star is None else problem.f(x0) - f_star
    return TheoryReport(
        gamma=gamma,
        beta=beta,
        L=L,
        mu=problem.mu,
        f_star=f_star,
        estimator_kind=estimator.kind,
        B_var=B_var,
        C_var=C_var,
        f0_gap=f0_gap,
        grad_v_err0_sq=grad_v_err0_sq,
        alpha_contraction=alpha_c,
        sigma2_worker=sigma2_worker,
        delta2_het=delta2_het,
        delta_subopt=delta_subopt,
        composite_sigmas=composite_sigmas,
    )
