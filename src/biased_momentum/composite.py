"""Composite finite-sum machinery: f_i(x) = F_i(g_i(x)) with both layers
finite averages, the chained-gradient evaluation, and the meta-learning
instantiation g_{i,j}(x) = x - gamma * grad of the per-sample loss.

Inner maps expose a Jacobian-transpose-vector oracle instead of dense
Jacobians: for the meta-learning inner map the Jacobian is
I - gamma * (loss Hessian), and only its action on a vector is ever needed
(for per-sample logistic losses the Hessian-vector product is closed form).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np
from scipy.special import expit

from .errors import ConfigurationError
from .problems import Problem, as_param_vector, make_synthetic_classification

__all__ = [
    "InnerComponent",
    "OuterComponent",
    "CompositeProblem",
    "make_maml",
    "make_toy_composite",
    "composite_from_dict",
    "inner_value",
    "inner_jacobian_t_vec",
    "outer_gradient_at",
    "chained_gradient",
    "measure_composite_sigmas",
]


@dataclass(frozen=True)
class InnerComponent:
    """One inner map g_{i,j}: value plus Jacobian-transpose-vector oracle."""

    value: Callable[[np.ndarray], np.ndarray]
    jac_t_vec: Callable[[np.ndarray, np.ndarray], np.ndarray]


@dataclass(frozen=True)
class OuterComponent:
    """One outer component F_{i,j}: scalar value plus gradient oracle."""

    value: Callable[[np.ndarray], float]
    grad: Callable[[np.ndarray], np.ndarray]


@dataclass(frozen=True)
class CompositeProblem(Problem):
    """Two-level finite sum f_i(x) = (1/m_F) sum_j F_{i,j}((1/m_g) sum_l g_{i,l}(x)).

    ``ell_g``/``L_g``/``ell_F``/``L_F`` are certified Lipschitz constants of
    the component maps and their gradients; the objective then has
    L = L_g * ell_F + ell_g^2 * L_F.  For the meta-learning build the base
    per-sample loss constants (ell_base, L_base) are kept alongside.
    """

    inner: tuple  # per worker: tuple of InnerComponent
    outer: tuple  # per worker: tuple of OuterComponent
    dimension: int
    inner_dimension: int
    ell_g: float
    L_g: float
    ell_F: float
    L_F: float
    mu: float = 0.0
    f_star: float | None = None
    kind: str = "composite_finite_sum"
    gamma_inner: float = 0.0
    ell_base: float = 0.0
    L_base: float = 0.0
    source: dict | None = field(default=None, repr=False, compare=False)

    def __post_init__(self):
        if not self.inner or len(self.inner) != len(self.outer):
            raise ConfigurationError("need matching inner/outer components per worker")
        m_g, m_F = len(self.inner[0]), len(self.outer[0])
        for gs, Fs in zip(self.inner, self.outer):
            if len(gs) != m_g or len(Fs) != m_F:
                raise ConfigurationError("component counts must match across workers")

    @property
    def n_workers(self) -> int:
        return len(self.inner)

    @property
    def m_g(self) -> int:
        return len(self.inner[0])

    @property
    def m_F(self) -> int:
        return len(self.outer[0])

    @property
    def L(self) -> float:
        return self.L_g * self.ell_F + self.ell_g**2 * self.L_F

    def worker_value(self, i: int, x: np.ndarray) -> float:
        self._check_worker(i)
        z = inner_value(self, i, x, np.arange(self.m_g))
        return float(np.mean([F.value(z) for F in self.outer[i]]))

    def worker_grad(self, i: int, x: np.ndarray) -> np.ndarray:
        return chained_gradient(self, i, x, np.arange(self.m_g), np.arange(self.m_F))


# ---------------------------------------------------------------------------
# subset evaluation (Eq.-style chained estimator pieces)


def _validate_indices(idx, m: int, label: str) -> np.ndarray:
    idx = np.asarray(idx, dtype=np.intp)
    if idx.size == 0:
        raise ConfigurationError(f"empty {label} index set")
    if np.any(idx < 0) or np.any(idx >= m):
        raise ConfigurationError(f"{label} index out of range [0, {m})")
    return idx


def inner_value(cp: CompositeProblem, i: int, x: np.ndarray, indices) -> np.ndarray:
    """Average of the selected inner maps at x."""
    cp._check_worker(i)
    idx = _validate_indices(indices, cp.m_g, "inner")
    x = as_param_vector(x, cp.dimension)
    vals = [cp.inner[i][j].value(x) for j in idx]
    return np.mean(vals, axis=0)


def inner_jacobian_t_vec(
    cp: CompositeProblem, i: int, x: np.ndarray, indices, u: np.ndarray
) -> np.ndarray:
    """Average subset Jacobian, transposed, applied to u."""
    cp._check_worker(i)
    idx = _validate_indices(indices, cp.m_g, "inner")
    vals = [cp.inner[i][j].jac_t_vec(x, u) for j in idx]
    return np.mean(vals, axis=0)


def outer_gradient_at(cp: CompositeProblem, i: int, z: np.ndarray, indices) -> np.ndarray:
    """Average gradient of the selected outer components at the inner point z."""
    cp._check_worker(i)
    idx = _validate_indices(indices, cp.m_F, "outer")
    vals = [cp.outer[i][j].grad(z) for j in idx]
    return np.mean(vals, axis=0)


def chained_gradient(
    cp: CompositeProblem, i: int, x: np.ndarray, indices_g, indices_F
) -> np.ndarray:
    """Subsampled chain-rule gradient of F_i(g_i(x)).

    The inner value and the inner Jacobian average over the same index set
    (one shared draw); the outer gradient averages over its own set and is
    evaluated at the subset inner value.  Full index sets reproduce the
    exact worker gradient.
    """
    x = as_param_vector(x, cp.dimension)
    z = inner_value(cp, i, x, indices_g)
    w = outer_gradient_at(cp, i, z, indices_F)
    return inner_jacobian_t_vec(cp, i, x, indices_g, w)


# ---------------------------------------------------------------------------
# meta-learning build (one inner gradient step per sample)


def _point_logistic(a: np.ndarray, b: float):
    """Closed-form value / gradient / Hessian-vector product of one sample loss.

    loss(x) = log(1 + exp(-b <a, x>)); with s = sigmoid(-b <a, x>):
    grad = -b s a and hess @ u = s (1 - s) <a, u> a.
    """

    def value(x: np.ndarray) -> float:
        return float(np.logaddexp(0.0, -b * (a @ x)))

    def grad(x: np.ndarray) -> np.ndarray:
        s = expit(-b * (a @ x))
        return (-b * s) * a

    def hess_vec(x: np.ndarray, u: np.ndarray) -> np.ndarray:
        s = expit(-b * (a @ x))
        return (s * (1.0 - s) * (a @ u)) * a

    return value, grad, hess_vec


def _maml_inner(a: np.ndarray, b: float, gamma: float) -> InnerComponent:
    _, grad, hess_vec = _point_logistic(a, b)

    def value(x: np.ndarray) -> np.ndarray:
        return x - gamma * grad(x)

    def jac_t_vec(x: np.ndarray, u: np.ndarray) -> np.ndarray:
        return u - gamma * hess_vec(x, u)

    return InnerComponent(value=value, jac_t_vec=jac_t_vec)


def _maml_outer(a: np.ndarray, b: float) -> OuterComponent:
    value, grad, _ = _point_logistic(a, b)
    return OuterComponent(value=value, grad=grad)


def make_maml(
    features: Sequence[np.ndarray],
    labels: Sequence[np.ndarray],
    gamma_inner: float,
    source: dict | None = None,
) -> CompositeProblem:
    """Meta-learning objective (1/n) sum_i f_i(x - gamma_inner grad f_i(x)).

    Components: F_{i,j} is the j-th per-sample logistic loss of worker i and
    g_{i,j}(x) = x - gamma_inner * grad of that same sample loss; both layers
    average over the worker's m samples.  With gamma_inner = 0 the inner map
    is the identity and the problem reduces to the plain finite sum.

    Certified constants from the base loss (ell_base = max ||a||,
    L_base = max ||a||^2 / 4): ell_F = ell_base, L_F = L_base,
    ell_g = 1 + gamma_inner * L_base, L_g = 2 * gamma_inner * L_base.
    """
    if gamma_inner < 0:
        raise ConfigurationError(f"gamma_inner must be >= 0, got {gamma_inner}")
    features = tuple(np.asarray(X, dtype=np.float64) for X in features)
    labels = tuple(np.asarray(b, dtype=np.float64) for b in labels)
    if not features or len(features) != len(labels):
        raise ConfigurationError("need matching feature/label lists per worker")
    d = features[0].shape[1]
    inner, outer = [], []
    max_norm = 0.0
    for X, b in zip(features, labels):
        if not np.all(np.isin(b, (-1.0, 1.0))):
            raise ConfigurationError("labels must lie in {-1, +1}")
        inner.append(
            tuple(_maml_inner(X[j], float(b[j]), gamma_inner) for j in range(X.shape[0]))
        )
        outer.append(
            tuple(_maml_outer(X[j], float(b[j])) for j in range(X.shape[0]))
        )
        max_norm = max(max_norm, float(np.max(np.linalg.norm(X, axis=1))))
    ell_base = max_norm
    L_base = max_norm**2 / 4.0
    return CompositeProblem(
        inner=tuple(inner),
        outer=tuple(outer),
        dimension=d,
        inner_dimension=d,
        ell_g=1.0 + gamma_inner * L_base,
        L_g=2.0 * gamma_inner * L_base,
        ell_F=ell_base,
        L_F=L_base,
        kind="maml",
        gamma_inner=float(gamma_inner),
        ell_base=ell_base,
        L_base=L_base,
        source=source,
    )


# ---------------------------------------------------------------------------
# fixed toy instance: integer linear inner maps, coordinate-wise quartic outer


TOY_INNER_MATRICES = (
    ((1, 0), (0, 1)),
    ((2, 1), (0, 1)),
    ((1, 1), (1, 0)),
)
TOY_OUTER_COEFFS = (1.0, 2.0, 1.0)
TOY_OUTER_CENTERS = ((0.0, 0.0), (1.0, 0.0), (0.0, -1.0))
TOY_BALL_RADIUS = 3.0  # constants below are certified on ||x|| <= this radius


def _linear_inner(G: np.ndarray) -> InnerComponent:
    GT = G.T.copy()
    return InnerComponent(value=lambda x: G @ x, jac_t_vec=lambda x, u: GT @ u)


def _quartic_outer(c: float, r: np.ndarray) -> OuterComponent:
    return OuterComponent(
        value=lambda z: float(c * np.sum((z - r) ** 4)),
        grad=lambda z: 4.0 * c * (z - r) ** 3,
    )


def make_toy_composite(
    n_workers: int = 1,
    inner_matrices=TOY_INNER_MATRICES,
    outer_coeffs=TOY_OUTER_COEFFS,
    outer_centers=TOY_OUTER_CENTERS,
    source: dict | None = None,
) -> CompositeProblem:
    """Hand-auditable composite: g_{i,j} integer linear maps, F_{i,j} quartics.

    Every worker holds the same components, so the closed-form gradient
    mean_j G_j^T * mean_l grad F_l(G_bar x) can be checked by hand.  The
    quartic outer is not globally smooth; L_F/ell_F are certified only on
    the ball ||x|| <= TOY_BALL_RADIUS (times the largest ||G_j||).
    """
    mats = [np.asarray(G, dtype=np.float64) for G in inner_matrices]
    coeffs = [float(c) for c in outer_coeffs]
    centers = [np.asarray(r, dtype=np.float64) for r in outer_centers]
    if not mats or not coeffs or len(coeffs) != len(centers):
        raise ConfigurationError("toy composite needs inner matrices and outer terms")
    p, d = mats[0].shape
    ell_g = max(float(np.sqrt(np.linalg.eigvalsh(G.T @ G)[-1])) for G in mats)
    z_max = ell_g * TOY_BALL_RADIUS + max(float(np.max(np.abs(r))) for r in centers)
    pdim = mats[0].shape[0]
    ell_F = max(coeffs) * 4.0 * np.sqrt(pdim) * z_max**3
    L_F = max(coeffs) * 12.0 * z_max**2
    inner = tuple(_linear_inner(G) for G in mats)
    outer = tuple(_quartic_outer(c, r) for c, r in zip(coeffs, centers))
    return CompositeProblem(
        inner=tuple(inner for _ in range(n_workers)),
        outer=tuple(outer for _ in range(n_workers)),
        dimension=d,
        inner_dimension=p,
        ell_g=ell_g,
        L_g=0.0,
        ell_F=ell_F,
        L_F=L_F,
        f_star=None,
        kind="composite_finite_sum",
        source=source,
    )


def composite_from_dict(spec: dict) -> CompositeProblem:
    """Build a composite problem from its JSON document (see problem_from_dict)."""
    kind = spec.get("kind")
    n_workers = int(spec.get("n_workers", 1))
    if kind == "maml":
        for key in ("dimension", "m", "gamma_inner"):
            if key not in spec:
                raise ConfigurationError(f"maml spec missing required key '{key}'")
        features, labels = make_synthetic_classification(
            int(spec["dimension"]), n_workers, int(spec["m"]), int(spec.get("seed", 0))
        )
        return make_maml(features, labels, float(spec["gamma_inner"]), source=spec)
    if kind in ("composite_toy", "composite_finite_sum"):
        return make_toy_composite(
            n_workers=n_workers,
            inner_matrices=spec.get("inner_matrices", TOY_INNER_MATRICES),
            outer_coeffs=spec.get("outer_coeffs", TOY_OUTER_COEFFS),
            outer_centers=spec.get("outer_centers", TOY_OUTER_CENTERS),
            source=spec,
        )
    raise ConfigurationError(f"unknown composite kind {kind!r}")


# ---------------------------------------------------------------------------
# component-variance measurement for the subsampling error constant


def _anchored_variance(values) -> float:
    """mean_j ||v_j - mean||^2 via the anchored identity
    mean_j ||v_j - v_0||^2 - ||mean - v_0||^2, clamped at zero.

    Anchoring at the first element keeps the result exactly 0.0 when all
    components are identical (the plain form leaves ulp-level residue).
    """
    v0 = values[0]
    shifted = [v - v0 for v in values]
    second = float(np.mean([np.sum(s * s) for s in shifted]))
    mean_shift = np.mean(shifted, axis=0)
    return max(second - float(np.sum(mean_shift * mean_shift)), 0.0)


def measure_composite_sigmas(
    cp: CompositeProblem, points: Sequence[np.ndarray], safety: float = 1.1
) -> tuple[float, float, float]:
    """Certified (sigma_g^2, sigma_grad_g^2, sigma_F^2) over the sample points.

    The component-sampling expectations are finite averages over j, so each
    variance is enumerated exactly instead of Monte-Carlo estimated; the
    returned values are the max over (point, worker) times a safety factor.
    Jacobian deviations are measured in the Frobenius norm (an upper bound
    on the spectral norm, so the error-model constant stays valid) on the
    dense matrix reconstructed column-by-column from the transpose-vector
    oracle.
    """
    if not points:
        raise ConfigurationError("need at least one sample point")
    sig_g2 = sig_dg2 = sig_F2 = 0.0
    eye = np.eye(cp.inner_dimension)
    for x in points:
        x = as_param_vector(x, cp.dimension)
        for i in range(cp.n_workers):
            g_vals = [cp.inner[i][j].value(x) for j in range(cp.m_g)]
            sig_g2 = max(sig_g2, _anchored_variance(g_vals))
            # dense J^T per component, columns J^T e_t
            jts = [
                np.stack([cp.inner[i][j].jac_t_vec(x, eye[t]) for t in range(len(eye))], axis=1)
                for j in range(cp.m_g)
            ]
            sig_dg2 = max(sig_dg2, _anchored_variance(jts))
            # outer gradients evaluated where the estimator may land: at the
            # full inner mean and at each single-component inner value
            z_points = [np.mean(g_vals, axis=0)] + g_vals
            for z in z_points:
                F_grads = [cp.outer[i][j].grad(z) for j in range(cp.m_F)]
                sig_F2 = max(sig_F2, _anchored_variance(F_grads))
    return safety * sig_g2, safety * sig_dg2, safety * sig_F2
