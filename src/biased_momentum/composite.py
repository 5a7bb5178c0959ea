"""Composite finite-sum machinery: f_i(x) = F_i(g_i(x)) with both layers
finite averages, the chained-gradient evaluation, and the meta-learning
instantiation g_{i,j}(x) = x - gamma * grad of the per-sample loss.

Every worker's components are held as arrays with a worker axis, and each
oracle evaluates one index set per worker in one call (one block of sets
per row of any leading batch axes, at that row's point).  For the
meta-learning inner map the Jacobian is I - gamma * (loss Hessian); for
per-sample logistic losses its action and its dense matrix are closed form.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .errors import ConfigurationError
from .problems import (
    Problem,
    _sigmoid,
    as_param_vector,
    check_keys,
    classification_from_dict,
    config_array,
    config_float,
    config_int,
    validate_classification_data,
)
from .rng import pairwise_mean, row_dot

__all__ = [
    "CompositeProblem",
    "MamlProblem",
    "ToyCompositeProblem",
    "make_maml",
    "make_toy_composite",
    "composite_from_dict",
    "inner_value",
    "chained_gradient",
    "measure_composite_sigmas",
]


@dataclass(frozen=True, kw_only=True)
class CompositeProblem(Problem):
    """Two-level finite sum f_i(x) = (1/m_F) sum_j F_{i,j}((1/m_g) sum_l g_{i,l}(x)).

    Subclasses hold every worker's components as arrays and define the
    oracles below, each evaluating all n workers in one call: ``idx`` is a
    (..., n, k) block of one index set per worker (a (k,) set is every
    worker's), ``x`` one point or a (..., d) stack all workers share, and
    ``z``, ``u`` one (..., n, p) row per worker.  Row r of worker i belongs
    to its component j = idx[..., i, r]:

    * ``inner_values(x, idx)``        g_{i,j}(x), shape (..., n, k, p)
    * ``inner_jac_t_vecs(x, idx, u)`` J_{i,j}(x)^T u_i, shape (..., n, k, d)
    * ``inner_jac_t(x, idx)``         dense J_{i,j}(x)^T, shape (..., n, k, d, p)
    * ``outer_values(z, idx)``        F_{i,j}(z_i), shape (..., n, k)
    * ``outer_grads(z, idx)``         grad F_{i,j}(z_i), shape (..., n, k, p)

    ``inner_value`` and ``chained_gradient`` average them over the sets;
    ``f`` and ``worker_grads`` are those on the full sets.  Each row rounds
    exactly like the same component evaluated on its own, so a subset
    average does not depend on how its rows were batched.

    ``ell_g``/``L_g``/``ell_F``/``L_F`` are certified Lipschitz constants of
    the component maps and their gradients; the objective then has
    L = L_g * ell_F + ell_g^2 * L_F.
    """

    n_workers: int
    dimension: int
    inner_dimension: int
    m_g: int
    m_F: int
    ell_g: float
    L_g: float
    ell_F: float
    L_F: float
    mu: float = 0.0
    f_star: float | None = None
    kind: str = "composite_finite_sum"
    source: dict | None = field(default=None, repr=False, compare=False)

    @property
    def L(self) -> float:
        return self.L_g * self.ell_F + self.ell_g**2 * self.L_F

    def f(self, x: np.ndarray):
        z = inner_value(self, x, np.arange(self.m_g))
        return pairwise_mean(np.mean(self.outer_values(z, np.arange(self.m_F)), axis=-1), axis=-1)

    def worker_grads(self, x: np.ndarray) -> np.ndarray:
        return chained_gradient(self, x, np.arange(self.m_g), np.arange(self.m_F))

    def _sets(self, idx: np.ndarray) -> np.ndarray:
        """idx as a (..., n, k) block: a (k,) set becomes every worker's set."""
        return idx if idx.ndim > 1 else np.broadcast_to(idx, (self.n_workers, idx.size))


def _row_dots(A: np.ndarray, v: np.ndarray) -> np.ndarray:
    """<A[..., r, :], v[..., :]> for every row r of A (v: one row per index set)."""
    return row_dot(A, v[..., None, :])


# ---------------------------------------------------------------------------
# subset evaluation (Eq.-style chained estimator pieces)


def _validate_indices(cp: CompositeProblem, idx, m: int, label: str) -> np.ndarray:
    idx = np.asarray(idx, dtype=np.intp)
    if idx.ndim == 0 or idx.size == 0:
        raise ConfigurationError(f"empty {label} index set")
    if idx.ndim > 1 and idx.shape[-2] != cp.n_workers:
        raise ConfigurationError(f"{label} index block needs {cp.n_workers} worker rows")
    if idx.min() < 0 or idx.max() >= m:
        raise ConfigurationError(f"{label} index out of range [0, {m})")
    return idx


def _points(cp: CompositeProblem, x) -> np.ndarray:
    """x as one parameter vector, or a (..., d) stack of them (one per block
    of index sets, or sharing one)."""
    x = np.asarray(x, dtype=np.float64)
    if x.ndim < 2:
        return as_param_vector(x, cp.dimension)
    if x.shape[-1] != cp.dimension or not np.all(np.isfinite(x)):
        raise ConfigurationError(f"need finite points of dimension {cp.dimension}, got {x.shape}")
    return x


def inner_value(cp: CompositeProblem, x: np.ndarray, indices) -> np.ndarray:
    """Each worker's average of its selected inner maps at x, (..., n, p)."""
    idx = _validate_indices(cp, indices, cp.m_g, "inner")
    return np.mean(cp.inner_values(_points(cp, x), idx), axis=-2)


def chained_gradient(cp: CompositeProblem, x: np.ndarray, indices_g, indices_F) -> np.ndarray:
    """Subsampled chain-rule gradient of every worker's F_i(g_i(x)), (..., n, d).

    The inner value and the inner Jacobian average over the same index set
    (one shared draw); the outer gradient averages over its own set and is
    evaluated at the subset inner value.  Full index sets reproduce the
    exact worker gradients.  (..., n, S_g) and (..., n, S_F) blocks of index
    sets give the gradients of one estimate per worker and batch row, each
    equal to one call per pair of sets; x may then hold one point per row.
    """
    x = _points(cp, x)
    idx_g = _validate_indices(cp, indices_g, cp.m_g, "inner")
    idx_f = _validate_indices(cp, indices_F, cp.m_F, "outer")
    if idx_g.shape[:-1] != idx_f.shape[:-1]:
        raise ConfigurationError(
            f"inner and outer index batches differ: {idx_g.shape[:-1]} vs {idx_f.shape[:-1]}")
    z = inner_value(cp, x, idx_g)
    w = np.mean(cp.outer_grads(z, idx_f), axis=-2)
    return np.mean(cp.inner_jac_t_vecs(x, idx_g, w), axis=-2)


# ---------------------------------------------------------------------------
# meta-learning build (one inner gradient step per sample)


@dataclass(frozen=True, kw_only=True)
class MamlProblem(CompositeProblem):
    """Meta-learning problem (see make_maml).  With s = sigmoid(-b <a, x>)
    the sample loss log(1 + exp(-b <a, x>)) has gradient -b s a and
    Hessian s (1 - s) a a^T, for the rows a, b of features[i], labels[i]."""

    features: np.ndarray  # (n, m, d): worker i holds rows features[i]
    labels: np.ndarray  # (n, m) with entries in {-1, +1}
    gamma_inner: float
    ell_base: float
    L_base: float
    kind: str = "maml"

    def _rows(self, idx: np.ndarray):
        """Each worker's rows a_j and labels b_j for its set in idx."""
        workers = np.arange(self.n_workers)[:, None]
        return self.features[workers, idx], self.labels[workers, idx]

    def _sigmoids(self, v: np.ndarray, idx: np.ndarray):
        """Rows a_j, labels b_j and s_j = sigmoid(-b_j <a_j, v_i>) for idx,
        at one (..., n, d) point v_i per worker."""
        A, b = self._rows(idx)
        return A, b, _sigmoid(-b * _row_dots(A, v))

    def inner_values(self, x, idx):
        x = x[..., None, :]
        A, b, s = self._sigmoids(x, idx)
        return x[..., None, :] - self.gamma_inner * ((-b * s)[..., None] * A)

    def inner_jac_t_vecs(self, x, idx, u):
        A, _, s = self._sigmoids(x[..., None, :], idx)
        return u[..., None, :] - self.gamma_inner * (
            (s * (1.0 - s) * _row_dots(A, u))[..., None] * A)

    def inner_jac_t(self, x, idx):
        A, _, s = self._sigmoids(x[..., None, :], idx)
        scaled = (s * (1.0 - s))[..., None] * A
        return np.eye(self.dimension) - self.gamma_inner * (A[..., :, None] * scaled[..., None, :])

    def outer_values(self, z, idx):
        A, b = self._rows(idx)
        return np.logaddexp(0.0, -b * _row_dots(A, z))

    def outer_grads(self, z, idx):
        A, b, s = self._sigmoids(z, idx)
        return (-b * s)[..., None] * A


def make_maml(
    features: Sequence[np.ndarray],
    labels: Sequence[np.ndarray],
    gamma_inner: float,
    source: dict | None = None,
) -> MamlProblem:
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
    features, labels, d, max_row_sq = validate_classification_data(features, labels)
    ell_base = float(np.sqrt(max_row_sq))
    L_base = ell_base**2 / 4.0
    return MamlProblem(
        features=features,
        labels=labels,
        n_workers=len(features),
        dimension=d,
        inner_dimension=d,
        m_g=features.shape[1],
        m_F=features.shape[1],
        ell_g=1.0 + gamma_inner * L_base,
        L_g=2.0 * gamma_inner * L_base,
        ell_F=ell_base,
        L_F=L_base,
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


@dataclass(frozen=True, kw_only=True)
class ToyCompositeProblem(CompositeProblem):
    """g_j(x) = G_j x and F_j(z) = c_j sum_t (z_t - r_{j,t})^4, shared by
    every worker."""

    G: np.ndarray  # (m_g, p, d) inner matrices
    coeffs: np.ndarray  # (m_F,) outer coefficients c_j
    centers: np.ndarray  # (m_F, p) outer centers r_j

    def inner_values(self, x, idx):
        return (self.G[self._sets(idx)] @ x[..., None, None, :, None])[..., 0]

    def inner_jac_t_vecs(self, x, idx, u):
        return (self.inner_jac_t(x, idx) @ u[..., None, :, None])[..., 0]

    def inner_jac_t(self, x, idx):
        return np.ascontiguousarray(np.swapaxes(self.G[self._sets(idx)], -1, -2))

    def outer_values(self, z, idx):
        return self.coeffs[idx] * np.sum((z[..., None, :] - self.centers[idx]) ** 4, axis=-1)

    def outer_grads(self, z, idx):
        return (4.0 * self.coeffs[idx])[..., None] * (z[..., None, :] - self.centers[idx]) ** 3


def make_toy_composite(
    n_workers: int = 1,
    inner_matrices=TOY_INNER_MATRICES,
    outer_coeffs=TOY_OUTER_COEFFS,
    outer_centers=TOY_OUTER_CENTERS,
    source: dict | None = None,
) -> ToyCompositeProblem:
    """Hand-auditable composite: g_{i,j} integer linear maps, F_{i,j} quartics.

    Every worker holds the same components, so the closed-form gradient
    mean_j G_j^T * mean_l grad F_l(G_bar x) can be checked by hand.  The
    quartic outer is not globally smooth; L_F/ell_F are certified only on
    the ball ||x|| <= TOY_BALL_RADIUS (times the largest ||G_j||).
    """
    G = np.asarray(inner_matrices, dtype=np.float64)
    coeffs = np.asarray(outer_coeffs, dtype=np.float64)
    centers = np.asarray(outer_centers, dtype=np.float64)
    if G.ndim != 3 or not G.size or not coeffs.size or centers.shape != (coeffs.size, G.shape[1]):
        raise ConfigurationError("toy composite needs inner matrices (m_g, p, d), outer "
                                 "coefficients (m_F,) and outer centers (m_F, p)")
    m_g, p, d = G.shape
    ell_g = max(float(np.sqrt(np.linalg.eigvalsh(Gj.T @ Gj)[-1])) for Gj in G)
    z_max = ell_g * TOY_BALL_RADIUS + float(np.max(np.abs(centers)))
    c_max = float(np.max(coeffs))
    return ToyCompositeProblem(
        G=G,
        coeffs=coeffs,
        centers=centers,
        n_workers=n_workers,
        dimension=d,
        inner_dimension=p,
        m_g=m_g,
        m_F=coeffs.size,
        ell_g=ell_g,
        L_g=0.0,
        ell_F=c_max * 4.0 * math.sqrt(p) * z_max**3,
        L_F=c_max * 12.0 * z_max**2,
        source=source,
    )


def composite_from_dict(spec: dict) -> CompositeProblem:
    """Build a composite problem from its JSON document (see problem_from_dict)."""
    kind = spec.get("kind")
    if kind == "maml":
        check_keys(spec, ("kind", "dimension", "n_workers", "m", "seed", "gamma_inner"),
                   "maml spec", required=("dimension", "m", "gamma_inner"))
        features, labels = classification_from_dict(spec)
        gamma_inner = config_float(spec["gamma_inner"], "gamma_inner")
        return make_maml(features, labels, gamma_inner, source=spec)
    if kind in ("composite_toy", "composite_finite_sum"):
        check_keys(spec, ("kind", "n_workers", "inner_matrices", "outer_coeffs", "outer_centers"),
                   f"{kind} spec")
        return make_toy_composite(
            n_workers=config_int(spec.get("n_workers", 1), "n_workers", minimum=1),
            inner_matrices=config_array(
                spec.get("inner_matrices", TOY_INNER_MATRICES), "inner_matrices", 3),
            outer_coeffs=config_array(spec.get("outer_coeffs", TOY_OUTER_COEFFS), "outer_coeffs", 1),
            outer_centers=config_array(
                spec.get("outer_centers", TOY_OUTER_CENTERS), "outer_centers", 2),
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
    closed-form dense Jacobians, each oracle called once per point.
    """
    if not points:
        raise ConfigurationError("need at least one sample point")
    sig_g2 = sig_dg2 = sig_F2 = 0.0
    all_g, all_F = np.arange(cp.m_g), np.arange(cp.m_F)
    for x in points:
        x = as_param_vector(x, cp.dimension)
        g_vals = cp.inner_values(x, all_g)
        # outer gradients evaluated where the estimator may land: at the
        # full inner mean and at each single-component inner value
        z = np.concatenate((np.mean(g_vals, axis=-2)[None], np.swapaxes(g_vals, 0, 1)))
        outer = np.swapaxes(cp.outer_grads(z, all_F), 0, 1)  # (worker, z, component, p)
        sig_g2 = max(sig_g2, *map(_anchored_variance, g_vals))
        sig_dg2 = max(sig_dg2, *map(_anchored_variance, cp.inner_jac_t(x, all_g)))
        sig_F2 = max(sig_F2, *(_anchored_variance(grads) for row in outer for grads in row))
    return safety * sig_g2, safety * sig_dg2, safety * sig_F2
