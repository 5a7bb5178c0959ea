"""Composite finite-sum machinery: f_i(x) = F_i(g_i(x)) with both layers
finite averages, the chained-gradient evaluation, and the meta-learning
instantiation g_{i,j}(x) = x - gamma * grad of the per-sample loss.

Every worker's components are held as arrays with a worker axis, and each
oracle evaluates one index set per worker in one call (one block of sets
per row of any leading batch axes, at that row's point).  The subset
estimates (``subset_gradients``) read one inner table, so a round, which
computes only the aggregate, evaluates it once per point, and the error
measurement once for all its draws at its point; f and the exact
gradients (the table chained on the full sets) are what the engine
observes of a block of rounds, each over the stack of the block's points.
Every mean over a set axis is ``_set_mean``.  For the meta-learning inner
map the Jacobian is I - gamma * (loss Hessian); for per-sample logistic
losses its action is closed form.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import ConfigurationError
from .problems import (
    SAFETY,
    Problem,
    _sigmoid,
    as_point_stack,
    as_points,
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
    "chained_gradient",
    "subset_gradients",
    "measure_composite_sigmas",
]


@dataclass(frozen=True, kw_only=True)
class CompositeProblem(Problem):
    """Two-level finite sum f_i(x) = (1/m_F) sum_j F_{i,j}((1/m_g) sum_l g_{i,l}(x)).

    Subclasses hold every worker's components as arrays and define the four
    oracles below, each evaluating all n workers in one call: ``x`` is one
    point or a (..., d) stack of them, ``idx`` a (..., n, k) block of one
    index set per worker (a (k,) set is every worker's), and ``z``, ``u``
    one (..., n, p) row per worker.  Row r of worker i belongs to its
    component j = idx[..., i, r]:

    * ``inner_table(x)``               every component's inner quantities at
      each point of x: a tuple of (..., n, m_g, ...) arrays, g_{i,j}(x) of
      shape (..., n, m_g, p) and then what the Jacobian oracle reads
    * ``inner_jac_t_vecs(rows, idx, u)`` J_{i,j}(x)^T u_i, shape (..., n, k, d)
    * ``outer_values(z, idx)``         F_{i,j}(z_i), shape (..., n, k)
    * ``outer_grads(z, idx)``          grad F_{i,j}(z_i), shape (..., n, k, p)

    ``rows`` is the table after its inner values, gathered on idx
    (``_gather``), (..., n, k, ...) per array; on the full sets it is the
    table itself, which the exact gradients chain: bit for bit
    ``chained_gradient``, the estimator's average over subsets, on the full
    sets.  Each table row rounds exactly like its component on its own and
    a gather copies it, so a subset average does not depend on how its rows
    were batched.

    ``ell_g``/``L_g``/``ell_F``/``L_F`` are certified Lipschitz constants of
    the component maps and their gradients; the objective then has
    L = L_g * ell_F + ell_g^2 * L_F.
    """

    inner_dimension: int
    m_g: int
    m_F: int
    ell_g: float
    L_g: float
    ell_F: float
    L_F: float

    @property
    def L(self) -> float:
        return self.L_g * self.ell_F + self.ell_g**2 * self.L_F

    def f(self, x: np.ndarray):
        z = _set_mean(self.inner_table(as_points(x, self.dimension))[0])
        return pairwise_mean(np.mean(self.outer_values(z, np.arange(self.m_F)), axis=-1), axis=-1)

    def worker_grads(self, x: np.ndarray) -> np.ndarray:
        return self.table_worker_grads(self.inner_table(as_points(x, self.dimension)))

    def table_worker_grads(self, table: tuple) -> np.ndarray:
        """The exact worker gradients at the points whose inner table this is."""
        values, *rows = table
        return _chain(self, rows, _set_mean(values), np.arange(self.m_g), np.arange(self.m_F))

    @property
    def point_elements(self) -> int:
        """Each (n, m, p) or (n, m, d) array the oracles hold per point."""
        return self.n_workers * max(self.m_g, self.m_F) * max(self.dimension, self.inner_dimension)

    def _sets(self, idx: np.ndarray) -> np.ndarray:
        """idx as a (..., n, k) block: a (k,) set becomes every worker's set."""
        return idx if idx.ndim > 1 else np.broadcast_to(idx, (self.n_workers, idx.size))


def _set_mean(a: np.ndarray) -> np.ndarray:
    """np.mean(a, axis=-2) bit for bit, over the set axis of a C-ordered
    (..., k, p) array: a left fold of slice adds, the order numpy's
    reduction over a non-contiguous axis also takes, at the cost of k - 1
    array adds rather than one short inner loop per row.  With p = 1 the
    set axis is contiguous, where numpy sums pairwise, so that case (and a
    one-entry set) reduces as numpy does.
    """
    k = a.shape[-2]
    if a.shape[-1] < 2 or k < 2:
        return np.add.reduce(a, axis=-2) / k
    total = a[..., 0, :] + a[..., 1, :]
    for j in range(2, k):
        total += a[..., j, :]
    total /= k
    return total


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


def _gather(table: tuple, idx: np.ndarray) -> tuple:
    """Component idx[..., i, r] of worker i from each (..., n, m, ...) array
    of a table, (..., n, k, ...): one point's table serves a whole block of
    sets, and row b of a stack's table serves set block b."""
    *lead, n, m = table[0].shape[:-1]
    rows = np.arange(math.prod(lead) * n).reshape((*lead, n, 1)) * m + idx
    return tuple(a.reshape((-1,) + a.shape[len(lead) + 2:])[rows] for a in table)


def chained_gradient(cp: CompositeProblem, x: np.ndarray, indices_g, indices_F) -> np.ndarray:
    """Subsampled chain-rule gradient of every worker's F_i(g_i(x)), (..., n, d).

    The inner value and the inner Jacobian average over the same index set
    (one shared draw); the outer gradient averages over its own set and is
    evaluated at the subset inner value.  Full index sets reproduce the
    exact worker gradients.  (..., n, S_g) and (..., n, S_F) blocks of index
    sets give the gradients of one estimate per worker and batch row, each
    equal to one call per pair of sets; x may then hold one point per row.
    The inner table is evaluated once per point (see subset_gradients).
    """
    return subset_gradients(cp, cp.inner_table(as_points(x, cp.dimension)), indices_g, indices_F)


def subset_gradients(cp: CompositeProblem, table: tuple, indices_g, indices_F) -> np.ndarray:
    """chained_gradient at the points whose inner table this is: the sets
    gather their rows from the table."""
    idx_g = _validate_indices(cp, indices_g, cp.m_g, "inner")
    idx_f = _validate_indices(cp, indices_F, cp.m_F, "outer")
    if idx_g.shape[:-1] != idx_f.shape[:-1]:
        raise ConfigurationError(
            f"inner and outer index batches differ: {idx_g.shape[:-1]} vs {idx_f.shape[:-1]}")
    values, *rows = _gather(table, idx_g)
    z = _set_mean(values)
    del values  # freed before the outer and Jacobian work allocates its own
    return _chain(cp, rows, z, idx_g, idx_f)


def _chain(cp: CompositeProblem, rows, z: np.ndarray, idx_g, idx_f) -> np.ndarray:
    """The chained gradients from the subset inner value z on idx_g and the
    table rows on idx_g."""
    w = _set_mean(cp.outer_grads(z, idx_f))
    return _set_mean(cp.inner_jac_t_vecs(rows, idx_g, w))


# ---------------------------------------------------------------------------
# meta-learning build (one inner gradient step per sample)


@dataclass(frozen=True, kw_only=True)
class MamlProblem(CompositeProblem):
    """Meta-learning problem (see make_maml).  With s = sigmoid(-b <a, x>)
    the sample loss log(1 + exp(-b <a, x>)) has gradient -b s a and
    Hessian s (1 - s) a a^T, for the rows a, b of features[i], labels[i].
    Its inner table holds g(x) = x + gamma_inner b s a and s (1 - s) for
    every sample."""

    kind = "maml"
    features: np.ndarray  # (n, m, d): worker i holds rows features[i]
    labels: np.ndarray  # (n, m) with entries in {-1, +1}
    gamma_inner: float
    ell_base: float
    L_base: float

    def _rows(self, idx: np.ndarray):
        """Each worker's rows a_j and labels b_j for its set in idx: the
        arrays themselves for the full set arange(m), else gathered copies."""
        if idx.ndim == 1 and np.array_equal(idx, np.arange(self.labels.shape[-1])):
            return self.features, self.labels
        return _gather((self.features, self.labels), idx)

    def inner_table(self, x):
        x, b = x[..., None, None, :], self.labels
        s = _sigmoid(-b * row_dot(self.features, x))
        return x - self.gamma_inner * ((-b * s)[..., None] * self.features), s * (1.0 - s)

    def inner_jac_t_vecs(self, rows, idx, u):
        A = self._rows(idx)[0]
        return u[..., None, :] - self.gamma_inner * ((rows[0] * _row_dots(A, u))[..., None] * A)

    def outer_values(self, z, idx):
        A, b = self._rows(idx)
        return np.logaddexp(0.0, -b * _row_dots(A, z))

    def outer_grads(self, z, idx):
        A, b = self._rows(idx)
        return (-b * _sigmoid(-b * _row_dots(A, z)))[..., None] * A


def make_maml(
    features: Sequence[np.ndarray],
    labels: Sequence[np.ndarray],
    gamma_inner: float,
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

    kind = "composite_toy"
    G: np.ndarray  # (m_g, p, d) inner matrices
    coeffs: np.ndarray  # (m_F,) outer coefficients c_j
    centers: np.ndarray  # (m_F, p) outer centers r_j

    def inner_table(self, x):
        return ((self.G[self._sets(np.arange(self.m_g))] @ x[..., None, None, :, None])[..., 0],)

    def inner_jac_t_vecs(self, rows, idx, u):
        GT = np.ascontiguousarray(np.swapaxes(self.G[self._sets(idx)], -1, -2))
        return (GT @ u[..., None, :, None])[..., 0]

    def outer_values(self, z, idx):
        return self.coeffs[idx] * np.sum((z[..., None, :] - self.centers[idx]) ** 4, axis=-1)

    def outer_grads(self, z, idx):
        return (4.0 * self.coeffs[idx])[..., None] * (z[..., None, :] - self.centers[idx]) ** 3


def make_toy_composite(
    n_workers: int = 1,
    inner_matrices=TOY_INNER_MATRICES,
    outer_coeffs=TOY_OUTER_COEFFS,
    outer_centers=TOY_OUTER_CENTERS,
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
    )


def composite_from_dict(spec: dict) -> CompositeProblem:
    """Build a composite problem from its JSON document (see problem_from_dict)."""
    kind = spec.get("kind")
    if kind == "maml":
        check_keys(spec, ("kind", "dimension", "n_workers", "m", "seed", "gamma_inner"),
                   "maml spec", required=("dimension", "m", "gamma_inner"))
        features, labels = classification_from_dict(spec)
        gamma_inner = config_float(spec["gamma_inner"], "gamma_inner")
        return make_maml(features, labels, gamma_inner)
    if kind == "composite_toy":
        check_keys(spec, ("kind", "n_workers", "inner_matrices", "outer_coeffs", "outer_centers"),
                   "composite_toy spec")
        return make_toy_composite(
            n_workers=config_int(spec.get("n_workers", 1), "n_workers", minimum=1),
            inner_matrices=config_array(
                spec.get("inner_matrices", TOY_INNER_MATRICES), "inner_matrices", 3),
            outer_coeffs=config_array(spec.get("outer_coeffs", TOY_OUTER_COEFFS), "outer_coeffs", 1),
            outer_centers=config_array(
                spec.get("outer_centers", TOY_OUTER_CENTERS), "outer_centers", 2),
        )
    raise ConfigurationError(f"unknown composite kind {kind!r}")


# ---------------------------------------------------------------------------
# component-variance measurement for the subsampling error constant


def _anchored_variance(values: np.ndarray) -> np.ndarray:
    """mean_j ||v_j - mean||^2 over the components j of each (..., m, k)
    block of values, shape (...), via the anchored identity
    mean_j ||v_j - v_0||^2 - ||mean - v_0||^2, clamped at zero.

    Anchoring at the first component keeps the result exactly 0.0 when all
    components are identical (the plain form leaves ulp-level residue).
    Each square sums over the contiguous last axis, then the component mean.
    """
    shifted = values - values[..., :1, :]
    second = np.mean(np.sum(shifted * shifted, axis=-1), axis=-1)
    mean_shift = np.mean(shifted, axis=-2)
    return np.maximum(second - np.sum(mean_shift * mean_shift, axis=-1), 0.0)


def measure_composite_sigmas(
    cp: CompositeProblem, points: Sequence[np.ndarray]
) -> tuple[float, float, float]:
    """Certified (sigma_g^2, sigma_grad_g^2, sigma_F^2) over the sample points.

    The component-sampling expectations are finite averages over j, so each
    variance is enumerated exactly instead of Monte-Carlo estimated; the
    returned values are the max over (point, worker) times SAFETY.
    Jacobian deviations are measured in the Frobenius norm (an upper bound
    on the spectral norm, so the error-model constant stays valid) on the
    dense J^T, built column by column: column t is the Jacobian action the
    estimates run, on the unit vector e_t.  One call of each oracle covers
    all the points, stacked as a (P, d) array.
    """
    table = cp.inner_table(as_point_stack(points, cp.dimension))
    g_vals = table[0]  # (point, worker, component, p)
    # the p unit vectors as one (p, 1, 1, p) block of rows, broadcast over
    # points and workers; their axis moves last, (point, worker, component, d, p)
    units = np.eye(cp.inner_dimension)[:, None, None, :]
    jac = np.moveaxis(cp.inner_jac_t_vecs(table[1:], np.arange(cp.m_g), units), 0, -1)
    # outer gradients evaluated where the estimator may land: at the full
    # inner mean and at each single-component inner value, (point, z, worker, p)
    z = np.concatenate((np.mean(g_vals, axis=-2)[:, None], np.swapaxes(g_vals, 1, 2)), axis=1)
    variances = (g_vals, jac.reshape(jac.shape[:-2] + (-1,)), cp.outer_grads(z, np.arange(cp.m_F)))
    return tuple(SAFETY * float(np.max(_anchored_variance(v))) for v in variances)
