"""Objective suite with exact per-worker gradients and certified constants.

Each problem instance is an immutable object exposing two oracles, each
taking one point x of shape (d,) or a stack of points of shape (..., d):

* ``f(x)``            -- the global objective (1/n) sum_i f_i(x), the
  pairwise-tree mean over the workers unless a closed form exists; shape
  (...), a float for one point,
* ``worker_grads(x)`` -- every worker's exact local gradient grad f_i(x),
  shape (..., n, d),

and ``L``, ``mu``, ``f_star``: a certified gradient-Lipschitz constant, a
PL constant (0.0 when no certificate is claimed) and the global lower
bound (None when unknown).  The dataclass base ``Problem`` declares the
fields all kinds share; a kind adds its own data and ``L``.  Every row of
a stack rounds bit for bit like the same point evaluated on its own:
products with data matrices are stacked matrix-vector products, never
one matrix-matrix product.

One table per point (``table(x)``, a tuple of arrays: the worker gradients
unless a kind holds more) serves a round, its observation and the error
measurement, which read both oracles' values off it.

Parameter vectors are plain 1-D float64 numpy arrays; ``as_param_vector``
is the single validation gate (finite entries, correct dimension).

Worker decompositions are genuine: the quadratic splits the rows of A into
per-worker blocks, regression problems hold disjoint local datasets as one
(n, m, d) array whose leading axis is the worker, so their oracles take no
worker index and evaluate every worker in one expression.  The exact full
gradient is always the pairwise-tree average of the exact worker
gradients, so aggregation identities hold bit-for-bit.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field, replace
from functools import cached_property
from typing import ClassVar

import numpy as np

from .errors import ConfigurationError, DataError
from .rng import STREAM_DATA, pairwise_mean, row_dot, substream

__all__ = [
    "Problem",
    "QuadraticProblem",
    "LogisticL2Problem",
    "NonconvexRegProblem",
    "NoiseSpec",
    "as_param_vector",
    "make_quadratic",
    "make_logistic_l2",
    "make_nonconvex_reg",
    "make_synthetic_classification",
    "exact_gradient",
    "full_gradient",
    "problem_from_dict",
]


def as_param_vector(values, dimension: int | None = None) -> np.ndarray:
    """Validate and return a parameter vector as a 1-D float64 array."""
    x = np.asarray(values, dtype=np.float64)
    if x.ndim != 1:
        raise ConfigurationError(f"parameter vector must be 1-D, got shape {x.shape}")
    if dimension is not None and x.size != dimension:
        raise ConfigurationError(
            f"parameter vector has dimension {x.size}, expected {dimension}"
        )
    if not np.all(np.isfinite(x)):
        raise ConfigurationError("parameter vector contains non-finite entries")
    return x


def as_points(values, dimension: int) -> np.ndarray:
    """Validate and return one parameter vector, or a (..., d) stack of them."""
    x = np.asarray(values, dtype=np.float64)
    if x.ndim < 2:
        return as_param_vector(x, dimension)
    if x.shape[-1] != dimension or not np.all(np.isfinite(x)):
        raise ConfigurationError(f"need finite points of dimension {dimension}, got {x.shape}")
    return x


SAFETY = 1.1  # factor on every premise constant measured at sample points


def as_point_stack(points, dimension: int) -> np.ndarray:
    """A non-empty sequence of parameter vectors (a list, or the rows of a
    (P, d) array), each validated, as one (P, d) float64 stack."""
    if len(points) == 0:
        raise ConfigurationError("need at least one sample point")
    return np.array([as_param_vector(x, dimension) for x in points])


def _sigmoid(t):
    """1 / (1 + exp(-t)), elementwise and free of overflow warnings: with
    e = exp(-|t|) it is 1 / (1 + e) where t >= 0 and e / (1 + e) elsewhere."""
    e = np.exp(-np.abs(t))
    return np.where(t >= 0, 1.0 / (1.0 + e), e / (1.0 + e))


def check_keys(d: dict, allowed, section: str, required=()) -> None:
    """Reject a non-object config section, a key its schema does not define or a missing one."""
    if not isinstance(d, dict):
        raise ConfigurationError(f"{section} must be a JSON object, got {d!r}")
    unknown = sorted(set(d) - set(allowed))
    if unknown:
        raise ConfigurationError(f"unknown {section} key(s) {unknown}; allowed: {sorted(allowed)}")
    for key in required:
        if key not in d:
            raise ConfigurationError(f"{section} missing required key '{key}'")


def config_int(value, name: str, minimum: int = 0) -> int:
    """An integer config field >= minimum; 3.0 passes, NaN, inf, 2.5, true and "3" raise."""
    whole = isinstance(value, (int, np.integer)) or (isinstance(value, float) and value.is_integer())
    if isinstance(value, bool) or not whole or value < minimum:
        raise ConfigurationError(f"{name} must be an integer >= {minimum}, got {value!r}")
    return int(value)


def config_float(value, name: str) -> float:
    """A finite number config field."""
    if isinstance(value, bool) or not isinstance(value, (int, float)) or not math.isfinite(value):
        raise ConfigurationError(f"{name} must be a finite number, got {value!r}")
    return float(value)


def _numbers_only(value) -> bool:
    """True when every leaf of nested lists/tuples is an int or float, not a bool."""
    if isinstance(value, (list, tuple)):
        return all(_numbers_only(v) for v in value)
    return isinstance(value, (int, float, np.integer, np.floating)) and not isinstance(value, bool)


def config_array(value, name: str, ndim: int) -> np.ndarray:
    """A non-empty, finite float64 array with ndim axes from (nested) JSON lists
    of numbers; a boolean or a string at any depth is rejected."""
    try:
        arr = np.asarray(value, dtype=np.float64) if _numbers_only(value) else None
    except (TypeError, ValueError):
        arr = None
    if arr is None or arr.ndim != ndim or not arr.size or not np.all(np.isfinite(arr)):
        raise ConfigurationError(f"{name} must be a {ndim}-D array of finite numbers, got {value!r}")
    return arr


@dataclass(frozen=True, kw_only=True)
class Problem:
    """Base of every problem, holding the fields all kinds share.

    Each kind names itself in the class constant ``kind``, adds its data
    and ``L`` and defines the stacked oracles ``f`` ((..., d) -> (...)) and
    ``worker_grads`` ((..., d) -> (..., n, d)) described in the module
    docstring, whose table reads a kind that shares work overrides.
    ``source`` is the JSON document the problem was built from.
    ``point_elements`` bounds a point's table and the reads off it.
    """

    kind: ClassVar[str]
    n_workers: int
    dimension: int
    mu: float = 0.0
    f_star: float | None = None
    source: dict | None = field(default=None, repr=False, compare=False)

    def f(self, x: np.ndarray):
        raise NotImplementedError

    def worker_grads(self, x: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def table(self, x: np.ndarray) -> tuple:
        """The one evaluation at x (unvalidated) or a (..., d) stack, as arrays."""
        return (self.worker_grads(x),)

    def table_worker_grads(self, table: tuple) -> np.ndarray:
        return table[0]

    def table_f(self, table: tuple, x: np.ndarray):
        return self.f(x)

    @property
    def point_elements(self) -> int:
        """float64 elements that a point's table and the reads off it hold
        at most: the n worker gradients."""
        return self.n_workers * self.dimension


# ---------------------------------------------------------------------------
# noise model


@dataclass(frozen=True)
class NoiseSpec:
    """Additive perturbation applied to worker gradients.

    ``sigma2`` is the per-coordinate Gaussian variance, ``delta_offset`` a
    constant bias (scalar c means the vector c*ones).  With both zero the
    worker gradient is exact and deterministic.
    """

    sigma2: float = 0.0
    delta_offset: float | tuple = 0.0
    seed: int = 0  # validated and echoed; no computation reads it

    def __post_init__(self):
        if not (math.isfinite(self.sigma2) and self.sigma2 >= 0):
            raise ConfigurationError(f"sigma2 must be finite and >= 0, got {self.sigma2}")
        off = self.delta_offset
        if isinstance(off, (list, np.ndarray)):
            off = tuple(float(v) for v in off)
            object.__setattr__(self, "delta_offset", off)
        try:
            finite = all(math.isfinite(v) for v in (off if isinstance(off, tuple) else (off,)))
        except TypeError:
            finite = False
        if not finite:
            raise ConfigurationError(f"delta_offset must be finite numbers, got {off!r}")

    @property
    def is_null(self) -> bool:
        off = self.delta_offset
        off_zero = all(v == 0.0 for v in off) if isinstance(off, tuple) else off == 0.0
        return self.sigma2 == 0.0 and off_zero

    def offset_vector(self, dimension: int) -> np.ndarray:
        off = self.delta_offset
        if isinstance(off, tuple):
            if len(off) not in (1, dimension):
                raise ConfigurationError(
                    f"delta_offset has length {len(off)}, expected {dimension}"
                )
            if len(off) == 1:
                return np.full(dimension, off[0])
            return np.asarray(off, dtype=np.float64)
        return np.full(dimension, float(off))

    def offset_norm_sq(self, dimension: int) -> float:
        v = self.offset_vector(dimension)
        return float(v @ v)

    def draw(self, standard: np.ndarray | None, dimension: int) -> np.ndarray | None:
        """The perturbation added to worker gradients of the given dimension:
        the offset vector plus sqrt(sigma2) times the standard normals
        ``standard`` (a float64 (..., d) block, None when sigma2 = 0), or None
        when the spec is null.  Each value rounds as ``normal(0,
        sqrt(sigma2))`` plus the offset does.  The block is scaled in place
        and returned, so a large draw needs no second buffer.
        """
        if self.is_null:
            return None
        offset = self.offset_vector(dimension)
        if self.sigma2 == 0:
            return offset
        standard *= np.sqrt(self.sigma2)
        standard += 0.0  # Generator.normal(loc, scale) computes loc + scale * z
        standard += offset
        return standard

    def to_dict(self) -> dict:
        off = self.delta_offset
        return {
            "sigma2": self.sigma2,
            "delta_offset": list(off) if isinstance(off, tuple) else off,
            "seed": self.seed,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "NoiseSpec":
        check_keys(d, ("sigma2", "delta_offset", "seed"), "noise")
        off = d.get("delta_offset", 0.0)
        return cls(
            sigma2=config_float(d.get("sigma2", 0.0), "sigma2"),
            delta_offset=(tuple(config_array(off, "delta_offset", 1).tolist())
                          if isinstance(off, list) else config_float(off, "delta_offset")),
            seed=config_int(d.get("seed", 0), "seed"),
        )


# ---------------------------------------------------------------------------
# quadratic family: f(x) = 0.5 ||A x||^2


@dataclass(frozen=True, kw_only=True)
class QuadraticProblem(Problem):
    """f(x) = 0.5 ||Ax||^2 with rows of A block-partitioned across workers.

    Worker i owns row block A_i and f_i(x) = (n/2) ||A_i x||^2, so the
    average of the f_i reconstructs the global objective while the local
    gradients n * A_i^T A_i x are genuinely heterogeneous.
    """

    kind = "quadratic"
    A: np.ndarray
    blocks: tuple  # per-worker row submatrices of A (ragged, see worker_grads)
    L: float

    def f(self, x: np.ndarray):
        x = np.asarray(x, dtype=np.float64)
        r = (self.A @ x[..., None])[..., 0]
        return 0.5 * row_dot(r, r)

    @cached_property
    def _height_groups(self) -> tuple:
        """(slice of workers, (w, h, d) stack of their blocks) per run of one block height."""
        runs = [np.stack(list(run)) for _, run in itertools.groupby(self.blocks, key=len)]
        ends = np.cumsum([len(run) for run in runs]).tolist()
        return tuple((slice(end - len(run), end), run) for end, run in zip(ends, runs))

    def worker_grads(self, x: np.ndarray) -> np.ndarray:
        # gradient n * A_i^T (A_i x) of worker i; A_i.T stays a transposed view.
        # np.array_split blocks take at most two heights (d=10, n=4 gives 3, 3,
        # 2, 2 rows), so one stacked product pair per height: each block's
        # matrix-vector products run as they would alone.  Zero-padding to one
        # (n, r_max, d) stack would change the products' rounding.
        x = np.asarray(x, dtype=np.float64)[..., None, :, None]
        out = np.empty(x.shape[:-3] + (self.n_workers, self.dimension))
        for workers, S in self._height_groups:
            out[..., workers, :] = self.n_workers * (np.swapaxes(S, -1, -2) @ (S @ x))[..., 0]
        return out


def make_quadratic(
    A=None,
    *,
    spectrum=None,
    dimension: int | None = None,
    n_workers: int = 1,
    seed: int = 0,
    least_squares: bool = False,
) -> QuadraticProblem:
    """Build the quadratic instance from an explicit matrix or a spectrum.

    With ``spectrum`` given, A is the symmetric PSD matrix Q diag(sqrt(s)) Q^T
    for a seeded random orthogonal Q, so A^T A has exactly the requested
    eigenvalues.  L and mu are the extreme eigenvalues of A^T A; mu is
    reported as 0.0 (PL not certified) when the Gram matrix is singular.
    f_star is 0.0, attained at x = 0.
    """
    if (A is None) == (spectrum is None):
        raise ConfigurationError("provide exactly one of A or spectrum")
    if spectrum is not None:
        s = np.asarray(spectrum, dtype=np.float64)
        if s.ndim != 1 or s.size == 0 or np.any(s < 0):
            raise ConfigurationError("spectrum must be a non-empty list of values >= 0")
        if dimension is not None and dimension != s.size:
            raise ConfigurationError("dimension does not match spectrum length")
        d = s.size
        rng = substream(seed, STREAM_DATA, 0)
        Q, _ = np.linalg.qr(rng.standard_normal((d, d)))
        A = Q @ np.diag(np.sqrt(s)) @ Q.T
    else:
        A = np.asarray(A, dtype=np.float64)
        if A.ndim != 2:
            raise ConfigurationError("A must be a matrix")
        if A.shape[0] != A.shape[1] and not least_squares:
            raise ConfigurationError(
                f"A is {A.shape[0]}x{A.shape[1]}; pass least_squares=True for "
                "non-square designs"
            )
    n_rows, d = A.shape
    if n_workers < 1 or n_workers > n_rows:
        raise ConfigurationError(
            f"n_workers={n_workers} must be in [1, {n_rows}] (one row block each)"
        )
    gram = A.T @ A
    eigs = np.linalg.eigvalsh(gram)
    L = float(eigs[-1])
    mu = float(eigs[0])
    if mu < 1e-12 * max(L, 1.0):
        mu = 0.0
    blocks = tuple(np.ascontiguousarray(b) for b in np.array_split(A, n_workers, axis=0))
    return QuadraticProblem(
        A=A,
        blocks=blocks,
        n_workers=n_workers,
        dimension=d,
        L=L,
        mu=mu,
        f_star=0.0,
    )


# ---------------------------------------------------------------------------
# l2-regularized logistic regression


@dataclass(frozen=True, kw_only=True)
class _LogisticLossProblem(Problem):
    """Mean logistic loss over each worker's dataset plus a regularizer.

    Subclasses define the regularizer's value ``_reg_value(x)`` and gradient
    ``_reg_grad(x)`` on stacks of points.  With z_ij = b_ij <a_ij, x> the
    point loss is log(1 + exp(-z_ij)), and its gradient coef_ij * a_ij has
    coef_ij = -b_ij * sigmoid(-z_ij).
    """

    features: np.ndarray  # (n, m, d): worker i holds rows features[i]
    labels: np.ndarray  # (n, m) with entries in {-1, +1}
    L: float

    def _margins(self, x: np.ndarray) -> np.ndarray:
        """z_ij of every worker i and sample j at each point of x: (..., n, m)."""
        return self.labels * (self.features @ x[..., None, :, None])[..., 0]

    def f(self, x: np.ndarray):
        x = np.ascontiguousarray(x, dtype=np.float64)
        values = np.mean(np.logaddexp(0.0, -self._margins(x)), axis=-1)
        return pairwise_mean(values + self._reg_value(x)[..., None], axis=-1)

    def worker_grads(self, x: np.ndarray) -> np.ndarray:
        x = np.ascontiguousarray(x, dtype=np.float64)
        coef = -self.labels * _sigmoid(-self._margins(x))
        loss = (np.swapaxes(self.features, -1, -2) @ coef[..., None])[..., 0] / coef.shape[-1]
        return loss + self._reg_grad(x)[..., None, :]

    @property
    def point_elements(self) -> int:
        """The (n, m) margins or the (n, d) worker gradients."""
        return max(self.labels.size, self.n_workers * self.dimension)


@dataclass(frozen=True, kw_only=True)
class LogisticL2Problem(_LogisticLossProblem):
    """l2-regularized logistic regression over per-worker datasets.

    f_i(x) = (1/m) sum_j log(1 + exp(-b_ij <a_ij, x>)) + (lam/2) ||x||^2.
    mu = lam; L = lam + max_ij ||a_ij||^2 / 4 (the point-loss curvature is
    at most 1/4, so each worker Hessian is below that bound globally).
    """

    kind = "logistic_l2"
    lam: float

    def _reg_value(self, x: np.ndarray) -> np.ndarray:
        return 0.5 * self.lam * row_dot(x, x)

    def _reg_grad(self, x: np.ndarray) -> np.ndarray:
        return self.lam * x


def validate_classification_data(features, labels):
    """Checked per-worker data stacked on a worker axis: the (n, m, d)
    features, the (n, m) labels, the dimension d and max row ||a||^2."""
    try:
        features = np.asarray(features, dtype=np.float64)
        labels = np.asarray(labels, dtype=np.float64)
    except ValueError:  # ragged: the workers' arrays differ in shape
        features = labels = np.empty(0)
    if features.ndim != 3 or not features.size or labels.shape != features.shape[:2]:
        raise DataError("need one non-empty m x d feature matrix and m labels per worker")
    if not np.all(np.isin(labels, (-1.0, 1.0))):
        raise DataError("labels must lie in {-1, +1}")
    return features, labels, features.shape[2], float(np.max(np.sum(features**2, axis=-1)))


def make_logistic_l2(features, labels, lam: float) -> LogisticL2Problem:
    """Logistic-regression instance; lam > 0 gives the PL certificate mu = lam."""
    if lam <= 0:
        raise ConfigurationError(f"lambda must be > 0, got {lam}")
    features, labels, d, max_row_sq = validate_classification_data(features, labels)
    return LogisticL2Problem(
        features=features,
        labels=labels,
        lam=float(lam),
        n_workers=len(features),
        dimension=d,
        L=float(lam) + 0.25 * max_row_sq,
        mu=float(lam),
    )


# ---------------------------------------------------------------------------
# classification with non-convex regularizer sum_j x_j^2 / (1 + x_j^2)


@dataclass(frozen=True, kw_only=True)
class NonconvexRegProblem(_LogisticLossProblem):
    """Logistic loss plus the bounded non-convex penalty sum x_j^2/(1+x_j^2).

    The penalty's scalar derivative 2t/(1+t^2)^2 has global slope at most 2,
    so it adds 2*lam_nc to the certified L.  No PL certificate (mu = 0).
    """

    kind = "nonconvex_reg_classification"
    lam_nc: float

    def _reg_value(self, x: np.ndarray) -> np.ndarray:
        return self.lam_nc * np.sum(x**2 / (1.0 + x**2), axis=-1)

    def _reg_grad(self, x: np.ndarray) -> np.ndarray:
        return self.lam_nc * 2.0 * x / (1.0 + x**2) ** 2


def make_nonconvex_reg(features, labels, lam_nc: float) -> NonconvexRegProblem:
    if lam_nc <= 0:
        raise ConfigurationError(f"lambda_nc must be > 0, got {lam_nc}")
    features, labels, d, max_row_sq = validate_classification_data(features, labels)
    return NonconvexRegProblem(
        features=features,
        labels=labels,
        lam_nc=float(lam_nc),
        n_workers=len(features),
        dimension=d,
        L=0.25 * max_row_sq + 2.0 * float(lam_nc),
    )


def make_synthetic_classification(
    dimension: int, n_workers: int, m: int, seed: int = 0
) -> tuple[tuple, tuple]:
    """Seeded synthetic features/labels, regenerated (never stored) from seed.

    Features are standard normal; labels are the sign of a noisy linear
    score under a hidden unit-norm weight vector.
    """
    w_rng = substream(seed, STREAM_DATA, 1)
    w_true = w_rng.standard_normal(dimension)
    w_true /= np.linalg.norm(w_true)
    features, labels = [], []
    for i in range(n_workers):
        rng = substream(seed, STREAM_DATA, 2 + i)
        X = rng.standard_normal((m, dimension))
        score = X @ w_true + 0.1 * rng.standard_normal(m)
        b = np.where(score >= 0, 1.0, -1.0)
        features.append(X)
        labels.append(b)
    return tuple(features), tuple(labels)


# ---------------------------------------------------------------------------
# module-level gradient oracles


def exact_gradient(p: Problem, table: tuple) -> np.ndarray:
    """Exact (1/n) sum_i grad f_i, pairwise-tree reduced over ascending i, off a table."""
    return pairwise_mean(p.table_worker_grads(table), axis=-2)


def full_gradient(p: Problem, x: np.ndarray) -> np.ndarray:
    """``exact_gradient`` at one point or at each point of a (..., d) stack."""
    return exact_gradient(p, p.table(as_points(x, p.dimension)))


# ---------------------------------------------------------------------------
# JSON construction


def classification_from_dict(spec: dict) -> tuple[tuple, tuple]:
    """Synthetic (features, labels) from a problem's dimension, n_workers, m, seed."""
    return make_synthetic_classification(
        config_int(spec["dimension"], "dimension", minimum=1),
        config_int(spec.get("n_workers", 1), "n_workers", minimum=1),
        config_int(spec["m"], "m", minimum=1),
        config_int(spec.get("seed", 0), "seed"),
    )


def problem_from_dict(spec: dict) -> Problem:
    """Build a problem from its JSON document, which it keeps as ``source``.

    Schema (kind selects the family; keys outside it are rejected):
      {"kind": "quadratic", "n_workers": 4, "seed": 7,
       "matrix": {"spectrum": [...]} | {"entries": [[...], ...]}}
      {"kind": "logistic_l2" | "nonconvex_reg_classification",
       "dimension": d, "n_workers": n, "m": points-per-worker,
       "seed": s, "lambda": lam}
      {"kind": "maml", ... , "gamma_inner": g}
      {"kind": "composite_toy", "n_workers": n}

    Synthetic datasets are regenerated from the seed, never stored.
    """
    return replace(_build(spec), source=spec)


def _build(spec: dict) -> Problem:
    check_keys(spec, spec, "problem spec", required=("kind",))  # each kind checks its own keys
    kind = spec["kind"]

    if kind == "quadratic":
        check_keys(spec, ("kind", "n_workers", "seed", "matrix"), "quadratic spec")
        n_workers = config_int(spec.get("n_workers", 1), "n_workers", minimum=1)
        seed = config_int(spec.get("seed", 0), "seed")
        matrix = spec.get("matrix")
        check_keys(matrix, ("spectrum", "entries", "least_squares"), "matrix")
        least_squares = matrix.get("least_squares", False)
        if not isinstance(least_squares, bool):
            raise ConfigurationError(f"least_squares must be true or false, got {least_squares!r}")
        if "spectrum" in matrix:
            return make_quadratic(
                spectrum=config_array(matrix["spectrum"], "spectrum", 1),
                n_workers=n_workers,
                seed=seed,
            )
        if "entries" in matrix:
            return make_quadratic(
                config_array(matrix["entries"], "entries", 2),
                n_workers=n_workers,
                seed=seed,
                least_squares=least_squares,
            )
        raise ConfigurationError("matrix spec needs 'spectrum' or 'entries'")

    if kind in ("logistic_l2", "nonconvex_reg_classification"):
        check_keys(spec, ("kind", "dimension", "n_workers", "m", "seed", "lambda"), f"{kind} spec",
                   required=("dimension", "m", "lambda"))
        features, labels = classification_from_dict(spec)
        lam = config_float(spec["lambda"], "lambda")
        if kind == "logistic_l2":
            return make_logistic_l2(features, labels, lam)
        return make_nonconvex_reg(features, labels, lam)

    if kind in ("maml", "composite_toy"):
        from . import composite

        return composite.composite_from_dict(spec)

    raise ConfigurationError(f"unknown problem kind {kind!r}")
