"""Objective suite with exact per-worker gradients and certified constants.

Each problem instance is an immutable object exposing

* ``f(x)``              -- the global objective (1/n) sum_i f_i(x), the
  pairwise-tree mean of ``worker_value(i, x)`` unless a closed form exists,
* ``worker_grad(i, x)`` -- the exact local gradient grad f_i(x),
* ``L``, ``mu``, ``f_star`` -- a certified gradient-Lipschitz constant, a
  PL constant (0.0 when no certificate is claimed) and the global lower
  bound (None when unknown).

Parameter vectors are plain 1-D float64 numpy arrays; ``as_param_vector``
is the single validation gate (finite entries, correct dimension).

Worker decompositions are genuine: the quadratic splits the rows of A into
per-worker blocks, regression problems hold disjoint local datasets.  The
exact full gradient is always the pairwise-tree average of the exact
worker gradients, so aggregation identities hold bit-for-bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.special import expit

from .errors import ConfigurationError, DataError
from .rng import STREAM_DATA, pairwise_mean, substream

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


def check_keys(d: dict, allowed, section: str) -> None:
    """Reject keys of a config section that its schema does not define."""
    unknown = sorted(set(d) - set(allowed))
    if unknown:
        raise ConfigurationError(f"unknown {section} key(s) {unknown}; allowed: {sorted(allowed)}")


class Problem:
    """Base interface; concrete problems are frozen dataclasses.

    ``f`` averages ``worker_value`` over the workers; a problem with a
    closed-form objective overrides it.
    """

    kind: str
    n_workers: int
    dimension: int
    L: float
    mu: float
    f_star: float | None

    def f(self, x: np.ndarray) -> float:
        vals = [np.array([self.worker_value(i, x)]) for i in range(self.n_workers)]
        return float(pairwise_mean(vals)[0])

    def worker_grad(self, i: int, x: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def _check_worker(self, i: int) -> None:
        if not 0 <= i < self.n_workers:
            raise ConfigurationError(
                f"worker index {i} out of range for {self.n_workers} workers"
            )


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
    seed: int = 0

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

    def perturb(self, g: np.ndarray, rng: np.random.Generator | None) -> np.ndarray:
        """g plus the offset and one Gaussian draw from rng (g itself when null)."""
        if self.is_null:
            return g
        pert = self.offset_vector(g.size)  # a fresh array
        if self.sigma2 > 0:
            if rng is None:
                raise ConfigurationError("sigma2 > 0 requires an rng stream")
            pert += rng.normal(0.0, np.sqrt(self.sigma2), size=g.size)
        return g + pert

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
        return cls(
            sigma2=float(d.get("sigma2", 0.0)),
            delta_offset=d.get("delta_offset", 0.0),
            seed=int(d.get("seed", 0)),
        )


# ---------------------------------------------------------------------------
# quadratic family: f(x) = 0.5 ||A x||^2


@dataclass(frozen=True)
class QuadraticProblem(Problem):
    """f(x) = 0.5 ||Ax||^2 with rows of A block-partitioned across workers.

    Worker i owns row block A_i and f_i(x) = (n/2) ||A_i x||^2, so the
    average of the f_i reconstructs the global objective while the local
    gradients n * A_i^T A_i x are genuinely heterogeneous.
    """

    A: np.ndarray
    blocks: tuple  # per-worker row submatrices of A
    n_workers: int
    dimension: int
    L: float
    mu: float
    f_star: float | None = 0.0
    kind: str = "quadratic"
    source: dict | None = field(default=None, repr=False, compare=False)

    def f(self, x: np.ndarray) -> float:
        r = self.A @ x
        return 0.5 * float(r @ r)

    def worker_grad(self, i: int, x: np.ndarray) -> np.ndarray:
        self._check_worker(i)
        Ai = self.blocks[i]
        return self.n_workers * (Ai.T @ (Ai @ x))


def make_quadratic(
    A=None,
    *,
    spectrum=None,
    dimension: int | None = None,
    n_workers: int = 1,
    seed: int = 0,
    least_squares: bool = False,
    source: dict | None = None,
) -> QuadraticProblem:
    """Build the quadratic instance from an explicit matrix or a spectrum.

    With ``spectrum`` given, A is the symmetric PSD matrix Q diag(sqrt(s)) Q^T
    for a seeded random orthogonal Q, so A^T A has exactly the requested
    eigenvalues.  L and mu are the extreme eigenvalues of A^T A; mu is
    reported as 0.0 (PL not certified) when the Gram matrix is singular.
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
        source=source,
    )


# ---------------------------------------------------------------------------
# l2-regularized logistic regression


def _logistic_loss_and_coef(X: np.ndarray, b: np.ndarray, x: np.ndarray):
    """Mean point loss and the per-point gradient coefficients.

    Point loss log(1 + exp(-b <a, x>)); its gradient is coef_j * a_j with
    coef_j = -b_j * sigmoid(-b_j <a_j, x>).
    """
    z = b * (X @ x)
    loss = float(np.mean(np.logaddexp(0.0, -z)))
    coef = -b * expit(-z)
    return loss, coef


class _LogisticLossProblem(Problem):
    """Mean logistic loss over worker i's dataset plus a regularizer.

    Subclasses hold ``features``/``labels`` and define the regularizer's
    value ``_reg_value(x)`` and gradient ``_reg_grad(x)``.
    """

    features: tuple
    labels: tuple

    def worker_value(self, i: int, x: np.ndarray) -> float:
        self._check_worker(i)
        loss, _ = _logistic_loss_and_coef(self.features[i], self.labels[i], x)
        return loss + self._reg_value(x)

    def worker_grad(self, i: int, x: np.ndarray) -> np.ndarray:
        self._check_worker(i)
        X, b = self.features[i], self.labels[i]
        _, coef = _logistic_loss_and_coef(X, b, x)
        return X.T @ coef / X.shape[0] + self._reg_grad(x)


@dataclass(frozen=True)
class LogisticL2Problem(_LogisticLossProblem):
    """l2-regularized logistic regression over per-worker datasets.

    f_i(x) = (1/m) sum_j log(1 + exp(-b_ij <a_ij, x>)) + (lam/2) ||x||^2.
    mu = lam; L = lam + max_ij ||a_ij||^2 / 4 (the point-loss curvature is
    at most 1/4, so each worker Hessian is below that bound globally).
    """

    features: tuple  # per-worker (m, d) arrays
    labels: tuple  # per-worker (m,) arrays with entries in {-1, +1}
    lam: float
    n_workers: int
    dimension: int
    L: float
    mu: float
    f_star: float | None = None
    kind: str = "logistic_l2"
    source: dict | None = field(default=None, repr=False, compare=False)

    def _reg_value(self, x: np.ndarray) -> float:
        return 0.5 * self.lam * float(x @ x)

    def _reg_grad(self, x: np.ndarray) -> np.ndarray:
        return self.lam * x


def _validate_classification_data(features, labels):
    """Checked per-worker (features, labels), the dimension and max row ||a||^2."""
    features = tuple(np.asarray(X, dtype=np.float64) for X in features)
    labels = tuple(np.asarray(b, dtype=np.float64) for b in labels)
    if len(features) != len(labels) or not features:
        raise DataError("need matching, non-empty feature/label lists per worker")
    d = features[0].shape[1]
    m = features[0].shape[0]
    for X, b in zip(features, labels):
        if X.ndim != 2 or X.shape[1] != d or X.shape[0] != m:
            raise DataError("all workers must hold m x d feature matrices")
        if b.shape != (m,):
            raise DataError("labels must be length-m per worker")
        if not np.all(np.isin(b, (-1.0, 1.0))):
            raise DataError("labels must lie in {-1, +1}")
    max_row_sq = max(float(np.max(np.sum(X**2, axis=1))) for X in features)
    return features, labels, d, max_row_sq


def make_logistic_l2(features, labels, lam: float, source: dict | None = None) -> LogisticL2Problem:
    """Logistic-regression instance; lam > 0 gives the PL certificate mu = lam."""
    if lam <= 0:
        raise ConfigurationError(f"lambda must be > 0, got {lam}")
    features, labels, d, max_row_sq = _validate_classification_data(features, labels)
    return LogisticL2Problem(
        features=features,
        labels=labels,
        lam=float(lam),
        n_workers=len(features),
        dimension=d,
        L=float(lam) + 0.25 * max_row_sq,
        mu=float(lam),
        source=source,
    )


# ---------------------------------------------------------------------------
# classification with non-convex regularizer sum_j x_j^2 / (1 + x_j^2)


@dataclass(frozen=True)
class NonconvexRegProblem(_LogisticLossProblem):
    """Logistic loss plus the bounded non-convex penalty sum x_j^2/(1+x_j^2).

    The penalty's scalar derivative 2t/(1+t^2)^2 has global slope at most 2,
    so it adds 2*lam_nc to the certified L.  No PL certificate (mu = 0).
    """

    features: tuple
    labels: tuple
    lam_nc: float
    n_workers: int
    dimension: int
    L: float
    mu: float = 0.0
    f_star: float | None = None
    kind: str = "nonconvex_reg_classification"
    source: dict | None = field(default=None, repr=False, compare=False)

    def _reg_value(self, x: np.ndarray) -> float:
        return self.lam_nc * float(np.sum(x**2 / (1.0 + x**2)))

    def _reg_grad(self, x: np.ndarray) -> np.ndarray:
        return self.lam_nc * 2.0 * x / (1.0 + x**2) ** 2


def make_nonconvex_reg(features, labels, lam_nc: float, source: dict | None = None) -> NonconvexRegProblem:
    if lam_nc <= 0:
        raise ConfigurationError(f"lambda_nc must be > 0, got {lam_nc}")
    features, labels, d, max_row_sq = _validate_classification_data(features, labels)
    return NonconvexRegProblem(
        features=features,
        labels=labels,
        lam_nc=float(lam_nc),
        n_workers=len(features),
        dimension=d,
        L=0.25 * max_row_sq + 2.0 * float(lam_nc),
        source=source,
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


def full_gradient(p: Problem, x: np.ndarray) -> np.ndarray:
    """Exact (1/n) sum_i grad f_i(x), pairwise-tree reduced over ascending i."""
    x = as_param_vector(x, p.dimension)
    return pairwise_mean([p.worker_grad(i, x) for i in range(p.n_workers)])


# ---------------------------------------------------------------------------
# JSON construction


def problem_from_dict(spec: dict) -> Problem:
    """Build a problem from its JSON document.

    Schema (kind selects the family):
      {"kind": "quadratic", "n_workers": 4, "seed": 7,
       "matrix": {"spectrum": [...]} | {"entries": [[...], ...]}}
      {"kind": "logistic_l2" | "nonconvex_reg_classification",
       "dimension": d, "n_workers": n, "m": points-per-worker,
       "seed": s, "lambda": lam}
      {"kind": "maml", ... , "gamma_inner": g}
      {"kind": "composite_toy", "n_workers": n}

    Synthetic datasets are regenerated from the seed, never stored.
    """
    if not isinstance(spec, dict):
        raise ConfigurationError("problem spec must be a JSON object")
    kind = spec.get("kind")
    if kind is None:
        raise ConfigurationError("problem spec missing required key 'kind'")
    n_workers = int(spec.get("n_workers", 1))
    seed = int(spec.get("seed", 0))

    if kind == "quadratic":
        matrix = spec.get("matrix")
        if not isinstance(matrix, dict):
            raise ConfigurationError("quadratic spec needs a 'matrix' object")
        if "spectrum" in matrix:
            return make_quadratic(
                spectrum=matrix["spectrum"],
                n_workers=n_workers,
                seed=seed,
                source=spec,
            )
        if "entries" in matrix:
            return make_quadratic(
                np.asarray(matrix["entries"], dtype=np.float64),
                n_workers=n_workers,
                seed=seed,
                least_squares=bool(matrix.get("least_squares", False)),
                source=spec,
            )
        raise ConfigurationError("matrix spec needs 'spectrum' or 'entries'")

    if kind in ("logistic_l2", "nonconvex_reg_classification"):
        for key in ("dimension", "m", "lambda"):
            if key not in spec:
                raise ConfigurationError(f"{kind} spec missing required key '{key}'")
        features, labels = make_synthetic_classification(
            int(spec["dimension"]), n_workers, int(spec["m"]), seed
        )
        if kind == "logistic_l2":
            return make_logistic_l2(features, labels, float(spec["lambda"]), source=spec)
        return make_nonconvex_reg(features, labels, float(spec["lambda"]), source=spec)

    if kind in ("maml", "composite_toy", "composite_finite_sum"):
        from . import composite

        return composite.composite_from_dict(spec)

    raise ConfigurationError(f"unknown problem kind {kind!r}")
