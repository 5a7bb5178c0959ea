"""Biased gradient transformers applied at each worker.

Compression operators (top-k, scaled sign) are contractive:
||Q(g) - g||^2 <= (1 - alpha) ||g||^2 with alpha = k/d for top-k and
worst case 1/d for scaled sign.  Clipping rescales to norm tau, with the
exact residual ||clip(g) - g|| = max(||g|| - tau, 0).  The composite
estimator subsamples both layers of a composite problem and is biased even
in expectation.

``aggregate`` is the one path from exact worker gradients to the server's
averaged estimate; the momentum engine, the Monte-Carlo error measurement
and ``worker_estimate`` all go through it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .composite import CompositeProblem, chained_gradient
from .errors import ConfigurationError
from .problems import NoiseSpec, Problem, as_param_vector, check_keys
from .rng import pairwise_mean

__all__ = [
    "EstimatorSpec",
    "top_k",
    "scaled_sign",
    "scaled_sign_alpha",
    "clip",
    "composite_estimate",
    "apply_estimator",
    "worker_estimate",
    "aggregate",
    "measure_eta",
]

KINDS = ("identity", "top_k", "scaled_sign", "clip", "composite")
# optional parameters: field -> (JSON key, type)
PARAMS = {"k": ("k", int), "tau": ("tau", float), "s_g": ("S_g", int), "s_f": ("S_F", int)}


@dataclass(frozen=True)
class EstimatorSpec:
    """Configuration of one worker-side gradient transformer."""

    kind: str = "identity"
    k: int | None = None
    tau: float | None = None
    s_g: int | None = None
    s_f: int | None = None

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ConfigurationError(f"unknown estimator kind {self.kind!r}")
        if self.kind == "top_k":
            if self.k is None or self.k < 1:
                raise ConfigurationError("top_k needs k >= 1")
        if self.kind == "clip":
            if self.tau is None or not (self.tau > 0 and math.isfinite(self.tau)):
                raise ConfigurationError(f"clip needs a finite tau > 0, got {self.tau}")
        if self.kind == "composite":
            if self.s_g is None or self.s_f is None or self.s_g < 1 or self.s_f < 1:
                raise ConfigurationError("composite needs S_g >= 1 and S_F >= 1")

    def contraction_alpha(self, dimension: int) -> float | None:
        """Worst-case contraction constant, or None for non-compressors."""
        if self.kind == "identity":
            return 1.0
        if self.kind == "top_k":
            if self.k > dimension:
                raise ConfigurationError(f"k={self.k} exceeds dimension {dimension}")
            return self.k / dimension
        if self.kind == "scaled_sign":
            return 1.0 / dimension
        return None

    def to_dict(self) -> dict:
        d = {"kind": self.kind}
        for name, (key, _) in PARAMS.items():
            if getattr(self, name) is not None:
                d[key] = getattr(self, name)
        return d

    @classmethod
    def from_dict(cls, d: dict) -> "EstimatorSpec":
        check_keys(d, ["kind"] + [key for key, _ in PARAMS.values()], "estimator")
        params = {name: cast(d[key]) for name, (key, cast) in PARAMS.items() if key in d}
        return cls(kind=d.get("kind", "identity"), **params)


def top_k(g: np.ndarray, k: int) -> np.ndarray:
    """Keep the k entries of largest magnitude, zero the rest.

    Ties break toward the lowest index (stable sort on -|g|), so the output
    is deterministic.
    """
    g = np.asarray(g, dtype=np.float64)
    d = g.size
    if not 1 <= k <= d:
        raise ConfigurationError(f"k={k} out of range [1, {d}]")
    if k == d:
        return g.copy()
    order = np.argsort(-np.abs(g), kind="stable")
    out = np.zeros_like(g)
    keep = order[:k]
    out[keep] = g[keep]
    return out


def scaled_sign(g: np.ndarray) -> np.ndarray:
    """(||g||_1 / d) * sign(g), with sign(0) = 0 so the operator stays odd."""
    g = np.asarray(g, dtype=np.float64)
    scale = np.sum(np.abs(g)) / g.size
    return scale * np.sign(g)


def scaled_sign_alpha(g: np.ndarray) -> float:
    """Per-input contraction ||g||_1^2 / (d ||g||^2); worst case is 1/d."""
    g = np.asarray(g, dtype=np.float64)
    sq = float(g @ g)
    if sq == 0.0:
        return 1.0
    return float(np.sum(np.abs(g))) ** 2 / (g.size * sq)


def clip(g: np.ndarray, tau: float) -> np.ndarray:
    """min(1, tau/||g||) * g: norm capped at tau, direction preserved."""
    if not tau > 0:
        raise ConfigurationError(f"tau must be > 0, got {tau}")
    g = np.asarray(g, dtype=np.float64)
    norm = float(np.linalg.norm(g))
    if norm <= tau:
        return g.copy()
    return (tau / norm) * g


def composite_estimate(
    p: CompositeProblem,
    i: int,
    x: np.ndarray,
    s_g: int,
    s_f: int,
    rng: np.random.Generator,
) -> np.ndarray:
    """Doubly subsampled chained gradient of worker i.

    One uniform without-replacement draw of size s_g serves both the inner
    value and the inner Jacobian; an independent draw of size s_f selects
    the outer gradients.  Full batch sizes reproduce the exact gradient.
    """
    if not isinstance(p, CompositeProblem):
        raise ConfigurationError("composite estimator requires a composite problem")
    if not 1 <= s_g <= p.m_g:
        raise ConfigurationError(f"S_g={s_g} out of range [1, {p.m_g}]")
    if not 1 <= s_f <= p.m_F:
        raise ConfigurationError(f"S_F={s_f} out of range [1, {p.m_F}]")
    idx_g = np.sort(rng.choice(p.m_g, size=s_g, replace=False))
    idx_f = np.sort(rng.choice(p.m_F, size=s_f, replace=False))
    return chained_gradient(p, i, x, idx_g, idx_f)


def apply_estimator(spec: EstimatorSpec, raw: np.ndarray) -> np.ndarray:
    """Transform one raw worker gradient according to the spec."""
    if spec.kind == "identity":
        return np.asarray(raw, dtype=np.float64)
    if spec.kind == "top_k":
        return top_k(raw, spec.k)
    if spec.kind == "scaled_sign":
        return scaled_sign(raw)
    if spec.kind == "clip":
        return clip(raw, spec.tau)
    raise ConfigurationError(
        "composite estimator has no raw-vector form; use worker_estimate"
    )


def _transmission(p: Problem, i: int, x: np.ndarray, grad_i, spec: EstimatorSpec,
                  noise: NoiseSpec | None, rng) -> np.ndarray:
    """What worker i sends, given its exact gradient grad_i at x.

    For compressor/clip kinds the noise is injected before the operator,
    matching the Top-K(grad + offset + gaussian) experimental pipeline; the
    composite kind ignores grad_i, draws its index subsets first and then
    adds any configured noise to the chained estimate.
    """
    if spec.kind == "composite":
        g = composite_estimate(p, i, x, spec.s_g, spec.s_f, rng)
        return g if noise is None else noise.perturb(g, rng)
    g = grad_i if noise is None else noise.perturb(grad_i, rng)
    return apply_estimator(spec, g)


def aggregate(p: Problem, x: np.ndarray, grads, spec: EstimatorSpec,
              noise: NoiseSpec | None, rngs) -> np.ndarray:
    """Pairwise-tree mean of the n worker transmissions at x.

    ``grads[i]`` is the exact gradient of worker i at x and ``rngs[i]`` its
    random stream; workers draw in ascending order, so one shared generator
    may be passed for every worker.
    """
    return pairwise_mean(
        [_transmission(p, i, x, grads[i], spec, noise, rngs[i]) for i in range(p.n_workers)]
    )


def worker_estimate(
    p: Problem,
    i: int,
    x: np.ndarray,
    spec: EstimatorSpec,
    noise: NoiseSpec | None = None,
    rng: np.random.Generator | None = None,
) -> np.ndarray:
    """What worker i transmits: estimator applied to its (noisy) gradient."""
    x = as_param_vector(x, p.dimension)
    grad_i = None if spec.kind == "composite" else p.worker_grad(i, x)
    return _transmission(p, i, x, grad_i, spec, noise, rng)


def measure_eta(
    p: Problem,
    x: np.ndarray,
    spec: EstimatorSpec,
    noise: NoiseSpec | None = None,
    samples: int = 1000,
    rng: np.random.Generator | None = None,
) -> tuple[float, float]:
    """Monte-Carlo (mean, stderr) of ||eta||^2 at a fixed iterate.

    eta is the aggregate error: the pairwise-averaged worker estimates minus
    the exact full gradient at x.  The exact worker gradients are computed
    once; every draw reuses them.
    """
    if samples < 1:
        raise ConfigurationError("samples must be >= 1")
    x = as_param_vector(x, p.dimension)
    if rng is None:
        rng = np.random.default_rng(0 if noise is None else noise.seed)
    grads = [p.worker_grad(i, x) for i in range(p.n_workers)]
    exact = pairwise_mean(grads)
    rngs = [rng] * p.n_workers
    vals = np.empty(samples)
    for s in range(samples):
        diff = aggregate(p, x, grads, spec, noise, rngs) - exact
        vals[s] = diff @ diff
    mean = float(np.mean(vals))
    stderr = float(np.std(vals, ddof=1) / np.sqrt(samples)) if samples > 1 else 0.0
    return mean, stderr
