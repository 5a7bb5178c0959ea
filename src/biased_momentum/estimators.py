"""Biased gradient transformers applied at each worker.

Compression operators (top-k, scaled sign) are contractive:
||Q(g) - g||^2 <= (1 - alpha) ||g||^2 with alpha = k/d for top-k and
worst case 1/d for scaled sign.  Clipping rescales to norm tau, with the
exact residual ||clip(g) - g|| = max(||g|| - tau, 0).  The composite
estimator subsamples both layers of a composite problem and is biased even
in expectation.

The operators act on the last axis of a stack of vectors, each row
rounding exactly as the operator applied to that row alone.  One path turns
exact worker gradients into a (draws, workers, d) stack of transmissions:
``aggregate`` reduces it over the worker axis for the momentum engine (one
draw per trial, each at its own iterate) and the Monte-Carlo error
measurement (a block of draws at one point).  The composite kind evaluates
its whole (draws, workers) block of index sets in one chained-gradient call.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .composite import CompositeProblem, chained_gradient
from .errors import ConfigurationError
from .problems import NoiseSpec, Problem, as_param_vector, check_keys, config_float, config_int
from .rng import pairwise_mean, row_dot

__all__ = [
    "EstimatorSpec",
    "top_k",
    "scaled_sign",
    "clip",
    "apply_estimator",
    "aggregate",
    "measure_eta",
]

KINDS = ("identity", "top_k", "scaled_sign", "clip", "composite")
# optional parameters: field -> (JSON key, parser)
PARAMS = {"k": ("k", config_int), "tau": ("tau", config_float),
          "s_g": ("S_g", config_int), "s_f": ("S_F", config_int)}


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

    def contraction_alpha(self, p: Problem) -> float | None:
        """Worst-case contraction constant on p, or None for non-compressors.
        Also the check that the spec runs on p: k <= d, or _check_composite."""
        d = p.dimension
        if self.kind == "identity":
            return 1.0
        if self.kind == "top_k":
            if self.k > d:
                raise ConfigurationError(f"k={self.k} exceeds dimension {d}")
            return self.k / d
        if self.kind == "scaled_sign":
            return 1.0 / d
        if self.kind == "composite":
            _check_composite(p, self.s_g, self.s_f)
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
        params = {name: parse(d[key], key) for name, (key, parse) in PARAMS.items() if key in d}
        return cls(kind=d.get("kind", "identity"), **params)


def top_k(g: np.ndarray, k: int) -> np.ndarray:
    """Keep the k entries of largest magnitude, zero the rest (per row of a
    stack along the last axis).

    Ties break toward the lowest index (stable sort on -|g|), so the output
    is deterministic.
    """
    g = np.asarray(g, dtype=np.float64)
    d = g.shape[-1]
    if not 1 <= k <= d:
        raise ConfigurationError(f"k={k} out of range [1, {d}]")
    if k == d:
        return g.copy()
    keep = np.argsort(-np.abs(g), axis=-1, kind="stable")[..., :k]
    out = np.zeros(g.shape)
    np.put_along_axis(out, keep, np.take_along_axis(g, keep, axis=-1), axis=-1)
    return out


def scaled_sign(g: np.ndarray) -> np.ndarray:
    """(||g||_1 / d) * sign(g), with sign(0) = 0 so the operator stays odd
    (per row of a stack along the last axis)."""
    g = np.asarray(g, dtype=np.float64)
    scale = np.sum(np.abs(g), axis=-1, keepdims=True) / g.shape[-1]
    return scale * np.sign(g)


def clip(g: np.ndarray, tau: float) -> np.ndarray:
    """min(1, tau/||g||) * g: norm capped at tau, direction preserved (per
    row of a stack along the last axis)."""
    if not (tau > 0 and math.isfinite(tau)):
        raise ConfigurationError(f"tau must be finite and > 0, got {tau}")
    g = np.asarray(g, dtype=np.float64)
    norm = np.sqrt(row_dot(g, g))
    # rows with norm <= tau get tau / tau = 1.0 exactly, which keeps them bit for bit
    return (tau / np.maximum(norm, tau))[..., None] * g


def _check_composite(p: Problem, s_g: int, s_f: int) -> None:
    """Raise unless p is composite and 1 <= S_g <= m_g, 1 <= S_F <= m_F."""
    if not isinstance(p, CompositeProblem):
        raise ConfigurationError(f"composite estimator cannot run on problem kind {p.kind!r}")
    if not 1 <= s_g <= p.m_g:
        raise ConfigurationError(f"S_g={s_g} out of range [1, {p.m_g}]")
    if not 1 <= s_f <= p.m_F:
        raise ConfigurationError(f"S_F={s_f} out of range [1, {p.m_F}]")


def apply_estimator(spec: EstimatorSpec, raw: np.ndarray) -> np.ndarray:
    """Transform raw worker gradients (one vector, or a stack of them along
    the last axis) according to the spec."""
    if spec.kind == "identity":
        return np.asarray(raw, dtype=np.float64)
    if spec.kind == "top_k":
        return top_k(raw, spec.k)
    if spec.kind == "scaled_sign":
        return scaled_sign(raw)
    if spec.kind == "clip":
        return clip(raw, spec.tau)
    raise ConfigurationError("composite estimator has no raw-vector form; aggregate "
                             "subsamples the composite problem instead")


def _transmissions(p: Problem, x: np.ndarray, grads, spec: EstimatorSpec,
                   noise: NoiseSpec | None, rng, draws: int) -> np.ndarray:
    """(draws, n, d) stack of what the workers send.

    Row b, column i is round b of worker i at x, or at x[b] when x holds
    one (draws, d) row per round; its exact gradient there is ``grads[i]``
    (``grads[b, i]``).  ``rng`` is either one generator shared
    by every worker, consumed in (draw, worker, coordinate) order, or an
    iterable giving each (draw, worker) its own generator in (draw, worker)
    order (see ``rng.seeded_streams``); either way the stream is read as by
    one call per (draw, worker).

    For compressor/clip kinds the noise is injected before the operator,
    matching the Top-K(grad + offset + gaussian) experimental pipeline.  The
    composite kind ignores grads: each (draw, worker) draws its inner and
    outer index sets and then its noise, one at a time, and the chained
    estimates of the whole (draws, n) block are evaluated in one call.
    """
    n, d = p.n_workers, p.dimension
    if spec.kind == "composite":
        _check_composite(p, spec.s_g, spec.s_f)
        streams = None if rng is None or isinstance(rng, np.random.Generator) else iter(rng)
        idx_g = np.empty((draws, n, spec.s_g), dtype=np.intp)
        idx_f = np.empty((draws, n, spec.s_f), dtype=np.intp)
        gauss = None if noise is None or noise.sigma2 == 0 else np.empty((draws, n, d))
        for b in range(draws):
            for j in range(n):
                stream = rng if streams is None else next(streams)
                idx_g[b, j] = stream.choice(p.m_g, size=spec.s_g, replace=False)
                idx_f[b, j] = stream.choice(p.m_F, size=spec.s_f, replace=False)
                if gauss is not None:
                    gauss[b, j] = noise.draw(stream, d)
        idx_g.sort(axis=-1)
        idx_f.sort(axis=-1)
        est = chained_gradient(p, x, idx_g, idx_f)
        return est if noise is None else noise.perturb(est, gauss)
    g = np.asarray(grads)
    if noise is not None:
        g = noise.perturb(g, noise.draw(rng, (draws, n, d)))
    # without Gaussian noise every draw is the same (n, d) transmission;
    # the C-ordered stack matters, as row reductions over a strided last axis
    # round differently
    stack = np.empty((draws, n, d))
    stack[...] = apply_estimator(spec, g)
    return stack


def aggregate(p: Problem, x: np.ndarray, grads, spec: EstimatorSpec,
              noise: NoiseSpec | None, rng, draws: int = 1) -> np.ndarray:
    """(draws, d): per round, the pairwise-tree mean of the n worker
    transmissions at x (or at x[b] for round b of a (draws, d) stack).

    ``grads[i]`` (``grads[b, i]``) is the exact gradient of worker i there.
    ``rng`` is one generator shared by every worker or an iterable giving
    each (round, worker) its own generator (see _transmissions for the
    order the streams are read in).
    """
    stack = _transmissions(p, x, grads, spec, noise, rng, draws)
    return pairwise_mean(stack, axis=-2)


# float64 elements that one block of measure_eta draws may hold per stack,
# so the working set does not grow with samples x n x d
_BLOCK_ELEMENTS = 1 << 16


def measure_eta(
    p: Problem,
    x: np.ndarray,
    spec: EstimatorSpec,
    noise: NoiseSpec | None = None,
    samples: int = 1000,
    rng: np.random.Generator | None = None,
) -> tuple[float, float, float]:
    """Monte-Carlo (mean, stderr) of ||eta||^2 at a fixed iterate, and the
    exact ||grad f(x)||^2.

    eta is the aggregate error: the pairwise-averaged worker estimates minus
    the exact full gradient at x.  The exact worker gradients are computed
    once; every draw reuses them, and so does the returned gradient norm.
    Draws are evaluated a block at a time as (draws, workers, d) stacks and
    read the stream exactly as one draw after another would.
    """
    if samples < 1:
        raise ConfigurationError("samples must be >= 1")
    x = as_param_vector(x, p.dimension)
    if rng is None:
        rng = np.random.default_rng(0 if noise is None else noise.seed)
    grads = p.worker_grads(x)
    exact = pairwise_mean(grads, axis=-2)
    width = p.n_workers + (spec.s_g + spec.s_f if spec.kind == "composite" else 0)
    block = max(1, _BLOCK_ELEMENTS // (width * p.dimension))
    vals = np.empty(samples)
    for start in range(0, samples, block):
        stop = min(start + block, samples)
        diff = aggregate(p, x, grads, spec, noise, rng, stop - start) - exact
        vals[start:stop] = row_dot(diff, diff)
    mean = float(np.mean(vals))
    stderr = float(np.std(vals, ddof=1) / np.sqrt(samples)) if samples > 1 else 0.0
    return mean, stderr, float(exact @ exact)
