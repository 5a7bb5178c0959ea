"""Biased gradient transformers applied at each worker.

Compression operators (top-k, scaled sign) are contractive:
||Q(g) - g||^2 <= (1 - alpha) ||g||^2 with alpha = k/d for top-k and
worst case 1/d for scaled sign.  Clipping rescales to norm tau, with the
exact residual ||clip(g) - g|| = max(||g|| - tau, 0).  The composite
estimator subsamples both layers of a composite problem and is biased even
in expectation.

The operators act on the last axis of a stack of vectors, each row
rounding exactly as the operator applied to that row alone.  A round's
aggregate is the pairwise mean of the (draws, workers, d) transmissions,
formed from one evaluation of the problem (the exact worker gradients, or
one inner table for a composite problem): ``evaluate`` runs the two back
to back for the momentum engine (one draw per trial, each at its own
iterate), and the Monte-Carlo error measurement evaluates its point once
and forms every block of draws, and the exact gradient, from that one
evaluation.  A round computes nothing else: the engine observes f and the
exact gradient of a whole block of rounds at once.  The aggregate takes
its randomness already drawn: the noise as a perturbation block
(``NoiseSpec.draw``) and the index sets as picked by uniform keys
(``EstimatorSpec.subsets``); only ``measure_eta`` takes a generator, from
which it draws each block.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .composite import CompositeProblem, subset_gradients
from .errors import ConfigurationError
from .problems import (NoiseSpec, Problem, as_param_vector, as_points, check_keys, config_float,
                       config_int)
from .rng import pairwise_mean, row_dot

__all__ = [
    "EstimatorSpec",
    "top_k",
    "scaled_sign",
    "clip",
    "apply_estimator",
    "evaluate",
    "measure_eta",
]

KINDS = ("identity", "top_k", "scaled_sign", "clip", "composite")
# optional parameters: field -> (JSON key, parser, the one kind that reads it)
PARAMS = {"k": ("k", config_int, "top_k"), "tau": ("tau", config_float, "clip"),
          "s_g": ("S_g", config_int, "composite"), "s_f": ("S_F", config_int, "composite")}


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
        unread = [key for name, (key, _, kind) in PARAMS.items()
                  if kind != self.kind and getattr(self, name) is not None]
        if unread:
            raise ConfigurationError(f"estimator {self.kind} never reads {unread}")
        if self.kind == "top_k" and (self.k is None or self.k < 1):
            raise ConfigurationError("top_k needs k >= 1")
        if self.kind == "clip" and (self.tau is None or not (self.tau > 0 and math.isfinite(self.tau))):
            raise ConfigurationError(f"clip needs a finite tau > 0, got {self.tau}")
        if self.kind == "composite" and (self.s_g is None or self.s_f is None
                                         or self.s_g < 1 or self.s_f < 1):
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

    def key_width(self, p: Problem) -> int:
        """Uniform keys per worker and round on p: the composite kind's m_g + m_F."""
        return p.m_g + p.m_F if self.kind == "composite" else 0

    def subsets(self, p: Problem, keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The composite kind's (inner, outer) index blocks picked by a
        (..., key_width) block of uniform keys, one set per key row.

        The inner set is the first S_g entries of the argsort of the first
        m_g keys, sorted; the outer set is taken the same way from the last
        m_F keys.  Each set is a uniform draw without replacement.  The
        argsort costs a sort of all m keys per set, against O(S) for a
        partial draw; every preset has m <= 8.
        """
        _check_composite(p, self.s_g, self.s_f)

        def first(k, size):
            return np.sort(np.argsort(k, axis=-1, kind="stable")[..., :size], axis=-1)

        return first(keys[..., :p.m_g], self.s_g), first(keys[..., p.m_g:], self.s_f)

    def to_dict(self) -> dict:
        d = {"kind": self.kind}
        for name, (key, _, _) in PARAMS.items():
            if getattr(self, name) is not None:
                d[key] = getattr(self, name)
        return d

    @classmethod
    def from_dict(cls, d: dict) -> "EstimatorSpec":
        check_keys(d, ["kind"] + [key for key, _, _ in PARAMS.values()], "estimator")
        params = {name: parse(d[key], key) for name, (key, parse, _) in PARAMS.items() if key in d}
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
    rows = g.reshape(-1, d)
    keep = np.argsort(-np.abs(rows), axis=-1, kind="stable")[:, :k]
    at = (np.arange(len(rows))[:, None], keep)
    out = np.zeros(rows.shape)
    out[at] = rows[at]
    return out.reshape(g.shape)


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
    raise ConfigurationError("composite estimator has no raw-vector form; evaluate "
                             "subsamples the composite problem instead")


def evaluate(p: Problem, x: np.ndarray, spec: EstimatorSpec, pert: np.ndarray | None = None,
             subsets=None) -> np.ndarray:
    """The aggregate g at x, or per round at x[b] of a (draws, d) stack: the
    pairwise mean of the n worker transmissions, from one evaluation of p.
    ``pert`` is the rounds' drawn noise (``NoiseSpec.draw``; None when the
    noise is null), and ``subsets`` the composite kind's (inner, outer)
    blocks of one sorted index set per round and worker.

    For compressor/clip kinds the noise is injected before the operator,
    matching the Top-K(grad + offset + gaussian) experimental pipeline.  The
    composite kind gathers its estimates from one inner table, then perturbs
    them.  The identity kind without noise sends the exact worker gradients,
    so g is the exact full gradient.
    """
    return _aggregate(p, spec, _evaluation(p, x, spec), pert, subsets)


def _evaluation(p: Problem, x: np.ndarray, spec: EstimatorSpec):
    """What the transmissions at x are formed from: the composite kind's
    inner table, else the exact worker gradients."""
    if spec.kind == "composite":
        return p.inner_table(as_points(x, p.dimension))
    return p.worker_grads(x)


def _aggregate(p: Problem, spec: EstimatorSpec, evaluation, pert, subsets) -> np.ndarray:
    """The pairwise mean of the worker transmissions formed from an
    ``_evaluation`` (of one point for a whole block of draws, or of one
    point per draw)."""
    if spec.kind == "composite":
        est = subset_gradients(p, evaluation, *subsets)
        sent = est if pert is None else est + pert
    else:
        sent = apply_estimator(spec, evaluation if pert is None else evaluation + pert)
    return pairwise_mean(sent, axis=-2)


# float64 elements that one block of drawn worker randomness may hold (per
# stack, for measure_eta), so the working set does not grow with the number
# of draws, trials, workers or iterations
_BLOCK_ELEMENTS = 1 << 16


@np.errstate(over="ignore", invalid="ignore")  # an overflowing point measures inf or NaN, silently
def measure_eta(
    p: Problem,
    x: np.ndarray,
    spec: EstimatorSpec,
    noise: NoiseSpec | None = None,
    samples: int = 1000,
    *,
    rng: np.random.Generator,
) -> tuple[float, float, float]:
    """Monte-Carlo (mean, stderr) of ||eta||^2 at a fixed iterate, and the
    exact ||grad f(x)||^2.

    eta is the aggregate error: the pairwise-averaged worker estimates minus
    the exact full gradient at x.  x is evaluated once (``_evaluation``),
    and the exact gradient and every draw's transmissions are formed from
    that evaluation.  Draws are aggregated a block of B at a time as
    (B, workers, d) stacks: each block reads its (B, n, key_width) composite
    subset keys from ``rng``, then its (B, n, d) standard normals, so B fixes
    the order of the draws.
    """
    if samples < 1:
        raise ConfigurationError("samples must be >= 1")
    spec.contraction_alpha(p)  # raises unless the spec runs on p
    x, d, n = as_param_vector(x, p.dimension), p.dimension, p.n_workers
    noise = NoiseSpec() if noise is None else noise
    key_width = spec.key_width(p)
    block = max(1, _BLOCK_ELEMENTS // ((n + key_width) * d))
    evaluation = _evaluation(p, x, spec)
    exact = pairwise_mean(p.table_worker_grads(evaluation) if spec.kind == "composite"
                          else evaluation, axis=-2)  # full_gradient(p, x), bit for bit
    vals = np.empty(samples)
    for start in range(0, samples, block):
        draws = min(block, samples - start)
        subsets = spec.subsets(p, rng.random((draws, n, key_width))) if key_width else None
        pert = noise.draw(rng.standard_normal((draws, n, d)) if noise.sigma2 > 0 else None, d)
        diff = _aggregate(p, spec, evaluation, pert, subsets) - exact
        vals[start:start + draws] = row_dot(diff, diff)  # one row for all when nothing is drawn
    mean = float(np.mean(vals))
    stderr = float(np.std(vals, ddof=1) / np.sqrt(samples)) if samples > 1 else 0.0
    return mean, stderr, float(exact @ exact)
