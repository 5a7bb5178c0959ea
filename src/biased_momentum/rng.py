"""Deterministic random streams and order-stable reductions.

All randomness in this package flows through PCG64 generators keyed by
numpy's ``SeedSequence`` spawn mechanism.  A stream is identified by the
master seed plus an integer key tuple, so the generator for, say,
``(seed, trial, worker, k)`` is the same object no matter when or in which
order streams get created.  That makes every trajectory a pure function of
its configuration: trials can run in any order (or in parallel) and still
reproduce bit-identical draws.

Stream namespaces (first key element):

* ``STREAM_WORKER``  -- per-(trial, worker, iteration) gradient noise and
  subset sampling inside the optimizer loop.
* ``STREAM_X0``      -- the initial-iterate draw for a run config.
* ``STREAM_MEASURE`` -- Monte-Carlo measurement draws (variance probes).
* ``STREAM_DATA``    -- synthetic dataset generation.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

STREAM_WORKER = 0
STREAM_X0 = 1
STREAM_MEASURE = 2
STREAM_DATA = 3


def substream(seed: int, *key: int) -> np.random.Generator:
    """Return the PCG64 generator for substream ``key`` of ``seed``.

    Key elements must be non-negative integers (they become SeedSequence
    spawn keys).
    """
    parts = tuple(int(v) for v in key)
    if any(v < 0 for v in parts):
        raise ValueError(f"substream key must be non-negative, got {parts}")
    ss = np.random.SeedSequence(entropy=int(seed), spawn_key=parts)
    return np.random.Generator(np.random.PCG64(ss))


def worker_stream(seed: int, trial: int, worker: int, k: int) -> np.random.Generator:
    """Generator used by `worker` at iteration `k` of `trial`."""
    return substream(seed, STREAM_WORKER, trial, worker, k)


def pairwise_sum(vectors: Sequence[np.ndarray]) -> np.ndarray:
    """Sum vectors with a fixed pairwise tree, independent of caller order.

    Reduces [v0, v1, v2, v3, ...] as ((v0+v1)+(v2+v3))+... so the floating
    point rounding pattern depends only on the list contents and length.
    """
    vs = [np.asarray(v) for v in vectors]
    if not vs:
        raise ValueError("pairwise_sum needs at least one vector")
    while len(vs) > 1:
        nxt = []
        for i in range(0, len(vs) - 1, 2):
            nxt.append(vs[i] + vs[i + 1])
        if len(vs) % 2:
            nxt.append(vs[-1])
        vs = nxt
    return vs[0]


def pairwise_mean(vectors: Sequence[np.ndarray]) -> np.ndarray:
    """Mean over vectors using the pairwise summation tree."""
    return pairwise_sum(vectors) / len(vectors)


def row_dot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """<a[..., :], b[..., :]> over the broadcast leading axes of a and b.

    Each entry rounds exactly like the 1-D product ``a_row @ b_row`` of
    contiguous rows (and the square root of a self-product like
    ``np.linalg.norm``), whatever the batch shape, as long as the last axis
    has unit stride; a batched matrix-vector product ``A @ v``, or rows with
    a strided last axis, may round differently.
    """
    return (a[..., None, :] @ b[..., :, None])[..., 0, 0]
