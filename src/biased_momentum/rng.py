"""Deterministic random streams and order-stable reductions.

All randomness in this package flows through PCG64 generators keyed by
numpy's ``SeedSequence`` spawn mechanism.  A stream is identified by the
master seed plus an integer key tuple, so the generator for, say,
``(seed, STREAM_WORKER, trial, worker)`` is the same object no matter when
or in which order streams get created.  That makes every trajectory a pure
function of its configuration and the package version: trials can run in
any order (or in parallel) and still reproduce bit-identical draws.

Stream namespaces (first key element):

* ``STREAM_WORKER``  -- gradient noise inside the optimizer loop.  Worker
  w of trial t reads its Gaussian noise from the stream keyed
  ``(STREAM_WORKER, t, w)``: row k of its standard normals, d of them in
  C order, is its noise at iteration k, so the number of iterations drawn
  at a time changes no value.
* ``STREAM_SUBSET``  -- composite subset sampling inside the optimizer
  loop.  Worker w of trial t reads one row of m_g + m_F uniform keys per
  iteration from the stream keyed ``(STREAM_SUBSET, t, w)``; the keys pick
  its inner and outer index sets (``EstimatorSpec.subsets``).
* ``STREAM_X0``      -- the initial-iterate draw for a run config.
* ``STREAM_MEASURE`` -- Monte-Carlo measurement draws (variance probes).
* ``STREAM_DATA``    -- synthetic dataset generation.
"""

from __future__ import annotations

import numpy as np

STREAM_WORKER = 0
STREAM_X0 = 1
STREAM_MEASURE = 2
STREAM_DATA = 3
STREAM_SUBSET = 4


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


def pairwise_mean(values, axis: int = 0) -> np.ndarray:
    """Mean over one axis of an array with a fixed pairwise tree.

    Reduces the entries [v0, v1, v2, v3, ...] along the axis as
    ((v0+v1)+(v2+v3))+..., so the rounding of each result element depends
    only on the entries it reduces and their count, not on the other axes.
    """
    a = np.asarray(values)
    head = (slice(None),) * (axis % a.ndim)
    level = [a[head + (j,)] for j in range(a.shape[axis])]
    count = len(level)
    while len(level) > 1:
        odd = level[-1:] if len(level) % 2 else []
        level = [level[j] + level[j + 1] for j in range(0, len(level) - 1, 2)] + odd
    return level[0] / count


def row_dot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """<a[..., :], b[..., :]> over the broadcast leading axes of a and b.

    Each entry rounds exactly like the 1-D product ``a_row @ b_row`` of
    contiguous rows (and the square root of a self-product like
    ``np.linalg.norm``), whatever the batch shape, as long as the last axis
    has unit stride; a batched matrix-vector product ``A @ v``, or rows with
    a strided last axis, may round differently.
    """
    return (a[..., None, :] @ b[..., :, None])[..., 0, 0]
