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
  subset sampling inside the optimizer loop.  ``worker_states`` defines
  them: worker w at iteration k of trial t draws from the stream with key
  ``(STREAM_WORKER, t, w, k)``.  The engine does not build a
  ``SeedSequence`` per stream: ``run_trials`` has ``worker_states``
  compute the seeded PCG64 states of a whole block of (iteration, trial,
  worker) keys at once, and ``seeded_streams`` set them one at a time on
  a single generator that it reuses.
* ``STREAM_X0``      -- the initial-iterate draw for a run config.
* ``STREAM_MEASURE`` -- Monte-Carlo measurement draws (variance probes).
* ``STREAM_DATA``    -- synthetic dataset generation.
"""

from __future__ import annotations

from collections.abc import Iterator

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


# numpy's SeedSequence hash (pool size 4) and the PCG64 seeding step
_MASK32 = 0xFFFFFFFF
_MASK128 = (1 << 128) - 1
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645


def _words(value: int) -> list[int]:
    """Little-endian 32-bit words of a non-negative int (0 is one word)."""
    words = [value & _MASK32]
    while value > _MASK32:
        value >>= 32
        words.append(value & _MASK32)
    return words


def _consts(init: int, mult: int, count: int) -> list[int]:
    """The first count + 1 values of the hash multiplier sequence."""
    out = [init]
    for _ in range(count):
        out.append((out[-1] * mult) & _MASK32)
    return out


def _hashmix(value, c0, c1):
    """SeedSequence's hashmix with multiplier c0 going in and c1 after (on
    ints or uint32 arrays)."""
    value = ((value ^ c0) * c1) & _MASK32
    return value ^ (value >> 16)


def _mix(x, y):
    out = (_MIX_L * x - _MIX_R * y) & _MASK32
    return out ^ (out >> 16)


def worker_states(seed: int, trials, workers: int, ks) -> list:
    """PCG64 (state, inc) of ``substream(seed, STREAM_WORKER, t, w, k)``
    for every key.

    Returns one flat list per iteration of ks, holding the pairs of the
    given trials and the workers 0..workers-1 in (trial, worker) order.
    The SeedSequence hash runs its multiplier sequence the same way for
    every key, so the part that depends on the seed alone is hashed once
    on ints and the trial, worker and iteration words on uint32 arrays of
    all keys at once; then each stream's 128-bit LCG seeding step runs on
    Python ints.  Trials and iterations must lie in [0, 2**32); the seed
    may be any non-negative int.
    """
    trials = np.asarray(trials, dtype=np.int64).reshape(-1)
    ks = np.asarray(ks, dtype=np.int64).reshape(-1)
    for name, vals in (("trial", trials), ("k", ks)):
        if vals.size and not (0 <= vals.min() and vals.max() <= _MASK32):
            raise ValueError(f"worker stream {name} must lie in [0, 2**32)")
    seed_words = _words(int(seed))
    seed_words += [0] * (4 - len(seed_words))  # spawned sequences pad the entropy to the pool
    key_words = [trials.astype(np.uint32)[None, None, :, None],
                 np.arange(workers, dtype=np.uint32)[None, None, None, :],
                 ks.astype(np.uint32)[None, :, None, None]]
    scalar_words = seed_words[4:] + [STREAM_WORKER]
    a = _consts(_INIT_A, _MULT_A, 4 + 12 + 4 * (len(scalar_words) + len(key_words)))
    pool = [_hashmix(w, a[j], a[j + 1]) for j, w in enumerate(seed_words[:4])]
    j = 4
    for src in range(4):
        for dst in range(4):
            if src != dst:
                pool[dst] = _mix(pool[dst], _hashmix(pool[src], a[j], a[j + 1]))
                j += 1
    for w in scalar_words:
        for dst in range(4):
            pool[dst] = _mix(pool[dst], _hashmix(w, a[j], a[j + 1]))
            j += 1
    # the key words go through the four pool entries along a leading axis
    pool = np.array(pool, dtype=np.uint32).reshape(4, 1, 1, 1)
    for w in key_words:
        c = np.array(a[j:j + 5], dtype=np.uint32).reshape(5, 1, 1, 1)
        pool = _mix(pool, _hashmix(w, c[:4], c[1:]))
        j += 4
    # generate_state(4, uint64): eight words cycling over the pool
    b = np.array(_consts(_INIT_B, _MULT_B, 8), dtype=np.uint32).reshape(9, 1, 1, 1)
    out = _hashmix(pool[[0, 1, 2, 3, 0, 1, 2, 3]], b[:8], b[1:]).astype(np.uint64)
    out = np.broadcast_to(out, (8, ks.size, trials.size, workers))
    hi_s, lo_s, hi_i, lo_i = ((out[2 * i] | (out[2 * i + 1] << 32)).ravel() for i in range(4))
    # PCG64 seeding: inc = (i << 1) | 1, state = (inc + s) * mult + inc, mod 2**128;
    # the shift and the sum run on 64-bit halves, the product on Python ints
    inc_hi, inc_lo = (hi_i << 1) | (lo_i >> 63), (lo_i << 1) | 1
    sum_lo = inc_lo + lo_s
    sum_hi = inc_hi + hi_s + (sum_lo < inc_lo)
    flat = []
    for a, b, c, d in zip(sum_hi.tolist(), sum_lo.tolist(), inc_hi.tolist(), inc_lo.tolist()):
        inc = (c << 64) | d
        flat.append(((((a << 64) | b) * _PCG_MULT + inc) & _MASK128, inc))
    per_k = trials.size * workers
    return [flat[r * per_k:(r + 1) * per_k] for r in range(ks.size)]


def seeded_streams(states, generator: np.random.Generator) -> Iterator[np.random.Generator]:
    """Yield ``generator`` re-seated to each (state, inc) of ``states`` in
    turn, as freshly seeded (``has_uint32`` = 0).

    Every item is the same generator, so a caller finishes drawing from one
    stream before taking the next.  Its bit generator must be a PCG64.
    """
    inner = {}
    outer = {"bit_generator": "PCG64", "has_uint32": 0, "uinteger": 0, "state": inner}
    bit_generator = generator.bit_generator
    for inner["state"], inner["inc"] in states:
        bit_generator.state = outer
        yield generator


def pairwise_mean(values, axis: int = 0) -> np.ndarray:
    """Mean over one axis of an array with a fixed pairwise tree.

    Reduces the entries [v0, v1, v2, v3, ...] along the axis as
    ((v0+v1)+(v2+v3))+..., so the rounding of each result element depends
    only on the entries it reduces and their count, not on the other axes.
    """
    a = np.moveaxis(np.asarray(values), axis, 0)
    count = len(a)
    while len(a) > 1:
        even = len(a) - len(a) % 2
        pairs = a[0:even:2] + a[1:even:2]
        a = np.concatenate((pairs, a[even:])) if even < len(a) else pairs
    return a[0] / count


def row_dot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """<a[..., :], b[..., :]> over the broadcast leading axes of a and b.

    Each entry rounds exactly like the 1-D product ``a_row @ b_row`` of
    contiguous rows (and the square root of a self-product like
    ``np.linalg.norm``), whatever the batch shape, as long as the last axis
    has unit stride; a batched matrix-vector product ``A @ v``, or rows with
    a strided last axis, may round differently.
    """
    return (a[..., None, :] @ b[..., :, None])[..., 0, 0]
