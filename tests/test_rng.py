"""Worker streams: bulk-seeded states equal SeedSequence-built generators."""

import numpy as np
import pytest

from biased_momentum.rng import seeded_streams, worker_states

from _oracles import worker_stream


@pytest.mark.parametrize("seed", [0, 2**31 - 1, 2**40 + 17, 2**130 + 3])
def test_worker_states_match_seedsequence(seed):
    keys = np.random.default_rng(seed % 2**32)
    trials = keys.integers(0, 2**32, size=3).tolist() + [0, 2**32 - 1]
    ks = keys.integers(0, 2**32, size=2).tolist() + [0, 1]
    workers = 3
    states = worker_states(seed, trials, workers, ks)
    assert len(states) == len(ks)
    for per_k, k in zip(states, ks):
        assert len(per_k) == len(trials)
        pairs = [pair for per_trial in per_k for pair in per_trial]
        keyed = [(t, w) for t in trials for w in range(workers)]
        for (t, w), got in zip(keyed, seeded_streams(pairs, np.random.default_rng()), strict=True):
            want = worker_stream(seed, t, w, k)
            assert got.bit_generator.state == want.bit_generator.state
            # normal, choice (32-bit buffered draws) and integers, in one stream
            np.testing.assert_array_equal(got.normal(0.0, 0.3, size=5), want.normal(0.0, 0.3, size=5))
            np.testing.assert_array_equal(got.choice(11, size=4, replace=False),
                                          want.choice(11, size=4, replace=False))
            np.testing.assert_array_equal(got.integers(0, 1000, size=7), want.integers(0, 1000, size=7))
            np.testing.assert_array_equal(got.standard_normal(3), want.standard_normal(3))


def test_seeded_streams_restart_each_state():
    # a stream left mid-way (with a buffered 32-bit half) does not leak into the next
    pairs = [pair for per_trial in worker_states(5, [0, 1], 2, [3])[0] for pair in per_trial]
    generator = np.random.default_rng()
    first = [g.integers(0, 7, size=3).tolist() for g in seeded_streams(pairs, generator)]
    again = [g.integers(0, 7, size=3).tolist() for g in seeded_streams(pairs[::-1], generator)][::-1]
    assert first == again


def test_worker_states_reject_keys_outside_uint32():
    with pytest.raises(ValueError):
        worker_states(0, [2**32], 1, [0])
    with pytest.raises(ValueError):
        worker_states(0, [0], 1, [-1])
