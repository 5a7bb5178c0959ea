"""Worker streams: one Gaussian and one subset-key stream per (trial, worker)."""

import numpy as np
import pytest

from biased_momentum import EstimatorSpec, NoiseSpec, RunConfig, make_maml, make_quadratic
from biased_momentum.engine import _worker_draws
from biased_momentum.problems import make_synthetic_classification
from biased_momentum.rng import STREAM_SUBSET, STREAM_WORKER, substream

from _oracles import reference_subset


@pytest.mark.parametrize("kind", ["quadratic", "maml"])
def test_worker_noise_and_keys_are_rows_of_one_stream_per_trial_and_worker(kind):
    if kind == "quadratic":
        p, spec = make_quadratic(np.eye(6), n_workers=3), EstimatorSpec(kind="top_k", k=2)
    else:
        p = make_maml(*make_synthetic_classification(4, 2, 6, seed=5), 0.1)
        spec = EstimatorSpec(kind="composite", s_g=2, s_f=3)
    sigma2, seed, K, T = 0.3, 2**40 + 17, 9, 3
    cfg = RunConfig(problem=p, gamma=0.1, beta=0.5, iterations=K, trials=T, estimator=spec,
                    noise=NoiseSpec(sigma2=sigma2), seed=seed)
    draw = _worker_draws(cfg)
    draws = draw(4) + draw(K - 4)  # two blocks read each stream on in C order
    assert len(draws) == K
    pert = np.stack([step_pert for step_pert, _ in draws])
    assert pert.shape == (K, T, p.n_workers, p.dimension)
    for t in range(T):
        for w in range(p.n_workers):
            noise = substream(seed, STREAM_WORKER, t, w).standard_normal((K, p.dimension))
            assert pert[:, t, w].tobytes() == (0.0 + np.sqrt(sigma2) * noise).tobytes()
            if kind == "maml":
                keys = substream(seed, STREAM_SUBSET, t, w).random((K, p.m_g + p.m_F))
                for k, (_, (idx_g, idx_f)) in enumerate(draws):
                    assert idx_g[t, w].tolist() == reference_subset(keys[k, :p.m_g], 2)
                    assert idx_f[t, w].tolist() == reference_subset(keys[k, p.m_g:], 3)
