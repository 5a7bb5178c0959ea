"""Property tests: config round trips and batching-invariant pairwise means."""

import dataclasses
import json

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from biased_momentum import EstimatorSpec, NoiseSpec, RunConfig, problem_from_dict
from biased_momentum.rng import pairwise_mean

PROBLEM = problem_from_dict({"kind": "quadratic", "n_workers": 2, "seed": 1,
                             "matrix": {"spectrum": [0.5, 1.0, 1.5, 2.0]}})
D = PROBLEM.dimension

finite = st.floats(allow_nan=False, allow_infinity=False)
positive = st.floats(min_value=0.0, max_value=1e6, exclude_min=True)
seeds = st.integers(0, 2**32 - 1)

noise_specs = st.builds(
    NoiseSpec,
    sigma2=st.floats(min_value=0.0, max_value=1e6),
    delta_offset=st.one_of(finite, st.lists(finite, min_size=1, max_size=D)),
    seed=seeds,
)
estimator_specs = st.one_of(
    st.just(EstimatorSpec()),
    st.builds(EstimatorSpec, kind=st.just("top_k"), k=st.integers(1, D)),
    st.just(EstimatorSpec(kind="scaled_sign")),
    st.builds(EstimatorSpec, kind=st.just("clip"), tau=positive),
)
run_configs = st.builds(
    RunConfig,
    problem=st.just(PROBLEM),
    gamma=positive,
    beta=st.floats(min_value=0.0, max_value=1.0, exclude_min=True),
    iterations=st.integers(0, 10**6),
    trials=st.integers(1, 10**4),
    estimator=estimator_specs,
    noise=noise_specs,
    v_init=st.sampled_from(["zero", "grad_at_x0"]),
    x0=st.one_of(st.none(), st.tuples(*[finite] * D)),
    seed=seeds,
)


def _json(d):
    return json.loads(json.dumps(d))


@settings(max_examples=200, deadline=None)
@given(noise=noise_specs, spec=st.one_of(estimator_specs, st.builds(
    EstimatorSpec, kind=st.just("composite"), s_g=st.integers(1, 50), s_f=st.integers(1, 50))))
def test_spec_round_trip(noise, spec):
    assert NoiseSpec.from_dict(_json(noise.to_dict())) == noise
    assert EstimatorSpec.from_dict(_json(spec.to_dict())) == spec


@settings(max_examples=100, deadline=None)
@given(cfg=run_configs)
def test_run_config_round_trip(cfg):
    back = RunConfig.from_dict(_json(cfg.to_dict()))
    # problems hold arrays, so compare the rebuilt one through its source
    assert back.problem.source == cfg.problem.source
    assert dataclasses.replace(back, problem=cfg.problem) == cfg


@settings(max_examples=200, deadline=None)
@given(
    stacked=st.integers(1, 9).flatmap(lambda n: st.integers(1, 4).flatmap(
        lambda b: arrays(np.float64, (n, b, 3),
                         elements=st.floats(-1e100, 1e100, allow_subnormal=False)))),
)
def test_pairwise_mean_is_batching_invariant(stacked):
    vectors = list(stacked)
    batched = pairwise_mean(vectors)
    np.testing.assert_array_equal(pairwise_mean(stacked), batched)
    for b in range(stacked.shape[1]):
        np.testing.assert_array_equal(batched[b], pairwise_mean([v[b] for v in vectors]))
