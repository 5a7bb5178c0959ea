"""Property tests: config and theory-report round trips, batching-invariant pairwise means and
row-wise estimator operators with their contraction inequalities."""

import dataclasses
import json
import math

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from biased_momentum import (
    EstimatorSpec,
    NoiseSpec,
    RunConfig,
    TheoryReport,
    clip,
    problem_from_dict,
    scaled_sign,
    top_k,
)
from biased_momentum.estimators import KINDS
from biased_momentum.rng import pairwise_mean

from _oracles import reference_clip, reference_pairwise_mean, reference_scaled_sign, reference_top_k

PROBLEM = problem_from_dict({"kind": "quadratic", "n_workers": 2, "seed": 1,
                             "matrix": {"spectrum": [0.5, 1.0, 1.5, 2.0]}})
D = PROBLEM.dimension

finite = st.floats(allow_nan=False, allow_infinity=False)
positive = st.floats(min_value=0.0, max_value=1e6, exclude_min=True)
seeds = st.integers(0, 2**32 - 1)



def _noise_specs(offset_lists):
    return st.builds(NoiseSpec, sigma2=st.floats(min_value=0.0, max_value=1e6),
                     delta_offset=st.one_of(finite, offset_lists), seed=seeds)


noise_specs = _noise_specs(st.lists(finite, min_size=1, max_size=D))
# a run takes an offset list of one entry or of the problem's dimension
run_noise_specs = _noise_specs(st.one_of(st.lists(finite, min_size=1, max_size=1),
                                         st.lists(finite, min_size=D, max_size=D)))
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
    noise=run_noise_specs,
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


# admissible premises of a theory report; NaN and None where a field takes them
nan_or_none = st.one_of(st.none(), st.just(math.nan))
optional_numbers = st.one_of(nan_or_none, st.floats(min_value=0.0, max_value=1e6))
theory_reports = st.builds(
    TheoryReport,
    gamma=st.floats(min_value=1e-8, max_value=1e3),
    beta=st.floats(min_value=0.01, max_value=1.0),
    L=st.floats(min_value=1e-6, max_value=1e6),
    mu=st.one_of(st.just(0.0), st.floats(min_value=1e-6, max_value=1e6)),
    f_star=st.one_of(st.none(), finite),
    estimator_kind=st.sampled_from(KINDS),
    B_var=st.floats(min_value=0.0, max_value=1.0),
    C_var=optional_numbers,
    f0_gap=optional_numbers,
    grad_v_err0_sq=st.floats(min_value=0.0, max_value=1e6),
    alpha_contraction=st.one_of(st.none(), st.floats(min_value=1e-3, max_value=1.0)),
    sigma2_worker=optional_numbers,
    delta2_het=optional_numbers,
    delta_subopt=optional_numbers,
    composite_sigmas=st.one_of(st.none(), st.tuples(*[st.floats(0.0, 1e6)] * 3)),
)


@settings(max_examples=200, deadline=None)
@given(report=theory_reports)
def test_theory_report_round_trip(report):
    # the exact derived-value check never refuses an honest document
    doc = _json(report.to_dict())
    back = TheoryReport.from_dict(doc)
    assert json.dumps(back.to_dict()) == json.dumps(report.to_dict())


@settings(max_examples=200, deadline=None)
@given(
    stacked=st.integers(1, 9).flatmap(lambda n: st.integers(1, 4).flatmap(
        lambda b: arrays(np.float64, (n, b, 3),
                         elements=st.floats(-1e100, 1e100, allow_subnormal=False)))),
)
def test_pairwise_mean_is_batching_invariant(stacked):
    vectors = list(stacked)
    batched = pairwise_mean(vectors)
    np.testing.assert_array_equal(batched, reference_pairwise_mean(vectors))
    np.testing.assert_array_equal(pairwise_mean(stacked), batched)
    for b in range(stacked.shape[1]):
        np.testing.assert_array_equal(batched[b], pairwise_mean([v[b] for v in vectors]))


# (B, d) stacks of moderate magnitude, so squared norms stay finite
stacks = st.integers(1, 6).flatmap(lambda b: st.integers(1, 12).flatmap(
    lambda d: arrays(np.float64, (b, d),
                     elements=st.floats(-1e6, 1e6, allow_subnormal=False))))


def _sq(v):
    return float(v @ v)


def _scaled(g, q):
    """g and q times the same power of two, which is exact, so that max|g|
    lies in [0.5, 1) and no square in a contraction check turns subnormal."""
    e = -np.frexp(np.max(np.abs(g)))[1]
    return np.ldexp(g, e), np.ldexp(q, e)


@settings(max_examples=200, deadline=None)
@given(G=stacks, data=st.data())
def test_top_k_rows(G, data):
    d = G.shape[1]
    k = data.draw(st.integers(1, d))
    out = top_k(G, k)
    for g, q in zip(G, out):
        np.testing.assert_array_equal(q, top_k(g, k))
        np.testing.assert_array_equal(q, reference_top_k(g, k))
        # dropping the d - k smallest squares leaves at most their share
        g, q = _scaled(g, q)
        assert _sq(q - g) <= (1.0 - k / d) * _sq(g) * (1.0 + 1e-12)


@settings(max_examples=200, deadline=None)
@given(G=stacks)
# unscaled, the squares of this row are subnormal and the check fails by rounding
@example(G=np.array([[2.53792686e-158, 1.69661141e-212, 1.69661141e-212, 1.69661141e-212]]))
def test_scaled_sign_rows(G):
    d = G.shape[1]
    out = scaled_sign(G)
    for g, q in zip(G, out):
        np.testing.assert_array_equal(q, scaled_sign(g))
        np.testing.assert_array_equal(q, reference_scaled_sign(g))
        g, q = _scaled(g, q)
        assert _sq(q - g) <= (1.0 - 1.0 / d) * _sq(g) * (1.0 + 1e-12)


@settings(max_examples=200, deadline=None)
@given(G=stacks, tau=st.floats(1e-3, 1e7))
def test_clip_rows(G, tau):
    out = clip(G, tau)
    for g, q in zip(G, out):
        np.testing.assert_array_equal(q, clip(g, tau))
        np.testing.assert_array_equal(q, reference_clip(g, tau))
        # the residual is exactly the excess norm, up to rounding of the norms
        norm = np.linalg.norm(g)
        assert abs(np.linalg.norm(q - g) - max(norm - tau, 0.0)) <= 1e-12 * max(norm, tau)
