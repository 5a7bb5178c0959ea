"""Property tests: config and theory-report round trips, batching-invariant pairwise means and
row-wise estimator operators with their contraction inequalities."""

import dataclasses
import json
import math
import subprocess
import sys
from pathlib import Path

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from biased_momentum import (
    EstimatorSpec,
    NoiseSpec,
    RunConfig,
    build_theory_report,
    clip,
    problem_from_dict,
    scaled_sign,
    top_k,
)
from biased_momentum.harness import rebuild_theory
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
    beta=st.floats(min_value=0.0, max_value=1.0, exclude_min=True).filter(lambda b: b * b > 0),
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


@settings(max_examples=200, deadline=None)
@given(cfg=run_configs)
# an x0 whose f, gradients and premises overflow to infinities and NaN
@example(cfg=RunConfig(PROBLEM, 0.1, 1.0, 1, estimator=EstimatorSpec(kind="top_k", k=2),
                       v_init="zero", x0=(1e300,) * D))
# a beta whose 1/beta^2 constants overflow: the step-size ceilings are 0
@example(cfg=RunConfig(PROBLEM, 0.1, 1e-160, 1))
def test_theory_report_round_trip(cfg):
    # the theory a run writes for its config is never refused: report rebuilds
    # it from the config echo to the same JSON text
    with np.errstate(over="ignore", invalid="ignore"):  # an overflowing x0 warns as it runs
        report = build_theory_report(cfg.problem, cfg.gamma, cfg.beta, cfg.estimator, cfg.noise,
                                     x0=cfg.resolve_x0(), v_init=cfg.v_init)
        back = rebuild_theory(_json(report.to_dict()), RunConfig.from_dict(_json(cfg.to_dict())))
    assert json.dumps(back.to_dict()) == json.dumps(report.to_dict())


def test_a_failing_example_fails_its_test_not_the_session(tmp_path):
    # reporting a failing example imports libcst, whose import warns; under
    # the suite's warning filters that must still end in FAILED, exit 1
    (tmp_path / "test_fails.py").write_text(
        "from hypothesis import given, strategies as st\n\n\n"
        "@given(st.integers())\n"
        "def test_fails(n):\n"
        "    assert n < 0\n")
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    done = subprocess.run([sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
                           "-c", str(pyproject), "--rootdir", str(tmp_path), "test_fails.py"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert done.returncode == 1, done.stdout + done.stderr
    assert "FAILED test_fails.py::test_fails" in done.stdout


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
