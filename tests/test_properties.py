"""Property tests: config and theory-report round trips, batching-invariant pairwise means,
row-wise estimator operators with their contraction inequalities, and random runs against the
one-trial reference loop."""

import dataclasses
import json
import math
import subprocess
import sys
import tempfile
from pathlib import Path
from unittest import mock

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
    engine,
    make_logistic_l2,
    make_maml,
    make_nonconvex_reg,
    make_quadratic,
    make_toy_composite,
    problem_from_dict,
    run_trials,
    scaled_sign,
    top_k,
    write_run_csv,
)
from biased_momentum.composite import CompositeProblem
from biased_momentum.engine import CSV_FIELDS, read_run_csv
from biased_momentum.harness import check_theory
from biased_momentum.problems import make_synthetic_classification
from biased_momentum.rng import pairwise_mean

from _oracles import (UnboundedQuadratic, reference_clip, reference_momentum,
                      reference_pairwise_mean, reference_scaled_sign, reference_top_k)

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
    # the theory a run writes for its config is never refused: the config echo
    # rebuilds it, from the same pilot points, to the same JSON text
    def report_of(c):
        return build_theory_report(c.problem, c.gamma, c.beta, c.estimator, c.noise,
                                   x0=c.resolve_x0(), v_init=c.v_init)

    with np.errstate(over="ignore", invalid="ignore"):  # an overflowing x0 warns as it runs
        report = report_of(cfg)
        back = report_of(RunConfig.from_dict(_json(cfg.to_dict())))
    check_theory(_json(report.to_dict()), back)


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


class UnboundedAtTheOrigin(UnboundedQuadratic):
    """f = -inf wherever x_0 < 0.5, the minimizer at the origin included."""

    EDGE = 0.5


def _differential_problems():
    quad = make_quadratic(spectrum=np.linspace(0.5, 2.0, 4), n_workers=3, seed=2)
    return {
        "quadratic": quad,
        "unbounded": UnboundedAtTheOrigin(A=quad.A, blocks=quad.blocks, n_workers=quad.n_workers,
                                          dimension=quad.dimension, L=quad.L, mu=quad.mu),
        "logistic": make_logistic_l2(*make_synthetic_classification(3, 2, 5, seed=1), lam=0.3),
        "nonconvex": make_nonconvex_reg(*make_synthetic_classification(3, 2, 5, seed=2), 0.5),
        "maml": make_maml(*make_synthetic_classification(3, 2, 4, seed=4), 0.1),
        "toy": make_toy_composite(n_workers=2),
    }


DIFFERENTIAL_PROBLEMS = _differential_problems()


def _magnitudes(low, high):
    """Floats of either sign whose decimal exponent is drawn from low..high."""
    return st.builds(lambda sign, m, e: sign * m * 10.0**e, st.sampled_from([-1.0, 1.0]),
                     st.floats(1.0, 9.0), st.integers(low, high))


@st.composite
def differential_runs(draw):
    """(config, block length): a small run of any estimator on a problem it
    runs on, with a step size up to 1e308, noise, offset and start, and a
    block of 1 to K rounds."""
    huge = st.floats(1e307, 1.7e308)  # a step or an offset that overflows a sum
    kind = draw(st.sampled_from(["identity", "top_k", "scaled_sign", "clip", "composite"]))
    names = [name for name, p in DIFFERENTIAL_PROBLEMS.items()
             if kind != "composite" or isinstance(p, CompositeProblem)]
    p = DIFFERENTIAL_PROBLEMS[draw(st.sampled_from(names))]
    spec = EstimatorSpec(
        kind=kind,
        k=draw(st.integers(1, p.dimension)) if kind == "top_k" else None,
        tau=draw(st.floats(1e-3, 1e3)) if kind == "clip" else None,
        s_g=draw(st.integers(1, p.m_g)) if kind == "composite" else None,
        s_f=draw(st.integers(1, p.m_F)) if kind == "composite" else None)
    noise = NoiseSpec(sigma2=draw(st.one_of(st.just(0.0), st.floats(0.0, 4.0))),
                      delta_offset=draw(st.one_of(st.just(0.0), st.floats(-1.0, 1.0),
                                                  _magnitudes(-3, 307), huge)))
    scale = draw(st.one_of(st.none(), st.floats(-3.0, 3.0), _magnitudes(-3, 300)))
    direction = np.cos(np.arange(p.dimension) + 1.0)  # entries of both signs, |.| < 1
    steps = st.floats(1e-3, 2.0)  # drawn as often as the large and the overflowing together
    gamma = draw(st.one_of(steps, steps, _magnitudes(0, 307).map(abs), huge))
    cfg = RunConfig(problem=p, gamma=gamma,
                    beta=draw(st.one_of(st.just(1.0), st.floats(1e-3, 1.0))),
                    iterations=draw(st.integers(1, 12)), trials=draw(st.integers(1, 3)),
                    estimator=spec, noise=noise,
                    v_init=draw(st.sampled_from(["zero", "grad_at_x0"])),
                    x0=None if scale is None else tuple(scale * direction),
                    seed=draw(st.integers(0, 99)))
    return cfg, draw(st.integers(1, cfg.iterations))


def _assert_same_bits(got, want):
    """One shape, NaN in the same cells, and every other value bit for bit
    (a NaN's sign and payload are not compared: the CSV writes every NaN as
    'nan')."""
    assert got.shape == want.shape
    assert np.array_equal(np.isnan(got), np.isnan(want))
    got, want = (np.where(np.isnan(a), 0.0, a) for a in (got, want))
    assert got.tobytes() == want.tobytes()


@settings(max_examples=200, deadline=None, derandomize=True)
@given(run=differential_runs())
def test_random_runs_are_the_one_trial_reference_and_round_trip_their_csv(run):
    # each trial of the batched, blocked engine equals the reference loop's
    # trial alone: values, NaN positions, iterates, length and stop reason;
    # and the run.csv carries the table back
    cfg, block = run
    with mock.patch.object(engine, "_block_iterations", lambda cfg: block):
        stats = run_trials(cfg)
    for r in range(cfg.trials):
        with np.errstate(all="ignore"):  # the reference loop overflows unguarded
            records, iterates, diverged_at, reason = reference_momentum(cfg, r)
        n = stats.lengths[r]
        assert (n, stats.reasons[r]) == (len(records), reason)
        assert (n if reason else None) == diverged_at
        fields = np.array([record[1:] for record in records]).reshape(n, len(CSV_FIELDS))
        _assert_same_bits(np.stack([stats.table[name][r, :n] for name in CSV_FIELDS], axis=-1),
                          fields)
        _assert_same_bits(stats.iterates[r, :n + 1], np.array(iterates))
        assert np.isnan(stats.iterates[r, n + 1:]).all()
        assert all(np.isnan(column[r, n:]).all() for column in stats.table.values())
    with tempfile.TemporaryDirectory() as work:
        path = Path(work) / "run.csv"
        write_run_csv(stats, path)
        back = read_run_csv(path, cfg.trials)
    assert back.lengths == stats.lengths
    for part in ("table", "mean", "stderr"):
        for name in CSV_FIELDS:
            _assert_same_bits(getattr(back, part)[name], getattr(stats, part)[name])
