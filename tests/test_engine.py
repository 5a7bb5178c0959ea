"""Momentum engine: update identities, SGD equivalence, determinism."""

import copy
import json

import numpy as np
import pytest

from biased_momentum import (
    ConfigurationError,
    EstimatorSpec,
    NoiseSpec,
    RunConfig,
    full_gradient,
    init_state,
    make_logistic_l2,
    make_maml,
    make_nonconvex_reg,
    make_quadratic,
    run,
    run_trials,
    step,
    write_run_csv,
)
from biased_momentum.engine import CSV_HEADER, read_run_csv
from biased_momentum.problems import make_synthetic_classification

from _oracles import reference_sgd


def _quad_cfg(**kw):
    p = make_quadratic(np.eye(10), n_workers=2)
    defaults = dict(problem=p, gamma=0.5, beta=1.0, iterations=5,
                    x0=tuple([1.0] + [0.0] * 9))
    defaults.update(kw)
    return RunConfig(**defaults)


# ---------------------------------------------------------------------------
# init


def test_init_v_from_gradient_zeroes_initial_error():
    cfg = _quad_cfg(v_init="grad_at_x0")
    st = init_state(cfg)
    np.testing.assert_array_equal(st.v_prev, full_gradient(cfg.problem, st.x))
    assert st.k == 0


def test_init_v_zero_at_origin_equivalent():
    cfg = _quad_cfg(v_init="zero", x0=tuple(np.zeros(10)))
    st = init_state(cfg)
    np.testing.assert_array_equal(st.v_prev, np.zeros(10))
    np.testing.assert_array_equal(st.v_prev, full_gradient(cfg.problem, st.x))


def test_init_seeded_x0_reproducible_and_unit_norm():
    cfg = _quad_cfg(x0=None, seed=123)
    a, b = init_state(cfg), init_state(cfg)
    np.testing.assert_array_equal(a.x, b.x)
    assert np.linalg.norm(a.x) == pytest.approx(1.0)


# ---------------------------------------------------------------------------
# single-step behavior


def test_step_is_gradient_descent_for_beta_one():
    cfg = _quad_cfg()
    st = init_state(cfg)
    st1, rec = step(st, cfg.problem, cfg.estimator, cfg.noise, 0.5, 1.0)
    np.testing.assert_allclose(st1.x, [0.5] + [0.0] * 9)
    st2, _ = step(st1, cfg.problem, cfg.estimator, cfg.noise, 0.5, 1.0)
    np.testing.assert_allclose(st2.x, [0.25] + [0.0] * 9)
    assert rec.f == pytest.approx(0.5)
    assert st1.k == st.k + 1


def test_step_identities_hold_bitwise():
    feats, labels = make_synthetic_classification(6, 3, 8, seed=1)
    p = make_logistic_l2(feats, labels, lam=0.4)
    noise = NoiseSpec(sigma2=0.01)
    cfg = RunConfig(problem=p, gamma=0.1, beta=0.3, iterations=1,
                    noise=noise, seed=5)
    st = init_state(cfg)
    st1, rec = step(st, p, cfg.estimator, noise, 0.1, 0.3)
    # reconstruct the aggregate from the v recurrence, then check the
    # recorded identities: g = grad + eta, x' = x - gamma v, v update
    g = st.v_prev + (st1.v_prev - st.v_prev) / 0.3
    grad = full_gradient(p, st.x)
    eta = g - grad
    assert float(eta @ eta) == pytest.approx(rec.eta_norm_sq, rel=1e-12)
    np.testing.assert_array_equal(st1.x, st.x - 0.1 * st1.v_prev)
    v_manual = st.v_prev + 0.3 * (g - st.v_prev)
    np.testing.assert_allclose(st1.v_prev, v_manual, rtol=1e-12)
    dx = st1.x - st.x
    assert rec.step_norm_sq == pytest.approx(float(dx @ dx), rel=1e-12)
    ve = grad - st.v_prev
    assert rec.v_error_sq == pytest.approx(float(ve @ ve), rel=1e-12)


def test_beta_zero_rejected():
    with pytest.raises(ConfigurationError):
        _quad_cfg(beta=0.0)


# ---------------------------------------------------------------------------
# beta = 1 equals an independent SGD implementation, bit for bit


@pytest.mark.parametrize("kind", ["quadratic", "logistic", "nonconvex"])
def test_beta_one_matches_reference_sgd(kind):
    if kind == "quadratic":
        p = make_quadratic(spectrum=np.linspace(0.5, 2.0, 8), seed=2, n_workers=4)
    elif kind == "logistic":
        feats, labels = make_synthetic_classification(8, 4, 10, seed=2)
        p = make_logistic_l2(feats, labels, lam=0.3)
    else:
        feats, labels = make_synthetic_classification(8, 4, 10, seed=2)
        p = make_nonconvex_reg(feats, labels, lam_nc=0.5)
    noise = NoiseSpec(sigma2=0.02, delta_offset=0.01)
    cfg = RunConfig(problem=p, gamma=0.05, beta=1.0, iterations=50,
                    noise=noise, seed=77)
    res = run(cfg)
    xs = reference_sgd(p, cfg.estimator, noise, 0.05, 50, cfg.resolve_x0(), seed=77)
    assert len(res.iterates) == len(xs)
    for a, b in zip(res.iterates, xs):
        np.testing.assert_array_equal(a, b)


# ---------------------------------------------------------------------------
# run / trials


def test_run_zero_iterations():
    cfg = _quad_cfg(iterations=0)
    res = run(cfg)
    assert res.records == ()
    np.testing.assert_array_equal(res.final_state.x, init_state(cfg).x)
    assert not res.diverged


def test_run_is_deterministic():
    cfg = _quad_cfg(noise=NoiseSpec(sigma2=0.1), beta=0.4, iterations=20, seed=9)
    r1, r2 = run(cfg), run(cfg)
    for a, b in zip(r1.iterates, r2.iterates):
        np.testing.assert_array_equal(a, b)
    assert r1.records == r2.records


def test_run_marks_divergence_without_nonfinite_rows():
    p = make_quadratic(np.eye(4))
    cfg = RunConfig(problem=p, gamma=3.0, beta=1.0, iterations=200,
                    x0=(1.0, 1.0, 1.0, 1.0))
    res = run(cfg)
    assert res.diverged
    assert len(res.records) < 200
    # x doubles in norm each step, so f first exceeds the cap; that k has no record
    assert res.diverged_at == len(res.records)
    assert res.reason.startswith("f = ") and res.reason.endswith("> 1e+12")
    for rec in res.records:
        assert np.isfinite(rec.f) and np.isfinite(rec.eta_norm_sq)


def test_trials_single_equals_run_and_zero_std():
    cfg = _quad_cfg(trials=1, noise=NoiseSpec(sigma2=0.05), beta=0.5, seed=3)
    stats = run_trials(cfg)
    single = run(cfg, trial=0)
    assert stats.results[0].records == single.records
    assert np.all(stats.std["f"] == 0.0)


def test_trials_deterministic_dynamics_zero_std():
    cfg = _quad_cfg(trials=4, beta=0.5)
    stats = run_trials(cfg)
    assert np.all(stats.std["grad_norm_sq"] == 0.0)
    assert np.all(stats.counts == 4)


def test_trials_monte_carlo_reproducibility():
    base = _quad_cfg(trials=100, beta=0.5, iterations=60,
                     noise=NoiseSpec(sigma2=0.04), seed=17)
    stats = run_trials(base)
    redo = run_trials(base)
    np.testing.assert_array_equal(stats.mean["grad_norm_sq"], redo.mean["grad_norm_sq"])
    # independently seeded re-run agrees within monte-carlo error
    other = _quad_cfg(trials=100, beta=0.5, iterations=60,
                      noise=NoiseSpec(sigma2=0.04), seed=18)
    stats2 = run_trials(other)
    k = 55
    se = stats.stderr["grad_norm_sq"][k] + stats2.stderr["grad_norm_sq"][k]
    assert abs(stats.mean["grad_norm_sq"][k] - stats2.mean["grad_norm_sq"][k]) < 4 * max(se, 1e-12)


# ---------------------------------------------------------------------------
# CSV round trip


def test_csv_round_trip_and_header(tmp_path):
    cfg = _quad_cfg(trials=2, beta=0.5, noise=NoiseSpec(sigma2=0.01), iterations=7)
    stats = run_trials(cfg)
    path = tmp_path / "run.csv"
    write_run_csv(stats.results, path)
    text = path.read_text().splitlines()
    assert text[0] == CSV_HEADER
    assert len(text) == 1 + 2 * 7
    per_trial = read_run_csv(path)
    assert len(per_trial) == 2
    for recs, res in zip(per_trial, stats.results):
        assert tuple(recs) == res.records  # repr round-trips floats exactly


def test_csv_bytes_identical_across_runs(tmp_path):
    cfg = _quad_cfg(trials=3, beta=0.3, noise=NoiseSpec(sigma2=0.02), seed=21)
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    write_run_csv(run_trials(cfg).results, a)
    write_run_csv(run_trials(cfg).results, b)
    assert a.read_bytes() == b.read_bytes()


# ---------------------------------------------------------------------------
# config plumbing


def test_config_from_dict_and_echo():
    doc = {
        "problem": {"kind": "quadratic", "n_workers": 2, "seed": 1,
                    "matrix": {"spectrum": [1.0, 2.0]}},
        "gamma": 0.1, "beta": 0.5, "iterations": 3, "trials": 2,
        "estimator": {"kind": "top_k", "k": 1},
        "noise": {"sigma2": 0.01, "delta_offset": 0.001},
        "seed": 4,
    }
    cfg = RunConfig.from_dict(doc)
    assert cfg.estimator.k == 1
    echo = cfg.to_dict()
    assert echo["problem"]["matrix"]["spectrum"] == [1.0, 2.0]
    cfg2 = RunConfig.from_dict(echo)
    r1, r2 = run(cfg), run(cfg2)
    assert r1.records == r2.records


def test_config_missing_key_named():
    with pytest.raises(ConfigurationError, match="gamma"):
        RunConfig.from_dict({"beta": 0.5, "iterations": 1, "problem": {}})


def test_config_rejects_composite_on_plain_problem():
    p = make_quadratic(np.eye(3))
    with pytest.raises(ConfigurationError):
        RunConfig(problem=p, gamma=0.1, beta=0.5, iterations=1,
                  estimator=EstimatorSpec(kind="composite", s_g=1, s_f=1))


@pytest.mark.parametrize("s_g,s_f", [(5, 1), (1, 5)])
def test_config_rejects_composite_batches_beyond_m(s_g, s_f):
    p = make_maml(*make_synthetic_classification(3, 2, 4, seed=3), 0.1)
    with pytest.raises(ConfigurationError, match="out of range"):
        RunConfig(problem=p, gamma=0.1, beta=0.5, iterations=1,
                  estimator=EstimatorSpec(kind="composite", s_g=s_g, s_f=s_f))


def test_config_rejects_oversized_top_k():
    p = make_quadratic(np.eye(3))
    with pytest.raises(ConfigurationError):
        RunConfig(problem=p, gamma=0.1, beta=0.5, iterations=1,
                  estimator=EstimatorSpec(kind="top_k", k=5))


def test_step_evaluates_each_worker_gradient_once(monkeypatch):
    # the exact full gradient is the pairwise mean of the same n evaluations
    # that feed the worker estimates
    p = make_quadratic(spectrum=np.linspace(0.5, 2.0, 6), n_workers=3, seed=2)
    cls, calls = type(p), []
    original = cls.worker_grad

    def counting(self, i, x):
        calls.append(i)
        return original(self, i, x)

    for spec in (EstimatorSpec(), EstimatorSpec(kind="top_k", k=2),
                 EstimatorSpec(kind="clip", tau=0.5)):
        cfg = RunConfig(problem=p, gamma=0.1, beta=0.5, iterations=1, estimator=spec,
                        noise=NoiseSpec(sigma2=0.01, delta_offset=0.1), seed=5)
        state = init_state(cfg)
        expected = step(state, p, spec, cfg.noise, cfg.gamma, cfg.beta)
        monkeypatch.setattr(cls, "worker_grad", counting)
        calls.clear()
        got = step(state, p, spec, cfg.noise, cfg.gamma, cfg.beta)
        monkeypatch.undo()
        assert sorted(calls) == list(range(p.n_workers))
        np.testing.assert_array_equal(got[0].x, expected[0].x)


def _config_doc(**overrides):
    doc = {
        "schema_version": 1,
        "problem": {"kind": "quadratic", "n_workers": 2, "seed": 1,
                    "matrix": {"spectrum": [1.0, 2.0]}},
        "gamma": 0.1, "beta": 0.5, "iterations": 3, "trials": 2,
        "estimator": {"kind": "clip", "tau": 1.0},
        "noise": {"sigma2": 0.01, "delta_offset": 0.001, "seed": 0},
        "v_init": "grad_at_x0", "seed": 4, "x0": [1.0, 0.0],
    }
    doc.update(overrides)
    return doc


# problem sections of other kinds, in the shape of _config_doc's (d = 2)
PROBLEM_DOCS = {
    "logistic_l2": {"kind": "logistic_l2", "dimension": 2, "n_workers": 2, "m": 4,
                    "seed": 1, "lambda": 0.1},
    "maml": {"kind": "maml", "dimension": 2, "n_workers": 2, "m": 4, "seed": 1,
             "gamma_inner": 0.1},
    "composite_toy": {"kind": "composite_toy", "n_workers": 2},
}


def _section(doc, section):
    """The config section to edit: the top level (None), a dotted path, or
    the problem section after swapping in the PROBLEM_DOCS entry of that kind."""
    if section in PROBLEM_DOCS:
        doc["problem"] = copy.deepcopy(PROBLEM_DOCS[section])
        return doc["problem"]
    node = doc
    for part in section.split(".") if section else ():
        node = node[part]
    return node


NAN, INF = float("nan"), float("inf")


@pytest.mark.parametrize("section,key,value", [
    (None, "gamma", NAN),
    (None, "gamma", INF),
    ("noise", "sigma2", NAN),
    ("noise", "sigma2", INF),
    ("noise", "delta_offset", NAN),
    ("noise", "delta_offset", -INF),
    ("noise", "delta_offset", [0.0, INF]),
    ("estimator", "tau", INF),
    ("estimator", "tau", NAN),
    (None, "iterations", NAN),
    (None, "iterations", 2.5),
    (None, "trials", INF),
    (None, "seed", NAN),
    ("noise", "seed", INF),
    ("estimator", "k", NAN),
    ("estimator", "S_g", INF),
    ("estimator", "S_F", 1.5),
    ("problem", "n_workers", NAN),
    ("problem", "seed", 2.5),
    ("problem.matrix", "spectrum", [1.0, NAN]),
    ("problem", "matrix", {"entries": [[1.0, 0.0], [0.0]]}),
    ("logistic_l2", "lambda", NAN),
    ("logistic_l2", "m", INF),
    ("maml", "gamma_inner", NAN),
    ("maml", "dimension", NAN),
    ("composite_toy", "inner_matrices", [[[1, 0], [0, 1]], [[2, 1], [0]]]),
    ("composite_toy", "outer_coeffs", [1.0, NAN, 1.0]),
    (None, "gamma", "fast"),
    (None, "gamma", True),
    (None, "beta", True),
    (None, "beta", "0.5"),
    ("noise", "sigma2", "0.1"),
    ("noise", "sigma2", False),
    ("problem.matrix", "least_squares", "false"),
    ("problem.matrix", "least_squares", 0),
])
def test_config_rejects_non_finite_values(section, key, value):
    doc = _config_doc()
    target = _section(doc, section)
    assert RunConfig.from_dict(doc).to_dict() == doc
    target[key] = value
    # through JSON, as a config file would carry NaN / Infinity
    with pytest.raises(ConfigurationError):
        RunConfig.from_dict(json.loads(json.dumps(doc)))


@pytest.mark.parametrize("section,key", [
    (None, "trails"), ("noise", "sigma"), ("estimator", "topk"),
    ("problem", "n_worker"), ("problem.matrix", "spectra"), ("logistic_l2", "gamma_inner"),
    ("maml", "lambda"), ("composite_toy", "inner_matrix"),
])
def test_config_rejects_unknown_keys(section, key):
    doc = _config_doc()
    _section(doc, section)[key] = 100
    with pytest.raises(ConfigurationError, match=key):
        RunConfig.from_dict(doc)


@pytest.mark.parametrize("version", [0, 2, "1", None])
def test_config_rejects_other_schema_versions(version):
    with pytest.raises(ConfigurationError, match="schema_version"):
        RunConfig.from_dict(_config_doc(schema_version=version))
    doc = _config_doc()
    del doc["schema_version"]
    assert RunConfig.from_dict(doc).to_dict()["schema_version"] == 1
