"""Momentum engine: update identities, SGD equivalence, determinism."""

import copy
import dataclasses
import json
import tracemalloc
import warnings

import numpy as np
import pytest

from biased_momentum import (
    ConfigurationError,
    EstimatorSpec,
    NoiseSpec,
    RunConfig,
    full_gradient,
    make_logistic_l2,
    make_maml,
    make_nonconvex_reg,
    make_quadratic,
    run_trials,
    step,
    write_run_csv,
)
from biased_momentum import engine, estimators
from biased_momentum.audit import pilot_points
from biased_momentum.engine import (
    CSV_FIELDS, CSV_HEADER, TrialStats, init_state, observe, per_k_stats, read_run_csv,
)
from biased_momentum.problems import make_synthetic_classification
from biased_momentum.rng import pairwise_mean as rng_pairwise_mean

from _oracles import UnboundedQuadratic, reference_momentum, reference_sgd


def _quad_cfg(**kw):
    p = make_quadratic(np.eye(10), n_workers=2)
    defaults = dict(problem=p, gamma=0.5, beta=1.0, iterations=5,
                    x0=tuple([1.0] + [0.0] * 9))
    defaults.update(kw)
    return RunConfig(**defaults)


def _rows(stats, r=0):
    """Row r's recorded values as (k, f, grad_norm_sq, ...) tuples of floats."""
    columns = [stats.table[name][r, :stats.lengths[r]].tolist() for name in CSV_FIELDS]
    return list(zip(range(len(columns[0])), *columns))


def _trial0(cfg):
    """Trial 0 of cfg, run on its own."""
    return run_trials(dataclasses.replace(cfg, trials=1))


def _draws(p, spec, noise, streams):
    """(pert, subsets) of one step's rows, row r's worker w reading its
    subset keys and its standard normals from streams[r * n + w]."""
    shape = (len(streams) // p.n_workers, p.n_workers)
    width = p.m_g + p.m_F if spec.kind == "composite" else 0
    keys = np.array([s.random(width) for s in streams]).reshape(shape + (width,))
    std = np.array([s.standard_normal(p.dimension) for s in streams]).reshape(shape + (-1,))
    return noise.draw(std, p.dimension), spec.subsets(p, keys) if width else None


# ---------------------------------------------------------------------------
# init


def test_init_v_from_gradient_zeroes_initial_error():
    cfg = _quad_cfg(v_init="grad_at_x0")
    x, v_prev = init_state(cfg)
    np.testing.assert_array_equal(v_prev[0], full_gradient(cfg.problem, x[0]))
    assert x.shape == v_prev.shape == (1, 10)


def test_init_v_zero_at_origin_equivalent():
    cfg = _quad_cfg(v_init="zero", x0=tuple(np.zeros(10)))
    x, v_prev = init_state(cfg)
    np.testing.assert_array_equal(v_prev[0], np.zeros(10))
    np.testing.assert_array_equal(v_prev[0], full_gradient(cfg.problem, x[0]))


def test_init_seeded_x0_reproducible_and_unit_norm():
    cfg = _quad_cfg(x0=None, seed=123)
    (a, _), (b, _) = init_state(cfg), init_state(cfg)
    np.testing.assert_array_equal(a[0], b[0])
    assert np.linalg.norm(a[0]) == pytest.approx(1.0)


# ---------------------------------------------------------------------------
# single-step behavior


def test_step_is_gradient_descent_for_beta_one():
    cfg = _quad_cfg()
    x, v_prev = init_state(cfg)
    x1, v1, g, stopped = step(x, v_prev, cfg.problem, cfg.estimator, 0.5, 1.0)
    np.testing.assert_allclose(x1[0], [0.5] + [0.0] * 9)
    x2, _, _, _ = step(x1, v1, cfg.problem, cfg.estimator, 0.5, 1.0)
    np.testing.assert_allclose(x2[0], [0.25] + [0.0] * 9)
    # exact transmissions: the aggregate is the full gradient, and v is g
    assert g.tobytes() == v1.tobytes() == full_gradient(cfg.problem, x).tobytes()
    assert stopped == {}
    assert run_trials(cfg).table["f"][0, 0] == pytest.approx(0.5)


def test_step_identities_hold_bitwise():
    feats, labels = make_synthetic_classification(6, 3, 8, seed=1)
    p = make_logistic_l2(feats, labels, lam=0.4)
    noise = NoiseSpec(sigma2=0.01)
    cfg = RunConfig(problem=p, gamma=0.1, beta=0.3, iterations=1,
                    noise=noise, seed=5)
    x, v_prev = init_state(cfg)
    draws = _draws(p, cfg.estimator, noise, [np.random.default_rng(5)] * p.n_workers)
    x1, v1, g, _ = step(x, v_prev, p, cfg.estimator, 0.1, 0.3, *draws)
    # the round: g is the aggregate, x' = x - gamma v, the v update
    assert g.tobytes() == estimators.evaluate(p, x, cfg.estimator, *draws).tobytes()
    np.testing.assert_array_equal(x1[0], x[0] - 0.1 * v1[0])
    np.testing.assert_array_equal(v1[0], v_prev[0] + 0.3 * (g[0] - v_prev[0]))
    # its observation: f, ||grad||^2 and eta = g - grad, the momentum error, the step
    rec = dict(zip(CSV_FIELDS, observe(p, np.stack([x, x1], axis=1), v_prev[:, None],
                                       g[:, None])[:, 0, 0]))
    grad = full_gradient(p, x[0])
    eta, ve, dx = g[0] - grad, grad - v_prev[0], x1[0] - x[0]
    assert rec["f"] == p.f(x[0])
    assert rec["grad_norm_sq"] == pytest.approx(float(grad @ grad), rel=1e-12)
    assert rec["eta_norm_sq"] == pytest.approx(float(eta @ eta), rel=1e-12)
    assert rec["step_norm_sq"] == pytest.approx(float(dx @ dx), rel=1e-12)
    assert rec["v_error_sq"] == pytest.approx(float(ve @ ve), rel=1e-12)


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
    stats = run_trials(cfg)
    xs = reference_sgd(p, cfg.estimator, noise, 0.05, 50, cfg.resolve_x0(), seed=77)
    assert len(stats.iterates[0]) == len(xs)
    for a, b in zip(stats.iterates[0], xs):
        np.testing.assert_array_equal(a, b)


# ---------------------------------------------------------------------------
# run / trials


def test_run_zero_iterations():
    cfg = _quad_cfg(iterations=0)
    stats = run_trials(cfg)
    assert _rows(stats) == []
    np.testing.assert_array_equal(stats.iterates[0], init_state(cfg)[0])
    assert not stats.diverged[0]


def test_run_is_deterministic():
    cfg = _quad_cfg(noise=NoiseSpec(sigma2=0.1), beta=0.4, iterations=20, seed=9)
    r1, r2 = run_trials(cfg), run_trials(cfg)
    for a, b in zip(r1.iterates[0], r2.iterates[0]):
        np.testing.assert_array_equal(a, b)
    assert _rows(r1) == _rows(r2)


def test_run_marks_divergence_without_nonfinite_rows():
    p = make_quadratic(np.eye(4))
    cfg = RunConfig(problem=p, gamma=3.0, beta=1.0, iterations=200,
                    x0=(1.0, 1.0, 1.0, 1.0))
    stats = run_trials(cfg)
    f, eta_norm_sq = stats.table["f"][0], stats.table["eta_norm_sq"][0]
    assert stats.diverged[0]
    assert len(f) < 200
    # x doubles in norm each step, so f first exceeds the cap; that k has no record
    assert stats.lengths[0] == len(f)
    assert stats.reasons[0].startswith("f = ") and stats.reasons[0].endswith("> 1e+12")
    assert np.all(np.isfinite(f)) and np.all(np.isfinite(eta_norm_sq))


def test_trials_single_equals_run_and_zero_std():
    cfg = _quad_cfg(trials=1, noise=NoiseSpec(sigma2=0.05), beta=0.5, seed=3)
    stats = run_trials(cfg)
    single = _trial0(cfg)
    assert _rows(stats) == _rows(single)
    assert np.all(stats.stderr["f"] == 0.0)


def test_trials_deterministic_dynamics_zero_std():
    cfg = _quad_cfg(trials=4, beta=0.5)
    stats = run_trials(cfg)
    assert np.all(stats.stderr["grad_norm_sq"] == 0.0)
    assert stats.lengths == (cfg.iterations,) * 4


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


def _noisy_cases():
    quad = make_quadratic(spectrum=np.linspace(0.5, 2.0, 10), n_workers=4, seed=2)
    maml = make_maml(*make_synthetic_classification(5, 2, 8, seed=4), 0.1)
    noise = NoiseSpec(sigma2=0.02, delta_offset=0.01)
    return {
        "top_k-quadratic": RunConfig(problem=quad, gamma=0.3, beta=0.5, iterations=30, trials=3,
                                     estimator=EstimatorSpec(kind="top_k", k=3), noise=noise,
                                     seed=21),
        "maml-composite": RunConfig(problem=maml, gamma=0.05, beta=0.5, iterations=30, trials=3,
                                    estimator=EstimatorSpec(kind="composite", s_g=2, s_f=3),
                                    noise=noise, seed=21),
    }


def _assert_same_rows(stats, other, rows):
    for name in CSV_FIELDS:
        assert stats.table[name][rows].tobytes() == other.table[name].tobytes()
    assert stats.iterates[rows].tobytes() == other.iterates.tobytes()
    assert [stats.lengths[r] for r in rows] == list(other.lengths)


@pytest.mark.parametrize("case", list(_noisy_cases()))
@pytest.mark.parametrize("iterations_per_block", [1, 7])
def test_block_size_changes_no_value(monkeypatch, case, iterations_per_block):
    # each worker stream is read a row per iteration in C order, so drawing
    # fewer iterations at a time reads the same values
    cfg = _noisy_cases()[case]
    p = cfg.problem
    width = p.dimension + (p.m_g + p.m_F if cfg.estimator.kind == "composite" else 0)
    default = run_trials(cfg)
    monkeypatch.setattr(engine, "_BLOCK_ELEMENTS", iterations_per_block * cfg.trials
                        * p.n_workers * width)
    _assert_same_rows(run_trials(cfg), default, list(range(cfg.trials)))


def test_run_memory_does_not_grow_with_the_iterations(monkeypatch):
    # a run holds one block of draws and one observed block of rounds (their
    # v_prev and aggregates, and the observation's temporaries) at a time:
    # past its record and iterates, its peak allocation up to the per-k
    # reduction is the same at 2,000 iterations as at 8,000
    p = make_quadratic(spectrum=np.linspace(0.5, 2.0, 16), n_workers=2, seed=2)
    peaks = []
    from_table = TrialStats.from_table.__func__

    def reducing(cls, table, lengths, iterates=None, reasons=()):
        peaks.append(tracemalloc.get_traced_memory()[1])
        return from_table(cls, table, lengths, iterates, reasons)

    monkeypatch.setattr(TrialStats, "from_table", classmethod(reducing))

    def peak_beyond_result(iterations):
        cfg = RunConfig(problem=p, gamma=0.3, beta=0.5, iterations=iterations, trials=8,
                        noise=NoiseSpec(sigma2=0.01), seed=5)
        tracemalloc.start()
        try:
            stats = run_trials(cfg)
        finally:
            tracemalloc.stop()
        return peaks.pop() - stats.iterates.nbytes - sum(a.nbytes for a in stats.table.values())

    small, large = peak_beyond_result(2000), peak_beyond_result(8000)
    assert large < 1.05 * small


@pytest.mark.parametrize("case", list(_noisy_cases()))
def test_trial_count_changes_no_trial(case):
    # trial t reads only its own (trial, worker) streams
    cfg = _noisy_cases()[case]
    _assert_same_rows(run_trials(cfg), run_trials(dataclasses.replace(cfg, trials=2)), [0, 1])


def _reference_cases():
    quad = make_quadratic(spectrum=np.linspace(0.5, 2.0, 10), n_workers=4, seed=2)
    feats, labels = make_synthetic_classification(6, 3, 8, seed=1)
    logistic = make_logistic_l2(feats, labels, lam=0.3)
    maml = make_maml(*make_synthetic_classification(5, 2, 8, seed=4), 0.1)
    top_k, clip = EstimatorSpec(kind="top_k", k=3), EstimatorSpec(kind="clip", tau=0.5)
    noisy, offset = NoiseSpec(sigma2=0.02), NoiseSpec(sigma2=0.01, delta_offset=0.01)
    cases = {
        "quadratic-identity-exact": (quad, EstimatorSpec(), NoiseSpec(), 0.5, 0.3, {}),
        "quadratic-top_k-noisy": (quad, top_k, offset, 0.5, 0.3, {}),
        "quadratic-clip-noisy": (quad, clip, noisy, 0.3, 0.4, {}),
        "quadratic-identity-sgd": (quad, EstimatorSpec(), noisy, 1.0, 0.3, {}),
        "logistic-identity-noisy": (logistic, EstimatorSpec(), noisy, 0.5, 0.2, {"v_init": "zero"}),
        "logistic-top_k-offset": (logistic, EstimatorSpec(kind="top_k", k=2),
                                  NoiseSpec(delta_offset=0.01), 0.4, 0.2, {}),
        "maml-composite-exact": (maml, EstimatorSpec(kind="composite", s_g=2, s_f=3),
                                 NoiseSpec(), 0.5, 0.05, {}),
        "maml-composite-noisy": (maml, EstimatorSpec(kind="composite", s_g=4, s_f=2),
                                 noisy, 0.5, 0.05, {}),
        # f passes 1e12 at k = 141, 143 and 141 in three of the trials; the other three finish
        "quadratic-diverging": (quad, EstimatorSpec(), NoiseSpec(sigma2=0.5), 1.0, 1.05,
                                {"iterations": 150, "trials": 6, "seed": 3}),
        "quadratic-nonfinite-aggregate": (quad, EstimatorSpec(), NoiseSpec(delta_offset=1.5e308),
                                          0.5, 0.3, {"trials": 2}),
        # f passes 1e12 at k = 1 in every trial, which steps on and overflows later
        "quadratic-f-cap-then-overflow": (quad, EstimatorSpec(), NoiseSpec(sigma2=0.01), 1.0, 1e8,
                                          {}),
        # at k = 1 f and the aggregate overflow together, and f is the reason
        "quadratic-f-and-aggregate-fail": (quad, EstimatorSpec(), NoiseSpec(delta_offset=1e300),
                                           1.0, 1e8, {}),
        # f passes 1e12 in every trial, at k = 42 to 46
        "quadratic-all-trials-stop": (quad, EstimatorSpec(), NoiseSpec(sigma2=0.5), 1.0, 1.2,
                                      {"iterations": 120, "trials": 4}),
    }
    # f = -inf where x_0 < -1: from the fixed point of an offset that holds
    # x_0 at -0.9, the noise takes two of six trials there, at k = 15 and 18
    unbounded = UnboundedQuadratic(A=quad.A, blocks=quad.blocks, n_workers=quad.n_workers,
                                   dimension=quad.dimension, L=quad.L, mu=quad.mu)
    pull = np.linalg.solve(quad.A.T @ quad.A, np.eye(10)[0])
    offset = 0.9 / pull[0]
    cases["unbounded-minus-infinity"] = (
        unbounded, EstimatorSpec(), NoiseSpec(sigma2=0.05, delta_offset=offset * np.eye(10)[0]),
        0.5, 0.3, {"trials": 6, "x0": tuple(-offset * pull)})
    return cases


REFERENCE_CASES = _reference_cases()
STOP_CASES = ("quadratic-diverging", "quadratic-nonfinite-aggregate",
              "quadratic-f-cap-then-overflow", "quadratic-f-and-aggregate-fail",
              "quadratic-all-trials-stop", "unbounded-minus-infinity")


def _reference_config(case):
    problem, spec, noise, beta, gamma, extra = REFERENCE_CASES[case]
    kw = dict(iterations=40, trials=3, seed=11)
    kw.update(extra)
    return RunConfig(problem=problem, gamma=gamma, beta=beta, estimator=spec, noise=noise, **kw)


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
@pytest.mark.parametrize("case", list(REFERENCE_CASES))
def test_run_trials_matches_reference_momentum(case):
    problem, spec, noise, beta, gamma, extra = REFERENCE_CASES[case]
    kw = dict(iterations=40, trials=3, seed=11)
    kw.update(extra)
    cfg = RunConfig(problem=problem, gamma=gamma, beta=beta, estimator=spec, noise=noise, **kw)
    stats = run_trials(cfg)
    assert len(stats.lengths) == len(stats.reasons) == cfg.trials
    for r in range(cfg.trials):
        records, iterates, diverged_at, reason = reference_momentum(cfg, r)
        n = stats.lengths[r]
        assert _rows(stats, r) == records
        assert len(stats.iterates[r, :n + 1]) == len(iterates)
        for a, b in zip(stats.iterates[r, :n + 1], iterates):
            np.testing.assert_array_equal(a, b)
        assert (n if stats.diverged[r] else None, stats.reasons[r]) == (diverged_at, reason)
        assert np.count_nonzero(~np.isnan(stats.table["f"][r])) == len(records)
        np.testing.assert_array_equal(stats.iterates[r, n], iterates[-1])
    stops = {n if flag else None for n, flag in zip(stats.lengths, stats.diverged)}
    if case == "quadratic-diverging":
        assert None in stops and len(stops) > 2
    if case == "quadratic-nonfinite-aggregate":
        assert set(stats.reasons) == {"non-finite aggregate"}


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
@pytest.mark.parametrize("case", STOP_CASES)
@pytest.mark.parametrize("iterations_per_block", [1, 2, 7])
def test_stops_match_reference_momentum_across_block_ends(monkeypatch, case,
                                                          iterations_per_block):
    # a block is observed when it ends, so a stop lands on a block's first or
    # last iteration, or inside it, and trials stop in different blocks; each
    # trial still stops where it would alone, for the first reason, records
    # nothing (NaN) from there on, and the run ends with the block in which
    # its last trial stops
    cfg = _reference_config(case)
    p = cfg.problem
    monkeypatch.setattr(engine, "_BLOCK_ELEMENTS", engine._OBSERVE_SHARE * iterations_per_block
                        * cfg.trials * max(4 * p.dimension, p.point_elements))
    assert engine._observed_iterations(cfg) == iterations_per_block
    rounds = []
    monkeypatch.setattr(engine, "step", lambda *args: rounds.append(1) or step(*args))
    stats = run_trials(cfg)
    for r in range(cfg.trials):
        records, iterates, diverged_at, reason = reference_momentum(cfg, r)
        n = stats.lengths[r]
        assert _rows(stats, r) == records
        assert (n if stats.diverged[r] else None, stats.reasons[r]) == (diverged_at, reason)
        assert stats.iterates[r, :n + 1].tobytes() == np.array(iterates).tobytes()
        assert np.isnan(stats.iterates[r, n + 1:]).all()
        assert all(np.isnan(column[r, n:]).all() for column in stats.table.values())
    if None not in stats.reasons:
        ends = -(-(stats.k_max + 1) // iterations_per_block) * iterations_per_block
        assert len(rounds) == min(ends, cfg.iterations)


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
def test_trial_iterates_and_reasons_match_reference():
    # rows of different lengths: the iterates past each trial's stop are NaN,
    # and no row put first hands a NaN iterate to the premise measurement
    problem, spec, noise, beta, gamma, extra = REFERENCE_CASES["quadratic-diverging"]
    cfg = RunConfig(problem=problem, gamma=gamma, beta=beta, estimator=spec, noise=noise,
                    **extra)
    stats = run_trials(cfg)
    assert stats.iterates.shape == (cfg.trials, stats.k_max + 1, problem.dimension)
    assert len(set(stats.lengths)) > 1
    for r in range(cfg.trials):
        _, iterates, diverged_at, reason = reference_momentum(cfg, r)
        n = stats.lengths[r]
        assert stats.iterates[r, :n + 1].tobytes() == np.array(iterates).tobytes()
        assert np.all(np.isnan(stats.iterates[r, n + 1:]))
        assert stats.reasons[r] == reason
        assert n == (cfg.iterations if diverged_at is None else diverged_at)
        assert stats.diverged[r] == (diverged_at is not None)
        alone = TrialStats.from_table({name: column[[r]] for name, column in stats.table.items()},
                                      [n], stats.iterates[[r]], [reason])
        assert alone.iterates.shape == (1, n + 1, problem.dimension)
        order = [r] + [j for j in range(cfg.trials) if j != r]
        first = TrialStats.from_table({name: column[order] for name, column in stats.table.items()},
                                      [stats.lengths[j] for j in order],
                                      stats.iterates[order], [stats.reasons[j] for j in order])
        points = pilot_points(first)
        assert not np.isnan(points).any()
        assert points[-1].tobytes() == np.array(iterates[-1]).tobytes()


# ---------------------------------------------------------------------------
# CSV round trip


def test_csv_round_trip_and_header(tmp_path):
    cfg = _quad_cfg(trials=2, beta=0.5, noise=NoiseSpec(sigma2=0.01), iterations=7)
    stats = run_trials(cfg)
    path = tmp_path / "run.csv"
    write_run_csv(stats, path)
    text = path.read_text().splitlines()
    assert text[0] == CSV_HEADER
    assert len(text) == 1 + 2 * 7
    back = read_run_csv(path, cfg.trials)
    assert len(back.lengths) == 2
    assert back.iterates is None and back.reasons == ()
    for name in CSV_FIELDS:  # repr round-trips floats exactly
        np.testing.assert_array_equal(back.table[name], stats.table[name])


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
@pytest.mark.parametrize("seed", range(3))
def test_csv_round_trip_of_ragged_table(tmp_path, seed):
    # trials of different lengths, two of them without rows (one last), a
    # table wider than its longest trial, values from 1e-300 to 1e300
    lengths = (9, 0, 4, 9, 1, 0)
    rng = np.random.default_rng(seed)
    table = {}
    for name in CSV_FIELDS:
        table[name] = np.full((len(lengths), 12), np.nan)
        for r, n in enumerate(lengths):
            table[name][r, :n] = rng.choice([-1.0, 1.0], n) * 10.0 ** rng.uniform(-300, 300, n)
    stats = TrialStats.from_table(table, lengths)
    assert stats.k_max == 9
    path = tmp_path / "run.csv"
    write_run_csv(stats, path)
    back = read_run_csv(path, len(lengths))
    assert (back.lengths, back.reasons) == (stats.lengths, ())
    assert back.iterates is None
    pairs = [(getattr(back, part)[name], getattr(stats, part)[name])
             for part in ("table", "mean", "stderr") for name in CSV_FIELDS]
    for got, want in pairs:  # bit for bit, NaN padding included
        assert (got.dtype, got.shape, got.flags.c_contiguous) == (want.dtype, want.shape, True)
        assert got.tobytes() == want.tobytes()


def test_csv_bytes_identical_across_runs(tmp_path):
    cfg = _quad_cfg(trials=3, beta=0.3, noise=NoiseSpec(sigma2=0.02), seed=21)
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    write_run_csv(run_trials(cfg), a)
    write_run_csv(run_trials(cfg), b)
    assert a.read_bytes() == b.read_bytes()


@pytest.mark.parametrize("n_trials", [1, 3])
def test_per_k_stats_reduces_an_all_nan_column_quietly(n_trials):
    # column 1 is nan inside every trial's length, column 3 past all of them,
    # and the inf of column 2 makes an inf - inf deviation
    table = np.ones((n_trials, 4))
    table[:, 1] = np.nan
    table[0, 2] = np.inf
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        mean, stderr = per_k_stats(table, [3] * n_trials)
    assert np.isnan(mean[1])
    assert list(mean[[0, 2]]) == [1.0, np.inf] and np.isnan(mean[3])
    want = [0.0] * 4 if n_trials == 1 else [0.0, np.nan, np.nan, 0.0]
    np.testing.assert_array_equal(stderr, want)


def test_per_k_stats_counts_a_trial_only_inside_its_length():
    # a nan inside a trial's length makes its column nan; any cell past the
    # length, nan or not, is left out
    table = np.array([[1.0, np.nan, 5.0, 7.0],
                      [3.0, 4.0, 9.0, np.nan]])
    mean, stderr = per_k_stats(table, [2, 3])
    np.testing.assert_array_equal(mean, [2.0, np.nan, 9.0, np.nan])
    np.testing.assert_array_equal(stderr, [1.0, np.nan, 0.0, 0.0])


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
    r1, r2 = _trial0(cfg), _trial0(cfg2)
    assert _rows(r1) == _rows(r2)


def test_config_echo_of_a_problem_without_source_is_refused():
    # an echo of kind, dimension and n_workers alone would not load back
    cfg = RunConfig(problem=make_quadratic(spectrum=[1.0, 2.0]), gamma=0.1, beta=0.5,
                    iterations=2)
    with pytest.raises(ConfigurationError, match="problem_from_dict"):
        cfg.to_dict()


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


def _no_observation(self, x):
    raise AssertionError("a round computes neither f nor the exact gradient")


def test_step_evaluates_each_worker_gradient_once(monkeypatch):
    # the n evaluations feed the worker estimates (one batched call: each
    # row's n workers), whose pairwise mean is the round's one reduction; f
    # and the exact gradient are observed per block, not per round
    p = make_quadratic(spectrum=np.linspace(0.5, 2.0, 6), n_workers=3, seed=2)
    cls, calls, reductions = type(p), [], []
    original = cls.worker_grads

    def counting(self, x):
        for _ in x:
            calls.extend(range(self.n_workers))
        return original(self, x)

    def counting_mean(values, axis=0):
        reductions.append(axis)
        return rng_pairwise_mean(values, axis)

    for spec in (EstimatorSpec(), EstimatorSpec(kind="top_k", k=2),
                 EstimatorSpec(kind="clip", tau=0.5)):
        cfg = RunConfig(problem=p, gamma=0.1, beta=0.5, iterations=1, estimator=spec,
                        noise=NoiseSpec(sigma2=0.01, delta_offset=0.1), seed=5)
        x, v_prev = init_state(cfg)
        draws = _draws(p, spec, cfg.noise, [np.random.default_rng(cfg.seed)] * p.n_workers)
        expected = step(x, v_prev, p, spec, cfg.gamma, cfg.beta, *draws)
        monkeypatch.setattr(cls, "worker_grads", counting)
        monkeypatch.setattr(cls, "f", _no_observation)
        monkeypatch.setattr(estimators, "pairwise_mean", counting_mean)
        calls.clear()
        reductions.clear()
        got = step(x, v_prev, p, spec, cfg.gamma, cfg.beta, *draws)
        monkeypatch.undo()
        assert sorted(calls) == list(range(p.n_workers))
        assert reductions == [-2]
        np.testing.assert_array_equal(got[0], expected[0])


def test_composite_step_evaluates_its_inner_table_once(monkeypatch):
    # the subset estimates of a round read one inner table of the stack, and
    # the round evaluates neither f nor the exact worker gradients
    p = make_maml(*make_synthetic_classification(5, 2, 8, seed=4), 0.1)
    spec = EstimatorSpec(kind="composite", s_g=2, s_f=3)
    start = np.random.default_rng(3).standard_normal((2, 3, p.dimension))
    draws = _draws(p, spec, NoiseSpec(sigma2=0.01),
                   [np.random.default_rng([9, s]) for s in range(3 * p.n_workers)])
    expected = step(start[0], start[1], p, spec, 0.1, 0.5, *draws)
    cls, calls = type(p), []
    original = cls.inner_table

    def counting(self, x):
        calls.append(x.shape)
        return original(self, x)

    monkeypatch.setattr(cls, "inner_table", counting)
    monkeypatch.setattr(cls, "f", _no_observation)
    monkeypatch.setattr(cls, "worker_grads", _no_observation)
    got = step(start[0], start[1], p, spec, 0.1, 0.5, *draws)
    assert calls == [(3, p.dimension)]
    for a, b in zip(got[:3], expected[:3]):
        np.testing.assert_array_equal(a, b)


def test_identity_round_reduces_the_worker_gradients_once(monkeypatch):
    # exact transmissions (identity estimator, null noise) average to the full
    # gradient: a round reduces the worker gradients once, to the bits that
    # an all-zero perturbation sent through the aggregate gives, and
    # evaluates no f
    p = make_quadratic(spectrum=np.linspace(0.5, 2.0, 6), n_workers=3, seed=2)
    x = np.random.default_rng(6).standard_normal((4, 6))
    v_prev = np.random.default_rng(7).standard_normal((4, 6))
    via_aggregate = step(x, v_prev, p, EstimatorSpec(), 0.1, 0.5, np.zeros((4, 3, 6)))
    calls = []

    def counting(values, axis=0):
        calls.append(axis)
        return rng_pairwise_mean(values, axis)

    monkeypatch.setattr(estimators, "pairwise_mean", counting)
    monkeypatch.setattr(type(p), "f", _no_observation)
    got = step(x, v_prev, p, EstimatorSpec(), 0.1, 0.5)
    assert calls == [-2]
    for a, b in zip(got[:3], via_aggregate[:3]):
        np.testing.assert_array_equal(a, b)


def _divergence_case(kind):
    """(problem, estimator, noise) of the step and run divergence tests."""
    if kind == "quadratic":
        p = make_quadratic(spectrum=np.linspace(0.5, 2.0, 6), n_workers=3, seed=2)
        spec = EstimatorSpec(kind="top_k", k=2)
    else:
        p = make_maml(*make_synthetic_classification(5, 2, 8, seed=4), 0.1)
        spec = EstimatorSpec(kind="composite", s_g=2, s_f=3)
    return p, spec, NoiseSpec(sigma2=0.01, delta_offset=0.01)


@pytest.mark.parametrize("kind", ["quadratic", "maml"])
def test_step_keeps_a_non_finite_row_apart_from_the_others(kind):
    # the row is zeroed before any arithmetic (composite points reject NaN),
    # and every other row steps bit for bit as it would alone: row 1 has a
    # non-finite iterate, row 3 a finite one whose f exceeds DIVERGENCE_F_MAX,
    # which the observation finds, not the round (see
    # test_run_stops_a_trial_whose_f_exceeds_the_cap)
    p, spec, noise = _divergence_case(kind)
    start = np.random.default_rng(1).standard_normal((2, 4, p.dimension))
    x, v_prev = start[0], start[1]
    x[1, 0], v_prev[1] = np.nan, np.inf
    x[3] *= 1e14

    def draws(rows):
        return _draws(p, spec, noise, [np.random.default_rng([r, w])
                                       for r in rows for w in range(p.n_workers)])

    with warnings.catch_warnings():
        warnings.simplefilter("error")
        x_next, v_next, g, stopped = step(x, v_prev, p, spec, 0.1, 0.5, *draws([0, 1, 2, 3]))
    assert stopped == {1: "non-finite iterate"}
    assert not x_next[1].any() and not v_next[1].any() and not g[1].any()
    for r in (0, 2, 3):
        *alone, stopped_alone = step(x[[r]], v_prev[[r]], p, spec, 0.1, 0.5, *draws([r]))
        assert stopped_alone == {}
        for got, got_alone in zip((x_next, v_next, g), alone):
            assert got[r].tobytes() == got_alone[0].tobytes()


@pytest.mark.parametrize("kind", ["quadratic", "maml"])
def test_run_stops_a_trial_whose_f_exceeds_the_cap(kind):
    # a start 1e14 times a normal vector has f above DIVERGENCE_F_MAX: each
    # trial stops at k = 0, keeps its start and records nothing, silently
    p, spec, noise = _divergence_case(kind)
    x0 = 1e14 * np.random.default_rng(1).standard_normal(p.dimension)
    cfg = RunConfig(problem=p, gamma=0.1, beta=0.5, iterations=5, trials=2, estimator=spec,
                    noise=noise, x0=tuple(x0), seed=3)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        stats = run_trials(cfg)
    reason = f"f = {float(p.f(x0)):.6g} > {engine.DIVERGENCE_F_MAX:g}"
    assert (stats.lengths, stats.reasons) == ((0, 0), (reason, reason))
    assert stats.iterates.tobytes() == np.tile(x0, (2, 1, 1)).tobytes()
    assert all(column.shape == (2, 0) for column in stats.table.values())


def test_step_stops_a_row_whose_f_is_minus_infinity():
    # -inf is below DIVERGENCE_F_MAX but not finite, so a trial whose f is
    # -inf stops there; f is observed per block, so the round steps the row
    # as any other
    q = make_quadratic(spectrum=np.linspace(0.5, 2.0, 4), n_workers=2, seed=3)
    p = UnboundedQuadratic(A=q.A, blocks=q.blocks, n_workers=q.n_workers,
                           dimension=q.dimension, L=q.L, mu=q.mu)
    x = np.random.default_rng(2).standard_normal((3, 4))
    x[:, 0] = (0.5, -2.0, 0.25)
    v_prev = np.ones((3, 4))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        x_next, v_next, g, stopped = step(x, v_prev, p, EstimatorSpec(), 0.1, 0.5)
        stats = run_trials(RunConfig(problem=p, gamma=0.1, beta=0.5, iterations=5, trials=2,
                                     x0=tuple(x[1])))
    assert stopped == {}
    for r in range(3):
        *alone, _ = step(x[[r]], v_prev[[r]], p, EstimatorSpec(), 0.1, 0.5)
        for got, got_alone in zip((x_next, v_next, g), alone):
            assert got[r].tobytes() == got_alone[0].tobytes()
    assert (stats.lengths, stats.reasons) == ((0, 0), ("non-finite f (-inf)",) * 2)


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
    ("noise", "delta_offset", True),
    ("noise", "delta_offset", [True, 0.0]),
    ("noise", "delta_offset", "0.1"),
    (None, "x0", ["a", 1.0]),
    (None, "x0", [True, 0.5]),
    (None, "x0", "1.0"),
    ("problem.matrix", "spectrum", [True, 2.0]),
    ("problem", "matrix", {"entries": [[1.0, 0.0], [0.0, True]]}),
    ("problem", "matrix", {"entries": [[1.0, "0"], [0.0, 1.0]]}),
    ("composite_toy", "outer_centers", [[0.0, 0.0], [1.0, False], [0.0, -1.0]]),
    ("composite_toy", "inner_matrices", [[[1, 0], [0, 1]], [[2, 1], [0, True]], [[1, 1], [1, 0]]]),
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


@pytest.mark.parametrize("field,bad", [
    ("x0", dict(x0=(1.0, 0.0, 0.0))),
    ("x0", dict(x0=np.ones(11))),
    ("delta_offset", dict(noise=NoiseSpec(delta_offset=(0.1, 0.0, 0.0)))),
])
def test_config_rejects_lengths_other_than_the_dimension(field, bad):
    # at construction, not later inside run_trials (d = 10 here)
    with pytest.raises(ConfigurationError, match=field):
        _quad_cfg(**bad)
    # a one-entry offset is the constant vector, a d-entry one is taken as is
    for off in ((0.1,), tuple(0.01 * np.arange(10))):
        assert _quad_cfg(noise=NoiseSpec(delta_offset=off)).noise.delta_offset == off


@pytest.mark.parametrize("version", [0, 2, "1", None])
def test_config_rejects_other_schema_versions(version):
    with pytest.raises(ConfigurationError, match="schema_version"):
        RunConfig.from_dict(_config_doc(schema_version=version))
    doc = _config_doc()
    del doc["schema_version"]
    assert RunConfig.from_dict(doc).to_dict()["schema_version"] == 1
