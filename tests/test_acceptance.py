"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest -s tests/test_acceptance.py` to see the per-criterion lines.
"""

import functools
import json
import time

import numpy as np
import pytest

from biased_momentum import (
    EstimatorSpec,
    NoiseSpec,
    RunConfig,
    audit_descent,
    audit_figure2_qualitative,
    audit_gradients,
    build_theory_report,
    clip,
    full_gradient,
    make_logistic_l2,
    make_maml,
    make_nonconvex_reg,
    make_quadratic,
    make_toy_composite,
    measure_eta,
    run_trials,
    stepsize_bounds,
    theorem_bounds,
)
from biased_momentum.audit import pilot_points
from biased_momentum.composite import chained_gradient
from biased_momentum.harness import main, sweep_summary_rows
from biased_momentum.problems import _sigmoid, make_synthetic_classification
from biased_momentum.rng import substream
from biased_momentum.theory import lemma_stepsize_bound, measure_heterogeneity

from _oracles import (
    enumerate_subset_means,
    reference_worker_grad,
    reference_worker_value,
    worker_estimate,
)

SPECTRUM_10 = np.linspace(0.5, 2.0, 10)


def criterion(num, desc):
    def deco(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            start = time.perf_counter()
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"criterion {num:2d} FAIL {desc}", flush=True)
                raise
            elapsed = time.perf_counter() - start
            print(f"criterion {num:2d} PASS {desc} ({elapsed:.1f}s)", flush=True)

        return wrapper

    return deco


def _quad(n_workers=2, seed=1):
    return make_quadratic(spectrum=SPECTRUM_10, seed=seed, n_workers=n_workers)


# ---------------------------------------------------------------------------


@criterion(1, "PL linear rate: phi_k under the geometric envelope, tol 1e-9")
def test_criterion_1_pl_linear_rate():
    start = time.perf_counter()
    p = _quad()
    for beta in (0.5, 1.0):
        gamma = stepsize_bounds(beta, p.L, p.mu)[1]
        cfg = RunConfig(problem=p, gamma=gamma, beta=beta, iterations=2000, seed=1)
        stats = run_trials(cfg)
        assert not stats.diverged[0]
        report = build_theory_report(
            p, gamma, beta, cfg.estimator, cfg.noise, x0=cfg.resolve_x0()
        )
        rate = 1.0 - p.mu * gamma / 2.0
        phi0 = report.phi0_pl
        f, v_error_sq = stats.table["f"][0], stats.table["v_error_sq"][0]
        for k in range(len(f)):
            phi_k = (f[k] - 0.0) + report.A_pl * v_error_sq[k]
            envelope = rate**k * phi0
            assert phi_k <= envelope * (1.0 + 1e-9), (beta, k)
    assert time.perf_counter() - start < 5.0


@criterion(2, "non-convex bound: min-grad under theta0/K + floor at every prefix")
def test_criterion_2_ncvx_bound():
    start = time.perf_counter()
    p = _quad(n_workers=4, seed=2)
    beta = 0.5
    gamma = stepsize_bounds(beta, p.L)[0]
    cfg = RunConfig(
        problem=p, gamma=gamma, beta=beta, iterations=500, trials=100,
        noise=NoiseSpec(sigma2=0.01), seed=2,
    )
    stats = run_trials(cfg)
    report = build_theory_report(
        p, gamma, beta, cfg.estimator, cfg.noise, x0=cfg.resolve_x0()
    )
    assert report.C_var == pytest.approx(10 * 0.01 / 4)
    assert report.cond_B_ncvx_ok and report.gamma_ok_ncvx
    ncvx_rhs, _ = theorem_bounds(report)
    mean = stats.mean["grad_norm_sq"]
    se = stats.stderr["grad_norm_sq"]
    running_min = np.minimum.accumulate(mean)
    argmin = np.zeros(500, dtype=int)
    for k in range(1, 500):
        argmin[k] = argmin[k - 1] if mean[argmin[k - 1]] <= mean[k] else k
    for K in range(10, 501):
        j = argmin[K - 1]
        assert running_min[K - 1] <= ncvx_rhs(K) + 3.0 * se[j], f"prefix {K}"
    assert time.perf_counter() - start < 60.0


@criterion(3, "descent inequality holds pathwise with top-k, tol 1e-9")
def test_criterion_3_descent_pathwise():
    start = time.perf_counter()
    p = _quad()
    beta = 0.5
    gamma = stepsize_bounds(beta, p.L, p.mu)[1]
    cfg = RunConfig(
        problem=p, gamma=gamma, beta=beta, iterations=200, trials=5,
        estimator=EstimatorSpec(kind="top_k", k=5),
        noise=NoiseSpec(sigma2=0.001), seed=3,
    )
    stats = run_trials(cfg)
    pilot = pilot_points(stats)
    report = build_theory_report(
        p, gamma, beta, cfg.estimator, cfg.noise,
        x0=cfg.resolve_x0(), pilot_points=pilot,
    )
    assert report.B2 >= 0
    out = audit_descent(stats, report, rel_tol=1e-9)
    assert out.passed, out
    # direct re-statement of the per-step inequality, independent of audit
    A, B1, B2, B3 = report.A_used, report.B1, report.B2, report.B3
    for r, n in enumerate(stats.lengths):
        c = {name: column[r, :n] for name, column in stats.table.items()}
        for a, b in zip(range(len(c["f"]) - 1), range(1, len(c["f"]))):
            lhs = c["f"][b] + A * c["v_error_sq"][b]
            rhs = (
                c["f"][a] - 0.5 * gamma * c["grad_norm_sq"][a] + B1 * c["v_error_sq"][a]
                - B2 * c["step_norm_sq"][a] + B3 * c["eta_norm_sq"][a]
            )
            assert lhs <= rhs + 1e-9 * max(1.0, abs(lhs), abs(rhs))
    assert time.perf_counter() - start < 5.0


@criterion(4, "compression error model: mean eta^2 + 3se under (1-a/8)|g|^2 + C")
def test_criterion_4_compression_variance_bound():
    start = time.perf_counter()
    p = _quad(n_workers=4, seed=4)
    spec = EstimatorSpec(kind="top_k", k=2)
    noise = NoiseSpec(sigma2=0.01)
    cfg = RunConfig(problem=p, gamma=0.3, beta=0.1, iterations=100,
                    estimator=spec, noise=noise, seed=4)
    pilot = run_trials(cfg)
    assert not pilot.diverged[0]
    points = pilot_points(pilot, 20)
    assert len(points) == 20
    report = build_theory_report(
        p, 0.3, 0.1, spec, noise, x0=cfg.resolve_x0(), pilot_points=points
    )
    alpha = 2 / 10
    assert report.B_var == pytest.approx(1 - alpha / 8)
    assert report.delta2_het == pytest.approx(
        measure_heterogeneity(p, points), rel=1e-12
    )
    for j, x in enumerate(points):
        rng = substream(4, 2, j)
        mean, se, _ = measure_eta(p, x, spec, noise, samples=1000, rng=rng)
        g = full_gradient(p, x)
        bound = report.B_var * float(g @ g) + report.C_var
        assert mean + 3 * se <= bound, f"point {j}"
    assert time.perf_counter() - start < 30.0


@criterion(5, "clip distance identity to 1e-12 and clipped error under C")
def test_criterion_5_clip():
    start = time.perf_counter()
    rng = substream(5, 2, 0)
    for _ in range(10_000):
        g = rng.standard_normal(8) * rng.uniform(0.05, 4.0)
        tau = rng.uniform(0.05, 3.0)
        dist = np.linalg.norm(clip(g, tau) - g)
        assert abs(dist - max(np.linalg.norm(g) - tau, 0.0)) < 1e-12
    p = _quad(n_workers=2, seed=5)
    spec = EstimatorSpec(kind="clip", tau=1.0)
    noise = NoiseSpec(sigma2=0.01)
    cfg = RunConfig(problem=p, gamma=0.09, beta=0.5, iterations=100,
                    estimator=spec, noise=noise, seed=5)
    pilot = run_trials(cfg)
    points = pilot_points(pilot, 20)
    report = build_theory_report(
        p, 0.09, 0.5, spec, noise, x0=cfg.resolve_x0(), pilot_points=points
    )
    sigma2_w = 10 * 0.01
    expected_C = max(2 * sigma2_w + 4 * p.L * report.delta_subopt + 1.0, 0.0) + 2 * sigma2_w
    assert report.C_var == pytest.approx(expected_C)
    for j, x in enumerate(points):
        rng = substream(5, 2, 1 + j)
        mean, se, _ = measure_eta(p, x, spec, noise, samples=500, rng=rng)
        assert mean + 3 * se <= report.C_var, f"point {j}"
    assert time.perf_counter() - start < 10.0


@criterion(6, "composite: FD match, full-batch eta = 0, meta-learning constants")
def test_criterion_6_composite():
    start = time.perf_counter()
    feats, labels = make_synthetic_classification(3, 2, 4, seed=6)
    gamma_inner = 0.25
    cp = make_maml(feats, labels, gamma_inner)
    assert audit_gradients(cp, n_points=100, seed=6, rel_tol=1e-4).passed
    # full-batch estimator reproduces the exact gradient
    rng = substream(6, 2, 0)
    for i in range(cp.n_workers):
        x = rng.standard_normal(3)
        full_batch = EstimatorSpec(kind="composite", s_g=cp.m_g, s_f=cp.m_F)
        est = worker_estimate(cp, i, x, full_batch, rng=rng)
        assert np.linalg.norm(est - reference_worker_grad(cp, i, x)) < 1e-12
    # certified inner-map constants over sampled pairs
    assert cp.ell_g == pytest.approx(1 + gamma_inner * cp.L_base)
    assert cp.L_g == pytest.approx(2 * gamma_inner * cp.L_base)
    pair_rng = substream(6, 2, 1)
    for _ in range(10_000):
        x = 2.0 * pair_rng.standard_normal(3)
        y = 2.0 * pair_rng.standard_normal(3)
        i = int(pair_rng.integers(cp.n_workers))
        j = int(pair_rng.integers(cp.m_g))
        gx, gy = cp.inner_table(x)[0][i, j], cp.inner_table(y)[0][i, j]
        assert np.linalg.norm(gx - gy) <= (
            cp.ell_g * np.linalg.norm(x - y) * (1 + 1e-12)
        )
        a, b = feats[i][j], float(labels[i][j])
        sx, sy = _sigmoid(-b * (a @ x)), _sigmoid(-b * (a @ y))
        jac_diff_norm = gamma_inner * abs(sx * (1 - sx) - sy * (1 - sy)) * float(a @ a)
        assert jac_diff_norm <= cp.L_g * (1 + 1e-12)
    assert time.perf_counter() - start < 30.0


@criterion(7, "bias/noise/compression sweeps reproduce the qualitative orderings")
def test_criterion_7_figure2_qualitative(presets_dir):
    start = time.perf_counter()
    for preset, axis in (
        ("fig2_delta.json", "delta"),
        ("fig2_sigma.json", "sigma2"),
        ("fig2_K.json", "top_k"),
    ):
        doc = json.loads((presets_dir / preset).read_text())
        rows = [row for row, _, _ in sweep_summary_rows(doc)]
        outcome = audit_figure2_qualitative(rows, axis)
        assert outcome.passed, (preset, outcome, rows)
    assert time.perf_counter() - start < 60.0


@criterion(8, "beta = 1 reproduces an independent SGD bit-for-bit on three kinds")
def test_criterion_8_beta_one_is_sgd():
    from _oracles import reference_sgd

    feats, labels = make_synthetic_classification(8, 4, 10, seed=8)
    problems = [
        _quad(n_workers=4, seed=8),
        make_logistic_l2(feats, labels, lam=0.3),
        make_nonconvex_reg(feats, labels, lam_nc=0.5),
    ]
    for p in problems:
        noise = NoiseSpec(sigma2=0.02, delta_offset=0.01)
        cfg = RunConfig(problem=p, gamma=0.05, beta=1.0, iterations=100,
                        noise=noise, seed=8)
        stats = run_trials(cfg)
        xs = reference_sgd(p, cfg.estimator, noise, 0.05, 100, cfg.resolve_x0(), seed=8)
        assert len(stats.iterates[0]) == 101
        for a, b in zip(stats.iterates[0], xs):
            np.testing.assert_array_equal(a, b)


@criterion(9, "every shipped preset is byte-deterministic across repeat runs")
def test_criterion_9_preset_determinism(presets_dir, tmp_path):
    presets = sorted(presets_dir.glob("*.json"))
    assert presets
    for preset in presets:
        doc = json.loads(preset.read_text())
        is_sweep = "axis" in doc
        cmd = "sweep" if is_sweep else "run"
        out_a = tmp_path / (preset.stem + "_a")
        out_b = tmp_path / (preset.stem + "_b")
        assert main([cmd, str(preset), "--out", str(out_a)]) == 0
        assert main([cmd, str(preset), "--out", str(out_b)]) == 0
        rel_csvs = sorted(
            p.relative_to(out_a) for p in out_a.rglob("*.csv")
        )
        assert rel_csvs
        for rel in rel_csvs:
            assert (out_a / rel).read_bytes() == (out_b / rel).read_bytes(), (
                preset.name, str(rel),
            )


@criterion(10, "oracle suite: finite differences, exhaustive subsets, step-size lemma")
def test_criterion_10_oracle_suite():
    # finite-difference gradient checks across every problem kind
    assert audit_gradients(_quad(seed=10), n_points=100, seed=10).passed
    feats, labels = make_synthetic_classification(5, 2, 12, seed=10)
    assert audit_gradients(make_logistic_l2(feats, labels, 0.4),
                           n_points=100, seed=11).passed
    assert audit_gradients(make_nonconvex_reg(feats, labels, 0.6),
                           n_points=100, seed=12).passed
    cp = make_maml(*make_synthetic_classification(3, 2, 4, seed=13), 0.2)
    assert audit_gradients(cp, n_points=100, seed=13, rel_tol=1e-4).passed
    assert audit_gradients(make_toy_composite(), n_points=100, seed=14,
                           rel_tol=1e-4).passed
    # exhaustive subset enumeration, exact on small integer instances
    rng = substream(10, 2, 0)
    for m in (3, 4, 5):
        mats = [60.0 * rng.integers(-2, 3, size=(2, 2)) for _ in range(m)]
        cp = make_toy_composite(inner_matrices=mats, outer_coeffs=(1.0,) * m,
                                outer_centers=tuple((float(i), 0.0) for i in range(m)))
        x = np.array([1.0, 2.0])
        values = list(cp.inner_table(x)[0][0])
        for size in range(1, m + 1):
            means = enumerate_subset_means(values, size)
            np.testing.assert_array_equal(np.mean(means, axis=0),
                                          np.mean(values, axis=0))
    # step-size range lemma on 1e4 random coefficient triples
    lemma_rng = substream(10, 2, 1)
    for _ in range(10_000):
        a, b, c = lemma_rng.uniform(0.01, 10.0, size=3)
        bound = lemma_stepsize_bound(a, b, c)
        gamma = bound * lemma_rng.uniform(0.01, 1.0)
        assert a / bound - b - c * bound >= -1e-9 * (b + c * bound)
        assert a / gamma - b - c * gamma >= -1e-9 * (b + c * gamma)


# chained-gradient FD agreement on the fixed toy (also part of criterion 6's
# family, kept separate so the closed-form instance is exercised here too)
def test_toy_composite_full_chain_matches_fd():
    cp = make_toy_composite(n_workers=2)
    rng = substream(10, 2, 2)
    from _oracles import fd_gradient

    for _ in range(10):
        x = rng.uniform(-1.0, 1.0, size=2)
        ga = chained_gradient(cp, x, range(cp.m_g), range(cp.m_F))[0]
        gn = fd_gradient(lambda y: reference_worker_value(cp, 0, y), x)
        assert np.linalg.norm(ga - gn) <= 1e-4 * max(1.0, np.linalg.norm(gn))
