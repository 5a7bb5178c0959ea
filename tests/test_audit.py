"""Trajectory audits: descent, rate bounds, error-model bound, self-tests."""

import dataclasses
import json

import numpy as np
import pytest

from biased_momentum import (
    EstimatorSpec,
    NoiseSpec,
    RunConfig,
    audit_affine_variance,
    audit_descent,
    audit_figure2_qualitative,
    audit_gradients,
    audit_theorem_ncvx,
    audit_theorem_pl,
    build_theory_report,
    finite_difference_gradient,
    full_gradient,
    make_logistic_l2,
    make_quadratic,
    run_trials,
    stepsize_bounds,
)
from biased_momentum import audit
from biased_momentum.audit import pilot_points, verify_config
from biased_momentum.composite import make_maml
from biased_momentum.engine import TrialStats
from biased_momentum.problems import make_synthetic_classification
from biased_momentum.rng import STREAM_MEASURE, substream


def _pl_quadratic(n_workers=2, spectrum=None, seed=1):
    spectrum = spectrum if spectrum is not None else np.linspace(0.5, 2.0, 10)
    return make_quadratic(spectrum=spectrum, seed=seed, n_workers=n_workers)


def _trial0(cfg):
    """Trial 0 of cfg, run on its own."""
    return run_trials(dataclasses.replace(cfg, trials=1))


def _report_for(cfg, pilot=None):
    points = pilot_points(pilot or _trial0(cfg))
    return build_theory_report(
        cfg.problem, cfg.gamma, cfg.beta, cfg.estimator, cfg.noise,
        x0=cfg.resolve_x0(), v_init=cfg.v_init, pilot_points=points,
    )


# ---------------------------------------------------------------------------
# descent inequality


def test_descent_classic_gd_case():
    p = _pl_quadratic()
    cfg = RunConfig(problem=p, gamma=1 / (2 * p.L), beta=1.0, iterations=100, seed=2)
    stats = run_trials(cfg)
    report = _report_for(cfg)
    out = audit_descent(stats, report)
    assert out.passed, out
    assert out.worst_margin > 0  # strict descent for exact gradients


def test_descent_with_topk_admissible():
    p = _pl_quadratic()
    gamma = stepsize_bounds(0.5, p.L, p.mu)[1]
    cfg = RunConfig(
        problem=p, gamma=gamma, beta=0.5, iterations=200, trials=5,
        estimator=EstimatorSpec(kind="top_k", k=5),
        noise=NoiseSpec(sigma2=0.001), seed=3,
    )
    stats = run_trials(cfg)
    report = _report_for(cfg)
    out = audit_descent(stats, report)
    assert out.passed, out


def test_descent_detects_corrupted_record():
    p = _pl_quadratic()
    cfg = RunConfig(problem=p, gamma=1 / (2 * p.L), beta=1.0, iterations=50, seed=2)
    stats = run_trials(cfg)
    report = _report_for(cfg)
    table = {name: column.copy() for name, column in stats.table.items()}
    table["f"][0, 10] = table["f"][0, 10] * 5.0 + 1.0
    out = audit_descent(dataclasses.replace(stats, table=table), report)
    assert out.failed


def test_descent_tie_names_the_lower_trial():
    # trials 0 and 1 share the worst margin, at k=19 and k=4; (trial, k) order
    p = _pl_quadratic()
    cfg = RunConfig(problem=p, gamma=1 / (2 * p.L), beta=1.0, iterations=30, trials=2, seed=2)
    stats = run_trials(cfg)
    report = dataclasses.replace(_report_for(cfg), f_star=0.0)
    table = {name: np.zeros_like(column) for name, column in stats.table.items()}
    table["f"][:] = 1.0
    table["f"][0, 20] = table["f"][1, 5] = 2.0
    out = audit_descent(dataclasses.replace(stats, table=table), report)
    assert out.failed and out.worst_margin == -0.5
    assert out.location == "trial 0, k=19"


def test_descent_skips_outside_regime():
    p = make_quadratic(np.eye(10))
    cfg = RunConfig(problem=p, gamma=0.5, beta=0.1, iterations=10, seed=2)
    report = _report_for(cfg)
    assert report.B2 < 0
    out = audit_descent(run_trials(cfg), report)
    assert out.status == "skipped"


def test_descent_skips_without_f_star():
    feats, labels = make_synthetic_classification(4, 2, 6, seed=3)
    p = make_logistic_l2(feats, labels, lam=0.5)
    gamma = stepsize_bounds(1.0, p.L, p.mu)[1]
    cfg = RunConfig(problem=p, gamma=gamma, beta=1.0, iterations=10)
    out = audit_descent(run_trials(cfg), _report_for(cfg))
    assert out.status == "skipped"


# ---------------------------------------------------------------------------
# min-gradient bound (general smooth)


def test_theorem_ncvx_exact_gradients():
    p = _pl_quadratic()
    gamma = stepsize_bounds(0.5, p.L)[0]
    cfg = RunConfig(problem=p, gamma=gamma, beta=0.5, iterations=300, seed=4)
    stats = run_trials(cfg)
    report = _report_for(cfg)
    out = audit_theorem_ncvx(stats, report)
    assert out.passed, out


def test_theorem_ncvx_with_noise():
    p = _pl_quadratic(n_workers=4)
    gamma = stepsize_bounds(0.5, p.L)[0]
    cfg = RunConfig(problem=p, gamma=gamma, beta=0.5, iterations=150, trials=60,
                    noise=NoiseSpec(sigma2=0.01), seed=5)
    stats = run_trials(cfg)
    report = _report_for(cfg)
    assert report.C_var == pytest.approx(10 * 0.01 / 4)
    out = audit_theorem_ncvx(stats, report)
    assert out.passed, out


def test_theorem_ncvx_prefix_one_smoothness_relation():
    # ||grad f(x0)||^2 <= (4/gamma) f(x0) holds for quadratics whenever
    # gamma <= 1/L: bound at K=1 is theta0 + floor
    p = _pl_quadratic()
    gamma = stepsize_bounds(0.9, p.L)[0]
    cfg = RunConfig(problem=p, gamma=gamma, beta=0.9, iterations=1, seed=6)
    stats = run_trials(cfg)
    report = _report_for(cfg)
    out = audit_theorem_ncvx(stats, report, min_prefix=1)
    assert out.passed
    assert stats.mean["grad_norm_sq"][0] <= report.theta0 + 1e-12


def test_theorem_ncvx_skips_when_inadmissible():
    p = make_quadratic(np.eye(10))
    cfg = RunConfig(problem=p, gamma=0.5, beta=0.1, iterations=50, seed=2)
    out = audit_theorem_ncvx(run_trials(cfg), _report_for(cfg))
    assert out.status == "skipped"


def test_theorem_ncvx_detects_corruption():
    p = _pl_quadratic()
    gamma = stepsize_bounds(0.5, p.L)[0]
    cfg = RunConfig(problem=p, gamma=gamma, beta=0.5, iterations=100, seed=4)
    stats = run_trials(cfg)
    report = _report_for(cfg)
    assert report.grad_v_err0_sq == 0.0  # so theta0 scales with the gap
    report = dataclasses.replace(report, f0_gap=report.f0_gap * 1e-6)
    out = audit_theorem_ncvx(stats, report)
    assert out.failed


def test_theorem_ncvx_location_names_first_k_of_tied_minimum():
    # a zero gap and C give theta0 = floor = 0, so the worst prefix is the
    # first one checked; its location names the first k at which the
    # running minimum was reached
    p = _pl_quadratic()
    cfg = RunConfig(problem=p, gamma=stepsize_bounds(0.5, p.L)[0], beta=0.5, iterations=7,
                    seed=4)
    stats = run_trials(cfg)
    mean = np.array([[3.0, 1.0, 2.0, 1.0, 0.5, 0.5, 4.0]])
    stats = TrialStats.from_table(dict(stats.table, grad_norm_sq=mean), stats.lengths)
    report = dataclasses.replace(_report_for(cfg), f0_gap=0.0, C_var=0.0)
    assert report.theta0 == 0.0 and report.floor_ncvx == 0.0
    locations = [audit_theorem_ncvx(stats, report, min_prefix=K).location for K in range(1, 8)]
    assert locations == [f"prefix K={K} (min at k={j})"
                         for K, j in zip(range(1, 8), [0, 1, 1, 1, 4, 4, 4])]


# ---------------------------------------------------------------------------
# PL linear rate


def test_theorem_pl_strict_deterministic():
    p = _pl_quadratic()
    for beta in (0.5, 1.0):
        gamma = stepsize_bounds(beta, p.L, p.mu)[1]
        cfg = RunConfig(problem=p, gamma=gamma, beta=beta, iterations=500, seed=7)
        stats = run_trials(cfg)
        report = _report_for(cfg)
        out = audit_theorem_pl(stats, report)
        assert out.passed, (beta, out)


def test_theorem_pl_beta_one_is_gap_envelope():
    p = _pl_quadratic()
    gamma = stepsize_bounds(1.0, p.L, p.mu)[1]
    cfg = RunConfig(problem=p, gamma=gamma, beta=1.0, iterations=100, seed=8)
    stats = run_trials(cfg)
    report = _report_for(cfg)
    assert report.A_pl == 0.0  # phi = f - f* exactly
    rate = 1 - p.mu * gamma / 2
    env = report.phi0_pl * rate ** np.arange(100)
    f_gap = stats.mean["f"]
    assert np.all(f_gap <= env * (1 + 1e-10))
    assert audit_theorem_pl(stats, report).passed


def test_theorem_pl_plateau_under_floor_with_bias():
    p = _pl_quadratic(n_workers=2)
    gamma = stepsize_bounds(0.5, p.L, p.mu)[1]
    cfg = RunConfig(problem=p, gamma=gamma, beta=0.5, iterations=2000, trials=10,
                    noise=NoiseSpec(sigma2=0.0, delta_offset=0.01), seed=9)
    stats = run_trials(cfg)
    report = _report_for(cfg)
    out = audit_theorem_pl(stats, report)
    assert out.passed, out
    # late-stage mean phi sits at or below the bias floor
    tail = np.mean([
        (f - 0.0) + report.A_pl * v_error_sq
        for f_row, v_row, n in zip(stats.table["f"], stats.table["v_error_sq"], stats.lengths)
        for f, v_error_sq in zip(f_row[:n][-100:], v_row[:n][-100:])
    ])
    assert tail <= report.floor_pl


def test_theorem_pl_skips_without_certificate():
    feats, labels = make_synthetic_classification(4, 2, 6, seed=3)
    from biased_momentum import make_nonconvex_reg

    p = make_nonconvex_reg(feats, labels, lam_nc=0.5)
    cfg = RunConfig(problem=p, gamma=0.01, beta=1.0, iterations=10)
    out = audit_theorem_pl(run_trials(cfg), _report_for(cfg))
    assert out.status == "skipped"


def test_theorem_pl_detects_corruption():
    p = _pl_quadratic()
    gamma = stepsize_bounds(1.0, p.L, p.mu)[1]
    cfg = RunConfig(problem=p, gamma=gamma, beta=1.0, iterations=50, seed=8)
    stats = run_trials(cfg)
    report = dataclasses.replace(_report_for(cfg), f0_gap=1e-12)
    assert report.phi0_pl == 1e-12
    assert audit_theorem_pl(stats, report).failed


# ---------------------------------------------------------------------------
# affine-variance bound


def test_affine_identity_no_noise_trivial():
    p = _pl_quadratic()
    cfg = RunConfig(problem=p, gamma=0.1, beta=0.5, iterations=20, seed=10)
    report = _report_for(cfg)
    points = pilot_points(_trial0(cfg))
    out = audit_affine_variance(p, points, cfg.estimator, cfg.noise, report,
                                draws=10, seed=1)
    assert out.passed


def test_affine_topk_bound_respected():
    p = _pl_quadratic(n_workers=2)
    cfg = RunConfig(
        problem=p, gamma=0.3, beta=0.1, iterations=60, seed=11,
        estimator=EstimatorSpec(kind="top_k", k=2),
        noise=NoiseSpec(sigma2=0.01, delta_offset=0.001),
    )
    pilot = _trial0(cfg)
    points = pilot_points(pilot, 20)
    report = _report_for(cfg, pilot)
    out = audit_affine_variance(p, points, cfg.estimator, cfg.noise, report,
                                draws=400, seed=2)
    assert out.passed, out


def test_affine_clip_bound_respected():
    p = _pl_quadratic(n_workers=2)
    cfg = RunConfig(
        problem=p, gamma=0.3, beta=0.5, iterations=60, seed=12,
        estimator=EstimatorSpec(kind="clip", tau=1.0),
        noise=NoiseSpec(sigma2=0.01),
    )
    pilot = _trial0(cfg)
    points = pilot_points(pilot, 20)
    report = _report_for(cfg, pilot)
    assert report.delta_subopt is not None
    out = audit_affine_variance(p, points, cfg.estimator, cfg.noise, report,
                                draws=400, seed=3)
    assert out.passed, out


def test_affine_detects_understated_bound():
    p = _pl_quadratic(n_workers=2)
    cfg = RunConfig(
        problem=p, gamma=0.3, beta=0.1, iterations=30, seed=13,
        estimator=EstimatorSpec(kind="top_k", k=2),
        noise=NoiseSpec(sigma2=0.05),
    )
    pilot = _trial0(cfg)
    points = pilot_points(pilot, 10)
    report = _report_for(cfg, pilot)
    bad = dataclasses.replace(report, B_var=0.0, C_var=report.C_var * 1e-8)
    out = audit_affine_variance(p, points, cfg.estimator, cfg.noise, bad,
                                draws=200, seed=4)
    assert out.failed


def test_affine_fails_on_nan_bound():
    p = _pl_quadratic()
    cfg = RunConfig(problem=p, gamma=0.1, beta=0.5, iterations=20, seed=10)
    report = dataclasses.replace(_report_for(cfg), C_var=float("nan"))
    out = audit_affine_variance(p, pilot_points(_trial0(cfg)), cfg.estimator, cfg.noise,
                                report, draws=10, seed=1)
    assert out.failed and np.isnan(out.worst_margin) and out.location == "point 0"


def test_affine_evaluates_each_worker_gradient_once_per_point(monkeypatch):
    # the bound's ||grad f||^2 reuses the worker gradients measure_eta took
    p = _pl_quadratic(n_workers=3)
    cfg = RunConfig(problem=p, gamma=0.3, beta=0.5, iterations=10, seed=19,
                    estimator=EstimatorSpec(kind="top_k", k=2),
                    noise=NoiseSpec(sigma2=0.01))
    pilot = _trial0(cfg)
    points = pilot_points(pilot, 4)
    report = _report_for(cfg, pilot)
    expected = audit_affine_variance(p, points, cfg.estimator, cfg.noise, report,
                                     draws=20, seed=5)
    cls, calls = type(p), []
    original = cls.worker_grads

    def counting(self, x):
        for _ in range(int(np.prod(np.shape(x)[:-1]))):
            calls.extend(range(self.n_workers))
        return original(self, x)

    monkeypatch.setattr(cls, "worker_grads", counting)
    got = audit_affine_variance(p, points, cfg.estimator, cfg.noise, report,
                                draws=20, seed=5)
    monkeypatch.undo()
    assert sorted(calls) == sorted(list(range(p.n_workers)) * len(points))
    assert got == expected


# ---------------------------------------------------------------------------
# gradient oracle


def test_gradient_audit_all_kinds():
    quad = _pl_quadratic()
    assert audit_gradients(quad, n_points=20, seed=1).passed
    feats, labels = make_synthetic_classification(5, 2, 10, seed=14)
    assert audit_gradients(make_logistic_l2(feats, labels, 0.3),
                           n_points=20, seed=2).passed
    cp = make_maml(*make_synthetic_classification(3, 2, 4, seed=15), 0.2)
    out = audit_gradients(cp, n_points=20, seed=3)
    assert out.passed
    assert out.tolerance == 0.0 and "0.0001" in out.note


@pytest.mark.parametrize("preset", ["maml_composite", "topk_quadratic", "logistic_l2",
                                    "composite_toy", "nonconvex_reg"])
def test_gradient_audit_margins_match_per_point_references(monkeypatch, presets_dir, preset):
    # the audit evaluates its 25 points as one stack; each margin equals, bit
    # for bit, the one-point finite differences against the one-point gradient
    cfg = RunConfig.from_dict(json.loads((presets_dir / f"{preset}.json").read_text()))
    p, seen, original = cfg.problem, [], audit._worst

    def capture(name, margins, *rest):
        seen.append(np.asarray(margins).tolist())
        return original(name, margins, *rest)

    monkeypatch.setattr(audit, "_worst", capture)
    out = audit_gradients(p, n_points=25, seed=cfg.seed, rel_tol=1e-4)
    want = []
    for j in range(25):
        x = substream(cfg.seed, STREAM_MEASURE, 200 + j).standard_normal(p.dimension)
        gn = finite_difference_gradient(p, x)
        rel = float(np.linalg.norm(full_gradient(p, x) - gn)) / max(1.0, float(np.linalg.norm(gn)))
        want.append(1e-4 - rel)
    assert seen == [want]
    assert out.passed and out.worst_margin == min(want)


def test_gradient_audit_detects_wrong_gradient():
    p = _pl_quadratic()
    broken = dataclasses.replace(p, blocks=tuple(2.0 * b for b in p.blocks))
    assert audit_gradients(broken, n_points=5, seed=4).failed


def test_gradient_audit_fails_on_nan_oracle(monkeypatch):
    p = _pl_quadratic()
    original = type(p).worker_grads
    monkeypatch.setattr(type(p), "worker_grads", lambda self, x: original(self, x) * np.nan)
    out = audit_gradients(p, n_points=5, seed=4)
    assert out.failed and np.isnan(out.worst_margin) and out.location == "point 0"


# ---------------------------------------------------------------------------
# sweep orderings


def test_figure2_orderings_pass_and_fail():
    rows = [
        {"axis_value": 0.0, "final_plateau_mean": 1e-8, "iters_to_threshold": 50, "diverged_count": 0},
        {"axis_value": 1e-3, "final_plateau_mean": 1e-5, "iters_to_threshold": 50, "diverged_count": 0},
        {"axis_value": 1e-1, "final_plateau_mean": 1e-2, "iters_to_threshold": 55, "diverged_count": 0},
    ]
    assert audit_figure2_qualitative(rows, "delta").passed
    rows_bad = [dict(r) for r in rows]
    rows_bad[2]["final_plateau_mean"] = 1e-9
    assert audit_figure2_qualitative(rows_bad, "delta").failed
    k_rows = [
        {"axis_value": 2, "final_plateau_mean": 1.0, "iters_to_threshold": 90, "diverged_count": 0},
        {"axis_value": 5, "final_plateau_mean": 1.0, "iters_to_threshold": 40, "diverged_count": 0},
        {"axis_value": 10, "final_plateau_mean": 1.0, "iters_to_threshold": 40, "diverged_count": 0},
    ]
    assert audit_figure2_qualitative(k_rows, "top_k").passed
    diverged = [dict(r, diverged_count=1) for r in k_rows]
    assert audit_figure2_qualitative(diverged, "top_k").status == "skipped"


# ---------------------------------------------------------------------------
# battery


def test_verify_config_end_to_end_passes():
    p = _pl_quadratic()
    gamma = stepsize_bounds(0.5, p.L, p.mu)[1]
    cfg = RunConfig(problem=p, gamma=gamma, beta=0.5, iterations=150, trials=3,
                    estimator=EstimatorSpec(kind="top_k", k=5),
                    noise=NoiseSpec(sigma2=0.001), seed=16)
    report, outcomes, _ = verify_config(cfg, eta_draws=200, eta_points=10)
    by_name = {o.check_name: o for o in outcomes}
    assert by_name["gradient_oracle"].passed
    assert by_name["affine_variance_bound"].passed
    assert by_name["descent_inequality"].passed
    assert not any(o.failed for o in outcomes)


def test_verify_skip_discipline_inadmissible_gamma():
    p = make_quadratic(np.eye(10))
    cfg = RunConfig(problem=p, gamma=0.5, beta=0.1, iterations=50, seed=17,
                    estimator=EstimatorSpec(kind="top_k", k=5),
                    noise=NoiseSpec(sigma2=0.01, delta_offset=0.001))
    report, outcomes, _ = verify_config(cfg, eta_draws=100, eta_points=5)
    by_name = {o.check_name: o for o in outcomes}
    assert by_name["descent_inequality"].status == "skipped"
    assert by_name["min_gradient_bound"].status == "skipped"
    assert by_name["pl_linear_rate"].status == "skipped"
    assert by_name["gradient_oracle"].passed
    assert by_name["affine_variance_bound"].passed


def test_verify_config_runs_each_trial_once(monkeypatch):
    # the premise constants come from trial 0 of the audited runs, not a rerun
    from biased_momentum import audit, engine

    p = _pl_quadratic()
    cfg = RunConfig(problem=p, gamma=0.09, beta=0.5, iterations=30, trials=3,
                    noise=NoiseSpec(sigma2=0.001), seed=18)
    original, calls = engine.run_trials, []

    def counting(c):
        calls.extend(range(c.trials))
        return original(c)

    for module in (engine, audit):
        if getattr(module, "run_trials", None) is original:
            monkeypatch.setattr(module, "run_trials", counting)
    verify_config(cfg, eta_draws=20, eta_points=3)
    assert sorted(calls) == list(range(cfg.trials))
