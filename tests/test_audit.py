"""Trajectory audits: descent, rate bounds, error-model bound, self-tests."""

import dataclasses

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
    make_logistic_l2,
    make_quadratic,
    run,
    run_trials,
    stepsize_bounds,
)
from biased_momentum.audit import pilot_points, verify_config
from biased_momentum.composite import make_maml
from biased_momentum.problems import make_synthetic_classification


def _pl_quadratic(n_workers=2, spectrum=None, seed=1):
    spectrum = spectrum if spectrum is not None else np.linspace(0.5, 2.0, 10)
    return make_quadratic(spectrum=spectrum, seed=seed, n_workers=n_workers)


def _report_for(cfg, pilot=None):
    points = pilot_points(pilot or run(cfg, 0))
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
    out = audit_descent(stats.results, report)
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
    out = audit_descent(stats.results, report)
    assert out.passed, out


def test_descent_detects_corrupted_record():
    p = _pl_quadratic()
    cfg = RunConfig(problem=p, gamma=1 / (2 * p.L), beta=1.0, iterations=50, seed=2)
    stats = run_trials(cfg)
    report = _report_for(cfg)
    recs = list(stats.results[0].records)
    bad = dataclasses.replace(recs[10], f=recs[10].f * 5.0 + 1.0)
    recs[10] = bad
    out = audit_descent([recs], report)
    assert out.failed


def test_descent_skips_outside_regime():
    p = make_quadratic(np.eye(10))
    cfg = RunConfig(problem=p, gamma=0.5, beta=0.1, iterations=10, seed=2)
    report = _report_for(cfg)
    assert report.B2 < 0
    out = audit_descent(run_trials(cfg).results, report)
    assert out.status == "skipped"


def test_descent_skips_without_f_star():
    feats, labels = make_synthetic_classification(4, 2, 6, seed=3)
    p = make_logistic_l2(feats, labels, lam=0.5)
    gamma = stepsize_bounds(1.0, p.L, p.mu)[1]
    cfg = RunConfig(problem=p, gamma=gamma, beta=1.0, iterations=10)
    out = audit_descent(run_trials(cfg).results, _report_for(cfg))
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
    report = dataclasses.replace(report, theta0=report.theta0 * 1e-6)
    out = audit_theorem_ncvx(stats, report)
    assert out.failed


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
        (rec.f - 0.0) + report.A_pl * rec.v_error_sq
        for res in stats.results for rec in res.records[-100:]
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
    report = dataclasses.replace(_report_for(cfg), phi0_pl=1e-12)
    assert audit_theorem_pl(stats, report).failed


# ---------------------------------------------------------------------------
# affine-variance bound


def test_affine_identity_no_noise_trivial():
    p = _pl_quadratic()
    cfg = RunConfig(problem=p, gamma=0.1, beta=0.5, iterations=20, seed=10)
    report = _report_for(cfg)
    points = pilot_points(run(cfg, 0))
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
    pilot = run(cfg, 0)
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
    pilot = run(cfg, 0)
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
    pilot = run(cfg, 0)
    points = pilot_points(pilot, 10)
    report = _report_for(cfg, pilot)
    bad = dataclasses.replace(report, B_var=0.0, C_var=report.C_var * 1e-8)
    out = audit_affine_variance(p, points, cfg.estimator, cfg.noise, bad,
                                draws=200, seed=4)
    assert out.failed


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


def test_gradient_audit_detects_wrong_gradient():
    p = _pl_quadratic()
    broken = dataclasses.replace(p, blocks=tuple(2.0 * b for b in p.blocks))
    assert audit_gradients(broken, n_points=5, seed=4).failed


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
    original, calls = engine.run, []

    def counting(c, trial=0):
        calls.append(trial)
        return original(c, trial)

    for module in (engine, audit):
        if getattr(module, "run", None) is original:
            monkeypatch.setattr(module, "run", counting)
    verify_config(cfg, eta_draws=20, eta_points=3)
    assert sorted(calls) == list(range(cfg.trials))
