"""Closed-form constants, step-size ceilings and error-model formulas."""

import dataclasses
import json
import math

import numpy as np
import pytest

from biased_momentum import (
    ConfigurationError,
    EstimatorSpec,
    NoiseSpec,
    RunConfig,
    TheoryReport,
    affine_constants_clip,
    affine_constants_composite,
    affine_constants_compression,
    build_theory_report,
    lemma1_constants,
    lemma_stepsize_bound,
    lyapunov_weight,
    make_maml,
    make_nonconvex_reg,
    make_quadratic,
    make_synthetic_classification,
    measure_composite_sigmas,
    measure_heterogeneity,
    measure_suboptimality,
    momentum_alpha,
    stepsize_bounds,
    theorem_bounds,
    theta0_value,
)
from biased_momentum.harness import rebuild_theory
from biased_momentum.rng import substream
from biased_momentum.theory import derive_theory_report


# ---------------------------------------------------------------------------
# descent weights


def test_lemma1_beta_one_reduces_to_classic_descent():
    B1, B2, B3 = lemma1_constants(gamma=0.2, beta=1.0, L=1.0, A=0.0)
    assert B1 == 0.0
    assert B2 == pytest.approx(1 / 0.4 - 0.5)
    assert B3 == pytest.approx(0.1)


def test_lemma1_boundary_gamma_one_over_L():
    _, B2, _ = lemma1_constants(gamma=1.0, beta=1.0, L=1.0, A=0.0)
    assert B2 == pytest.approx(0.0)


def test_lemma1_paper_setting_violates_descent_regime():
    # gamma=0.5, beta=0.1, L=1, A = gamma(1-beta)/beta = 4.5 -> B2 < 0:
    # the descent inequality is NOT guaranteed at that operating point
    A = lyapunov_weight(0.5, 0.1, "ncvx")
    assert A == pytest.approx(4.5)
    B1, B2, B3 = lemma1_constants(0.5, 0.1, 1.0, A)
    assert B1 == pytest.approx(4.5)
    assert B2 == pytest.approx(-94.0)
    assert B3 == pytest.approx(0.4975)


@pytest.mark.parametrize("regime,expected", [("ncvx", 4.5), ("pl", 9.0)])
def test_lyapunov_weight(regime, expected):
    assert lyapunov_weight(0.5, 0.1, regime) == pytest.approx(expected)
    assert lyapunov_weight(0.3, 1.0, regime) == 0.0


# ---------------------------------------------------------------------------
# step-size ceilings


def test_stepsize_beta_one_is_one_over_L():
    g_ncvx, g_pl = stepsize_bounds(1.0, L=2.0, mu=0.5)
    assert momentum_alpha(1.0, "ncvx") == 0.0
    assert g_ncvx == pytest.approx(0.5)
    assert g_pl == pytest.approx(min(0.5, 1.0))


def test_stepsize_ncvx_frozen_value():
    assert momentum_alpha(0.1, "ncvx") == pytest.approx(378.0)
    g_ncvx, _ = stepsize_bounds(0.1, L=1.0)
    assert g_ncvx == pytest.approx(0.04891836099528802, rel=1e-12)


def test_stepsize_pl_frozen_value():
    assert momentum_alpha(0.5, "pl") == pytest.approx(20.0)
    _, g_pl = stepsize_bounds(0.5, L=2.0, mu=0.1)
    assert g_pl == pytest.approx(0.0913719988157784, rel=1e-12)


def test_stepsize_pl_none_without_mu():
    _, g_pl = stepsize_bounds(0.5, L=2.0, mu=0.0)
    assert g_pl is None


def test_gamma_max_monotone_in_beta():
    grid = np.linspace(0.01, 1.0, 100)
    vals = [stepsize_bounds(b, L=1.5)[0] for b in grid]
    assert all(b >= a for a, b in zip(vals, vals[1:]))


def test_lemma_stepsize_inequality_random():
    rng = substream(41, 2, 0)
    for _ in range(10_000):
        a, b, c = rng.uniform(0.01, 10.0, size=3)
        bound = lemma_stepsize_bound(a, b, c)
        for gamma in (bound, bound * rng.uniform(0.01, 1.0)):
            assert a / gamma - b - c * gamma >= -1e-9 * (b + c * gamma)
        # just above the bound the inequality MAY fail; nothing asserted


def test_b2_nonnegative_at_admissible_gamma():
    rng = substream(42, 2, 1)
    for _ in range(2_000):
        beta = rng.uniform(0.02, 1.0)
        L = rng.uniform(0.1, 10.0)
        mu = rng.uniform(0.001, L)
        g_ncvx, g_pl = stepsize_bounds(beta, L, mu)
        for gamma, regime in ((g_ncvx * rng.uniform(0.05, 1.0), "ncvx"),
                              (g_pl * rng.uniform(0.05, 1.0), "pl")):
            A = lyapunov_weight(gamma, beta, regime)
            _, B2, _ = lemma1_constants(gamma, beta, L, A)
            assert B2 >= -1e-9 * max(1.0, L)


def test_b1_b3_always_nonnegative():
    rng = substream(43, 2, 2)
    for _ in range(2_000):
        gamma = rng.uniform(1e-3, 5.0)
        beta = rng.uniform(0.01, 1.0)
        A = rng.uniform(0.0, 10.0)
        B1, _, B3 = lemma1_constants(gamma, beta, 1.0, A)
        assert B1 >= 0.0 and B3 >= 0.0


# ---------------------------------------------------------------------------
# error-model constants


def test_compression_constants_alpha_one():
    B, C = affine_constants_compression(1.0, sigma2=0.0, delta2_het=0.0)
    assert B == pytest.approx(7 / 8)
    assert C == 0.0


def test_compression_constants_frozen_arithmetic():
    B, C = affine_constants_compression(1.0, sigma2=1.0, delta2_het=1.0)
    assert B == pytest.approx(7 / 8)
    assert C == pytest.approx(12.25)  # 0.75*9*1 + (0.5*5 + 3)*1


def test_compression_constants_alpha_half():
    B, C = affine_constants_compression(0.5, sigma2=0.0, delta2_het=0.0)
    assert B == pytest.approx(15 / 16)
    assert C == 0.0


def test_clip_constants():
    assert affine_constants_clip(0.0, 1.0, 0.0, 1.0) == (0.0, pytest.approx(1.0))
    B, C = affine_constants_clip(1.0, 1.0, 1.0, 2.0)
    assert B == 0.0
    assert C == pytest.approx(12.0)  # max(2 + 4 + 4, 0) + 2
    # tau -> 0+ with no noise/bias: C -> 0
    _, C_small = affine_constants_clip(0.0, 1.0, 0.0, 1e-9)
    assert C_small < 1e-17


def test_composite_constants():
    B, C, L = affine_constants_composite(1.0, 1.0, 1.0, 0.0, 0.0, 0.0, 3, 3, L_g=2.0)
    assert (B, C) == (0.0, 0.0)
    assert L == pytest.approx(2.0 * 1.0 + 1.0)
    _, C3, _ = affine_constants_composite(1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 3, 3)
    assert C3 == pytest.approx(3.0)  # 1 + 1 + 1
    _, C1, _ = affine_constants_composite(1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1, 1)
    assert C1 == pytest.approx(9.0)


def test_c_nonnegative_random():
    rng = substream(44, 2, 3)
    for _ in range(2_000):
        alpha = rng.uniform(1e-3, 1.0)
        s2, d2 = rng.uniform(0, 5.0, size=2)
        _, C = affine_constants_compression(alpha, s2, d2)
        assert C >= 0.0
        _, Cc = affine_constants_clip(s2, rng.uniform(0, 4), d2, rng.uniform(0.01, 3))
        assert Cc >= 0.0


# ---------------------------------------------------------------------------
# theorem right-hand sides


def _pl_quadratic_report(beta=0.5, gamma=None, sigma2=0.0):
    p = make_quadratic(np.eye(10))
    if gamma is None:
        gamma = stepsize_bounds(beta, p.L, p.mu)[1]
    x0 = np.zeros(10)
    x0[0] = 1.0  # f(x0) = 0.5
    return p, build_theory_report(
        p, gamma, beta, EstimatorSpec(), NoiseSpec(sigma2=sigma2), x0=x0
    )


def test_theta0_with_matched_v_init():
    p, report = _pl_quadratic_report()
    assert report.grad_v_err0_sq == 0.0
    assert report.theta0 == pytest.approx(4.0 / report.gamma * 0.5)
    assert theta0_value(report.gamma, report.beta, 0.5, 0.0) == report.theta0


def test_bounds_vanish_without_bias():
    _, report = _pl_quadratic_report()
    ncvx_rhs, pl_rhs = theorem_bounds(report)
    assert report.floor_ncvx == 0.0 and report.floor_pl == 0.0
    assert ncvx_rhs(10**9) < 1e-6
    assert pl_rhs(10_000) < 1e-300 or pl_rhs(10_000) == 0.0


def test_pl_rhs_frozen_tabulation_and_recurrence_oracle():
    _, report = _pl_quadratic_report(beta=0.5)
    assert report.gamma == pytest.approx(0.1827439976315568, rel=1e-12)
    _, pl_rhs = theorem_bounds(report)
    # frozen from the independent recurrence e_{k+1} = (1 - mu gamma/2) e_k
    assert pl_rhs(10) == pytest.approx(0.1917923001707895, rel=1e-12)
    assert pl_rhs(100) == pytest.approx(3.448114175074651e-05, rel=1e-12)
    # recurrence (with the bias term) never exceeds the closed form
    _, report_b = _pl_quadratic_report(beta=0.5, sigma2=0.01)
    _, pl_rhs_b = theorem_bounds(report_b)
    rate = 1 - report_b.mu * report_b.gamma / 2
    hat_d = 2 - report_b.beta / 2 - report_b.beta**2
    e = report_b.phi0_pl
    for k in range(1, 200):
        e = rate * e + report_b.gamma * hat_d * report_b.C_var
        assert e <= pl_rhs_b(k) * (1 + 1e-12)


def test_condition_flags_two_code_paths_agree():
    # direct formula flags vs re-derivation from the descent-weight signs
    for beta in (0.1, 0.3, 0.6, 0.9, 1.0):
        for frac in (0.5, 1.0):
            p = make_quadratic(spectrum=np.linspace(0.5, 2.0, 10), seed=1)
            g_ncvx, g_pl = stepsize_bounds(beta, p.L, p.mu)
            gamma = frac * g_pl
            report = build_theory_report(
                p, gamma, beta, EstimatorSpec(), NoiseSpec(), x0=np.ones(10)
            )
            # path 2: admissible gamma must give B2 >= 0 with the regime A
            _, B2, _ = lemma1_constants(
                gamma, beta, p.L, lyapunov_weight(gamma, beta, "pl")
            )
            assert report.gamma_ok_pl == (gamma <= g_pl)
            if report.gamma_ok_pl:
                assert B2 >= -1e-12
            assert report.cond_B_ncvx_ok == ((1 - beta**2 / 2) * report.B_var <= 0.25)
            assert report.cond_B_pl_ok == (
                (2 - beta / 2 - beta**2) * report.B_var <= 0.25
            )


def test_report_identity_estimator_uses_averaging_identity():
    d, n = 10, 4
    p = make_quadratic(np.eye(d), n_workers=n)
    noise = NoiseSpec(sigma2=0.01)
    report = build_theory_report(p, 0.1, 0.5, EstimatorSpec(), noise, x0=np.ones(d))
    assert report.B_var == 0.0
    assert report.C_var == pytest.approx(d * 0.01 / n)
    assert report.sigma2_worker == pytest.approx(d * 0.01)


def test_report_beta_one_invariants():
    p = make_quadratic(np.eye(4))
    report = build_theory_report(p, 0.5, 1.0, EstimatorSpec(), NoiseSpec(), x0=np.ones(4))
    assert report.alpha_ncvx == 0.0 and report.alpha_pl == 0.0
    assert report.gamma_max_ncvx == pytest.approx(1.0 / p.L)
    assert report.A_ncvx == 0.0 and report.A_pl == 0.0


def _pl_quadratic_run(sigma2=0.0):
    """A config of _pl_quadratic_report's problem, start and step size, and its report."""
    p, report = _pl_quadratic_report(sigma2=sigma2)
    cfg = RunConfig(p, report.gamma, report.beta, iterations=1, noise=NoiseSpec(sigma2=sigma2),
                    x0=(1.0,) + (0.0,) * 9)
    return cfg, report


def _json(report):
    """The theory document run.json holds for a report."""
    return json.loads(json.dumps(report.to_dict()))


def test_report_round_trip():
    # the report of a run.json theory is rebuilt from the config, not read from the document
    cfg, report = _pl_quadratic_run()
    assert rebuild_theory(_json(report), cfg) == report
    assert derive_theory_report(cfg.problem, cfg.gamma, cfg.beta, cfg.estimator, cfg.noise,
                                x0=cfg.resolve_x0()) == report


DERIVED = [f.name for f in dataclasses.fields(TheoryReport) if not f.init]


def _premises(report):
    return {f.name: getattr(report, f.name) for f in dataclasses.fields(report) if f.init}


def test_report_takes_only_its_premises():
    _, report = _pl_quadratic_report()
    assert len(_premises(report)) == 15 and len(DERIVED) == 20
    assert TheoryReport(**_premises(report)) == report
    with pytest.raises(TypeError, match="B1"):
        TheoryReport(**_premises(report), B1=report.B1)
    with pytest.raises(ValueError, match="B1"):
        dataclasses.replace(report, B1=0.0)


def test_replace_recomputes_the_floors():
    _, report = _pl_quadratic_report()
    beta, mu = report.beta, report.mu
    again = dataclasses.replace(report, C_var=3.0)
    assert again.floor_ncvx == 4.0 * (1.0 - beta**2 / 2.0) * 3.0 != report.floor_ncvx
    assert again.floor_pl == (2.0 / mu) * (2.0 - beta / 2.0 - beta**2) * 3.0 != report.floor_pl
    unknown = dataclasses.replace(report, C_var=None)
    assert unknown.floor_ncvx is None and unknown.floor_pl is None
    assert not unknown.cond_B_ncvx_ok and not unknown.cond_B_pl_ok


def _tampered(value):
    """A value of the same JSON type that differs from value."""
    if isinstance(value, bool):
        return not value
    if isinstance(value, str):
        return {"pl": "ncvx", "ncvx": "pl"}[value]
    return 1.0 if value is None else 2.0 * value + 1.0


def _clip_run_without_f_star():
    # f* unknown and mu = 0: the derived None values
    p = make_nonconvex_reg(*make_synthetic_classification(4, 2, 6, seed=3), lam_nc=0.5)
    cfg = RunConfig(p, 0.01, 0.5, iterations=1, estimator=EstimatorSpec(kind="clip", tau=1.0),
                    x0=(0.0,) * 4)
    return cfg, build_theory_report(p, 0.01, 0.5, cfg.estimator, NoiseSpec(), x0=np.zeros(4))


@pytest.mark.parametrize("name", DERIVED)
def test_from_dict_names_a_derived_value_its_premises_do_not_give(name):
    # a stored derived value that the config does not give is named by the rebuild
    for cfg, report in (_pl_quadratic_run(sigma2=0.01), _clip_run_without_f_star()):
        doc = _json(report)
        assert rebuild_theory(doc, cfg) == report
        doc[name] = _tampered(doc[name])
        with pytest.raises(ConfigurationError, match=f"theory '{name}' is .*, but its config"):
            rebuild_theory(doc, cfg)


def test_from_dict_takes_nan_as_nan():
    # a NaN measured premise is kept, and its NaN constants match the stored ones
    p = make_quadratic(spectrum=np.linspace(0.5, 2.0, 6), n_workers=3, seed=2)
    cfg = RunConfig(p, 0.1, 0.5, iterations=1, estimator=EstimatorSpec(kind="top_k", k=2),
                    x0=(1.0,) * 6)
    report = derive_theory_report(p, 0.1, 0.5, cfg.estimator, x0=np.ones(6), delta2_het=math.nan)
    doc = _json(report)
    assert math.isnan(doc["C_var"]) and math.isnan(doc["floor_ncvx"]) and math.isnan(doc["floor_pl"])
    assert math.isnan(rebuild_theory(doc, cfg).floor_pl)


@pytest.mark.parametrize("premise,value,named", [("beta", 2.0, "beta"), ("beta", 0.0, "beta"),
                                                 ("L", 0.0, "L must"), ("gamma", 0.0, "gamma")])
def test_from_dict_refuses_premises_that_cannot_hold(premise, value, named):
    # stored, a premise that cannot hold differs from the config's; in process,
    # the constructor refuses it
    cfg, report = _pl_quadratic_run()
    doc = dict(_json(report), **{premise: value})
    with pytest.raises(ConfigurationError, match=f"theory '{premise}' is {value}, but"):
        rebuild_theory(doc, cfg)
    with pytest.raises(ConfigurationError, match=named):
        dataclasses.replace(report, **{premise: value})


def test_derive_reads_only_the_premise_its_kind_measures():
    # a measured premise of another kind is left None; the kind's own must be a number
    quad = make_quadratic(spectrum=np.linspace(0.5, 2.0, 6), n_workers=3, seed=2)
    x0 = np.ones(6)
    plain = derive_theory_report(quad, 0.1, 0.5, EstimatorSpec(), x0=x0, delta2_het=1.0,
                                 delta_subopt=1.0, composite_sigmas=(1.0, 1.0, 1.0))
    assert (plain.delta2_het, plain.delta_subopt, plain.composite_sigmas) == (None, None, None)
    top_k = EstimatorSpec(kind="top_k", k=2)
    for value in (None, True, "1.0", [1.0]):
        with pytest.raises(ConfigurationError, match="top_k report needs delta2_het measured"):
            derive_theory_report(quad, 0.1, 0.5, top_k, x0=x0, delta2_het=value)
    cp = make_maml(*make_synthetic_classification(3, 2, 5, seed=13), 0.2)
    composite = EstimatorSpec(kind="composite", s_g=1, s_f=1)
    report = derive_theory_report(cp, 0.1, 0.5, composite, x0=np.zeros(3),
                                  composite_sigmas=[1.0, 2.0, 3.0])
    assert report.composite_sigmas == (1.0, 2.0, 3.0)
    for value in ([1.0, 2.0], [1.0, 2.0, False], 1.0):
        with pytest.raises(ConfigurationError, match="three numbers"):
            derive_theory_report(cp, 0.1, 0.5, composite, x0=np.zeros(3), composite_sigmas=value)


def test_report_refuses_empty_pilot_points():
    # only None means [x0]; every estimator refuses an empty sequence
    quad = make_quadratic(spectrum=np.linspace(0.5, 2.0, 6), n_workers=3, seed=2)
    cp = make_maml(*make_synthetic_classification(3, 2, 5, seed=13), 0.2)
    for p, spec in ((quad, EstimatorSpec()), (quad, EstimatorSpec(kind="top_k", k=2)),
                    (quad, EstimatorSpec(kind="clip", tau=1.0)),
                    (cp, EstimatorSpec(kind="composite", s_g=1, s_f=1))):
        x0 = np.zeros(p.dimension)
        assert build_theory_report(p, 0.1, 0.5, spec, x0=x0, pilot_points=None) == \
            build_theory_report(p, 0.1, 0.5, spec, x0=x0, pilot_points=[x0])
        for empty in ([], np.empty((0, p.dimension))):
            with pytest.raises(ConfigurationError, match="at least one pilot point"):
                build_theory_report(p, 0.1, 0.5, spec, x0=x0, pilot_points=empty)


def test_premise_measurements_take_point_arrays_and_refuse_no_points():
    # a (P, d) array of points measures as the list of its rows does, also
    # through the report; no points at all is named, not a numpy error
    quad = make_quadratic(spectrum=np.linspace(0.5, 2.0, 6), n_workers=3, seed=2)
    cp = make_maml(*make_synthetic_classification(3, 2, 5, seed=13), 0.2)
    for measure, p in ((measure_heterogeneity, quad), (measure_suboptimality, quad),
                       (measure_composite_sigmas, cp)):
        pts = substream(31, 2, p.dimension).standard_normal((4, p.dimension))
        assert measure(p, pts) == measure(p, list(pts))
        for empty in ([], np.empty((0, p.dimension))):
            with pytest.raises(ConfigurationError, match="at least one sample point"):
                measure(p, empty)
    pts = substream(31, 2, 0).standard_normal((4, 6))
    report = [build_theory_report(quad, 0.1, 0.5, EstimatorSpec(kind="top_k", k=2), NoiseSpec(),
                                  x0=pts[0], pilot_points=given) for given in (pts, list(pts))]
    assert report[0] == report[1]


def test_validation_errors():
    with pytest.raises(ConfigurationError):
        momentum_alpha(0.0, "ncvx")
    with pytest.raises(ConfigurationError):
        lemma1_constants(-0.1, 0.5, 1.0, 0.0)
    with pytest.raises(ConfigurationError):
        affine_constants_compression(1.5, 0.0, 0.0)
    with pytest.raises(ConfigurationError):
        affine_constants_clip(0.0, 1.0, 0.0, 0.0)
    with pytest.raises(ConfigurationError):
        stepsize_bounds(0.5, L=0.0)
    # the constants divide by beta^2: a beta whose square underflows is refused,
    # and one whose constants overflow has ceilings of 0
    for make in (lambda: momentum_alpha(5e-324, "pl"),
                 lambda: RunConfig(make_quadratic(np.eye(3)), 0.1, 5e-324, 1)):
        with pytest.raises(ConfigurationError, match="beta\\^2 > 0"):
            make()
    assert stepsize_bounds(1e-160, L=1.0, mu=0.5) == (0.0, 0.0)
    # the report's own premises go through the same checks
    quad = make_quadratic(np.eye(3))
    for gamma, beta, named in ((0.0, 0.5, "gamma must be > 0"), (0.1, 0.0, "beta must be")):
        with pytest.raises(ConfigurationError, match=named):
            build_theory_report(quad, gamma, beta, EstimatorSpec(), x0=np.ones(3))
