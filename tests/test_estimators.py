"""Compression / clipping / composite estimators and their error measures."""

import numpy as np
import pytest

from biased_momentum import (
    ConfigurationError,
    EstimatorSpec,
    NoiseSpec,
    apply_estimator,
    clip,
    composite_estimate,
    full_gradient,
    make_quadratic,
    make_toy_composite,
    measure_eta,
    scaled_sign,
    scaled_sign_alpha,
    top_k,
    worker_estimate,
)
from biased_momentum.composite import make_maml
from biased_momentum.problems import make_synthetic_classification
from biased_momentum.rng import pairwise_mean, substream

from _oracles import reference_measure_eta


# ---------------------------------------------------------------------------
# top-k


def test_top_k_keeps_largest_magnitudes():
    np.testing.assert_array_equal(top_k(np.array([3.0, -1.0, 2.0]), 2), [3.0, 0.0, 2.0])


def test_top_k_full_is_identity():
    g = np.array([0.1, -0.4, 0.2])
    np.testing.assert_array_equal(top_k(g, 3), g)


def test_top_k_ties_lowest_index():
    g = np.ones(4)
    out = top_k(g, 2)
    np.testing.assert_array_equal(out, [1.0, 1.0, 0.0, 0.0])
    resid = np.sum((out - g) ** 2)
    assert resid == pytest.approx(2.0)
    assert resid <= (1 - 2 / 4) * np.sum(g**2)  # bound is tight here
    # negative ties too: magnitude decides, then index
    g2 = np.array([-2.0, 2.0, 2.0, -2.0])
    np.testing.assert_array_equal(top_k(g2, 2), [-2.0, 2.0, 0.0, 0.0])


def test_top_k_range_errors():
    with pytest.raises(ConfigurationError):
        top_k(np.ones(3), 0)
    with pytest.raises(ConfigurationError):
        top_k(np.ones(3), 4)


def test_top_k_contraction_random():
    rng = substream(21, 2, 3)
    d = 12
    for _ in range(10_000):
        g = rng.standard_normal(d)
        k = int(rng.integers(1, d + 1))
        resid = np.sum((top_k(g, k) - g) ** 2)
        assert resid <= (1 - k / d) * np.sum(g**2) + 1e-12


# ---------------------------------------------------------------------------
# scaled sign


def test_scaled_sign_constant_vector_unchanged():
    g = np.full(5, 0.7)
    np.testing.assert_allclose(scaled_sign(g), g)
    assert scaled_sign_alpha(g) == pytest.approx(1.0)


def test_scaled_sign_sparse_input_and_sign_zero():
    g = np.array([1.0, 0.0, 0.0, 0.0])
    out = scaled_sign(g)
    np.testing.assert_array_equal(out, [0.25, 0.0, 0.0, 0.0])
    resid = np.sum((out - g) ** 2)
    assert resid == pytest.approx(0.5625)
    assert resid <= (1 - 1 / 4) * np.sum(g**2)
    assert scaled_sign_alpha(g) == pytest.approx(0.25)


def test_scaled_sign_contraction_random():
    rng = substream(22, 2, 4)
    d = 10
    for _ in range(10_000):
        g = rng.standard_normal(d)
        resid = np.sum((scaled_sign(g) - g) ** 2)
        # worst-case alpha = 1/d; also check the tighter per-input alpha
        assert resid <= (1 - 1 / d) * np.sum(g**2) + 1e-12
        assert resid <= (1 - scaled_sign_alpha(g)) * np.sum(g**2) + 1e-9


# ---------------------------------------------------------------------------
# clip


def test_clip_inactive_below_threshold():
    g = np.array([3.0, 4.0])
    np.testing.assert_array_equal(clip(g, 10.0), g)


def test_clip_rescales_and_distance_identity():
    g = np.array([6.0, 8.0])
    out = clip(g, 5.0)
    np.testing.assert_allclose(out, [3.0, 4.0])
    assert np.linalg.norm(out - g) == pytest.approx(10.0 - 5.0)


def test_clip_distance_identity_random():
    rng = substream(23, 2, 5)
    for _ in range(10_000):
        g = rng.standard_normal(6) * rng.uniform(0.1, 5.0)
        tau = rng.uniform(0.05, 4.0)
        dist = np.linalg.norm(clip(g, tau) - g)
        assert abs(dist - max(np.linalg.norm(g) - tau, 0.0)) < 1e-12


# ---------------------------------------------------------------------------
# composite estimator


def _toy():
    return make_toy_composite(n_workers=2)


def test_composite_full_batch_is_exact():
    cp = _toy()
    x = np.array([0.3, -0.8])
    rng = substream(24, 2, 6)
    est = composite_estimate(cp, 0, x, cp.m_g, cp.m_F, rng)
    exact = cp.worker_grad(0, x)
    assert np.linalg.norm(est - exact) < 1e-12


def test_composite_maml_zero_inner_step_is_plain_subsampling():
    from biased_momentum import chained_gradient

    feats, labels = make_synthetic_classification(3, 1, 4, seed=8)
    cp = make_maml(feats, labels, gamma_inner=0.0)
    x = np.array([0.2, -0.1, 0.5])
    # identity inner maps: the chained estimate is just the subset-mean of
    # the per-sample loss gradients at x
    est = chained_gradient(cp, 0, x, [0, 1, 2, 3], [1, 3])
    expected = np.mean([cp.outer[0][j].grad(x) for j in (1, 3)], axis=0)
    np.testing.assert_allclose(est, expected, atol=1e-12)


def test_composite_batch_size_errors():
    cp = _toy()
    rng = substream(26, 2, 8)
    with pytest.raises(ConfigurationError):
        composite_estimate(cp, 0, np.zeros(2), 0, 1, rng)
    with pytest.raises(ConfigurationError):
        composite_estimate(cp, 0, np.zeros(2), 1, 9, rng)


# ---------------------------------------------------------------------------
# dispatch


def test_apply_estimator_identity_and_passthrough_cases():
    g = np.array([1.0, -2.0, 0.5])
    np.testing.assert_array_equal(apply_estimator(EstimatorSpec(), g), g)
    np.testing.assert_array_equal(
        apply_estimator(EstimatorSpec(kind="top_k", k=3), g), g
    )
    np.testing.assert_array_equal(
        apply_estimator(EstimatorSpec(kind="clip", tau=100.0), g), g
    )


def test_apply_estimator_composite_needs_context():
    with pytest.raises(ConfigurationError):
        apply_estimator(EstimatorSpec(kind="composite", s_g=1, s_f=1), np.ones(3))


def test_worker_estimate_rejects_kind_mismatch():
    p = make_quadratic(np.eye(3))
    spec = EstimatorSpec(kind="composite", s_g=1, s_f=1)
    with pytest.raises(ConfigurationError):
        worker_estimate(p, 0, np.zeros(3), spec)


def test_spec_validation_and_json_round_trip():
    with pytest.raises(ConfigurationError):
        EstimatorSpec(kind="top_k")
    with pytest.raises(ConfigurationError):
        EstimatorSpec(kind="clip", tau=0.0)
    with pytest.raises(ConfigurationError):
        EstimatorSpec(kind="made_up")
    spec = EstimatorSpec.from_dict({"kind": "composite", "S_g": 2, "S_F": 3})
    assert (spec.s_g, spec.s_f) == (2, 3)
    assert EstimatorSpec.from_dict(spec.to_dict()) == spec


def test_determinism_same_stream_same_bits():
    p = make_quadratic(np.eye(5), n_workers=1)
    spec = EstimatorSpec(kind="top_k", k=2)
    noise = NoiseSpec(sigma2=0.5)
    x = np.array([1.0, -1.0, 0.3, 0.0, 2.0])
    a = worker_estimate(p, 0, x, spec, noise, substream(30, 0, 0, 0, 0))
    b = worker_estimate(p, 0, x, spec, noise, substream(30, 0, 0, 0, 0))
    np.testing.assert_array_equal(a, b)


# ---------------------------------------------------------------------------
# eta measurement


def test_measure_eta_exact_zero_without_noise():
    p = make_quadratic(np.eye(4), n_workers=2)
    mean, se = measure_eta(p, np.array([1.0, 0.0, -2.0, 0.5]), EstimatorSpec(), None, samples=10)
    assert mean == 0.0 and se == 0.0


def test_measure_eta_gaussian_averaging_identity():
    d, n = 6, 3
    p = make_quadratic(np.eye(d), n_workers=n)
    sigma2 = 0.09
    noise = NoiseSpec(sigma2=sigma2)
    rng = substream(31, 2, 9)
    mean, se = measure_eta(p, np.ones(d), EstimatorSpec(), noise, samples=20_000, rng=rng)
    assert abs(mean - d * sigma2 / n) <= 4 * se


def test_measure_eta_respects_compression_bound():
    # checked in depth in test_audit / acceptance; smoke the plumbing here
    p = make_quadratic(spectrum=np.linspace(0.5, 2.0, 10), seed=1, n_workers=4)
    spec = EstimatorSpec(kind="top_k", k=5)
    rng = substream(32, 2, 10)
    x = substream(32, 2, 11).standard_normal(10)
    mean, se = measure_eta(p, x, spec, None, samples=50, rng=rng)
    assert mean >= 0.0 and se >= 0.0


def _quadratic_6():
    return make_quadratic(spectrum=np.linspace(0.5, 2.0, 6), seed=4, n_workers=3)


def _maml_4():
    return make_maml(*make_synthetic_classification(4, 2, 6, seed=5), 0.1)


@pytest.mark.parametrize("build,spec,noise", [
    (_quadratic_6, EstimatorSpec(kind="top_k", k=2), NoiseSpec(sigma2=0.05, delta_offset=0.01)),
    (_quadratic_6, EstimatorSpec(kind="scaled_sign"), NoiseSpec(sigma2=0.05, delta_offset=0.01)),
    (_quadratic_6, EstimatorSpec(kind="clip", tau=0.5),
     NoiseSpec(sigma2=0.05, delta_offset=[0.01, 0.0, -0.02, 0.0, 0.03, 0.0])),
    (_maml_4, EstimatorSpec(kind="composite", s_g=2, s_f=3), NoiseSpec(sigma2=0.01)),
])
def test_measure_eta_matches_per_draw_reference(build, spec, noise):
    # reusing the exact worker gradients across draws changes no bit
    p = build()
    x = substream(40, 2, 0).standard_normal(p.dimension)
    got = measure_eta(p, x, spec, noise, samples=200, rng=substream(40, 2, 1))
    want = reference_measure_eta(p, x, spec, noise, 200, substream(40, 2, 1))
    assert got == want


# ---------------------------------------------------------------------------
# aggregate error decomposition (the (1+theta) / (1+1/theta) split)


def test_eta_decomposition_inequality():
    p = make_quadratic(spectrum=np.linspace(0.5, 2.0, 8), seed=3, n_workers=4)
    noise = NoiseSpec(sigma2=0.2, delta_offset=0.05)
    rng = substream(33, 2, 12)
    for _ in range(200):
        x = rng.standard_normal(8)
        theta = rng.uniform(0.05, 5.0)
        raws = [worker_estimate(p, i, x, EstimatorSpec(), noise, rng)
                for i in range(p.n_workers)]
        outs = [top_k(g, 3) for g in raws]
        eta = pairwise_mean(outs) - full_gradient(p, x)
        t1 = np.mean([np.sum((q - g) ** 2) for q, g in zip(outs, raws)])
        t2 = np.mean(
            [np.sum((g - p.worker_grad(i, x)) ** 2) for i, g in enumerate(raws)]
        )
        assert np.sum(eta**2) <= (1 + theta) * t1 + (1 + 1 / theta) * t2 + 1e-9
