"""Composite finite sums: chained gradients, subset statistics, meta-learning."""

import numpy as np
import pytest
from itertools import combinations

from biased_momentum import (
    ConfigurationError,
    chained_gradient,
    inner_value,
    make_maml,
    make_toy_composite,
    measure_composite_sigmas,
)
from biased_momentum.composite import (
    InnerComponent,
    OuterComponent,
    CompositeProblem,
    composite_from_dict,
)
from biased_momentum.problems import make_synthetic_classification
from biased_momentum.rng import substream

from _oracles import enumerate_subset_means, fd_gradient


def _toy(n_workers=1):
    return make_toy_composite(n_workers=n_workers)


# ---------------------------------------------------------------------------
# subset averages


def test_inner_value_full_and_singleton():
    cp = _toy()
    x = np.array([1.0, 2.0])
    full = inner_value(cp, 0, x, range(cp.m_g))
    mats = [np.array(G, dtype=float) for G in
            (((1, 0), (0, 1)), ((2, 1), (0, 1)), ((1, 1), (1, 0)))]
    np.testing.assert_array_equal(full, np.mean([G @ x for G in mats], axis=0))
    np.testing.assert_array_equal(inner_value(cp, 0, x, [1]), mats[1] @ x)
    with pytest.raises(ConfigurationError):
        inner_value(cp, 0, x, [])


def test_subset_enumeration_mean_is_exact():
    # integer data at an integer point: subset means average to the full
    # mean with no floating error at all
    cp = _toy()
    x = np.array([1.0, 2.0])
    values = [cp.inner[0][j].value(x) for j in range(cp.m_g)]
    full = np.mean(values, axis=0)
    for size in (1, 2, 3):
        means = enumerate_subset_means(values, size)
        np.testing.assert_array_equal(np.mean(means, axis=0), full)
    # same statement for the inner Jacobian action and the outer gradient
    # at a fixed inner point
    u = np.array([1.0, -1.0])
    jac_actions = [cp.inner[0][j].jac_t_vec(x, u) for j in range(cp.m_g)]
    np.testing.assert_array_equal(
        np.mean(enumerate_subset_means(jac_actions, 2), axis=0),
        np.mean(jac_actions, axis=0),
    )
    z = np.array([2.0, 1.0])
    outer_grads = [cp.outer[0][j].grad(z) for j in range(cp.m_F)]
    np.testing.assert_array_equal(
        np.mean(enumerate_subset_means(outer_grads, 2), axis=0),
        np.mean(outer_grads, axis=0),
    )


def test_subset_enumeration_exact_on_m5_instance():
    # entries are multiples of 60 so every division by a subset size or a
    # subset count stays exact in binary floating point
    rng = substream(51, 2, 0)
    mats = [60.0 * rng.integers(-2, 3, size=(2, 2)) for _ in range(5)]
    cp = make_toy_composite(
        inner_matrices=mats,
        outer_coeffs=(1.0,) * 5,
        outer_centers=tuple((float(i), 0.0) for i in range(5)),
    )
    x = np.array([2.0, -1.0])
    values = [cp.inner[0][j].value(x) for j in range(5)]
    for size in (1, 2, 3, 4, 5):
        means = enumerate_subset_means(values, size)
        np.testing.assert_array_equal(np.mean(means, axis=0), np.mean(values, axis=0))


# ---------------------------------------------------------------------------
# chained gradient


def test_toy_closed_form_gradient():
    # hand-derived: grad f(x) = Gbar^T mean_j grad F_j(Gbar x) for the
    # shared-components toy, with Gbar = mean of the integer matrices
    cp = _toy()
    mats = [np.array(G, dtype=float) for G in
            (((1, 0), (0, 1)), ((2, 1), (0, 1)), ((1, 1), (1, 0)))]
    coeffs = (1.0, 2.0, 1.0)
    centers = (np.zeros(2), np.array([1.0, 0.0]), np.array([0.0, -1.0]))
    Gbar = np.mean(mats, axis=0)
    x = np.array([0.7, -0.4])
    z = Gbar @ x
    w = np.mean([4.0 * c * (z - r) ** 3 for c, r in zip(coeffs, centers)], axis=0)
    closed = Gbar.T @ w
    chained = chained_gradient(cp, 0, x, range(3), range(3))
    assert np.linalg.norm(chained - closed) < 1e-12


def test_full_chained_matches_finite_differences():
    cp = _toy(n_workers=2)
    rng = substream(52, 2, 1)
    for _ in range(5):
        x = rng.uniform(-1.5, 1.5, size=2)
        ga = cp.worker_grad(0, x)
        gn = fd_gradient(lambda y: cp.worker_value(0, y), x)
        assert np.linalg.norm(ga - gn) <= 1e-4 * max(1.0, np.linalg.norm(gn))


def test_maml_gradient_matches_finite_differences():
    feats, labels = make_synthetic_classification(3, 2, 4, seed=9)
    cp = make_maml(feats, labels, gamma_inner=0.2)
    rng = substream(53, 2, 2)
    for _ in range(5):
        x = rng.standard_normal(3)
        ga = cp.worker_grad(1, x)
        gn = fd_gradient(lambda y: cp.worker_value(1, y), x)
        assert np.linalg.norm(ga - gn) <= 1e-4 * max(1.0, np.linalg.norm(gn))


def test_chained_gradient_index_errors():
    cp = _toy()
    with pytest.raises(ConfigurationError):
        chained_gradient(cp, 0, np.zeros(2), [0, 7], [0])


def test_chain_bias_is_real_for_partial_batches():
    # strictly convex nonlinear outer: the expectation of the subsampled
    # chain over all index draws must differ from the full gradient
    cp = _toy()
    x = np.array([0.9, 0.3])
    exact = cp.worker_grad(0, x)
    est_mean = np.zeros(2)
    count = 0
    for idx_g in combinations(range(cp.m_g), 1):
        for idx_f in combinations(range(cp.m_F), cp.m_F):
            est_mean += chained_gradient(cp, 0, x, list(idx_g), list(idx_f))
            count += 1
    est_mean /= count
    assert np.linalg.norm(est_mean - exact) > 1e-3


# ---------------------------------------------------------------------------
# meta-learning construction


def test_maml_zero_inner_step_reduces_to_finite_sum():
    feats, labels = make_synthetic_classification(4, 2, 5, seed=10)
    cp = make_maml(feats, labels, gamma_inner=0.0)
    x = substream(54, 2, 3).standard_normal(4)
    plain = np.mean([cp.outer[0][j].grad(x) for j in range(cp.m_F)], axis=0)
    np.testing.assert_allclose(cp.worker_grad(0, x), plain, atol=1e-14)
    assert cp.ell_g == 1.0 and cp.L_g == 0.0


def test_maml_negative_inner_step_rejected():
    feats, labels = make_synthetic_classification(3, 1, 4, seed=11)
    with pytest.raises(ConfigurationError):
        make_maml(feats, labels, gamma_inner=-0.1)


def test_maml_lipschitz_constants_hold_on_sampled_pairs():
    feats, labels = make_synthetic_classification(3, 2, 4, seed=12)
    gamma = 0.3
    cp = make_maml(feats, labels, gamma_inner=gamma)
    assert cp.ell_g == pytest.approx(1.0 + gamma * cp.L_base)
    assert cp.L_g == pytest.approx(2.0 * gamma * cp.L_base)
    rng = substream(55, 2, 4)
    comp = cp.inner[0][0]
    a = feats[0][0]
    for _ in range(10_000):
        x = 3.0 * rng.standard_normal(3)
        y = 3.0 * rng.standard_normal(3)
        # value map: ||g(x) - g(y)|| <= ell_g ||x - y||
        lhs = np.linalg.norm(comp.value(x) - comp.value(y))
        assert lhs <= cp.ell_g * np.linalg.norm(x - y) * (1 + 1e-12)
        # Jacobian map: J(x) - J(y) = -gamma (s_x(1-s_x) - s_y(1-s_y)) a a^T,
        # whose spectral norm is gamma |ds| ||a||^2 <= L_g
        from scipy.special import expit

        b = float(labels[0][0])
        sx = expit(-b * (a @ x))
        sy = expit(-b * (a @ y))
        op_norm = gamma * abs(sx * (1 - sx) - sy * (1 - sy)) * float(a @ a)
        assert op_norm <= cp.L_g * (1 + 1e-12)


# ---------------------------------------------------------------------------
# component variances


def test_sigmas_zero_for_identical_components():
    G = ((1.0, 0.0), (0.0, 1.0))
    cp = make_toy_composite(
        inner_matrices=(G, G, G),
        outer_coeffs=(1.0, 1.0),
        outer_centers=((0.5, 0.0), (0.5, 0.0)),
    )
    s_g, s_dg, s_F = measure_composite_sigmas(cp, [np.array([0.3, -0.2])], safety=1.0)
    assert s_g == 0.0 and s_dg == 0.0 and s_F == 0.0


def test_sigma_g_two_point_constant_shift():
    # two inner maps differing by a constant vector c: the uniform one-point
    # variance is exactly ||c/2||^2
    c = np.array([0.6, -0.8])

    def shifted(offset):
        return InnerComponent(value=lambda x, o=offset: x + o,
                              jac_t_vec=lambda x, u: u)

    outer = OuterComponent(value=lambda z: float(z @ z), grad=lambda z: 2.0 * z)
    cp = CompositeProblem(
        inner=((shifted(np.zeros(2)), shifted(c)),),
        outer=((outer,),),
        dimension=2,
        inner_dimension=2,
        ell_g=1.0, L_g=0.0, ell_F=10.0, L_F=2.0,
    )
    s_g, s_dg, _ = measure_composite_sigmas(cp, [np.zeros(2)], safety=1.0)
    assert s_g == pytest.approx(float(c @ c) / 4.0)
    assert s_dg == 0.0


def test_sigmas_deterministic_and_stable():
    feats, labels = make_synthetic_classification(3, 2, 5, seed=13)
    cp = make_maml(feats, labels, gamma_inner=0.2)
    pts_a = [substream(56, 2, j).standard_normal(3) for j in range(6)]
    # enumeration has no sampling noise: repeat measurement is exactly equal
    assert measure_composite_sigmas(cp, pts_a) == measure_composite_sigmas(cp, pts_a)
    # across a different probe set the values stay finite and same-order
    pts_b = [substream(57, 2, j).standard_normal(3) for j in range(6)]
    sa = measure_composite_sigmas(cp, pts_a)
    sb = measure_composite_sigmas(cp, pts_b)
    for va, vb in zip(sa, sb):
        assert np.isfinite(va) and va > 0
        assert va == pytest.approx(vb, rel=0.7)


def test_composite_from_dict_maml():
    cp = composite_from_dict(
        {"kind": "maml", "dimension": 3, "n_workers": 2, "m": 4,
         "seed": 1, "gamma_inner": 0.1}
    )
    assert cp.kind == "maml"
    assert cp.n_workers == 2 and cp.m_g == 4
    assert cp.L == pytest.approx(cp.L_g * cp.ell_F + cp.ell_g**2 * cp.L_F)


def test_composite_from_dict_toy_defaults():
    cp = composite_from_dict({"kind": "composite_toy", "n_workers": 3})
    assert cp.n_workers == 3
    assert cp.dimension == 2
