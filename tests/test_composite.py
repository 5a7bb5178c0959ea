"""Composite finite sums: chained gradients, subset statistics, meta-learning."""

import json
from dataclasses import dataclass
from itertools import combinations

import numpy as np
import pytest

from biased_momentum import (
    ConfigurationError,
    chained_gradient,
    make_maml,
    make_toy_composite,
    measure_composite_sigmas,
)
from biased_momentum import composite
from biased_momentum.audit import pilot_points
from biased_momentum.composite import CompositeProblem, _gather, composite_from_dict
from biased_momentum.engine import RunConfig, run_trials
from biased_momentum.harness import main
from biased_momentum.problems import (SAFETY, _sigmoid, make_synthetic_classification,
                                     problem_from_dict)
from biased_momentum.rng import substream

from _oracles import (
    enumerate_subset_means,
    fd_gradient,
    reference_chained_gradient,
    reference_composite_sigmas,
    reference_maml_rows,
    reference_worker_grad,
    reference_worker_value,
)


def _toy(n_workers=1):
    return make_toy_composite(n_workers=n_workers)


def _inner_average(cp, x, idx):
    """Each worker's average of its inner values on its set in idx, from the
    rows of the inner table at x gathered on the sets, (..., n, p)."""
    return np.mean(_gather(cp.inner_table(x), cp._sets(np.asarray(idx)))[0], axis=-2)


# ---------------------------------------------------------------------------
# subset averages


def test_inner_value_full_and_singleton():
    cp = _toy()
    x = np.array([1.0, 2.0])
    full = _inner_average(cp, x, range(cp.m_g))[0]
    mats = [np.array(G, dtype=float) for G in
            (((1, 0), (0, 1)), ((2, 1), (0, 1)), ((1, 1), (1, 0)))]
    np.testing.assert_array_equal(full, np.mean([G @ x for G in mats], axis=0))
    np.testing.assert_array_equal(_inner_average(cp, x, [1])[0], mats[1] @ x)
    # the estimates take no empty inner set
    with pytest.raises(ConfigurationError, match="empty inner"):
        chained_gradient(cp, x, [], range(cp.m_F))


def test_subset_enumeration_mean_is_exact():
    # integer data at an integer point: subset means average to the full
    # mean with no floating error at all
    cp = _toy()
    x = np.array([1.0, 2.0])
    table = cp.inner_table(x)
    values = list(table[0][0])
    full = np.mean(values, axis=0)
    for size in (1, 2, 3):
        means = enumerate_subset_means(values, size)
        np.testing.assert_array_equal(np.mean(means, axis=0), full)
    # same statement for the inner Jacobian action and the outer gradient
    # at a fixed inner point
    u = np.array([1.0, -1.0])
    jac_actions = list(cp.inner_jac_t_vecs(table[1:], np.arange(cp.m_g), u[None])[0])
    np.testing.assert_array_equal(
        np.mean(enumerate_subset_means(jac_actions, 2), axis=0),
        np.mean(jac_actions, axis=0),
    )
    z = np.array([2.0, 1.0])
    outer_grads = list(cp.outer_grads(z[None], np.arange(cp.m_F))[0])
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
    values = list(cp.inner_table(x)[0][0])
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
    chained = chained_gradient(cp, x, range(3), range(3))[0]
    assert np.linalg.norm(chained - closed) < 1e-12


def test_full_chained_matches_finite_differences():
    cp = _toy(n_workers=2)
    rng = substream(52, 2, 1)
    for _ in range(5):
        x = rng.uniform(-1.5, 1.5, size=2)
        ga = cp.worker_grads(x)[0]
        gn = fd_gradient(lambda y: reference_worker_value(cp, 0, y), x)
        assert np.linalg.norm(ga - gn) <= 1e-4 * max(1.0, np.linalg.norm(gn))


def test_maml_gradient_matches_finite_differences():
    feats, labels = make_synthetic_classification(3, 2, 4, seed=9)
    cp = make_maml(feats, labels, gamma_inner=0.2)
    rng = substream(53, 2, 2)
    for _ in range(5):
        x = rng.standard_normal(3)
        ga = cp.worker_grads(x)[1]
        gn = fd_gradient(lambda y: reference_worker_value(cp, 1, y), x)
        assert np.linalg.norm(ga - gn) <= 1e-4 * max(1.0, np.linalg.norm(gn))


@pytest.mark.parametrize("build", [
    pytest.param(lambda: make_maml(*make_synthetic_classification(5, 2, 8, seed=15), 0.2),
                 id="maml"),
    pytest.param(lambda: make_toy_composite(n_workers=2), id="toy"),
])
def test_exact_gradients_are_the_chained_gradient_on_full_sets(monkeypatch, build):
    # worker_grads chains the inner table as it stands, never through the
    # subset path, and rounds like it on the full sets
    cp = build()
    full_g, full_F = np.arange(cp.m_g), np.arange(cp.m_F)
    rng = substream(54, 2, 0)
    for x in (rng.standard_normal(cp.dimension), rng.standard_normal((3, cp.dimension))):
        want = chained_gradient(cp, x, full_g, full_F)
        with monkeypatch.context() as patch:
            for name in ("chained_gradient", "subset_gradients"):
                patch.setattr(composite, name, None)
            got = cp.worker_grads(x)
        assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("p", [1, 2, 3, 5])
def test_set_mean_is_numpys_mean_bit_for_bit(p):
    # the fold over the set axis rounds as np.mean does: in set order where
    # numpy reduces a non-contiguous axis, pairwise where the set axis is
    # contiguous (p = 1, which differs from a fold once k >= 8)
    rng = substream(55, 2, p)
    for k in range(1, 17):
        for lead in ((3, 2), (728, 2), (40, 3, 2)):
            shape = lead + (k, p)
            a = rng.standard_normal(shape) * 10.0 ** rng.uniform(-8, 8, shape)
            a[..., 0, :1] = -0.0
            assert composite._set_mean(a).tobytes() == np.mean(a, axis=-2).tobytes()


def test_chained_gradient_index_errors():
    cp = _toy()
    with pytest.raises(ConfigurationError):
        chained_gradient(cp, np.zeros(2), [0, 7], [0])


def test_chain_bias_is_real_for_partial_batches():
    # strictly convex nonlinear outer: the expectation of the subsampled
    # chain over all index draws must differ from the full gradient
    cp = _toy()
    x = np.array([0.9, 0.3])
    exact = reference_worker_grad(cp, 0, x)
    est_mean = np.zeros(2)
    count = 0
    for idx_g in combinations(range(cp.m_g), 1):
        for idx_f in combinations(range(cp.m_F), cp.m_F):
            est_mean += chained_gradient(cp, x, list(idx_g), list(idx_f))[0]
            count += 1
    est_mean /= count
    assert np.linalg.norm(est_mean - exact) > 1e-3


@pytest.mark.parametrize("build", [
    pytest.param(lambda: make_maml(*make_synthetic_classification(4, 3, 6, seed=14), 0.2),
                 id="maml"),
    pytest.param(lambda: make_toy_composite(n_workers=2), id="toy"),
])
@pytest.mark.parametrize("shared_x", [True, False], ids=["shared-x", "x-per-row"])
def test_worker_axis_block_matches_one_call_per_worker(build, shared_x):
    # a (B, n, k) block of different per-worker index sets gives, bit for
    # bit, worker i's row of one call on that worker's sets alone
    cp, B = build(), 5
    rng = substream(59, 2, int(shared_x))

    def block(m):
        return np.array([[rng.choice(m, size=2, replace=False) for _ in range(cp.n_workers)]
                         for _ in range(B)])

    idx_g, idx_f = block(cp.m_g), block(cp.m_F)
    x = rng.standard_normal(cp.dimension if shared_x else (B, cp.dimension))
    inner = _inner_average(cp, x, idx_g)
    chained = chained_gradient(cp, x, idx_g, idx_f)
    assert chained.shape == (B, cp.n_workers, cp.dimension)
    for b in range(B):
        xb = x if shared_x else x[b]
        for i in range(cp.n_workers):
            np.testing.assert_array_equal(inner[b, i], _inner_average(cp, xb, idx_g[b, i])[i])
            np.testing.assert_array_equal(
                chained[b, i], chained_gradient(cp, xb, idx_g[b, i], idx_f[b, i])[i])
    with pytest.raises(ConfigurationError, match="worker rows"):
        chained_gradient(cp, x, idx_g[:, :1], idx_f[:, :1])


# ---------------------------------------------------------------------------
# meta-learning construction


@pytest.mark.parametrize("d,m,gamma", [(1, 3, 0.3), (3, 4, 0.0), (5, 8, 0.1), (11, 6, 0.7)])
def test_maml_oracles_match_per_sample_reference(d, m, gamma):
    # each batched row rounds exactly like the sample evaluated on its own,
    # whichever other samples share the call; the action on the d unit
    # vectors (one (d, 1, d) block, broadcast over workers) is the dense
    # J^T column by column, bit for bit
    cp = make_maml(*make_synthetic_classification(d, 2, m, seed=d), gamma)
    rng = substream(58, 2, d)
    for _ in range(20):
        i = int(rng.integers(cp.n_workers))
        idx = rng.permutation(m)[: int(rng.integers(1, m + 1))]
        x, z, u = 2.0 * rng.standard_normal((3, d))
        want = reference_maml_rows(cp, i, x, z, u, idx)
        # idx is every worker's set; z and u are every worker's row
        zs, us = (np.broadcast_to(v, (cp.n_workers, d)) for v in (z, u))
        values, *rows = (a[:, idx] for a in cp.inner_table(x))
        units = np.eye(d)[:, None, :]
        got = [values[i], cp.inner_jac_t_vecs(rows, idx, us)[i],
               np.moveaxis(cp.inner_jac_t_vecs(rows, idx, units), 0, -1)[i],
               cp.outer_values(zs, idx)[i], cp.outer_grads(zs, idx)[i]]
        for g, w in zip(got, want):
            np.testing.assert_array_equal(g, w)
        np.testing.assert_allclose(got[2] @ u, got[1], rtol=0.0, atol=1e-12)


def test_maml_full_set_reads_its_arrays():
    # the 1-D full set reads features and labels themselves, with the bits of
    # the same set gathered per worker; a permuted full set still gathers
    cp = make_maml(*make_synthetic_classification(3, 2, 5, seed=13), 0.2)
    arrays, full, per_worker = (cp.features, cp.labels), np.arange(5), np.tile(np.arange(5), (2, 1))
    assert all(np.shares_memory(a, b) for a, b in zip(cp._rows(full), arrays))
    permuted = cp._rows(full[::-1])
    assert not any(np.shares_memory(a, b) for a, b in zip(permuted, arrays))
    np.testing.assert_array_equal(permuted[0], cp.features[:, ::-1])
    x, z, u = substream(59, 2, 0).standard_normal((3, 2, 3))  # z, u: one row per worker
    rows = cp.inner_table(x[0])[1:]

    def oracles(idx):
        return cp.inner_jac_t_vecs(rows, idx, u), cp.outer_values(z, idx), cp.outer_grads(z, idx)

    for got, want in zip(oracles(full), oracles(per_worker)):
        np.testing.assert_array_equal(got, want)


def test_maml_zero_inner_step_reduces_to_finite_sum():
    feats, labels = make_synthetic_classification(4, 2, 5, seed=10)
    cp = make_maml(feats, labels, gamma_inner=0.0)
    x = substream(54, 2, 3).standard_normal(4)
    plain = np.mean(cp.outer_grads(np.broadcast_to(x, (cp.n_workers, 4)), np.arange(cp.m_F))[0],
                    axis=0)
    np.testing.assert_allclose(cp.worker_grads(x)[0], plain, atol=1e-14)
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
    a = feats[0][0]
    for _ in range(10_000):
        x = 3.0 * rng.standard_normal(3)
        y = 3.0 * rng.standard_normal(3)
        # value map: ||g(x) - g(y)|| <= ell_g ||x - y||
        gx, gy = cp.inner_table(x)[0][0, 0], cp.inner_table(y)[0][0, 0]
        lhs = np.linalg.norm(gx - gy)
        assert lhs <= cp.ell_g * np.linalg.norm(x - y) * (1 + 1e-12)
        # Jacobian map: J(x) - J(y) = -gamma (s_x(1-s_x) - s_y(1-s_y)) a a^T,
        # whose spectral norm is gamma |ds| ||a||^2 <= L_g
        b = float(labels[0][0])
        sx = _sigmoid(-b * (a @ x))
        sy = _sigmoid(-b * (a @ y))
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
    s_g, s_dg, s_F = measure_composite_sigmas(cp, [np.array([0.3, -0.2])])
    assert s_g == 0.0 and s_dg == 0.0 and s_F == 0.0


@dataclass(frozen=True, kw_only=True)
class _ShiftedIdentity(CompositeProblem):
    """g_j(x) = x + offsets[j] and one outer F(z) = ||z||^2."""

    kind = "shifted_identity"
    offsets: np.ndarray

    def inner_table(self, x):
        return (x[..., None, None, :] + self.offsets[self._sets(np.arange(self.m_g))],)

    def inner_jac_t_vecs(self, rows, idx, u):
        return u[..., None, :] * np.ones(self._sets(idx).shape)[..., None]

    def outer_grads(self, z, idx):
        return np.broadcast_to(2.0 * z[..., None, :], z.shape[:-1] + (idx.shape[-1], z.shape[-1]))


def test_sigma_g_two_point_constant_shift():
    # two inner maps differing by a constant vector c: the uniform one-point
    # variance is exactly ||c/2||^2
    c = np.array([0.6, -0.8])
    cp = _ShiftedIdentity(
        offsets=np.stack([np.zeros(2), c]),
        n_workers=1, m_g=2, m_F=1,
        dimension=2,
        inner_dimension=2,
        ell_g=1.0, L_g=0.0, ell_F=10.0, L_F=2.0,
    )
    s_g, s_dg, _ = measure_composite_sigmas(cp, [np.zeros(2)])
    assert s_g == pytest.approx(SAFETY * (float(c @ c) / 4.0))
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


@pytest.mark.parametrize("spec", [{"kind": "composite_toy", "n_workers": 2},
                                  {"kind": "maml", "dimension": 3, "m": 4, "gamma_inner": 0.1}])
def test_composite_kind_round_trips(spec):
    # a problem reports the kind it was built from, and the config echo
    # rebuilds it under that kind
    p = problem_from_dict(spec)
    assert p.kind == spec["kind"]
    cfg = RunConfig(problem=p, gamma=0.1, beta=0.5, iterations=1)
    assert RunConfig.from_dict(json.loads(json.dumps(cfg.to_dict()))).problem.kind == p.kind


def test_composite_finite_sum_is_no_problem_kind(tmp_path, capsys):
    with pytest.raises(ConfigurationError, match="unknown composite kind 'composite_finite_sum'"):
        composite_from_dict({"kind": "composite_finite_sum"})
    doc = {"problem": {"kind": "composite_finite_sum"}, "gamma": 0.1, "beta": 0.5,
           "iterations": 2, "estimator": {"kind": "composite", "S_g": 1, "S_F": 1}}
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(doc))
    assert main(["verify", str(path)]) == 2
    assert "composite_finite_sum" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# stacked paths against the per-point and per-set references


def _maml_preset(presets_dir):
    cfg = RunConfig.from_dict(json.loads((presets_dir / "maml_composite.json").read_text()))
    return cfg.problem, pilot_points(run_trials(cfg))


def test_sigmas_match_per_point_reference_on_maml_preset(presets_dir):
    # the stacked measurement equals the per-point loop bit for bit, on the
    # preset's 20 pilot points (as a list and as an array), one and two of them
    cp, points = _maml_preset(presets_dir)
    assert len(points) == 20
    for pts in (points, points[:1], points[:2], points[5:7]):
        assert measure_composite_sigmas(cp, pts) == reference_composite_sigmas(cp, pts)
    assert measure_composite_sigmas(cp, np.array(points)) == reference_composite_sigmas(cp, points)


@pytest.mark.parametrize("build,identical", [
    pytest.param(lambda: make_maml(*make_synthetic_classification(1, 2, 3, seed=16), 0.4), False,
                 id="maml-d1"),
    pytest.param(lambda: make_maml(*make_synthetic_classification(4, 3, 6, seed=17), 0.2), False,
                 id="maml-d4"),
    pytest.param(lambda: make_toy_composite(n_workers=2), False, id="toy"),
    pytest.param(lambda: make_toy_composite(inner_matrices=(((1.0, 0.0), (0.0, 1.0)),) * 3,
                                            outer_coeffs=(1.0, 1.0),
                                            outer_centers=((0.5, 0.0), (0.5, 0.0))), True,
                 id="toy-identical"),
])
def test_sigmas_match_per_point_reference(build, identical):
    cp = build()
    rng = substream(60, 2, cp.dimension)
    points = list(1.5 * rng.standard_normal((7, cp.dimension)))
    for pts in (points, points[:1], points[3:5]):
        got = measure_composite_sigmas(cp, pts)
        assert got == reference_composite_sigmas(cp, pts)
        assert (got == (0.0, 0.0, 0.0)) == identical  # identical components give exactly 0.0


@pytest.mark.parametrize("build", [
    pytest.param(lambda: make_maml(*make_synthetic_classification(5, 2, 8, seed=18), 0.1),
                 id="maml"),
    pytest.param(lambda: make_toy_composite(n_workers=3), id="toy"),
])
@pytest.mark.parametrize("shared_x", [True, False], ids=["shared-x", "x-per-row"])
def test_chained_gradient_matches_reference_set_by_set(build, shared_x):
    # every (row, worker) of a gathered block equals the one-component-at-a-
    # time chain rule on that worker's sets: sizes 1 and m, and the same
    # sets repeated across rows and workers
    cp, B = build(), 6
    rng = substream(61, 2, int(shared_x))
    m_g, m_F, n = cp.m_g, cp.m_F, cp.n_workers
    for s_g, s_f in ((1, 1), (m_g, m_F), (2, m_F), (m_g, 1)):
        idx_g = np.sort(rng.permuted(np.tile(np.arange(m_g), (B, n, 1)), axis=-1)[..., :s_g])
        idx_f = np.sort(rng.permuted(np.tile(np.arange(m_F), (B, n, 1)), axis=-1)[..., :s_f])
        idx_g[1], idx_f[1] = idx_g[0], idx_f[0]  # a repeated row of sets
        idx_g[2, :], idx_f[2, :] = idx_g[2, 0], idx_f[2, 0]  # every worker's set the same
        x = rng.standard_normal(cp.dimension if shared_x else (B, cp.dimension))
        got = chained_gradient(cp, x, idx_g, idx_f)
        for b in range(B):
            xb = x if shared_x else x[b]
            for i in range(n):
                want = reference_chained_gradient(cp, i, xb, idx_g[b, i], idx_f[b, i])
                np.testing.assert_array_equal(got[b, i], want, err_msg=f"S={s_g},{s_f} {b} {i}")
