"""Problem suite: gradients, certificates, worker decomposition, noise model."""

import dataclasses
import math

import numpy as np
import pytest

from biased_momentum import (
    ConfigurationError,
    DataError,
    EstimatorSpec,
    NoiseSpec,
    full_gradient,
    make_logistic_l2,
    make_maml,
    make_nonconvex_reg,
    make_quadratic,
    make_synthetic_classification,
    make_toy_composite,
    problem_from_dict,
)
from biased_momentum.problems import Problem, _sigmoid, as_point_stack, exact_gradient
from biased_momentum.rng import substream

from _oracles import (
    charpoly_extremes,
    fd_gradient,
    power_iteration_extremes,
    reference_f,
    reference_full_gradient,
    reference_worker_grad,
    worker_estimate,
)


# ---------------------------------------------------------------------------
# quadratic


def test_quadratic_identity_matrix():
    p = make_quadratic(np.eye(10))
    assert p.L == pytest.approx(1.0)
    assert p.mu == pytest.approx(1.0)
    assert p.f_star == 0.0
    x = np.arange(10.0)
    assert p.f(x) == pytest.approx(0.5 * np.sum(x**2))
    np.testing.assert_allclose(full_gradient(p, x), x)


def test_quadratic_diagonal_case():
    p = make_quadratic(np.diag([1.0, 2.0]))
    x = np.array([1.0, 1.0])
    assert p.f(x) == pytest.approx(2.5)
    np.testing.assert_allclose(full_gradient(p, x), [1.0, 4.0])
    assert p.L == pytest.approx(4.0)
    assert p.mu == pytest.approx(1.0)


def test_quadratic_eigen_constants_dual_oracle():
    # the library uses eigvalsh; cross-check with power iteration AND the
    # characteristic polynomial of the 10x10 Gram matrix
    rng = substream(7, 3, 0)
    A = rng.standard_normal((10, 10))
    p = make_quadratic(A, n_workers=2)
    gram = A.T @ A
    pmax, pmin = power_iteration_extremes(gram)
    cmax, cmin = charpoly_extremes(gram)
    assert abs(pmax - cmax) < 1e-8 * max(1.0, abs(pmax))
    assert abs(pmin - cmin) < 1e-6 * max(1.0, abs(pmax))
    assert p.L == pytest.approx(pmax, rel=1e-8)
    assert p.mu == pytest.approx(pmin, rel=1e-6, abs=1e-8)


def test_quadratic_spectrum_spec():
    spec = np.linspace(0.5, 2.0, 6)
    p = make_quadratic(spectrum=spec, n_workers=3, seed=5)
    assert p.L == pytest.approx(2.0)
    assert p.mu == pytest.approx(0.5)
    eigs = np.linalg.eigvalsh(p.A.T @ p.A)
    np.testing.assert_allclose(eigs, spec, rtol=1e-10)


def test_quadratic_nonsquare_needs_flag():
    A = np.ones((4, 2))
    with pytest.raises(ConfigurationError):
        make_quadratic(A)
    p = make_quadratic(A, least_squares=True)
    assert p.dimension == 2


def test_quadratic_worker_decomposition_reconstructs():
    rng = substream(3, 3, 1)
    A = rng.standard_normal((12, 6))
    p = make_quadratic(A, n_workers=5, least_squares=True)
    x = rng.standard_normal(6)
    # average of the f_i = (n/2)||A_i x||^2 equals the global objective
    fi = [0.5 * p.n_workers * float(np.sum((Ai @ x) ** 2)) for Ai in p.blocks]
    assert np.mean(fi) == pytest.approx(p.f(x), rel=1e-12)
    np.testing.assert_allclose(full_gradient(p, x), A.T @ (A @ x), rtol=1e-10)


# ---------------------------------------------------------------------------
# logistic with l2


def test_logistic_zero_feature_gives_pure_regularizer():
    feats = (np.zeros((1, 4)),)
    labels = (np.array([1.0]),)
    p = make_logistic_l2(feats, labels, lam=1.0)
    x = np.array([0.3, -0.2, 0.0, 1.0])
    np.testing.assert_allclose(p.worker_grads(x)[0], x)


def test_logistic_value_at_origin_is_log2():
    feats, labels = make_synthetic_classification(5, 3, 8, seed=2)
    p = make_logistic_l2(feats, labels, lam=0.5)
    assert p.f(np.zeros(5)) == pytest.approx(np.log(2.0))


def test_logistic_gradient_matches_finite_differences():
    feats, labels = make_synthetic_classification(5, 4, 20, seed=3)
    p = make_logistic_l2(feats, labels, lam=0.3)
    rng = substream(3, 3, 2)
    for _ in range(5):
        x = rng.standard_normal(5)
        ga = full_gradient(p, x)
        gn = fd_gradient(p.f, x)
        assert np.linalg.norm(ga - gn) <= 1e-5 * max(1.0, np.linalg.norm(gn))


def test_logistic_rejects_bad_labels():
    with pytest.raises(DataError):
        make_logistic_l2((np.ones((2, 2)),), (np.array([1.0, 0.0]),), lam=1.0)
    with pytest.raises(ConfigurationError):
        make_logistic_l2((np.ones((2, 2)),), (np.array([1.0, -1.0]),), lam=0.0)


# ---------------------------------------------------------------------------
# non-convex regularizer


def test_nonconvex_reg_at_origin():
    feats, labels = make_synthetic_classification(3, 2, 5, seed=4)
    p = make_nonconvex_reg(feats, labels, lam_nc=1.0)
    assert p._reg_value(np.zeros(3)) == 0.0
    np.testing.assert_array_equal(p._reg_grad(np.zeros(3)), np.zeros(3))


def test_nonconvex_reg_scalar_case():
    feats, labels = make_synthetic_classification(1, 1, 3, seed=4)
    p = make_nonconvex_reg(feats, labels, lam_nc=1.0)
    x = np.array([1.0])
    assert p._reg_value(x) == pytest.approx(0.5)
    assert p._reg_grad(x)[0] == pytest.approx(0.5)  # 2x/(1+x^2)^2 at x=1
    assert p.mu == 0.0


def test_nonconvex_reg_gradient_matches_finite_differences():
    feats, labels = make_synthetic_classification(4, 3, 10, seed=5)
    p = make_nonconvex_reg(feats, labels, lam_nc=0.7)
    rng = substream(5, 3, 3)
    for _ in range(5):
        x = rng.standard_normal(4)
        ga = full_gradient(p, x)
        gn = fd_gradient(p.f, x)
        assert np.linalg.norm(ga - gn) <= 1e-5 * max(1.0, np.linalg.norm(gn))


# ---------------------------------------------------------------------------
# aggregation + noise


def test_sigmoid_is_warning_free_bounded_and_odd_about_one_half():
    # filterwarnings = "error" turns any overflow or invalid-value warning into a failure
    t = np.array([-np.inf, -1000.0, 0.0, 1000.0, np.inf])
    s = _sigmoid(t)
    assert np.all((0.0 <= s) & (s <= 1.0))
    np.testing.assert_array_equal(_sigmoid(-t), 1.0 - s)
    np.testing.assert_array_equal(s, [0.0, 0.0, 0.5, 1.0, 1.0])
    grid = np.linspace(-30.0, 30.0, 6001)
    want = np.array([1.0 / (1.0 + math.exp(-v)) for v in grid])
    np.testing.assert_allclose(_sigmoid(grid), want, rtol=1e-15, atol=0.0)


def test_full_gradient_equals_pairwise_worker_average_bitwise():
    feats, labels = make_synthetic_classification(6, 5, 7, seed=6)
    p = make_logistic_l2(feats, labels, lam=0.2)
    x = substream(6, 3, 4).standard_normal(6)
    manual = reference_full_gradient(p, x)
    np.testing.assert_array_equal(full_gradient(p, x), manual)


def _oracle_problems():
    """One problem of every kind, including least-squares and one-worker
    quadratics and a logistic instance large enough that a matrix-matrix
    product rounds differently from stacked matrix-vector products."""
    ls_rows = substream(8, 3, 0).standard_normal((9, 4))
    return {
        "quadratic": make_quadratic(spectrum=np.linspace(0.5, 2.0, 6), n_workers=3, seed=2),
        "quadratic-n1": make_quadratic(spectrum=np.linspace(0.1, 1.0, 5), seed=3),
        "least-squares": make_quadratic(ls_rows, n_workers=2, least_squares=True),
        "logistic_l2": make_logistic_l2(*make_synthetic_classification(50, 2, 300, seed=7), 0.3),
        "nonconvex_reg": make_nonconvex_reg(*make_synthetic_classification(7, 3, 11, seed=8), 0.6),
        "maml": make_maml(*make_synthetic_classification(4, 3, 6, seed=9), 0.2),
        "composite_toy": make_toy_composite(n_workers=2),
    }


def test_stacked_oracles_match_reference():
    # every row of f / worker_grads rounds like the per-vector closed form,
    # for stacks of one and three points and for one 1-D point
    for kind, p in _oracle_problems().items():
        rng = substream(12, 3, p.dimension)
        for x in (rng.standard_normal((1, p.dimension)), rng.standard_normal((3, p.dimension)),
                  rng.standard_normal(p.dimension)):
            rows = np.reshape(x, (-1, p.dimension))
            f, grads = p.f(x), p.worker_grads(x)
            assert isinstance(f, float) if x.ndim == 1 else f.shape == x.shape[:-1], kind
            assert grads.shape == x.shape[:-1] + (p.n_workers, p.dimension), kind
            f, grads = np.reshape(f, -1), np.reshape(grads, (-1, p.n_workers, p.dimension))
            for t, row in enumerate(rows):
                assert f[t] == reference_f(p, row), (kind, t)
                for i in range(p.n_workers):
                    np.testing.assert_array_equal(grads[t, i], reference_worker_grad(p, i, row),
                                                  err_msg=f"{kind} row {t} worker {i}")


@pytest.mark.parametrize("kind", list(_oracle_problems()))
def test_table_reads_are_the_oracles_bitwise(kind):
    # f and the exact gradient read off a table are the oracles' bits, at one
    # point and on a (T, c, d) stack laid out as the engine's observation
    # reads it: the iterates of a block without its last, a strided view
    p = _oracle_problems()[kind]
    rng = substream(13, 3, p.dimension)
    for x in (rng.standard_normal(p.dimension),
              rng.standard_normal((3, 5, p.dimension))[:, :-1]):
        table = p.table(x)
        assert np.asarray(p.table_f(table, x)).tobytes() == np.asarray(p.f(x)).tobytes()
        assert exact_gradient(p, table).tobytes() == full_gradient(p, x).tobytes()


SHARED_FIELDS = {"n_workers", "dimension", "mu", "f_star", "source"}


@pytest.mark.parametrize("name,kind", [
    ("quadratic", "quadratic"), ("logistic_l2", "logistic_l2"),
    ("nonconvex_reg", "nonconvex_reg_classification"), ("maml", "maml"),
    ("composite_toy", "composite_toy"),
])
def test_kind_is_a_class_constant_no_constructor_takes(name, kind):
    # every family names itself in its class; the fields all kinds share are
    # declared once, on Problem, and rebuild the problem by keyword
    p = _oracle_problems()[name]
    init = {f.name: getattr(p, f.name) for f in dataclasses.fields(p) if f.init}
    assert p.kind == type(p).kind == type(p)(**init).kind == kind
    assert SHARED_FIELDS <= set(init)
    for cls in type(p).__mro__:
        if cls is not Problem:
            assert not SHARED_FIELDS & set(vars(cls).get("__annotations__", ())), cls
    with pytest.raises(TypeError, match="kind"):
        type(p)(**init, kind=kind)


@pytest.mark.parametrize("d,n", [(10, 3), (7, 4), (11, 8), (5, 3), (8, 4)])
def test_quadratic_worker_grads_of_uneven_blocks_match_reference(d, n):
    # blocks of one height are evaluated as one stack; each row and worker
    # still rounds bit for bit like its own A_i^T (A_i x)
    p = make_quadratic(spectrum=np.linspace(0.5, 2.0, d), n_workers=n, seed=d + n)
    assert len({len(b) for b in p.blocks}) == (1 if d % n == 0 else 2)
    rng = substream(13, 3, d, n)
    for shape in ((d,), (5, d), (2, 3, d)):
        x = rng.standard_normal(shape)
        grads = p.worker_grads(x)
        assert grads.shape == shape[:-1] + (n, d)
        for row in np.ndindex(shape[:-1]):
            for i in range(n):
                want = reference_worker_grad(p, i, x[row])
                assert grads[row + (i,)].tobytes() == want.tobytes(), (shape, row, i)


def test_full_gradient_of_a_stack_and_its_input_checks():
    # a (..., d) stack gives each point's gradient bit for bit; a wrong
    # dimension or a non-finite entry is refused, for one point or a stack
    p = make_maml(*make_synthetic_classification(4, 3, 6, seed=9), 0.2)
    xs = substream(14, 3, 0).standard_normal((2, 3, 4))
    got = full_gradient(p, xs)
    assert got.shape == (2, 3, 4)
    for row in np.ndindex(2, 3):
        np.testing.assert_array_equal(got[row], full_gradient(p, xs[row]))
    bad = xs.copy()
    bad[1, 2, 0] = np.nan
    for x in (np.zeros(3), np.zeros((2, 5)), np.array([0.0, np.inf, 0.0, 0.0]), bad):
        with pytest.raises(ConfigurationError):
            full_gradient(p, x)


def test_point_stack_boundary():
    # a list or a (P, d) array of points becomes one checked (P, d) stack;
    # no points, a wrong dimension or a non-finite entry is named
    pts = substream(15, 3, 0).standard_normal((3, 4))
    for given in (list(pts), pts, [tuple(x) for x in pts]):
        np.testing.assert_array_equal(as_point_stack(given, 4), pts)
    for empty in ([], np.empty((0, 4))):
        with pytest.raises(ConfigurationError, match="at least one sample point"):
            as_point_stack(empty, 4)
    with pytest.raises(ConfigurationError, match="dimension 3, expected 4"):
        as_point_stack([pts[0], pts[1, :3]], 4)
    with pytest.raises(ConfigurationError, match="non-finite"):
        as_point_stack([pts[0], np.array([0.0, np.nan, 0.0, 0.0])], 4)


def test_full_gradient_zero_at_designed_stationary_point():
    p = make_quadratic(np.eye(4), n_workers=2)
    np.testing.assert_array_equal(full_gradient(p, np.zeros(4)), np.zeros(4))


def test_worker_gradient_exact_when_noise_off():
    p = make_quadratic(np.eye(4), n_workers=2)
    x = np.array([1.0, -2.0, 0.5, 0.0])
    g = worker_estimate(p, 0, x, EstimatorSpec(), NoiseSpec(), rng=None)
    np.testing.assert_array_equal(g, reference_worker_grad(p, 0, x))


def test_worker_gradient_constant_offset_exact():
    p = make_quadratic(np.eye(4), n_workers=2)
    x = np.ones(4)
    g = worker_estimate(p, 1, x, EstimatorSpec(), NoiseSpec(delta_offset=0.25), rng=None)
    np.testing.assert_allclose(g, reference_worker_grad(p, 1, x) + 0.25, rtol=0, atol=0)


def test_worker_gradient_gaussian_mean():
    # empirical mean over 1e5 draws within 4 sigma / sqrt(1e5) per coordinate
    p = make_quadratic(np.eye(3), n_workers=1)
    x = np.array([0.5, -1.0, 2.0])
    noise = NoiseSpec(sigma2=0.04, delta_offset=0.1)
    rng = substream(9, 2, 0)
    n = 100_000
    acc = np.zeros(3)
    for _ in range(n):
        acc += worker_estimate(p, 0, x, EstimatorSpec(), noise, rng)
    mean = acc / n
    expected = reference_worker_grad(p, 0, x) + 0.1
    tol = 4 * np.sqrt(0.04) / np.sqrt(n)
    assert np.all(np.abs(mean - expected) < tol)


def test_worker_gradient_invalid_index():
    p = make_quadratic(np.eye(3), n_workers=1)
    with pytest.raises(ConfigurationError):
        worker_estimate(p, 3, np.zeros(3), EstimatorSpec())


def test_noise_spec_vector_offset_and_validation():
    spec = NoiseSpec(delta_offset=[0.1, 0.2])
    np.testing.assert_allclose(spec.offset_vector(2), [0.1, 0.2])
    assert not spec.is_null
    with pytest.raises(ConfigurationError):
        spec.offset_vector(3)
    with pytest.raises(ConfigurationError):
        NoiseSpec(sigma2=-1.0)


def test_worker_gradient_vector_offset():
    p = make_quadratic(np.eye(2))
    x = np.array([1.0, -1.0])
    g = worker_estimate(
        p, 0, x, EstimatorSpec(), NoiseSpec(delta_offset=[0.1, -0.3]), rng=None
    )
    np.testing.assert_allclose(g, reference_worker_grad(p, 0, x) + np.array([0.1, -0.3]))


# ---------------------------------------------------------------------------
# certificates (smoothness + PL) on random pairs


@pytest.mark.parametrize("builder", ["quadratic", "logistic", "nonconvex"])
def test_smoothness_certificate(builder):
    if builder == "quadratic":
        p = make_quadratic(spectrum=np.linspace(0.5, 3.0, 8), seed=1, n_workers=2)
    elif builder == "logistic":
        feats, labels = make_synthetic_classification(6, 3, 15, seed=1)
        p = make_logistic_l2(feats, labels, lam=0.4)
    else:
        feats, labels = make_synthetic_classification(6, 3, 15, seed=1)
        p = make_nonconvex_reg(feats, labels, lam_nc=0.6)
    rng = substream(11, 2, 1)
    for _ in range(10_000):
        x = rng.standard_normal(p.dimension)
        y = rng.standard_normal(p.dimension)
        lhs = np.linalg.norm(full_gradient(p, x) - full_gradient(p, y))
        assert lhs <= p.L * np.linalg.norm(x - y) * (1 + 1e-9)


@pytest.mark.parametrize("builder", ["quadratic", "logistic"])
def test_pl_certificate(builder):
    if builder == "quadratic":
        p = make_quadratic(spectrum=np.linspace(0.5, 3.0, 8), seed=2, n_workers=2)
        f_star = 0.0
    else:
        feats, labels = make_synthetic_classification(4, 2, 10, seed=2)
        p = make_logistic_l2(feats, labels, lam=0.5)
        # strongly convex; locate f* numerically for the certificate check
        from scipy.optimize import minimize

        res = minimize(p.f, np.zeros(4), jac=lambda x: full_gradient(p, x), tol=1e-14)
        f_star = res.fun
    assert p.mu > 0
    rng = substream(12, 2, 2)
    for _ in range(10_000):
        x = 2.0 * rng.standard_normal(p.dimension)
        g = full_gradient(p, x)
        assert float(g @ g) >= 2.0 * p.mu * (p.f(x) - f_star) - 1e-9


# ---------------------------------------------------------------------------
# JSON construction


def test_problem_from_dict_quadratic_spectrum():
    p = problem_from_dict(
        {"kind": "quadratic", "n_workers": 2, "seed": 7,
         "matrix": {"spectrum": [1.0, 2.0, 3.0]}}
    )
    assert p.kind == "quadratic"
    assert p.L == pytest.approx(3.0)
    assert p.source["seed"] == 7


def test_problem_from_dict_regenerates_same_data():
    spec = {"kind": "logistic_l2", "dimension": 4, "n_workers": 2, "m": 6,
            "seed": 3, "lambda": 0.5}
    p1 = problem_from_dict(spec)
    p2 = problem_from_dict(spec)
    for X1, X2 in zip(p1.features, p2.features):
        np.testing.assert_array_equal(X1, X2)


def test_problem_from_dict_errors():
    with pytest.raises(ConfigurationError):
        problem_from_dict({"kind": "nope"})
    with pytest.raises(ConfigurationError):
        problem_from_dict({"kind": "quadratic"})
    with pytest.raises(ConfigurationError):
        problem_from_dict({"kind": "logistic_l2", "dimension": 3})
