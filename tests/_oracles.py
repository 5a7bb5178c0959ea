"""Independent oracles used by the test suite.

These deliberately avoid the library code paths they are used to check:
finite differences instead of analytic gradients, power iteration and the
characteristic polynomial instead of eigvalsh, hand-rolled SGD and momentum
loops (one trial, each worker reading its own fresh ``SeedSequence``
streams one iteration at a time) instead of the trial-batched engine, one
sample at a time instead of the batched composite oracles, one point and
one worker at a time (closed forms, reduced with a list-walking pairwise
tree) instead of the stacked problem oracles, the composite component
variances one point and one worker at a time instead of over a stack of
points, and one vector per worker per draw (with its own operators, noise
and subsampling) instead of the batched estimator stacks.

``worker_estimate`` is the exception: it is row i of a one-draw stack of
the library's own operators (``apply_estimator``, or ``chained_gradient``
for the composite kind), in which worker i reads the given stream, kept
here as a test accessor.

The closed forms use the library's ``_sigmoid``, so the reference loops
round as the library does; test_problems checks it against its formula.
"""

import math
from itertools import combinations

import numpy as np

from biased_momentum.composite import MamlProblem, ToyCompositeProblem, chained_gradient
from biased_momentum.engine import DIVERGENCE_F_MAX
from biased_momentum.errors import ConfigurationError
from biased_momentum.estimators import apply_estimator
from biased_momentum.problems import (SAFETY, LogisticL2Problem, QuadraticProblem, _sigmoid,
                                     as_param_vector)
from biased_momentum.rng import STREAM_SUBSET, STREAM_WORKER, substream
from biased_momentum.theory import analysis_regime, lyapunov_weight


def worker_stream(seed, trial, worker):
    """The generator worker ``worker`` of ``trial`` draws its Gaussian noise
    from, one d-vector per iteration, built from a fresh ``SeedSequence``."""
    return substream(seed, STREAM_WORKER, trial, worker)


def subset_stream(seed, trial, worker):
    """The generator worker ``worker`` of ``trial`` draws its composite
    subset keys from, m_g + m_F uniforms per iteration."""
    return substream(seed, STREAM_SUBSET, trial, worker)


def reference_pairwise_mean(vectors):
    """Mean of a list of vectors, summed as ((v0+v1)+(v2+v3))+... with an
    odd one out carried to the next level."""
    vs = [np.asarray(v) for v in vectors]
    count = len(vs)
    while len(vs) > 1:
        nxt = [vs[j] + vs[j + 1] for j in range(0, len(vs) - 1, 2)]
        if len(vs) % 2:
            nxt.append(vs[-1])
        vs = nxt
    return vs[0] / count


def reference_worker_value(p, i, x):
    """f_i(x) of one worker at one point, by its closed form (not for the
    quadratic, whose f has one)."""
    if isinstance(p, MamlProblem):
        pts = [point_logistic(p.features[i][j], float(p.labels[i][j])) for j in range(p.m_g)]
        z = np.mean([x - p.gamma_inner * pt[1](x) for pt in pts], axis=0)
        return float(np.mean([pt[0](z) for pt in pts]))
    if isinstance(p, ToyCompositeProblem):
        z = np.mean([G @ x for G in p.G], axis=0)
        return float(np.mean([c * np.sum((z - r) ** 4) for c, r in zip(p.coeffs, p.centers)]))
    z = p.labels[i] * (p.features[i] @ x)
    loss = float(np.mean(np.logaddexp(0.0, -z)))
    if isinstance(p, LogisticL2Problem):
        return loss + 0.5 * p.lam * float(x @ x)
    return loss + p.lam_nc * float(np.sum(x**2 / (1.0 + x**2)))


class UnboundedQuadratic(QuadraticProblem):
    """A quadratic whose f is -inf wherever x_0 < -1."""

    def f(self, x):
        return np.where(x[..., 0] < -1.0, -np.inf, super().f(x))


def reference_f(p, x):
    """f(x) at one point: 0.5 ||A x||^2 for the quadratic (-inf where an
    UnboundedQuadratic's x_0 < -1), else the pairwise mean of the worker
    values."""
    if isinstance(p, UnboundedQuadratic) and x[0] < -1.0:
        return -math.inf
    if isinstance(p, QuadraticProblem):
        r = p.A @ x
        return 0.5 * float(r @ r)
    return float(reference_pairwise_mean([reference_worker_value(p, i, x)
                                          for i in range(p.n_workers)]))


def reference_worker_grad(p, i, x):
    """grad f_i(x) of one worker at one point, by its closed form."""
    if isinstance(p, QuadraticProblem):
        Ai = p.blocks[i]
        return p.n_workers * (Ai.T @ (Ai @ x))
    if isinstance(p, (MamlProblem, ToyCompositeProblem)):
        return reference_chained_gradient(p, i, x, range(p.m_g), range(p.m_F))
    F, b = p.features[i], p.labels[i]
    grad = F.T @ (-b * _sigmoid(-b * (F @ x))) / F.shape[0]
    if isinstance(p, LogisticL2Problem):
        return grad + p.lam * x
    return grad + p.lam_nc * 2.0 * x / (1.0 + x**2) ** 2


def reference_full_gradient(p, x):
    """The pairwise mean of the worker gradients at one point."""
    return reference_pairwise_mean([reference_worker_grad(p, i, x) for i in range(p.n_workers)])


def fd_gradient(f, x, h=None):
    """Central-difference gradient of a scalar function."""
    x = np.asarray(x, dtype=np.float64)
    if h is None:
        h = 1e-6 * max(1.0, float(np.linalg.norm(x)))
    g = np.empty_like(x)
    e = np.zeros_like(x)
    for i in range(x.size):
        e[i] = h
        g[i] = (f(x + e) - f(x - e)) / (2.0 * h)
        e[i] = 0.0
    return g


def power_iteration_lmax(G, iters=5000, seed=11):
    """Largest eigenvalue of a symmetric PSD matrix via power iteration."""
    rng = np.random.default_rng(seed)
    v = rng.standard_normal(G.shape[0])
    v /= np.linalg.norm(v)
    lam = 0.0
    for _ in range(iters):
        w = G @ v
        lam = float(v @ w)
        nw = np.linalg.norm(w)
        if nw == 0:
            return 0.0
        v = w / nw
    return lam


def power_iteration_extremes(G, iters=5000):
    """(lambda_max, lambda_min) of symmetric PSD G by shifted power iteration."""
    lmax = power_iteration_lmax(G, iters)
    shifted = lmax * np.eye(G.shape[0]) - G
    lmin = lmax - power_iteration_lmax(shifted, iters, seed=13)
    return lmax, lmin


def charpoly_extremes(G):
    """Extreme eigenvalues from the roots of the characteristic polynomial."""
    roots = np.roots(np.poly(G))
    real = np.real(roots[np.abs(np.imag(roots)) < 1e-6 * max(1.0, np.max(np.abs(roots)))])
    return float(np.max(real)), float(np.min(real))


def reference_top_k(g, k):
    """Top-k of one vector: ranks by (-|g_j|, j), so ties keep the lower index."""
    keep = sorted(range(g.size), key=lambda j: (-abs(g[j]), j))[:k]
    out = np.zeros(g.size)
    out[keep] = g[keep]
    return out


def reference_scaled_sign(g):
    return (np.sum(np.abs(g)) / g.size) * np.sign(g)


def reference_clip(g, tau):
    norm = np.linalg.norm(g)
    return g.copy() if norm <= tau else (tau / norm) * g


def reference_noise(g, noise, rng):
    """g + (offset + one N(0, sigma2) vector drawn from rng); g when null."""
    if noise is None:
        return g
    offset = np.broadcast_to(np.asarray(noise.delta_offset, dtype=np.float64), g.shape)
    if noise.sigma2 > 0:
        return g + (offset + rng.normal(0.0, np.sqrt(noise.sigma2), size=g.size))
    return g + offset if np.any(offset != 0.0) else g


def reference_chained_gradient(cp, i, x, idx_g, idx_f):
    """Subsampled chain-rule gradient, one component at a time: the closed
    forms of point_logistic for MAML, the matrices G_j for the toy."""
    if isinstance(cp, MamlProblem):
        pts = [point_logistic(cp.features[i][j], float(cp.labels[i][j])) for j in range(cp.m_g)]
        z = np.mean([x - cp.gamma_inner * pts[j][1](x) for j in idx_g], axis=0)
        w = np.mean([pts[j][1](z) for j in idx_f], axis=0)
        return np.mean([w - cp.gamma_inner * pts[j][2](x, w) for j in idx_g], axis=0)
    z = np.mean([cp.G[j] @ x for j in idx_g], axis=0)
    w = np.mean([4.0 * cp.coeffs[j] * (z - cp.centers[j]) ** 3 for j in idx_f], axis=0)
    return np.mean([cp.G[j].T @ w for j in idx_g], axis=0)


def reference_subset(keys, size):
    """The indices of the ``size`` smallest keys, in increasing order (ties
    keep the lower index)."""
    return sorted(sorted(range(len(keys)), key=lambda j: keys[j])[:size])


def reference_transmission(problem, i, x, spec, noise, rng, keys=None):
    """What worker i sends for one draw: noise (read from rng) then the
    operator, or (composite) the inner and outer sets picked by the m_g + m_F
    uniform keys, the chained gradient, then noise."""
    if spec.kind == "composite":
        idx_g = reference_subset(keys[:problem.m_g], spec.s_g)
        idx_f = reference_subset(keys[problem.m_g:], spec.s_f)
        return reference_noise(reference_chained_gradient(problem, i, x, idx_g, idx_f), noise, rng)
    g = reference_noise(reference_worker_grad(problem, i, x), noise, rng)
    if spec.kind == "top_k":
        return reference_top_k(g, spec.k)
    if spec.kind == "scaled_sign":
        return reference_scaled_sign(g)
    if spec.kind == "clip":
        return reference_clip(g, spec.tau)
    return g


def scaled_sign_alpha(g):
    """Per-input contraction ||g||_1^2 / (d ||g||^2) of scaled sign; worst case is 1/d."""
    g = np.asarray(g, dtype=np.float64)
    sq = float(g @ g)
    if sq == 0.0:
        return 1.0
    return float(np.sum(np.abs(g))) ** 2 / (g.size * sq)


def worker_estimate(p, i, x, spec, noise=None, rng=None):
    """What worker i transmits (the estimator applied to its noisy gradient,
    or the composite chained gradient plus noise), as row i of a one-draw
    stack of the library's operators, in which worker i reads ``rng`` and
    every other worker reads nothing."""
    x = as_param_vector(x, p.dimension)
    if not 0 <= i < p.n_workers:
        raise ConfigurationError(f"worker index {i} out of range for {p.n_workers} workers")
    spec.contraction_alpha(p)  # raises unless the spec runs on p
    n, d = p.n_workers, p.dimension
    if spec.kind == "composite":
        keys = np.zeros((1, n, p.m_g + p.m_F))
        keys[0, i] = rng.random(p.m_g + p.m_F)
        raw = chained_gradient(p, x, *spec.subsets(p, keys))
    else:
        raw = np.zeros((1, n, d))
        raw[0, i] = reference_worker_grad(p, i, x)
    std = np.zeros((1, n, d))
    if noise is not None and noise.sigma2 > 0:
        std[0, i] = rng.standard_normal(d)
    pert = None if noise is None else noise.draw(std, d)
    sent = raw if pert is None else raw + pert
    return (sent if spec.kind == "composite" else apply_estimator(spec, sent))[0, i]


class WorkerDraws:
    """One trial's worker streams, read one iteration at a time."""

    def __init__(self, problem, spec, seed, trial):
        workers = range(problem.n_workers)
        self.noise = [worker_stream(seed, trial, i) for i in workers]
        self.keys = [subset_stream(seed, trial, i) for i in workers]
        self.width = problem.m_g + problem.m_F if spec.kind == "composite" else 0

    def next(self, i):
        """(noise stream, subset keys) of worker i's next iteration."""
        return self.noise[i], self.keys[i].random(self.width) if self.width else None


def reference_sgd(problem, estimator, noise, gamma, iterations, x0, seed, trial=0):
    """Plain parallel SGD, x <- x - gamma * mean_i(worker estimate).

    Same worker substreams as the engine, independent update loop and
    worker transmissions; the beta=1 momentum trajectory must match this bit
    for bit.
    """
    x = np.asarray(x0, dtype=np.float64).copy()
    xs = [x.copy()]
    draws = WorkerDraws(problem, estimator, seed, trial)
    for _ in range(iterations):
        gs = [reference_transmission(problem, i, x, estimator, noise, *draws.next(i))
              for i in range(problem.n_workers)]
        g = reference_pairwise_mean(gs)
        x = x - gamma * g
        xs.append(x.copy())
    return xs


def reference_momentum(cfg, trial):
    """One trial of the momentum engine, one step at a time.

    Returns (records, iterates, diverged_at, reason) with each record the
    tuple (k, f, grad_norm_sq, eta_norm_sq, v_error_sq, step_norm_sq, phi).
    Worker streams come from ``worker_stream`` and ``subset_stream``,
    transmissions from ``reference_transmission``; the divergence rules are
    the engine's.
    """
    p, beta, gamma = cfg.problem, cfg.beta, cfg.gamma
    lyapunov_A = lyapunov_weight(gamma, beta, analysis_regime(p))
    f_star = p.f_star if p.f_star is not None else 0.0
    x = cfg.resolve_x0()
    v_prev = reference_full_gradient(p, x) if cfg.v_init == "grad_at_x0" else np.zeros_like(x)
    records, iterates = [], [x]
    draws = WorkerDraws(p, cfg.estimator, cfg.seed, trial)
    for k in range(cfg.iterations):
        if not np.all(np.isfinite(x)):
            return records, iterates, k, "non-finite iterate"
        fval = reference_f(p, x)
        if not math.isfinite(fval):
            return records, iterates, k, f"non-finite f ({fval})"
        if fval > DIVERGENCE_F_MAX:
            return records, iterates, k, f"f = {fval:.6g} > {DIVERGENCE_F_MAX:g}"
        grad = reference_full_gradient(p, x)
        g = reference_pairwise_mean([
            reference_transmission(p, i, x, cfg.estimator, cfg.noise, *draws.next(i))
            for i in range(p.n_workers)
        ])
        if not np.all(np.isfinite(g)):
            return records, iterates, k, "non-finite aggregate"
        eta = g - grad
        v = g if beta == 1.0 else v_prev + beta * (g - v_prev)
        x_new = x - gamma * v
        v_err = grad - v_prev
        dx = x_new - x
        records.append((k, fval, float(grad @ grad), float(eta @ eta), float(v_err @ v_err),
                        float(dx @ dx), (fval - f_star) + lyapunov_A * float(v_err @ v_err)))
        x, v_prev = x_new, v
        iterates.append(x)
    return records, iterates, None, None


def reference_measure_eta(problem, x, spec, noise, samples, rng, block):
    """(mean, stderr) of ||eta||^2 by the per-draw loop, in which every draw
    asks each worker in turn for a fresh transmission, and ||grad f(x)||^2.
    A composite block of ``block`` draws first reads all its subset keys."""
    x = np.asarray(x, dtype=np.float64)
    exact = reference_full_gradient(problem, x)
    vals = np.empty(samples)
    for s in range(samples):
        if spec.kind == "composite" and s % block == 0:
            keys = rng.random((min(block, samples - s), problem.n_workers,
                               problem.m_g + problem.m_F))
        g = reference_pairwise_mean(
            [reference_transmission(problem, i, x, spec, noise, rng,
                                    keys[s % block, i] if spec.kind == "composite" else None)
             for i in range(problem.n_workers)]
        )
        diff = g - exact
        vals[s] = diff @ diff
    stderr = float(np.std(vals, ddof=1) / np.sqrt(samples)) if samples > 1 else 0.0
    return float(np.mean(vals)), stderr, float(exact @ exact)


def _anchored_variance(values):
    """mean_j ||v_j - mean||^2 of one worker's component values, one array
    per component, anchored at the first: mean_j ||v_j - v_0||^2 minus
    ||mean - v_0||^2, clamped at zero."""
    v0 = values[0]
    shifted = [v - v0 for v in values]
    second = float(np.mean([np.sum(s * s) for s in shifted]))
    mean_shift = np.mean(shifted, axis=0)
    return max(second - float(np.sum(mean_shift * mean_shift)), 0.0)


def reference_jac_t(cp, i, x):
    """Worker i's dense J_{i,j}(x)^T, one (d, p) array per component j, from
    closed forms: reference_maml_rows' columns for MAML, G_j^T for the toy."""
    if isinstance(cp, MamlProblem):
        return list(reference_maml_rows(cp, i, x, x, x, range(cp.m_g))[2])
    return [cp.G[j].T.copy() for j in range(cp.m_g)]


def reference_composite_sigmas(cp, points):
    """(sigma_g^2, sigma_grad_g^2, sigma_F^2) by the per-point loop: the
    oracles at one point at a time, the dense Jacobians from closed forms
    (reference_jac_t), and one variance per worker (and per outer evaluation
    point z), each over a list of component arrays, times SAFETY."""
    sig_g2 = sig_dg2 = sig_F2 = 0.0
    all_F = np.arange(cp.m_F)
    for x in points:
        x = as_param_vector(x, cp.dimension)
        table = cp.inner_table(x)
        g_vals = table[0]
        z = np.concatenate((np.mean(g_vals, axis=-2)[None], np.swapaxes(g_vals, 0, 1)))
        outer = np.swapaxes(cp.outer_grads(z, all_F), 0, 1)  # (worker, z, component, p)
        sig_g2 = max(sig_g2, *map(_anchored_variance, g_vals))
        sig_dg2 = max(sig_dg2, *(_anchored_variance(reference_jac_t(cp, i, x))
                                 for i in range(cp.n_workers)))
        sig_F2 = max(sig_F2, *(_anchored_variance(grads) for row in outer for grads in row))
    return SAFETY * sig_g2, SAFETY * sig_dg2, SAFETY * sig_F2


def enumerate_subset_means(values, size):
    """All subset means of the given size (exhaustive, for small m)."""
    return [np.mean([values[j] for j in combo], axis=0)
            for combo in combinations(range(len(values)), size)]


def point_logistic(a, b):
    """Closed-form value / gradient / Hessian-vector product of one sample loss.

    loss(x) = log(1 + exp(-b <a, x>)); with s = sigmoid(-b <a, x>):
    grad = -b s a and hess @ u = s (1 - s) <a, u> a.
    """

    def value(x):
        return float(np.logaddexp(0.0, -b * (a @ x)))

    def grad(x):
        s = _sigmoid(-b * (a @ x))
        return (-b * s) * a

    def hess_vec(x, u):
        s = _sigmoid(-b * (a @ x))
        return (s * (1.0 - s) * (a @ u)) * a

    return value, grad, hess_vec


def reference_maml_rows(cp, i, x, z, u, idx):
    """MAML oracles of worker i one sample at a time: inner values and
    J^T u at x, dense J^T (column t is J^T e_t), outer values and gradients
    at z, one row per index in idx."""
    gamma, eye = cp.gamma_inner, np.eye(cp.dimension)
    rows = [[] for _ in range(5)]
    for j in idx:
        value, grad, hess_vec = point_logistic(cp.features[i][j], float(cp.labels[i][j]))

        def jac_t_vec(v):
            return v - gamma * hess_vec(x, v)

        rows[0].append(x - gamma * grad(x))
        rows[1].append(jac_t_vec(u))
        rows[2].append(np.stack([jac_t_vec(e) for e in eye], axis=1))
        rows[3].append(value(z))
        rows[4].append(grad(z))
    return [np.array(r) for r in rows]
