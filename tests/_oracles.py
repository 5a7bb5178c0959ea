"""Independent oracles used by the test suite.

These deliberately avoid the library code paths they are used to check:
finite differences instead of analytic gradients, power iteration and the
characteristic polynomial instead of eigvalsh, a hand-rolled SGD loop
instead of the momentum engine, one sample at a time instead of the
batched composite oracles, and one vector per worker per draw (with its own
operators, noise and subsampling) instead of the batched estimator stacks.
"""

from itertools import combinations

import numpy as np
from scipy.special import expit

from biased_momentum.composite import MamlProblem
from biased_momentum.rng import pairwise_mean, worker_stream


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


def reference_transmission(problem, i, x, spec, noise, rng):
    """What worker i sends for one draw: noise then the operator, or (composite)
    inner set, outer set, chained gradient, then noise."""
    if spec.kind == "composite":
        idx_g = np.sort(rng.choice(problem.m_g, size=spec.s_g, replace=False))
        idx_f = np.sort(rng.choice(problem.m_F, size=spec.s_f, replace=False))
        return reference_noise(reference_chained_gradient(problem, i, x, idx_g, idx_f), noise, rng)
    g = reference_noise(problem.worker_grad(i, x), noise, rng)
    if spec.kind == "top_k":
        return reference_top_k(g, spec.k)
    if spec.kind == "scaled_sign":
        return reference_scaled_sign(g)
    if spec.kind == "clip":
        return reference_clip(g, spec.tau)
    return g


def reference_sgd(problem, estimator, noise, gamma, iterations, x0, seed, trial=0):
    """Plain parallel SGD, x <- x - gamma * mean_i(worker estimate).

    Same worker substreams as the engine, independent update loop and
    worker transmissions; the beta=1 momentum trajectory must match this bit
    for bit.
    """
    x = np.asarray(x0, dtype=np.float64).copy()
    xs = [x.copy()]
    for k in range(iterations):
        gs = [
            reference_transmission(problem, i, x, estimator, noise,
                                   worker_stream(seed, trial, i, k))
            for i in range(problem.n_workers)
        ]
        g = pairwise_mean(gs)
        x = x - gamma * g
        xs.append(x.copy())
    return xs


def reference_measure_eta(problem, x, spec, noise, samples, rng):
    """(mean, stderr) of ||eta||^2 by the per-draw loop, in which every draw
    asks each worker in turn for a fresh transmission, and ||grad f(x)||^2."""
    x = np.asarray(x, dtype=np.float64)
    exact = pairwise_mean([problem.worker_grad(i, x) for i in range(problem.n_workers)])
    vals = np.empty(samples)
    for s in range(samples):
        g = pairwise_mean(
            [reference_transmission(problem, i, x, spec, noise, rng)
             for i in range(problem.n_workers)]
        )
        diff = g - exact
        vals[s] = diff @ diff
    stderr = float(np.std(vals, ddof=1) / np.sqrt(samples)) if samples > 1 else 0.0
    return float(np.mean(vals)), stderr, float(exact @ exact)


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
        s = expit(-b * (a @ x))
        return (-b * s) * a

    def hess_vec(x, u):
        s = expit(-b * (a @ x))
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
