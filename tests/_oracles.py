"""Independent oracles used by the test suite.

These deliberately avoid the library code paths they are used to check:
finite differences instead of analytic gradients, power iteration and the
characteristic polynomial instead of eigvalsh, a hand-rolled SGD loop
instead of the momentum engine.
"""

from itertools import combinations

import numpy as np

from biased_momentum.estimators import worker_estimate
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


def reference_sgd(problem, estimator, noise, gamma, iterations, x0, seed, trial=0):
    """Plain parallel SGD, x <- x - gamma * mean_i(worker estimate).

    Same worker substreams as the engine, independent update loop; the
    beta=1 momentum trajectory must match this bit for bit.
    """
    x = np.asarray(x0, dtype=np.float64).copy()
    xs = [x.copy()]
    for k in range(iterations):
        gs = [
            worker_estimate(problem, i, x, estimator, noise,
                            worker_stream(seed, trial, i, k))
            for i in range(problem.n_workers)
        ]
        g = pairwise_mean(gs)
        x = x - gamma * g
        xs.append(x.copy())
    return xs


def reference_measure_eta(problem, x, spec, noise, samples, rng):
    """(mean, stderr) of ||eta||^2 by the per-draw loop: every draw asks
    each worker for a fresh estimate from its own gradient evaluation."""
    x = np.asarray(x, dtype=np.float64)
    exact = pairwise_mean([problem.worker_grad(i, x) for i in range(problem.n_workers)])
    vals = np.empty(samples)
    for s in range(samples):
        g = pairwise_mean(
            [worker_estimate(problem, i, x, spec, noise, rng)
             for i in range(problem.n_workers)]
        )
        diff = g - exact
        vals[s] = diff @ diff
    stderr = float(np.std(vals, ddof=1) / np.sqrt(samples)) if samples > 1 else 0.0
    return float(np.mean(vals)), stderr


def enumerate_subset_means(values, size):
    """All subset means of the given size (exhaustive, for small m)."""
    return [np.mean([values[j] for j in combo], axis=0)
            for combo in combinations(range(len(values)), size)]
