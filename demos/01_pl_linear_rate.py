#!/usr/bin/env python3
"""Linear convergence of momentum on a PL quadratic, against its envelope.

Builds a d=10 quadratic with spectrum [0.5, 2.0] split across two workers,
runs the momentum method at the largest admissible step size, and prints
the measured Lyapunov value phi_k next to the guaranteed geometric
envelope (1 - mu gamma / 2)^k phi_0.
"""

import numpy as np

from biased_momentum import (
    EstimatorSpec,
    NoiseSpec,
    RunConfig,
    build_theory_report,
    make_quadratic,
    run_trials,
    stepsize_bounds,
    theorem_bounds,
)

problem = make_quadratic(spectrum=np.linspace(0.5, 2.0, 10), seed=1, n_workers=2)
print(f"quadratic: d={problem.dimension}, L={problem.L:.3f}, mu={problem.mu:.3f}")

for beta in (1.0, 0.5, 0.1):
    gamma = stepsize_bounds(beta, problem.L, problem.mu)[1]
    cfg = RunConfig(problem=problem, gamma=gamma, beta=beta, iterations=200, seed=7)
    report = build_theory_report(
        problem, gamma, beta, EstimatorSpec(), NoiseSpec(), x0=cfg.resolve_x0()
    )
    _, pl_rhs = theorem_bounds(report)
    table = run_trials(cfg).table
    print(f"\nbeta={beta}  gamma_max_pl={gamma:.5f}  rate={1 - problem.mu * gamma / 2:.5f}")
    print(f"{'k':>5} {'phi_k':>12} {'envelope':>12}")
    for k in (0, 10, 50, 100, 199):
        phi_k = table["f"][0, k] + report.A_pl * table["v_error_sq"][0, k]
        print(f"{k:>5} {phi_k:>12.3e} {pl_rhs(k):>12.3e}")
