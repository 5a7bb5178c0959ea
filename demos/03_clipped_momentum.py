#!/usr/bin/env python3
"""Clipped momentum: the residual-error constant and the clip identity.

Every worker transmits clip_tau(gradient + noise).  The aggregate error
obeys E||eta||^2 <= C with C = max(2 sigma^2 + 4 L delta + tau^2, 0)
+ 2 sigma^2, where delta bounds the suboptimality along the trajectory
(measured here from a pilot run).
"""

import numpy as np

from biased_momentum import (
    EstimatorSpec,
    NoiseSpec,
    RunConfig,
    build_theory_report,
    clip,
    make_quadratic,
    measure_eta,
    run,
)
from biased_momentum.audit import pilot_points
from biased_momentum.rng import substream

# the clip distance identity, exact up to float error
g = np.array([6.0, 8.0])
print(f"clip identity: ||clip_5(g) - g|| = {np.linalg.norm(clip(g, 5.0) - g)}"
      f"  vs  ||g|| - tau = {np.linalg.norm(g) - 5.0}")

problem = make_quadratic(spectrum=np.linspace(0.5, 2.0, 10), seed=3, n_workers=2)
noise = NoiseSpec(sigma2=0.01)

for tau in (1.0, 2.0, 5.0):
    spec = EstimatorSpec(kind="clip", tau=tau)
    cfg = RunConfig(problem=problem, gamma=0.09, beta=0.5, iterations=150,
                    estimator=spec, noise=noise, seed=13)
    pilot = run(cfg)
    points = pilot_points(pilot, 10)
    report = build_theory_report(
        problem, 0.09, 0.5, spec, noise, x0=cfg.resolve_x0(), pilot_points=points
    )
    worst = 0.0
    for j, x in enumerate(points):
        mean, se, _ = measure_eta(problem, x, spec, noise, samples=300,
                                  rng=substream(13, 9, j))
        worst = max(worst, mean + 3 * se)
    print(f"tau={tau}: measured delta={report.delta_subopt:.3f}, "
          f"C={report.C_var:.3f}, worst measured E||eta||^2={worst:.4f}")
