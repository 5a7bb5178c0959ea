#!/usr/bin/env python3
"""Meta-learning as a composite finite sum, and the subsampling bias.

The objective (1/n) sum_i f_i(x - gamma grad f_i(x)) is a two-level
composite: outer components are the per-sample losses, inner maps are one
gradient step on each sample.  Subsampling either level biases the chained
gradient; full batches recover it exactly.
"""

import numpy as np

from biased_momentum import (
    EstimatorSpec,
    NoiseSpec,
    RunConfig,
    build_theory_report,
    chained_gradient,
    make_maml,
    measure_composite_sigmas,
    run_trials,
)
from biased_momentum.problems import make_synthetic_classification
from biased_momentum.rng import substream

feats, labels = make_synthetic_classification(5, 2, 8, seed=4)
cp = make_maml(feats, labels, gamma_inner=0.1)
print(f"meta objective: d={cp.dimension}, n={cp.n_workers}, m={cp.m_g}")
print(f"certified constants: ell_g={cp.ell_g:.3f}, L_g={cp.L_g:.3f}, "
      f"ell_F={cp.ell_F:.3f}, L_F={cp.L_F:.3f} -> L={cp.L:.3f}")

x = substream(17, 9, 0).standard_normal(5)
exact = cp.worker_grads(x)[0]
rng = substream(17, 9, 1)


def subsampled_estimate(s_g, s_f):
    """Worker 0's chained gradient on an inner and an outer index set, each
    drawn uniformly without replacement."""
    idx_g = np.sort(rng.choice(cp.m_g, size=s_g, replace=False))
    idx_f = np.sort(rng.choice(cp.m_F, size=s_f, replace=False))
    return chained_gradient(cp, x, idx_g, idx_f)[0]


full = subsampled_estimate(cp.m_g, cp.m_F)
print(f"\nfull-batch estimate error: {np.linalg.norm(full - exact):.2e}")

sub_mean = np.mean([subsampled_estimate(2, 2) for _ in range(4000)], axis=0)
print(f"mean of 4000 subsampled estimates vs exact gradient: "
      f"{np.linalg.norm(sub_mean - exact):.4f}  (nonzero: the estimator is biased)")

sigmas = measure_composite_sigmas(cp, [x])
print(f"\ncomponent variances (sigma_g^2, sigma_dg^2, sigma_F^2) = "
      f"({sigmas[0]:.4f}, {sigmas[1]:.4f}, {sigmas[2]:.4f})")

spec = EstimatorSpec(kind="composite", s_g=4, s_f=4)
cfg = RunConfig(problem=cp, gamma=0.05, beta=0.5, iterations=300, trials=3,
                estimator=spec, seed=17)
report = build_theory_report(cp, 0.05, 0.5, spec, NoiseSpec(),
                             x0=cfg.resolve_x0(), pilot_points=[x])
stats = run_trials(cfg)
print(f"\nerror-model constant C = {report.C_var:.4f} (B = {report.B_var})")
print(f"momentum run: f went {stats.mean['f'][0]:.4f} -> {stats.mean['f'][-1]:.4f} "
      f"over {cfg.iterations} iterations")
