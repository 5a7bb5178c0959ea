"""Seeded workload generation.

Every workload is a *job*: a fixed list of CLI calls into
``biased_momentum.harness.main`` on config files that this module writes
from the workload seed.  The program only ever sees those generated files.

The workload seed picks the problem-data seed and the run seed of every
config; shapes (dimension, workers, estimator, trials, iterations) are
fixed per workload so that the cost of a job does not depend on the seed.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

# The verify battery draws this many Monte-Carlo samples at this many pilot
# points (audit.verify_config defaults; the CLI exposes no knob for them).
VERIFY_ETA_DRAWS = 1000
VERIFY_ETA_POINTS = 20

BETA = 0.5


@dataclass(frozen=True)
class Call:
    """One CLI invocation of a job.  ``kind`` selects the gate checks."""

    label: str
    kind: str  # "run" | "report" | "verify" | "sweep"
    argv: tuple
    out_dir: Path | None = None
    trials: int = 0
    iterations: int = 0
    values: tuple = ()


@dataclass
class Job:
    calls: list
    config_files: list  # (kind, path) pairs, kind "config" or "sweep"
    needed_evals: int  # worker-gradient evaluations the result needs
    needed_trials: int  # engine.run calls the result needs
    shape: dict = field(default_factory=dict)


def _seeds(seed: int, count: int) -> list[int]:
    rng = random.Random(seed)
    return [rng.randrange(1, 2**31 - 1) for _ in range(count)]


def _spectrum(lo: float, hi: float, d: int) -> list[float]:
    return [float(v) for v in np.linspace(lo, hi, d)]


def _quadratic(spectrum, n_workers: int, seed: int) -> dict:
    return {"kind": "quadratic", "n_workers": n_workers, "seed": seed,
            "matrix": {"spectrum": spectrum}}


def _write(path: Path, doc: dict) -> Path:
    path.write_text(json.dumps(doc, indent=1) + "\n")
    return path


def _verify_evals(cfg: dict, n_workers: int) -> int:
    trajectory = cfg["trials"] * cfg["iterations"] * n_workers
    points = min(cfg["iterations"] + 1, VERIFY_ETA_POINTS)
    return trajectory + points * VERIFY_ETA_DRAWS * n_workers


# ---------------------------------------------------------------------------
# workloads

TRAJ_TRIALS = 4
TRAJ_ITERATIONS = 500


def traj_small_d(seed: int, work: Path) -> Job:
    """`run` then `report`: d=10, n=4, identity, gamma at the ncvx ceiling."""
    from biased_momentum.problems import problem_from_dict
    from biased_momentum.theory import stepsize_bounds

    p_seed, r_seed = _seeds(seed, 2)
    problem = _quadratic(_spectrum(0.5, 2.0, 10), 4, p_seed)
    built = problem_from_dict(problem)
    gamma, _ = stepsize_bounds(BETA, built.L, built.mu)
    cfg = {
        "schema_version": 1, "problem": problem, "gamma": gamma, "beta": BETA,
        "iterations": TRAJ_ITERATIONS, "trials": TRAJ_TRIALS,
        "estimator": {"kind": "identity"},
        "noise": {"sigma2": 0.01, "delta_offset": 0.0},
        "v_init": "grad_at_x0", "seed": r_seed,
    }
    path = _write(work / "traj.json", cfg)
    out = work / "out" / "traj"
    calls = [
        Call("run", "run", ("run", str(path), "--out", str(out)), out,
             trials=cfg["trials"], iterations=cfg["iterations"]),
        Call("report", "report", ("report", str(out)), out),
    ]
    n = problem["n_workers"]
    return Job(
        calls, [("config", path)],
        needed_evals=cfg["trials"] * cfg["iterations"] * n,
        needed_trials=cfg["trials"],
        shape={"d": 10, "n_workers": n, "estimator": "identity", "sigma2": 0.01,
               "beta": BETA, "gamma": gamma, "trials": cfg["trials"],
               "iterations": cfg["iterations"]},
    )


# The three quadratic single-run shapes of presets/{pl,topk,clip}_quadratic.json.
QUADRATIC_SHAPES = (
    ("pl_quadratic", 2, 500, 1, {"kind": "identity"}, 0.0),
    ("topk_quadratic", 4, 300, 5, {"kind": "top_k", "k": 5}, 0.001),
    ("clip_quadratic", 2, 300, 5, {"kind": "clip", "tau": 2.0}, 0.01),
)


def verify_quadratic(seed: int, work: Path) -> Job:
    """`verify` on the pl / top-k / clip quadratic shapes."""
    seeds = _seeds(seed, 2 * len(QUADRATIC_SHAPES))
    calls, files, evals, trials, shape = [], [], 0, 0, {}
    for j, (name, n, iters, n_trials, est, sigma2) in enumerate(QUADRATIC_SHAPES):
        cfg = {
            "schema_version": 1,
            "problem": _quadratic(_spectrum(0.5, 2.0, 10), n, seeds[2 * j]),
            "gamma": 0.09, "beta": BETA, "iterations": iters, "trials": n_trials,
            "estimator": est, "noise": {"sigma2": sigma2, "delta_offset": 0.0},
            "v_init": "grad_at_x0", "seed": seeds[2 * j + 1],
        }
        path = _write(work / f"{name}.json", cfg)
        calls.append(Call(f"verify:{name}", "verify", ("verify", str(path))))
        files.append(("config", path))
        evals += _verify_evals(cfg, n)
        trials += n_trials
        shape[name] = {"d": 10, "n_workers": n, "estimator": est, "sigma2": sigma2,
                       "trials": n_trials, "iterations": iters}
    return Job(calls, files, evals, trials, shape)


def verify_maml(seed: int, work: Path) -> Job:
    """`verify` on the maml_composite shape."""
    p_seed, r_seed = _seeds(seed, 2)
    cfg = {
        "schema_version": 1,
        "problem": {"kind": "maml", "dimension": 5, "n_workers": 2, "m": 8,
                    "seed": p_seed, "gamma_inner": 0.1},
        "gamma": 0.05, "beta": BETA, "iterations": 200, "trials": 3,
        "estimator": {"kind": "composite", "S_g": 4, "S_F": 4},
        "noise": {"sigma2": 0.0, "delta_offset": 0.0},
        "v_init": "grad_at_x0", "seed": r_seed,
    }
    path = _write(work / "maml_composite.json", cfg)
    calls = [Call("verify:maml_composite", "verify", ("verify", str(path)))]
    return Job(
        calls, [("config", path)],
        needed_evals=_verify_evals(cfg, 2), needed_trials=cfg["trials"],
        shape={"d": 5, "n_workers": 2, "m": 8, "gamma_inner": 0.1, "S_g": 4, "S_F": 4,
               "trials": cfg["trials"], "iterations": cfg["iterations"]},
    )


SWEEP_K = (10, 100, 500)


def sweep_high_d(seed: int, work: Path) -> Job:
    """`sweep` over estimator.k on a d=1000, n=8 quadratic."""
    from biased_momentum.theory import stepsize_bounds

    p_seed, r_seed = _seeds(seed, 2)
    spectrum = _spectrum(0.5, 2.0, 1000)
    # A^T A has exactly this spectrum, so L and mu are its extremes.
    gamma, _ = stepsize_bounds(BETA, max(spectrum), min(spectrum))
    n, trials, iters = 8, 2, 150
    spec = {
        "base": {
            "schema_version": 1, "problem": _quadratic(spectrum, n, p_seed),
            "gamma": gamma, "beta": BETA, "iterations": iters, "trials": trials,
            "estimator": {"kind": "top_k", "k": SWEEP_K[0]},
            "noise": {"sigma2": 0.001, "delta_offset": 0.0},
            "v_init": "grad_at_x0", "seed": r_seed,
        },
        "axis": "estimator.k",
        "values": list(SWEEP_K),
    }
    path = _write(work / "sweep.json", spec)
    out = work / "out" / "sweep"
    calls = [Call("sweep", "sweep", ("sweep", str(path), "--out", str(out)), out,
                  trials=trials, iterations=iters, values=SWEEP_K)]
    return Job(
        calls, [("sweep", path)],
        needed_evals=len(SWEEP_K) * trials * iters * n,
        needed_trials=len(SWEEP_K) * trials,
        shape={"d": 1000, "n_workers": n, "estimator": "top_k", "k": list(SWEEP_K),
               "sigma2": 0.001, "beta": BETA, "gamma": gamma, "trials": trials,
               "iterations": iters},
    )


# sweep_high_d runs on request but is not in BENCHMARK.json: on a 2-CPU
# shared host its memory-bound d=1000 kernels and per-point problem rebuilds
# gave the widest run-to-run spread of the four workloads.
WORKLOADS = {
    "traj_small_d": traj_small_d,
    "verify_quadratic": verify_quadratic,
    "verify_maml": verify_maml,
    "sweep_high_d": sweep_high_d,
}


def tamper_config(work: Path) -> Path:
    """Small fixed run config that the gate self-test corrupts."""
    cfg = {
        "schema_version": 1, "problem": _quadratic(_spectrum(0.5, 2.0, 4), 2, 1),
        "gamma": 0.09, "beta": BETA, "iterations": 30, "trials": 2,
        "estimator": {"kind": "identity"},
        "noise": {"sigma2": 0.01, "delta_offset": 0.0},
        "v_init": "grad_at_x0", "seed": 3,
    }
    return _write(work / "tamper.json", cfg)
