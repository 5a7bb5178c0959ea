"""Simulated server-worker momentum optimizer.

One round: every worker forms its (noisy, estimator-transformed) gradient
from its private shard, the server averages the n transmissions with a
pairwise tree, blends them into the running estimate

    v_k = v_{k-1} + beta * (g_k - v_{k-1})

and steps x_{k+1} = x_k - gamma * v_k.  beta = 1 turns the recursion into
plain SGD.  Each iteration is logged with the realized error
eta_k = g_k - grad f(x_k) and the Lyapunov value, so the recorded
trajectory carries everything the inequality audits need.

Trajectories are pure functions of (config, seed): worker randomness comes
from per-(trial, worker, iteration) substreams, so trials can run in any
order and reproduce identically.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import ConfigurationError
from .estimators import EstimatorSpec, aggregate
from .problems import (
    NoiseSpec,
    Problem,
    as_param_vector,
    check_keys,
    full_gradient,
    problem_from_dict,
)
from .rng import STREAM_X0, pairwise_mean, substream, worker_stream
from .theory import analysis_regime, lyapunov_weight

__all__ = [
    "RunConfig",
    "MomentumState",
    "IterationRecord",
    "RunResult",
    "TrialStats",
    "init_state",
    "step",
    "run",
    "run_trials",
    "stats_from_results",
    "stats_from_records",
    "per_k_stats",
    "write_run_csv",
    "read_run_csv",
    "CSV_HEADER",
]

DIVERGENCE_F_MAX = 1e12

CSV_FIELDS = ("f", "grad_norm_sq", "eta_norm_sq", "v_error_sq", "step_norm_sq", "phi")
CSV_HEADER = "k,trial," + ",".join(CSV_FIELDS)
SCHEMA_VERSION = 1
CONFIG_KEYS = ("schema_version", "problem", "gamma", "beta", "iterations", "trials",
               "estimator", "noise", "v_init", "seed", "x0")


class DivergedError(RuntimeError):
    """Internal signal: the trajectory left the finite/bounded region."""


@dataclass(frozen=True)
class RunConfig:
    """Full specification of one experiment.

    ``x0 = None`` draws a seeded standard-normal start scaled to unit norm.
    ``v_init = "grad_at_x0"`` starts the gradient estimate at the exact
    initial gradient (zeroing the initialization error term); "zero" starts
    it at the origin.
    """

    problem: Problem
    gamma: float
    beta: float
    iterations: int
    trials: int = 1
    estimator: EstimatorSpec = field(default_factory=EstimatorSpec)
    noise: NoiseSpec = field(default_factory=NoiseSpec)
    v_init: str = "grad_at_x0"
    x0: tuple | None = None
    seed: int = 0

    def __post_init__(self):
        if not (math.isfinite(self.gamma) and self.gamma > 0):
            raise ConfigurationError(f"gamma must be finite and > 0, got {self.gamma}")
        if not 0.0 < self.beta <= 1.0:
            raise ConfigurationError(
                f"beta must be in (0, 1] (beta=0 freezes the estimate), got {self.beta}"
            )
        if self.iterations < 0:
            raise ConfigurationError("iterations must be >= 0")
        if self.trials < 1:
            raise ConfigurationError("trials must be >= 1")
        if self.v_init not in ("zero", "grad_at_x0"):
            raise ConfigurationError(f"unknown v_init {self.v_init!r}")
        if self.x0 is not None and not isinstance(self.x0, tuple):
            object.__setattr__(
                self, "x0", tuple(float(v) for v in np.asarray(self.x0).ravel())
            )
        # composite estimators only make sense on composite problems
        if self.estimator.kind == "composite" and self.problem.kind not in (
            "composite_finite_sum",
            "maml",
        ):
            raise ConfigurationError(
                f"composite estimator cannot run on problem kind {self.problem.kind!r}"
            )
        self.estimator.contraction_alpha(self.problem.dimension)

    def resolve_x0(self) -> np.ndarray:
        if self.x0 is not None:
            return as_param_vector(np.asarray(self.x0), self.problem.dimension)
        g = substream(self.seed, STREAM_X0).standard_normal(self.problem.dimension)
        return g / np.linalg.norm(g)

    def lyapunov_A(self) -> float:
        """Weight used for the recorded phi column (PL weight when certified)."""
        return lyapunov_weight(self.gamma, self.beta, analysis_regime(self.problem))

    @classmethod
    def from_dict(cls, d: dict) -> "RunConfig":
        check_keys(d, CONFIG_KEYS, "config")
        if d.get("schema_version", SCHEMA_VERSION) != SCHEMA_VERSION:
            raise ConfigurationError(
                f"unsupported schema_version {d['schema_version']!r}; expected {SCHEMA_VERSION}"
            )
        for key in ("gamma", "beta", "iterations", "problem"):
            if key not in d:
                raise ConfigurationError(f"config missing required key '{key}'")
        return cls(
            problem=problem_from_dict(d["problem"]),
            gamma=float(d["gamma"]),
            beta=float(d["beta"]),
            iterations=int(d["iterations"]),
            trials=int(d.get("trials", 1)),
            estimator=EstimatorSpec.from_dict(d.get("estimator", {})),
            noise=NoiseSpec.from_dict(d.get("noise", {})),
            v_init=d.get("v_init", "grad_at_x0"),
            x0=d.get("x0"),
            seed=int(d.get("seed", 0)),
        )

    def to_dict(self) -> dict:
        problem_echo = self.problem.source or {
            "kind": self.problem.kind,
            "dimension": self.problem.dimension,
            "n_workers": self.problem.n_workers,
        }
        d = {
            "schema_version": SCHEMA_VERSION,
            "problem": problem_echo,
            "gamma": self.gamma,
            "beta": self.beta,
            "iterations": self.iterations,
            "trials": self.trials,
            "estimator": self.estimator.to_dict(),
            "noise": self.noise.to_dict(),
            "v_init": self.v_init,
            "seed": self.seed,
        }
        if self.x0 is not None:
            d["x0"] = list(self.x0)
        return d


@dataclass(frozen=True)
class MomentumState:
    """Iterate, momentum buffer v^{k-1}, counter and stream identity."""

    x: np.ndarray
    v_prev: np.ndarray
    k: int
    trial: int
    seed: int


@dataclass(frozen=True)
class IterationRecord:
    k: int
    f: float
    grad_norm_sq: float
    eta_norm_sq: float
    v_error_sq: float
    step_norm_sq: float
    phi: float


@dataclass(frozen=True)
class RunResult:
    """One trial: per-iteration records, visited iterates, final state."""

    records: tuple
    iterates: tuple  # x^0 .. x^K (one more than records unless diverged)
    final_state: MomentumState
    diverged: bool
    trial: int


def init_state(cfg: RunConfig, trial: int = 0) -> MomentumState:
    x0 = cfg.resolve_x0()
    if cfg.v_init == "grad_at_x0":
        v_prev = full_gradient(cfg.problem, x0)
    else:
        v_prev = np.zeros_like(x0)
    return MomentumState(x=x0, v_prev=v_prev, k=0, trial=trial, seed=cfg.seed)


def step(
    state: MomentumState,
    problem: Problem,
    estimator: EstimatorSpec,
    noise: NoiseSpec | None,
    gamma: float,
    beta: float,
    lyapunov_A: float | None = None,
) -> tuple[MomentumState, IterationRecord]:
    """One server round; raises DivergedError when the iterate is unusable."""
    x, v_prev, k = state.x, state.v_prev, state.k
    fval = problem.f(x)
    if not np.isfinite(fval) or fval > DIVERGENCE_F_MAX or not np.all(np.isfinite(x)):
        raise DivergedError(f"objective {fval} at iteration {k}")
    grads = [problem.worker_grad(i, x) for i in range(problem.n_workers)]
    grad = pairwise_mean(grads)
    rngs = [worker_stream(state.seed, state.trial, i, k) for i in range(problem.n_workers)]
    g = aggregate(problem, x, grads, estimator, noise, rngs)
    if not np.all(np.isfinite(g)):
        raise DivergedError(f"non-finite aggregate at iteration {k}")

    eta = g - grad
    # beta = 1 must reproduce plain SGD bit-for-bit, so take v = g directly
    # instead of the algebraically equal v_prev + 1.0 * (g - v_prev)
    v = g if beta == 1.0 else v_prev + beta * (g - v_prev)
    x_new = x - gamma * v

    if lyapunov_A is None:
        lyapunov_A = lyapunov_weight(gamma, beta, analysis_regime(problem))
    f_star = problem.f_star if problem.f_star is not None else 0.0
    v_err = grad - v_prev
    dx = x_new - x
    record = IterationRecord(
        k=k,
        f=fval,
        grad_norm_sq=float(grad @ grad),
        eta_norm_sq=float(eta @ eta),
        v_error_sq=float(v_err @ v_err),
        step_norm_sq=float(dx @ dx),
        phi=(fval - f_star) + lyapunov_A * float(v_err @ v_err),
    )
    new_state = MomentumState(x=x_new, v_prev=v, k=k + 1, trial=state.trial, seed=state.seed)
    return new_state, record


def run(cfg: RunConfig, trial: int = 0) -> RunResult:
    """Execute one trial; divergence is returned as a flag, not raised."""
    state = init_state(cfg, trial)
    lyap_A = cfg.lyapunov_A()
    records = []
    iterates = [state.x]
    diverged = False
    for _ in range(cfg.iterations):
        try:
            state, rec = step(
                state, cfg.problem, cfg.estimator, cfg.noise, cfg.gamma, cfg.beta, lyap_A
            )
        except DivergedError:
            diverged = True
            break
        records.append(rec)
        iterates.append(state.x)
    return RunResult(
        records=tuple(records),
        iterates=tuple(iterates),
        final_state=state,
        diverged=diverged,
        trial=trial,
    )


@dataclass(frozen=True)
class TrialStats:
    """Per-iteration mean/std/stderr of every record field across trials.

    Arrays have length max-k; entries only average the trials that reached
    that iteration (counts tracks how many).  ``table`` holds each field's
    (trial, k) array, NaN where a trial stopped early; ``results`` are the
    runs behind it (empty for records replayed from a CSV).
    """

    results: tuple
    counts: np.ndarray
    mean: dict
    std: dict
    stderr: dict
    table: dict

    @property
    def k_max(self) -> int:
        return len(self.counts)


def per_k_stats(table: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """(counts, mean, std, stderr) per column of a (trial, k) table.

    NaN marks an iteration the trial never reached and is left out of its
    column; stderr is the sample std over sqrt(count), 0 below two trials.
    """
    n_trials, k_max = table.shape
    counts = np.sum(~np.isnan(table), axis=0).astype(int)
    if not k_max:
        return counts, np.zeros(0), np.zeros(0), np.zeros(0)
    mean = np.nanmean(table, axis=0)
    std = np.nanstd(table, axis=0)
    if n_trials > 1:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            sample_std = np.nanstd(table, axis=0, ddof=1)
        stderr = np.where(counts > 1, sample_std / np.sqrt(np.maximum(counts, 1)), 0.0)
    else:
        stderr = np.zeros(k_max)
    return counts, mean, std, stderr


def stats_from_records(per_trial, results: tuple = ()) -> TrialStats:
    """Aggregate per-trial record lists into per-k mean/std/stderr arrays.

    Deterministic and order-independent: records land in a (trial, k) table
    indexed by trial position before any reduction.
    """
    per_trial = [tuple(recs) for recs in per_trial]
    k_max = max(map(len, per_trial), default=0)
    table, mean, std, stderr = {}, {}, {}, {}
    for name in CSV_FIELDS:
        table[name] = np.full((len(per_trial), k_max), np.nan)
        for t, recs in enumerate(per_trial):
            table[name][t, : len(recs)] = [getattr(rec, name) for rec in recs]
        _, mean[name], std[name], stderr[name] = per_k_stats(table[name])
    counts = np.sum(~np.isnan(table["f"]), axis=0)  # f is finite in every record
    return TrialStats(tuple(results), counts, mean, std, stderr, table)


def stats_from_results(results) -> TrialStats:
    """TrialStats of finished runs (records plus the RunResults behind them)."""
    results = tuple(results)
    return stats_from_records([res.records for res in results], results)


def run_trials(cfg: RunConfig) -> TrialStats:
    """Run all trials (ascending trial id) and aggregate order-independently."""
    return stats_from_results(run(cfg, t) for t in range(cfg.trials))


# ---------------------------------------------------------------------------
# CSV emission (one row per iteration per trial; shortest round-trip floats)


def write_run_csv(results, path) -> None:
    lines = [CSV_HEADER]
    for res in results:
        for rec in res.records:
            lines.append(
                f"{rec.k},{res.trial},"
                + ",".join(repr(float(getattr(rec, name))) for name in CSV_FIELDS)
            )
    Path(path).write_text("\n".join(lines) + "\n")


def read_run_csv(path) -> list:
    """Rebuild per-trial record lists from a run CSV (inverse of write_run_csv)."""
    text = Path(path).read_text().strip().splitlines()
    if not text or text[0] != CSV_HEADER:
        raise ConfigurationError(f"unrecognized CSV header in {path}")
    by_trial: dict[int, list[IterationRecord]] = {}
    for line in text[1:]:
        parts = line.split(",")
        if len(parts) != 2 + len(CSV_FIELDS):
            raise ConfigurationError(f"malformed CSV row: {line!r}")
        k, trial = int(parts[0]), int(parts[1])
        vals = [float(v) for v in parts[2:]]
        by_trial.setdefault(trial, []).append(IterationRecord(k, *vals))
    return [by_trial[t] for t in sorted(by_trial)]
