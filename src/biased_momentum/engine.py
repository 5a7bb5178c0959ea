"""Simulated server-worker momentum optimizer.

One round: every worker forms its (noisy, estimator-transformed) gradient
from its private shard, the server averages the n transmissions with a
pairwise tree, blends them into the running estimate

    v_k = v_{k-1} + beta * (g_k - v_{k-1})

and steps x_{k+1} = x_k - gamma * v_k.  beta = 1 turns the recursion into
plain SGD.  Each iteration records the realized error eta_k = g_k -
grad f(x_k) and the Lyapunov value, so the trajectory carries everything
the inequality audits need.

A run has one result: ``run_trials`` returns a ``TrialStats`` holding a
table of the CSV fields, each a C-ordered (trial, k) array with NaN past
the iteration where a trial stopped, its per-k statistics, and each
trial's visited iterates and stop reason.  ``write_run_csv`` and
``read_run_csv`` carry the table to text and back, and the audits read its
columns.

Trajectories are pure functions of (config, seed): worker randomness comes
from per-(trial, worker, iteration) substreams, so trials can run in any
order and reproduce identically.  All trials of a run step together: the
iterates and momentum buffers are (trials, d) stacks, the substream states
of a block of iterations are computed in bulk (``rng.worker_states``), and
a trial that diverges leaves the batch at its iteration while the others
go on.  Every trial's trajectory equals the one it would have alone.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field
from itertools import chain
from pathlib import Path

import numpy as np

from .errors import ConfigurationError
from .estimators import EstimatorSpec, aggregate
from .problems import (
    NoiseSpec,
    Problem,
    as_param_vector,
    check_keys,
    config_array,
    config_float,
    config_int,
    full_gradient,
    problem_from_dict,
)
from .rng import STREAM_X0, pairwise_mean, row_dot, seeded_streams, substream, worker_states
from .theory import analysis_regime, lyapunov_weight

__all__ = [
    "RunConfig",
    "MomentumState",
    "TrialStats",
    "init_state",
    "step",
    "run_trials",
    "per_k_stats",
    "write_run_csv",
    "read_run_csv",
    "CSV_HEADER",
]

DIVERGENCE_F_MAX = 1e12
# worker stream states computed at a time, so memory does not grow with
# iterations x trials x workers
_BLOCK_STREAMS = 1 << 10

CSV_FIELDS = ("f", "grad_norm_sq", "eta_norm_sq", "v_error_sq", "step_norm_sq", "phi")
CSV_HEADER = "k,trial," + ",".join(CSV_FIELDS)
SCHEMA_VERSION = 1
CONFIG_KEYS = ("schema_version", "problem", "gamma", "beta", "iterations", "trials",
               "estimator", "noise", "v_init", "seed", "x0")


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
        self.estimator.contraction_alpha(self.problem)  # raises unless the spec fits

    def resolve_x0(self) -> np.ndarray:
        if self.x0 is not None:
            return as_param_vector(np.asarray(self.x0), self.problem.dimension)
        g = substream(self.seed, STREAM_X0).standard_normal(self.problem.dimension)
        return g / np.linalg.norm(g)

    @classmethod
    def from_dict(cls, d: dict) -> "RunConfig":
        check_keys(d, CONFIG_KEYS, "config", required=("gamma", "beta", "iterations", "problem"))
        if d.get("schema_version", SCHEMA_VERSION) != SCHEMA_VERSION:
            raise ConfigurationError(
                f"unsupported schema_version {d['schema_version']!r}; expected {SCHEMA_VERSION}"
            )
        return cls(
            problem=problem_from_dict(d["problem"]),
            gamma=config_float(d["gamma"], "gamma"),
            beta=config_float(d["beta"], "beta"),
            iterations=config_int(d["iterations"], "iterations"),
            trials=config_int(d.get("trials", 1), "trials"),
            estimator=EstimatorSpec.from_dict(d.get("estimator", {})),
            noise=NoiseSpec.from_dict(d.get("noise", {})),
            v_init=d.get("v_init", "grad_at_x0"),
            x0=None if d.get("x0") is None else tuple(config_array(d["x0"], "x0", 1).tolist()),
            seed=config_int(d.get("seed", 0), "seed"),
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
    """A batch of trials at iteration k: iterates and momentum buffers
    v^{k-1} as (T, d) stacks, row t belonging to ``trials[t]``, and the
    seed of their worker streams."""

    x: np.ndarray
    v_prev: np.ndarray
    k: int
    trials: tuple
    seed: int


def init_state(cfg: RunConfig, trials=(0,)) -> MomentumState:
    x0 = cfg.resolve_x0()
    if cfg.v_init == "grad_at_x0":
        v_prev = full_gradient(cfg.problem, x0)
    else:
        v_prev = np.zeros_like(x0)
    rows = (len(trials), 1)
    return MomentumState(x=np.tile(x0, rows), v_prev=np.tile(v_prev, rows), k=0,
                         trials=tuple(trials), seed=cfg.seed)


def _reads_streams(estimator: EstimatorSpec, noise: NoiseSpec | None) -> bool:
    """Whether a round draws from the worker streams (Gaussian noise or
    composite subsampling)."""
    return estimator.kind == "composite" or (noise is not None and noise.sigma2 > 0)


def _unusable(x: np.ndarray, fval: np.ndarray) -> dict:
    """{row: reason} for the iterates the engine must not step from."""
    bad_x = ~np.all(np.isfinite(x), axis=1)
    out = {}
    for b in np.flatnonzero(bad_x | ~np.isfinite(fval) | (fval > DIVERGENCE_F_MAX)).tolist():
        fb = float(fval[b])
        if bad_x[b]:
            out[b] = "non-finite iterate"
        elif not math.isfinite(fb):
            out[b] = f"non-finite f ({fb})"
        else:
            out[b] = f"f = {fb:.6g} > {DIVERGENCE_F_MAX:g}"
    return out


def step(
    state: MomentumState,
    problem: Problem,
    estimator: EstimatorSpec,
    noise: NoiseSpec | None,
    gamma: float,
    beta: float,
    streams: dict | None = None,
    generator: np.random.Generator | None = None,
) -> tuple[MomentumState, dict, dict]:
    """One server round of every trial in the batch.

    Returns (next state, fields, stopped).  A trial whose iterate is
    unusable (non-finite, non-finite f, or f above DIVERGENCE_F_MAX) or
    whose aggregate is non-finite leaves the batch: it has no values, is
    missing from the next state, and ``stopped`` maps it to the reason.
    ``fields`` maps each CSV field to a (T,) array over the trials that go
    on; the phi column weighs the momentum error with the Lyapunov weight
    of (gamma, beta) in the problem's analysis regime.  ``streams`` maps
    each trial to its n worker stream states at k (one
    ``rng.worker_states`` row), computed here when not given; they are set
    in turn on ``generator`` (a PCG64 one, made here when not given).  A
    round that draws nothing (no Gaussian noise, non-composite estimator)
    builds no state.
    """
    x, v_prev, k, trials = state.x, state.v_prev, state.k, state.trials
    fval = problem.f(x)
    stopped = {}
    bad = _unusable(x, fval)
    if bad:
        trials, x, v_prev, fval = _drop(bad, stopped, trials, x, v_prev, fval)
        if not trials:
            return (MomentumState(x, v_prev, k + 1, trials, state.seed),
                    dict.fromkeys(CSV_FIELDS, np.empty(0)), stopped)
    grads = problem.worker_grads(x)
    grad = pairwise_mean(grads, axis=-2)
    rng = None
    if _reads_streams(estimator, noise):
        if streams is None:
            streams = dict(zip(trials, worker_states(state.seed, trials, problem.n_workers, [k])[0]))
        if generator is None:
            generator = np.random.Generator(np.random.PCG64())
        rng = seeded_streams(chain.from_iterable(streams[t] for t in trials), generator)
    g = aggregate(problem, x, grads, estimator, noise, rng, len(trials))
    bad = dict.fromkeys(np.flatnonzero(~np.all(np.isfinite(g), axis=1)).tolist(), "non-finite aggregate")
    if bad:
        trials, x, v_prev, fval, grad, g = _drop(bad, stopped, trials, x, v_prev, fval, grad, g)

    eta = g - grad
    # beta = 1 must reproduce plain SGD bit-for-bit, so take v = g directly
    # instead of the algebraically equal v_prev + 1.0 * (g - v_prev)
    v = g if beta == 1.0 else v_prev + beta * (g - v_prev)
    x_new = x - gamma * v

    lyapunov_A = lyapunov_weight(gamma, beta, analysis_regime(problem))
    f_star = problem.f_star if problem.f_star is not None else 0.0
    v_err = grad - v_prev
    dx = x_new - x
    v_err_sq = row_dot(v_err, v_err)
    fields = {
        "f": fval,
        "grad_norm_sq": row_dot(grad, grad),
        "eta_norm_sq": row_dot(eta, eta),
        "v_error_sq": v_err_sq,
        "step_norm_sq": row_dot(dx, dx),
        "phi": (fval - f_star) + lyapunov_A * v_err_sq,
    }
    return MomentumState(x_new, v, k + 1, trials, state.seed), fields, stopped


def _drop(rows: dict, stopped: dict, trials: tuple, *arrays):
    """Move the trials of the given {row: reason} into stopped; return the
    other trials and the other rows of each array."""
    stopped.update((trials[b], reason) for b, reason in rows.items())
    keep = np.array([b not in rows for b in range(len(trials))])
    return (tuple(t for t, kept in zip(trials, keep) if kept), *(a[keep] for a in arrays))


@dataclass(frozen=True)
class TrialStats:
    """A run's trajectory table, its per-iteration statistics, and each
    trial's iterates and stop reason.

    ``table`` maps each CSV field to a C-ordered (trial, k) array: row r
    holds the ``lengths[r]`` values of trial ``trials[r]`` and NaN past
    them, up to the longest trial.  mean/std/stderr are per k over the
    trials that reached it (``counts`` of them).  ``iterates`` is the
    (trial, k_max + 1, d) array whose row r holds x^0 .. x^{lengths[r]}
    and NaN past them.  ``reasons[r]`` says why trial ``trials[r]``
    stopped at k = ``lengths[r]`` (no values for that k): a non-finite
    iterate, a non-finite f, f above DIVERGENCE_F_MAX, or a non-finite
    aggregate; it is None for a trial that ran to the end.  A table read
    from a CSV has no iterates (None) and no reasons (empty).
    """

    trials: tuple
    lengths: tuple
    table: dict
    counts: np.ndarray
    mean: dict
    std: dict
    stderr: dict
    iterates: np.ndarray | None = None
    reasons: tuple = ()

    @classmethod
    def from_table(cls, table: dict, trials, lengths, iterates=None, reasons=()) -> "TrialStats":
        """Trim a (trial, k) field table, and the iterates, to the longest
        trial and reduce the table per k.  Deterministic and
        order-independent: every reduction runs over the C-ordered table,
        never over a strided or transposed view."""
        lengths = tuple(int(n) for n in lengths)
        k_max = max(lengths, default=0)
        table = {name: np.ascontiguousarray(table[name][:, :k_max]) for name in CSV_FIELDS}
        mean, std, stderr = {}, {}, {}
        for name, column in table.items():
            _, mean[name], std[name], stderr[name] = per_k_stats(column)
        counts = np.sum(np.arange(k_max) < np.array(lengths, dtype=int)[:, None], axis=0)
        if iterates is not None:
            iterates = iterates[:, :k_max + 1]
        return cls(tuple(trials), lengths, table, counts, mean, std, stderr,
                   iterates, tuple(reasons))

    @property
    def k_max(self) -> int:
        return len(self.counts)

    @property
    def diverged(self) -> tuple:
        """Per row, whether the trial stopped before the end."""
        return tuple(reason is not None for reason in self.reasons)


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


def run_trials(cfg: RunConfig) -> TrialStats:
    """Run all trials (ascending trial id) together, one batched ``step``
    per iteration.

    Each step's field arrays go straight into the trials' rows of the
    (trial, k) table, and its iterates into the trials' rows of the
    iterates.  A diverged trial leaves the batch at its iteration and the
    others go on; each row equals the trial's trajectory on its own.
    Worker stream states are computed for a block of iterations at a time.
    """
    p, K, T = cfg.problem, cfg.iterations, cfg.trials
    state = init_state(cfg, range(T))
    rows = slice(None)  # rows of the tables that the batch fills; row r is trial r
    iterates = np.full((T, K + 1, p.dimension), np.nan)
    iterates[:, 0] = state.x
    table = {name: np.full((T, K), np.nan) for name in CSV_FIELDS}
    draws = _reads_streams(cfg.estimator, cfg.noise)
    generator = np.random.Generator(np.random.PCG64())  # re-seated to each worker stream
    block = max(1, _BLOCK_STREAMS // (T * p.n_workers))
    lengths, reasons = [K] * T, [None] * T

    for k in range(K):
        if not state.trials:
            break
        if draws and k % block == 0:
            streams = [dict(zip(state.trials, per_trial)) for per_trial in
                       worker_states(cfg.seed, state.trials, p.n_workers, range(k, min(k + block, K)))]
        state, fields, stopped = step(state, p, cfg.estimator, cfg.noise, cfg.gamma, cfg.beta,
                                      streams[k % block] if draws else None, generator)
        if stopped:
            for t, reason in stopped.items():
                lengths[t], reasons[t] = k, reason
            rows = list(state.trials)
        iterates[rows, k + 1] = state.x
        for name, values in fields.items():
            table[name][rows, k] = values
    return TrialStats.from_table(table, range(T), lengths, iterates, reasons)


# ---------------------------------------------------------------------------
# CSV emission (one row per iteration per trial; shortest round-trip floats)


def write_run_csv(stats: TrialStats, path) -> None:
    lines = [CSV_HEADER]
    for r, (trial, length) in enumerate(zip(stats.trials, stats.lengths)):
        columns = [stats.table[name][r, :length].tolist() for name in CSV_FIELDS]
        lines.extend(f"{k},{trial}," + ",".join(map(repr, values))
                     for k, values in enumerate(zip(*columns)))
    Path(path).write_text("\n".join(lines) + "\n")


def read_run_csv(path, trials: int) -> TrialStats:
    """The TrialStats of a run CSV of trials 0..trials-1 (inverse of
    write_run_csv).

    Each row lands in its (trial, k) cell, so row order does not matter.
    A trial's k must be exactly 0..K_t-1, once each (a trial that stopped
    at k=0 has no rows); anything else raises a ConfigurationError that
    names the trial and k.
    """
    lines = Path(path).read_text().strip().splitlines()
    if not lines or lines[0] != CSV_HEADER:
        raise ConfigurationError(f"unrecognized CSV header in {path}")
    rows = {}  # (trial, k) -> values
    for line in lines[1:]:
        parts = line.split(",")
        try:
            if len(parts) != 2 + len(CSV_FIELDS):
                raise ValueError
            k, trial = int(parts[0]), int(parts[1])
            values = [float(v) for v in parts[2:]]
        except ValueError:
            raise ConfigurationError(f"malformed CSV row: {line!r}") from None
        if not (0 <= trial < trials and k >= 0):
            raise ConfigurationError(f"{path}: row for trial {trial}, k={k}; the run has "
                                     f"trials 0..{trials - 1} and k >= 0")
        if (trial, k) in rows:
            raise ConfigurationError(f"{path}: duplicate row for trial {trial}, k={k}")
        rows[trial, k] = values
    lengths = [0] * trials
    for trial, _ in rows:
        lengths[trial] += 1
    for trial, k in rows:
        if k >= lengths[trial]:
            missing = next(j for j in range(k) if (trial, j) not in rows)
            raise ConfigurationError(f"{path}: no row for trial {trial}, k={missing}")
    table = np.full((len(CSV_FIELDS), trials, max(lengths, default=0)), np.nan)
    if rows:
        trial_of, k_of = zip(*rows)
        table[:, trial_of, k_of] = np.array(list(rows.values())).T
    return TrialStats.from_table(dict(zip(CSV_FIELDS, table)), range(trials), lengths)
