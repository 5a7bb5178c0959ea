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
from operator import attrgetter
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
    "IterationRecord",
    "RunResult",
    "TrialStats",
    "init_state",
    "step",
    "run",
    "run_batch",
    "run_trials",
    "stats_from_results",
    "stats_from_records",
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

    def lyapunov_A(self) -> float:
        """Weight used for the recorded phi column (PL weight when certified)."""
        return lyapunov_weight(self.gamma, self.beta, analysis_regime(self.problem))

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


@dataclass(frozen=True)
class IterationRecord:
    """One iteration of one trial; ``step`` returns one whose fields (but
    k) are (T,) arrays, one entry per trial of its batch."""

    k: int
    f: float
    grad_norm_sq: float
    eta_norm_sq: float
    v_error_sq: float
    step_norm_sq: float
    phi: float


@dataclass(frozen=True)
class RunResult:
    """One trial: per-iteration records, visited iterates, final state.

    A diverged trial stops at iteration ``diverged_at`` (no record for it);
    ``reason`` says why: a non-finite iterate, a non-finite f, f above
    DIVERGENCE_F_MAX, or a non-finite aggregate.
    """

    records: tuple
    iterates: tuple  # x^0 .. x^K (one more than records unless diverged)
    final_state: MomentumState  # the trial's one-row state where it stopped
    trial: int
    diverged_at: int | None = None
    reason: str | None = None

    @property
    def diverged(self) -> bool:
        return self.diverged_at is not None


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
    lyapunov_A: float | None = None,
    streams: dict | None = None,
    generator: np.random.Generator | None = None,
) -> tuple[MomentumState, IterationRecord, dict]:
    """One server round of every trial in the batch.

    Returns (next state, records, stopped).  A trial whose iterate is
    unusable (non-finite, non-finite f, or f above DIVERGENCE_F_MAX) or
    whose aggregate is non-finite leaves the batch: it has no record, is
    missing from the next state, and ``stopped`` maps it to the reason.
    ``records`` holds (T,) arrays over the trials that go on.  ``streams``
    maps each trial to its n worker stream states at k (one
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
            none = np.empty(0)
            return (MomentumState(x, v_prev, k + 1, trials, state.seed),
                    IterationRecord(k, *[none] * len(CSV_FIELDS)), stopped)
    grads = problem.worker_grads(x)
    grad = pairwise_mean(grads.swapaxes(0, 1))
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

    if lyapunov_A is None:
        lyapunov_A = lyapunov_weight(gamma, beta, analysis_regime(problem))
    f_star = problem.f_star if problem.f_star is not None else 0.0
    v_err = grad - v_prev
    dx = x_new - x
    v_err_sq = row_dot(v_err, v_err)
    record = IterationRecord(
        k=k,
        f=fval,
        grad_norm_sq=row_dot(grad, grad),
        eta_norm_sq=row_dot(eta, eta),
        v_error_sq=v_err_sq,
        step_norm_sq=row_dot(dx, dx),
        phi=(fval - f_star) + lyapunov_A * v_err_sq,
    )
    return MomentumState(x_new, v, k + 1, trials, state.seed), record, stopped


def _drop(rows: dict, stopped: dict, trials: tuple, *arrays):
    """Move the trials of the given {row: reason} into stopped; return the
    other trials and the other rows of each array."""
    stopped.update((trials[b], reason) for b, reason in rows.items())
    keep = np.array([b not in rows for b in range(len(trials))])
    return (tuple(t for t, kept in zip(trials, keep) if kept), *(a[keep] for a in arrays))


def run_batch(cfg: RunConfig, trials) -> tuple:
    """Run the given trials together, one batched ``step`` per iteration.

    A diverged trial leaves the batch at its iteration and the others go
    on; each RunResult equals the trial's trajectory on its own.  Worker
    stream states are computed for a block of iterations at a time.
    """
    trials = tuple(trials)
    p, K = cfg.problem, cfg.iterations
    state = init_state(cfg, trials)
    lyap_A = cfg.lyapunov_A()
    row_of = {t: r for r, t in enumerate(trials)}
    rows = slice(None)  # rows of the tables that the batch fills
    iterates = np.empty((K + 1, len(trials), p.dimension))
    iterates[0] = state.x
    table = {name: np.empty((K, len(trials))) for name in CSV_FIELDS}
    draws = _reads_streams(cfg.estimator, cfg.noise)
    generator = np.random.Generator(np.random.PCG64())  # re-seated to each worker stream
    block = max(1, _BLOCK_STREAMS // (len(trials) * p.n_workers))
    ends = {}  # trial -> (diverged_at, reason, final one-row state)

    def end(at, reason, st, t):
        r = st.trials.index(t)
        ends[t] = (at, reason, MomentumState(st.x[r:r + 1], st.v_prev[r:r + 1], st.k, (t,), st.seed))

    for k in range(K):
        if not state.trials:
            break
        if draws and k % block == 0:
            streams = [dict(zip(state.trials, per_trial)) for per_trial in
                       worker_states(cfg.seed, state.trials, p.n_workers, range(k, min(k + block, K)))]
        nxt, rec, stopped = step(state, p, cfg.estimator, cfg.noise, cfg.gamma, cfg.beta, lyap_A,
                                 streams[k % block] if draws else None, generator)
        for t, reason in stopped.items():
            end(k, reason, state, t)
        if stopped:
            rows = [row_of[t] for t in nxt.trials]
        iterates[k + 1, rows] = nxt.x
        for name in CSV_FIELDS:
            table[name][k, rows] = getattr(rec, name)
        state = nxt
    for t in state.trials:
        end(None, None, state, t)
    results = []
    for r, t in enumerate(trials):
        diverged_at, reason, final = ends[t]
        length = K if diverged_at is None else diverged_at
        columns = [table[name][:length, r].tolist() for name in CSV_FIELDS]
        results.append(RunResult(
            records=tuple(map(IterationRecord, range(length), *columns)),
            iterates=tuple(iterates[:length + 1, r]),
            final_state=final,
            trial=t,
            diverged_at=diverged_at,
            reason=reason,
        ))
    return tuple(results)


def run(cfg: RunConfig, trial: int = 0) -> RunResult:
    """Execute one trial (a batch of one); divergence is returned as a flag,
    not raised."""
    return run_batch(cfg, (trial,))[0]


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
    values = np.full((len(CSV_FIELDS), len(per_trial), k_max), np.nan)
    fields = attrgetter(*CSV_FIELDS)
    for t, recs in enumerate(per_trial):
        if recs:
            values[:, t, : len(recs)] = np.array(list(map(fields, recs))).T
    table, mean, std, stderr = {}, {}, {}, {}
    for name, column in zip(CSV_FIELDS, values):
        table[name] = column
        _, mean[name], std[name], stderr[name] = per_k_stats(column)
    counts = np.sum(~np.isnan(table["f"]), axis=0)  # f is finite in every record
    return TrialStats(tuple(results), counts, mean, std, stderr, table)


def stats_from_results(results) -> TrialStats:
    """TrialStats of finished runs (records plus the RunResults behind them)."""
    results = tuple(results)
    return stats_from_records([res.records for res in results], results)


def run_trials(cfg: RunConfig) -> TrialStats:
    """Run all trials (ascending trial id) as one batch and aggregate
    order-independently."""
    return stats_from_results(run_batch(cfg, range(cfg.trials)))


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
