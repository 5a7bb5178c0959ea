"""Simulated server-worker momentum optimizer.

One round: every worker forms its (noisy, estimator-transformed) gradient
from its private shard, the server averages the n transmissions with a
pairwise tree, blends them into the running estimate

    v_k = v_{k-1} + beta * (g_k - v_{k-1})

and steps x_{k+1} = x_k - gamma * v_k.  beta = 1 turns the recursion into
plain SGD.  Each iteration records f, the realized error eta_k = g_k -
grad f(x_k) and the Lyapunov value, so the trajectory carries everything
the inequality audits need.

A round computes the next state and nothing else (``step``); a block of
rounds is observed once, in bulk (``observe``): f, the exact gradient and
the recorded squared norms over the stack of the block's iterates.  A run
has one result: ``run_trials`` returns a ``TrialStats`` holding a table of
the CSV fields, each a C-ordered (trial, k) array with NaN past the
iteration where a trial stopped, its per-k statistics, and each trial's
visited iterates and stop reason; row r is trial r.  ``write_run_csv`` and
``read_run_csv`` carry the table to text and back, and the audits read its
columns.

Trajectories are pure functions of (config, seed): worker randomness comes
from per-(trial, worker) substreams, one row per iteration, so trials can
run in any order and reproduce identically.  All trials of a run step
together in one fixed-size batch: the iterates and momentum buffers are
(trials, d) stacks, and the worker noise and subset keys of a block of
iterations are drawn in bulk before the block runs.  A trial stops at the
first iteration whose iterate, f or aggregate is unusable, and stops
recording there while the others go on; a round zeroes a row with a
non-finite iterate or aggregate before any arithmetic touches it, and the
observation finds the f stops.  Every trial's trajectory equals the one it
would have alone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import ConfigurationError
from .estimators import _BLOCK_ELEMENTS, EstimatorSpec, evaluate
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
from .rng import STREAM_SUBSET, STREAM_WORKER, STREAM_X0, row_dot, substream
from .theory import analysis_regime, check_beta, lyapunov_weight

__all__ = [
    "RunConfig",
    "TrialStats",
    "step",
    "observe",
    "run_trials",
    "per_k_stats",
    "write_run_csv",
    "read_run_csv",
    "CSV_HEADER",
]

DIVERGENCE_F_MAX = 1e12
_ITERATE, _AGGREGATE = "non-finite iterate", "non-finite aggregate"  # the stops a round finds
# each array of an observed block holds at most this share of the
# _BLOCK_ELEMENTS budget, as it lives beside a block of drawn randomness
_OBSERVE_SHARE = 8

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
        check_beta(self.beta)
        if self.iterations < 0:
            raise ConfigurationError("iterations must be >= 0")
        if self.trials < 1:
            raise ConfigurationError("trials must be >= 1")
        if self.v_init not in ("zero", "grad_at_x0"):
            raise ConfigurationError(f"unknown v_init {self.v_init!r}")
        d = self.problem.dimension
        if self.x0 is not None:
            if not isinstance(self.x0, tuple):
                object.__setattr__(self, "x0", tuple(float(v) for v in np.asarray(self.x0).ravel()))
            if len(self.x0) != d:
                raise ConfigurationError(f"x0 has length {len(self.x0)}, expected {d}")
        self.noise.offset_vector(d)  # raises unless delta_offset has length 1 or d
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
        if self.problem.source is None:  # no JSON document rebuilds it
            raise ConfigurationError(f"a {self.problem.kind} problem built without a source has "
                                     "no config echo; build it with problem_from_dict")
        d = {
            "schema_version": SCHEMA_VERSION,
            "problem": self.problem.source,
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


def init_state(cfg: RunConfig, trials: int = 1) -> tuple[np.ndarray, np.ndarray]:
    """(x, v_prev): the (trials, d) stacks of start iterates and momentum
    buffers v^{-1}, every row the same."""
    x0 = cfg.resolve_x0()
    if cfg.v_init == "grad_at_x0":
        v_prev = full_gradient(cfg.problem, x0)
    else:
        v_prev = np.zeros_like(x0)
    return np.tile(x0, (trials, 1)), np.tile(v_prev, (trials, 1))


def _zero_rows(rows: dict, *arrays) -> tuple:
    """The arrays with the given rows set to zero (copies, when there are rows)."""
    if not rows:
        return arrays
    zero = np.isin(np.arange(len(arrays[0])), list(rows))[:, None]
    return tuple(np.where(zero, 0.0, a) for a in arrays)


def _failing_rows(ok: np.ndarray) -> list:
    """The rows of a (T, ...) bool stack holding a False (one scalar check when none does)."""
    return [] if ok.all() else np.flatnonzero(~ok.reshape(len(ok), -1).all(axis=1)).tolist()


def step(
    x: np.ndarray,
    v_prev: np.ndarray,
    problem: Problem,
    estimator: EstimatorSpec,
    gamma: float,
    beta: float,
    pert: np.ndarray | None = None,
    subsets=None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, dict]:
    """One server round of every row of the (T, d) stacks x and v_prev.

    ``pert`` and ``subsets`` are the round's drawn worker noise and
    composite index sets, one per (row, worker) (see
    ``estimators.evaluate``).  Returns (x_next, v_next, g, stopped): g is the
    (T, d) aggregate.  A row whose iterate or aggregate is non-finite is in
    ``stopped``, which maps it to the reason.  Its x and v_prev (and its
    aggregate) are set to zero before any arithmetic touches them, so its
    non-finite values raise and warn of nothing; its outputs mean nothing,
    and no other row's bits depend on it.  f and the exact gradient are not
    a round's work (see ``observe``).

    Each check looks for rows only when a scalar check of the whole stack
    fails.
    """
    stopped = dict.fromkeys(_failing_rows(np.isfinite(x)), _ITERATE)
    x, v_prev = _zero_rows(stopped, x, v_prev)  # composite problems reject non-finite points
    g = evaluate(problem, x, estimator, pert, subsets)
    for b in _failing_rows(np.isfinite(g)):
        stopped.setdefault(b, _AGGREGATE)
    x, v_prev, g = _zero_rows(stopped, x, v_prev, g)

    # beta = 1 must reproduce plain SGD bit-for-bit, so take v = g directly
    # instead of the algebraically equal v_prev + 1.0 * (g - v_prev)
    v = g if beta == 1.0 else v_prev + beta * (g - v_prev)
    return x - gamma * v, v, g, stopped


def observe(problem: Problem, xs: np.ndarray, v_prev: np.ndarray, g: np.ndarray) -> np.ndarray:
    """The first five CSV fields of a block of c rounds, (5, ..., c): f and
    the four squared norms (the exact gradient, eta, the momentum error and
    the step) of round j of each row of the (..., c + 1, d) stack xs of the
    iterates x^0 .. x^c, whose round j read v_prev[..., j, :] and averaged
    g[..., j, :].

    phi follows from f and v_error_sq.  A non-finite iterate, which stops
    its row at that round, is evaluated as zero, so a composite problem
    never sees it; its fields mean nothing.
    """
    x, x_next = xs[..., :-1, :], xs[..., 1:, :]
    finite = np.isfinite(x).all(axis=-1)
    if not finite.all():
        x = np.where(finite[..., None], x, 0.0)
    fields = np.empty((5,) + x.shape[:-1])
    fields[0] = problem.f(x)
    # grad, eta, the momentum error and the step, each row squared at once
    vectors = np.empty((4,) + x.shape)
    vectors[0] = full_gradient(problem, x)
    np.subtract(g, vectors[0], out=vectors[1])
    np.subtract(vectors[0], v_prev, out=vectors[2])
    np.subtract(x_next, x, out=vectors[3])
    fields[1:] = row_dot(vectors, vectors)
    return fields


@dataclass(frozen=True)
class TrialStats:
    """A run's trajectory table, its per-iteration statistics, and each
    trial's iterates and stop reason; row r is trial r.

    ``table`` maps each CSV field to a C-ordered (trial, k) array: row r
    holds the ``lengths[r]`` values of trial r and NaN past them, up to the
    longest trial.  mean/stderr are per k over the trials that reached it.
    ``iterates`` is the (trial, k_max + 1, d) array whose row r holds
    x^0 .. x^{lengths[r]} and NaN past them.
    ``reasons[r]`` says why trial r stopped at k = ``lengths[r]`` (no
    values for that k): a non-finite iterate, a non-finite f, f above
    DIVERGENCE_F_MAX, or a non-finite aggregate; it is None for a trial
    that ran to the end.  A table read from a CSV has no iterates (None)
    and no reasons (empty).
    """

    lengths: tuple
    table: dict
    mean: dict
    stderr: dict
    iterates: np.ndarray | None = None
    reasons: tuple = ()

    @classmethod
    def from_table(cls, table: dict, lengths, iterates=None, reasons=()) -> "TrialStats":
        """Trim a (trial, k) field table, and the iterates, to the longest
        trial and reduce the table per k.  Deterministic and
        order-independent: every reduction runs over the C-ordered table,
        never over a strided or transposed view."""
        lengths = tuple(int(n) for n in lengths)
        k_max = max(lengths, default=0)
        table = {name: np.ascontiguousarray(table[name][:, :k_max]) for name in CSV_FIELDS}
        mean, stderr = {}, {}
        for name, column in table.items():
            mean[name], stderr[name] = per_k_stats(column, lengths)
        if iterates is not None:
            iterates = iterates[:, :k_max + 1]
        return cls(lengths, table, mean, stderr, iterates, tuple(reasons))

    @property
    def k_max(self) -> int:
        return max(self.lengths, default=0)

    @property
    def diverged(self) -> tuple:
        """Per row, whether the trial stopped before the end."""
        return tuple(reason is not None for reason in self.reasons)


def per_k_stats(table: np.ndarray, lengths) -> tuple[np.ndarray, np.ndarray]:
    """(mean, stderr) per column k of a (trial, k) table over the trials
    r with k < lengths[r]: a cell past its trial's length is left out, and a
    NaN inside one makes its column NaN.  stderr is the sample std over
    sqrt(count), 0 below two trials.
    """
    inside = np.arange(table.shape[1]) < np.asarray(lengths)[:, None]
    counts = np.sum(inside, axis=0)
    with np.errstate(all="ignore"):  # empty or NaN columns, inf - inf, overflow
        mean = np.sum(np.where(inside, table, 0.0), axis=0) / counts
        sq = np.sum(np.where(inside, table - mean, 0.0) ** 2, axis=0)
        stderr = np.where(counts > 1, np.sqrt(sq / (counts - 1)) / np.sqrt(counts), 0.0)
    return mean, stderr


@np.errstate(over="ignore", invalid="ignore")  # a row that overflows stops (see step), silently
def run_trials(cfg: RunConfig) -> TrialStats:
    """Run all trials together, row r being trial r, one batched ``step``
    per iteration and one ``observe`` per block of iterations.

    The batch keeps all its rows to the end.  A trial that stops keeps its
    row but stops recording: its iterates and fields from that iteration on
    are NaN.  It stops at the first iteration k whose iterate is non-finite,
    whose f is non-finite or above DIVERGENCE_F_MAX, or whose aggregate is
    non-finite, for the first of these reasons at that k.  Every trial has
    its own worker streams, so each row equals the trial's trajectory on its
    own.  The worker randomness of a block of iterations is drawn before the
    block runs (``_worker_draws``).  The rounds are observed a block of
    ``_observed_iterations`` at a time, when it ends, their v_prev and
    aggregates held for that block alone; the run ends with the first
    observed block by whose end every trial has stopped.
    """
    p, K, T = cfg.problem, cfg.iterations, cfg.trials
    x, v_prev = init_state(cfg, T)
    iterates = np.empty((T, K + 1, p.dimension))
    iterates[:, 0] = x
    record = np.empty((len(CSV_FIELDS), T, K))
    lengths, reasons = np.full(T, K), [None] * T
    f_star = p.f_star if p.f_star is not None else 0.0
    lyapunov_A = lyapunov_weight(cfg.gamma, cfg.beta, analysis_regime(p))
    block = _observed_iterations(cfg)
    history = np.empty((2, T, min(block, K), p.dimension))  # v_prev and g of a block's rounds
    draws = _worker_draws(cfg)
    for start in range(0, K, block):
        count = min(block, K - start)
        live = {}  # row -> (k, reason) of the first stop a round of the block found
        for j, (pert, subsets) in zip(range(count), draws):
            history[0, :, j] = v_prev
            x, v_prev, history[1, :, j], stopped = step(x, v_prev, p, cfg.estimator, cfg.gamma,
                                                        cfg.beta, pert, subsets)
            for r, reason in stopped.items():
                live.setdefault(r, (start + j, reason))
            iterates[:, start + j + 1] = x
        fields = record[:, :, start:start + count]
        fields[:5] = observe(p, iterates[:, start:start + count + 1], *history[:, :, :count])
        f = fields[0]
        fields[5] = (f - f_star) + lyapunov_A * fields[3]
        f_fails = ~(np.isfinite(f) & (f <= DIVERGENCE_F_MAX))
        for r in live.keys() | set(np.flatnonzero(f_fails.any(axis=1)).tolist()):
            if reasons[r] is not None:
                continue
            # the first failing k, the iterate before f before the aggregate at one k
            k, reason = live.get(r, (K, None))
            first_f = start + int(np.argmax(f_fails[r])) if f_fails[r].any() else K
            if first_f < k or (first_f == k and reason == _AGGREGATE):
                k, fk = first_f, float(f[r, first_f - start])
                reason = (f"f = {fk:.6g} > {DIVERGENCE_F_MAX:g}" if math.isfinite(fk)
                          else f"non-finite f ({fk})")
            lengths[r], reasons[r] = k, reason
        if None not in reasons:
            break
    # a trial records nothing from the iteration it stopped at
    for r in np.flatnonzero(lengths < K):
        record[:, r, lengths[r]:] = np.nan
        iterates[r, lengths[r] + 1:] = np.nan
    return TrialStats.from_table(dict(zip(CSV_FIELDS, record)), lengths, iterates, reasons)


def _observed_iterations(cfg: RunConfig) -> int:
    """Iterations per observed block: each array of the observation fits
    1 / _OBSERVE_SHARE of the _BLOCK_ELEMENTS budget.  Per iteration and
    trial the largest holds the four recorded vectors or what the oracles
    hold per point (``Problem.point_elements``)."""
    per_round = max(4 * cfg.problem.dimension, cfg.problem.point_elements)
    return max(1, _BLOCK_ELEMENTS // (_OBSERVE_SHARE * cfg.trials * per_round))


def _worker_draws(cfg: RunConfig):
    """Yield each iteration's (pert, subsets) for ``step``: the (T, n, d)
    worker noise (the offset vector alone without Gaussian noise, None when
    the noise is null) and the composite (inner, outer) (T, n, S) index
    blocks (None for other kinds).

    Worker w of trial t reads row k of its Gaussian noise from the stream
    keyed (STREAM_WORKER, t, w) and row k of its subset keys from the one
    keyed (STREAM_SUBSET, t, w).  A block of iterations is drawn at a time,
    within the _BLOCK_ELEMENTS budget; each stream is read in C order, so
    the block size changes no value.
    """
    p, spec, noise, K = cfg.problem, cfg.estimator, cfg.noise, cfg.iterations
    workers = [(t, w) for t in range(cfg.trials) for w in range(p.n_workers)]
    d, m = p.dimension, spec.key_width(p)

    def rows(gens, method, count, width):
        """(T, n, count, width): the next count rows of every stream."""
        out = np.empty((len(workers), count, width))
        for gen, block in zip(gens, out):
            getattr(gen, method)(out=block)
        return out.reshape(cfg.trials, p.n_workers, count, width)

    normal = [substream(cfg.seed, STREAM_WORKER, t, w) for t, w in workers] if noise.sigma2 else []
    uniform = [substream(cfg.seed, STREAM_SUBSET, t, w) for t, w in workers] if m else []
    width = (d if normal else 0) + m
    block = max(1, _BLOCK_ELEMENTS // (len(workers) * max(width, 1)))
    for start in range(0, K, block):
        count = min(block, K - start)
        pert = noise.draw(rows(normal, "standard_normal", count, d) if normal else None, d)
        subsets = spec.subsets(p, rows(uniform, "random", count, m)) if m else None
        for j in range(count):  # iteration j's (T, n, ...) views
            yield (pert[:, :, j] if normal else pert,
                   None if subsets is None else (subsets[0][:, :, j], subsets[1][:, :, j]))


# ---------------------------------------------------------------------------
# CSV emission (one row per iteration per trial; shortest round-trip floats)


def write_run_csv(stats: TrialStats, path) -> None:
    lines = [CSV_HEADER]
    for trial, length in enumerate(stats.lengths):
        columns = [stats.table[name][trial, :length].tolist() for name in CSV_FIELDS]
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
    return TrialStats.from_table(dict(zip(CSV_FIELDS, table)), lengths)
