"""Simulated server-worker momentum optimizer.

One round: every worker forms its (noisy, estimator-transformed) gradient
from its private shard, the server averages the n transmissions with a
pairwise tree, blends them into the running estimate

    v_k = v_{k-1} + beta * (g_k - v_{k-1})

and steps x_{k+1} = x_k - gamma * v_k.  beta = 1 turns the recursion into
plain SGD.  Each iteration records f, the realized error eta_k = g_k -
grad f(x_k) and the Lyapunov value, so the trajectory carries everything
the inequality audits need.

A run is one loop over blocks of rounds under one size rule: a block's
worker randomness is drawn in bulk, each round computes the next state and
hands back the one table of the problem it averaged (``step``), and the
block is observed once, in bulk, when it ends (``observe``): f and the
exact gradient read off the rounds' tables, and the recorded squared
norms.  A run has one result:
``run_trials`` returns a ``TrialStats`` holding a table of the CSV fields,
each a C-ordered (trial, k) array with NaN past the iteration where a trial
stopped, its per-k statistics, and each trial's visited iterates and stop
reason; row r is trial r.  ``write_run_csv`` and ``read_run_csv`` carry the
table to text and back, and the audits read its columns.

Trajectories are pure functions of (config, seed): worker randomness comes
from per-(trial, worker) substreams, one row per iteration, so trials can
run in any order and reproduce identically.  All trials of a run step
together in one fixed-size batch: the iterates and momentum buffers are
(trials, d) stacks.  A trial stops at the first iteration whose iterate, f
or aggregate is unusable, and stops recording there while the others go
on.  Neither a round nor the observation checks or zeroes anything: a
stopped row steps on, and is observed at, its non-finite values, silently,
and the end of each block finds every stop of its rounds at once.  Every
trial's trajectory equals the one it would have alone.
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
    exact_gradient,
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
# rounds a block holds at least, however many trials share its budget, so a
# many-trial run pays the per-block costs once every 16 rounds at most
_MIN_BLOCK = 16

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


def step(
    x: np.ndarray,
    v_prev: np.ndarray,
    problem: Problem,
    estimator: EstimatorSpec,
    gamma: float,
    beta: float,
    pert: np.ndarray | None = None,
    subsets=None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, tuple]:
    """One server round of every row of the (T, d) stacks x and v_prev.

    ``pert`` and ``subsets`` are the round's drawn worker noise and
    composite index sets, one per (row, worker) (see
    ``estimators.evaluate``).  Returns (x_next, v_next, g, evaluation): g is
    the (T, d) aggregate and ``evaluation`` the one table of the problem it
    was formed from (``Problem.table``), which ``observe`` reads f and the
    exact gradient off.  The round is arithmetic alone: it checks nothing,
    a row with a non-finite iterate or aggregate steps on its non-finite
    values, and no other row's bits depend on it.  f and the stops are not a round's work
    (see ``observe`` and ``run_trials``).
    """
    g, evaluation = evaluate(problem, x, estimator, pert, subsets)
    # beta = 1 must reproduce plain SGD bit-for-bit, so take v = g directly
    # instead of the algebraically equal v_prev + 1.0 * (g - v_prev)
    v = g if beta == 1.0 else v_prev + beta * (g - v_prev)
    return x - gamma * v, v, g, evaluation


def observe(problem: Problem, xs: np.ndarray, v_prev: np.ndarray, g: np.ndarray,
            evaluation: tuple) -> np.ndarray:
    """The first five CSV fields of a block of c rounds, (5, ..., c): f and
    the four squared norms (the exact gradient, eta, the momentum error and
    the step) of round j of each row of the (..., c + 1, d) stack xs of the
    iterates x^0 .. x^c, whose round j read v_prev[..., j, :], built the
    table that ``evaluation`` holds at [..., j] of each array (the rounds'
    tables stacked) and averaged g[..., j, :].  f and the exact gradient are
    read off those tables.  Nothing is checked: the fields of a row's round
    at a non-finite iterate, which stops the row, and later mean nothing.
    """
    x, x_next = xs[..., :-1, :], xs[..., 1:, :]
    fields = np.empty((5,) + x.shape[:-1])
    fields[0] = problem.table_f(evaluation, x)
    # grad, eta, the momentum error and the step, each row squared at once
    vectors = np.empty((4,) + x.shape)
    vectors[0] = exact_gradient(problem, evaluation)
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


@np.errstate(over="ignore", invalid="ignore")  # an overflowing row steps on, silently, to its stop
def run_trials(cfg: RunConfig) -> TrialStats:
    """Run all trials together, row r being trial r, one batched ``step``
    per iteration and one ``observe`` per block of iterations.

    The batch keeps all its rows to the end.  A trial that stops keeps its
    row but stops recording: its iterates and fields from that iteration on
    are NaN.  It stops at the first iteration k whose iterate is non-finite,
    whose f is non-finite or above DIVERGENCE_F_MAX, or whose aggregate is
    non-finite, for the first of these reasons at that k.  Every trial has
    its own worker streams, so each row equals the trial's trajectory on its
    own.  A run is one loop over blocks of ``_block_iterations`` rounds:
    each block draws its rounds' worker randomness (``_worker_draws``),
    steps them, holding their v_prev, aggregates and tables, and is
    observed when it ends; its end finds its stops, and the run ends with
    the first block by whose end every trial has stopped.
    """
    p, K, T = cfg.problem, cfg.iterations, cfg.trials
    x, v_prev = init_state(cfg, T)
    iterates = np.empty((T, K + 1, p.dimension))
    iterates[:, 0] = x
    record = np.empty((len(CSV_FIELDS), T, K))
    lengths, reasons = np.full(T, K), [None] * T
    f_star = p.f_star if p.f_star is not None else 0.0
    lyapunov_A = lyapunov_weight(cfg.gamma, cfg.beta, analysis_regime(p))
    block = _block_iterations(cfg)
    history = np.empty((2, T, min(block, K), p.dimension))  # v_prev and g of a block's rounds
    held = ()  # and each array of their tables, (T, block, ...), from the first round on
    draw = _worker_draws(cfg)
    for start in range(0, K, block):
        count = min(block, K - start)
        for j, draws in enumerate(draw(count)):
            history[0, :, j] = v_prev
            x, v_prev, history[1, :, j], evaluation = step(
                x, v_prev, p, cfg.estimator, cfg.gamma, cfg.beta, *draws)
            held = held or tuple(np.empty(history.shape[1:3] + a.shape[1:]) for a in evaluation)
            for array, a in zip(held, evaluation):
                array[:, j] = a
            iterates[:, start + j + 1] = x
        del draws  # so the next block is drawn while none is held
        fields = record[:, :, start:start + count]
        fields[:5] = observe(p, iterates[:, start:start + count + 1], *history[:, :, :count],
                             tuple(a[:, :count] for a in held))
        f = fields[0]
        fields[5] = (f - f_star) + lyapunov_A * fields[3]
        # a row stops at its first failing round, for its iterate before its f
        # before its aggregate at one round; rows are looked for only when a
        # scalar check of the whole block fails
        usable = (np.isfinite(iterates[:, start:start + count]),
                  (np.isfinite(f) & (f <= DIVERGENCE_F_MAX))[..., None],
                  np.isfinite(history[1, :, :count]))
        if not all(ok.all() for ok in usable):
            fails = ~np.stack([ok.all(axis=-1) for ok in usable])  # (cause, row, round)
            for r in np.flatnonzero(fails.any(axis=(0, 2)) & (lengths == K)):
                j = int(np.argmax(fails[:, r].any(axis=0)))
                fk = float(f[r, j])
                reasons[r] = ("non-finite iterate",
                              f"f = {fk:.6g} > {DIVERGENCE_F_MAX:g}" if math.isfinite(fk)
                              else f"non-finite f ({fk})",
                              "non-finite aggregate")[np.argmax(fails[:, r, j])]
                lengths[r] = start + j
        if None not in reasons:
            break
    # a trial records nothing from the iteration it stopped at
    for r in np.flatnonzero(lengths < K):
        record[:, r, lengths[r]:] = np.nan
        iterates[r, lengths[r] + 1:] = np.nan
    return TrialStats.from_table(dict(zip(CSV_FIELDS, record)), lengths, iterates, reasons)


def _block_iterations(cfg: RunConfig) -> int:
    """Rounds per block, drawn, stepped and observed together.  Per trial
    and round a block holds n·(d + key_width) draws, v_prev and g (2d), the
    table and the reads off it (``Problem.point_elements`` at most) and the
    observation's 4d elements; the T trials' block fits _BLOCK_ELEMENTS but
    holds _MIN_BLOCK rounds at least, so max(_BLOCK_ELEMENTS, _MIN_BLOCK · T ·
    per_round) float64 elements at most.  A run's peak is that beside its
    (T, K + 1, d) iterates and (6, T, K) record: linear in T, flat in K."""
    p, d = cfg.problem, cfg.problem.dimension
    per_round = p.n_workers * (d + cfg.estimator.key_width(p)) + 6 * d + p.point_elements
    return max(_MIN_BLOCK, _BLOCK_ELEMENTS // (cfg.trials * per_round))


def _worker_draws(cfg: RunConfig):
    """draw(count): the next count rounds' (pert, subsets) for ``step``,
    views of one block of draws: the (T, n, d) worker noise (the offset
    vector alone without Gaussian noise, None when the noise is null) and
    the composite (inner, outer) (T, n, S) index blocks (None otherwise).

    Worker w of trial t reads row k of its Gaussian noise from the stream
    keyed (STREAM_WORKER, t, w) and row k of its subset keys from the one
    keyed (STREAM_SUBSET, t, w), count rows of each stream per call; each
    stream is read in C order, so the block length changes no value.
    """
    p, spec, noise = cfg.problem, cfg.estimator, cfg.noise
    workers = [(t, w) for t in range(cfg.trials) for w in range(p.n_workers)]
    d, m = p.dimension, spec.key_width(p)
    normal = [substream(cfg.seed, STREAM_WORKER, t, w) for t, w in workers] if noise.sigma2 else []
    uniform = [substream(cfg.seed, STREAM_SUBSET, t, w) for t, w in workers] if m else []

    def rows(gens, method, count, width):
        """(T, n, count, width): the next count rows of every stream."""
        out = np.empty((len(workers), count, width))
        for gen, block in zip(gens, out):
            getattr(gen, method)(out=block)
        return out.reshape(cfg.trials, p.n_workers, count, width)

    def draw(count):
        pert = noise.draw(rows(normal, "standard_normal", count, d) if normal else None, d)
        subsets = spec.subsets(p, rows(uniform, "random", count, m)) if m else None
        return [(pert[:, :, j] if normal else pert,
                 None if subsets is None else (subsets[0][:, :, j], subsets[1][:, :, j]))
                for j in range(count)]

    return draw


# ---------------------------------------------------------------------------
# CSV emission (one row per iteration per trial; shortest round-trip floats)


def write_run_csv(stats: TrialStats, path) -> None:
    """Write the table as CSV_HEADER and one row per (trial, k), trial by
    trial, each trial formatted as one block."""
    width = 2 + len(CSV_FIELDS)
    row = "%d,%d" + ",%r" * len(CSV_FIELDS) + "\n"
    with open(path, "w") as out:
        out.write(CSV_HEADER + "\n")
        for trial, length in enumerate(stats.lengths):
            cells = [trial] * (width * length)  # k, trial and the fields, row after row
            cells[0::width] = range(length)
            for j, name in enumerate(CSV_FIELDS, 2):
                cells[j::width] = stats.table[name][trial, :length].tolist()
            out.write(row * length % tuple(cells))


_CSV_ROW = np.dtype([("k", np.int64), ("trial", np.int64)]
                    + [(name, np.float64) for name in CSV_FIELDS])


def read_run_csv(path, trials: int) -> TrialStats:
    """The TrialStats of a run CSV of trials 0..trials-1 (inverse of
    write_run_csv).

    Each row lands in its (trial, k) cell, so row order does not matter.
    A trial's k must be exactly 0..K_t-1, once each (a trial that stopped
    at k=0 has no rows); anything else raises a ConfigurationError that
    names the row, or the trial and k.  The data rows are parsed by one
    ``np.loadtxt`` call.  A row is malformed if it is empty or if
    ``loadtxt`` refuses it: a field count other than 2 + len(CSV_FIELDS),
    a k or trial that is not an int64, or a field that is not a float (a
    row starting with '#' included).  In a file with several faults the
    first of these is named, each the first of its kind in row order: a
    malformed row, a trial or k out of range, a duplicate, a missing row.
    """
    lines = Path(path).read_text().strip().splitlines()
    if not lines or lines[0] != CSV_HEADER:
        raise ConfigurationError(f"unrecognized CSV header in {path}")
    del lines[0]
    rows = _csv_rows(lines) if lines else np.empty(0, _CSV_ROW)  # loadtxt warns on no data
    k, trial = rows["k"], rows["trial"]
    outside = np.flatnonzero((trial < 0) | (trial >= trials) | (k < 0))
    if outside.size:
        r = outside[0]
        raise ConfigurationError(f"{path}: row for trial {trial[r]}, k={k[r]}; the run has "
                                 f"trials 0..{trials - 1} and k >= 0")
    order = np.lexsort((k, trial))  # stable: a repeat sorts after the row it repeats
    repeats = order[1:][(k[order[1:]] == k[order[:-1]]) & (trial[order[1:]] == trial[order[:-1]])]
    if repeats.size:
        r = repeats.min()
        raise ConfigurationError(f"{path}: duplicate row for trial {trial[r]}, k={k[r]}")
    lengths = np.bincount(trial, minlength=trials)
    beyond = k >= lengths[trial]
    if beyond.any():
        t = trial[np.argmax(beyond)]
        present = np.zeros(lengths[t], bool)
        present[k[(trial == t) & ~beyond]] = True
        raise ConfigurationError(f"{path}: no row for trial {t}, k={np.argmin(present)}")
    table = np.full((len(CSV_FIELDS), trials, max(lengths, default=0)), np.nan)
    table[:, trial, k] = [rows[name] for name in CSV_FIELDS]
    return TrialStats.from_table(dict(zip(CSV_FIELDS, table)), lengths)


def _csv_rows(lines: list) -> np.ndarray:
    """The data lines as _CSV_ROW records; a ConfigurationError names the
    first line that is empty (which ``np.loadtxt`` would skip) or that
    ``loadtxt`` refuses on its own."""
    try:
        if "" in lines:
            raise ValueError
        return np.loadtxt(lines, _CSV_ROW, comments=None, delimiter=",", ndmin=1)
    except ValueError:
        if len(lines) > 1:
            for line in lines:  # only on a fault: raises at the first refused line
                _csv_rows([line])
        raise ConfigurationError(f"malformed CSV row: {lines[0]!r}") from None
