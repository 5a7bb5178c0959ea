#!/usr/bin/env python3
"""Print the best-of cost, in microseconds, of one engine round, of a whole
run and of the oracles they call:
``PYTHONPATH=src python3 tools/step_cost.py [--repeat R]``.

Shapes: the topk_quadratic, clip_quadratic and maml_composite presets, and
"traj", pl_quadratic with 4 workers, 4 trials and sigma2 = 0.01 (the
traj_small_d benchmark shape), each at its start stack and first round of
draws; ``measure_eta`` takes verify's 1000 draws at x0.  The verify
layers: ``sigmas`` is ``measure_composite_sigmas`` at 20 standard normal
points (composite shapes only, "-" elsewhere) and ``grad_audit`` is
``audit_gradients`` at verify's 25 points; ``evaluate`` is the round's
aggregate and the one evaluation ``step`` calls, and ``observe`` the bulk
observation (f, and the exact gradient read off the rounds' evaluations,
and the squared norms) of one block of the run's iterations, at points
near the start stack; a run of K iterations observes ceil(K / block)
blocks.  ``run`` is the shape's whole ``run_trials``: its rounds, its
observed blocks and, at each block's end, the search for stops, which is
no round's work, so a cost that moves between ``step`` and the block end
shows in it.  ``replay`` is ``pilot_report`` without trial statistics, the
theory rebuild ``report`` runs: a replay of trial 0 where the estimator
measures a premise (top-k, clip with f* known, composite), the closed
forms alone on "traj".  ``write_csv`` and ``read_csv`` carry the shape's
full run table to run.csv and back.  A figure is the best of R loops of
about 20 ms, divided by the loop's length.
"""

import argparse
import json
import tempfile
import timeit
from pathlib import Path

from biased_momentum.audit import audit_gradients, pilot_report
from biased_momentum.composite import CompositeProblem, measure_composite_sigmas
from biased_momentum.engine import (RunConfig, _observed_iterations, _worker_draws, init_state,
                                   observe, read_run_csv, run_trials, step, write_run_csv)
from biased_momentum.estimators import _evaluation, evaluate, measure_eta
from biased_momentum.rng import STREAM_MEASURE, substream

PRESETS = Path(__file__).resolve().parent.parent / "presets"
SHAPES = {"traj": "pl_quadratic", "topk": "topk_quadratic", "clip": "clip_quadratic",
          "maml": "maml_composite"}
COLUMNS = ("step", "f", "worker_grads", "evaluate", "observe", "run", "measure_eta", "sigmas",
           "grad_audit", "replay", "write_csv", "read_csv")


def config(name: str) -> RunConfig:
    doc = json.loads((PRESETS / f"{SHAPES[name]}.json").read_text())
    if name == "traj":
        doc["problem"]["n_workers"], doc["trials"], doc["noise"]["sigma2"] = 4, 4, 0.01
    return RunConfig.from_dict(doc)


def best_us(call, repeat: int) -> float:
    timer = timeit.Timer(call)
    number = max(1, int(0.02 / min(timer.repeat(3, 1))))
    return min(timer.repeat(repeat, number)) / number * 1e6


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--repeat", type=int, default=7)
    repeat = parser.parse_args().repeat
    widths = [max(12, len(c)) for c in COLUMNS]
    print("shape " + " ".join(f"{c:>{w}}" for c, w in zip(COLUMNS, widths)) + "   (best-of us)")
    with tempfile.TemporaryDirectory() as work:
        for name in SHAPES:
            row(name, Path(work) / f"{name}.csv", repeat, widths)


def row(name: str, csv: Path, repeat: int, widths: list) -> None:
    """Print shape name's row of figures."""
    cfg = config(name)
    p, spec, noise = cfg.problem, cfg.estimator, cfg.noise
    x, v = init_state(cfg, cfg.trials)
    pert, subsets = next(_worker_draws(cfg))
    count = min(_observed_iterations(cfg), cfg.iterations)
    shape = (3, cfg.trials, count + 1, p.dimension)
    near = 1.0 + 0.01 * substream(0, STREAM_MEASURE, 200).standard_normal(shape)
    xs, history = x[:, None] * near[0], v[:, None] * near[1:, :, 1:]
    evaluation = _evaluation(p, xs[:, :-1], spec)  # each round's, stacked
    stats = run_trials(cfg)
    write_run_csv(stats, csv)
    calls = {
        "step": lambda: step(x, v, p, spec, cfg.gamma, cfg.beta, pert, subsets),
        "f": lambda: p.f(x),
        "worker_grads": lambda: p.worker_grads(x),
        "evaluate": lambda: evaluate(p, x, spec, pert, subsets),
        "observe": lambda: observe(p, spec, xs, *history, evaluation),
        "run": lambda: run_trials(cfg),
        "measure_eta": lambda: measure_eta(p, x[0], spec, noise, samples=1000,
                                           rng=substream(0, STREAM_MEASURE, 100)),
        "grad_audit": lambda: audit_gradients(p, n_points=25, seed=cfg.seed),
        "replay": lambda: pilot_report(cfg),
        "write_csv": lambda: write_run_csv(stats, csv),
        "read_csv": lambda: read_run_csv(csv, cfg.trials),
    }
    if isinstance(p, CompositeProblem):
        points = list(substream(0, STREAM_MEASURE, 300).standard_normal((20, p.dimension)))
        calls["sigmas"] = lambda: measure_composite_sigmas(p, points)
    print(f"{name:<5} " + " ".join(f"{best_us(calls[c], repeat):{w}.1f}" if c in calls
                                   else f"{'-':>{w}}" for c, w in zip(COLUMNS, widths)))


if __name__ == "__main__":
    main()
