"""Command-line front end: single runs, parameter sweeps, verification.

Subcommands
-----------
run <config.json> --out DIR     write run.csv + run.json (config echo,
                                theory report, diverged flags, version)
sweep <spec.json> --out DIR     one subdirectory per axis value plus
                                summary.csv
verify <config.json>            full audit battery; nonzero exit on any
                                non-skipped failure
report <dir>                    rebuild the theory from the config echo
                                in DIR (replaying its pilot trial), re-run
                                the record-level audits

Config files are JSON; see RunConfig.from_dict for the schema.  The
environment variable BIASED_MOMENTUM_SEED overrides the config seed.
Outputs are byte-reproducible from (config, seed, version).
"""

from __future__ import annotations

import argparse
import copy
import json
import math
import os
import sys
from dataclasses import fields
from pathlib import Path

import numpy as np

from . import __version__
from .audit import (
    AuditOutcome,
    audit_figure2_qualitative,
    pilot_report,
    record_audits,
    verify_config,
)
from .engine import RunConfig, TrialStats, read_run_csv, run_trials, write_run_csv
from .errors import ConfigurationError, DataError
from .problems import check_keys, config_float, config_int
from .theory import TheoryReport

__all__ = [
    "main",
    "load_config",
    "load_sweep",
    "cli_run",
    "cli_sweep",
    "cli_verify",
    "cli_report",
    "sweep_summary_rows",
    "version_string",
]

SEED_ENV = "BIASED_MOMENTUM_SEED"
SWEEP_KEYS = ("base", "axis", "values", "trials", "threshold")
PLATEAU_FRACTION = 0.1  # plateau = mean f over the last 10% of iterations
# sweep axes with a qualitative ordering check, and the row fields it reads
ORDERING_AXES = {"noise.delta_offset": "delta", "noise.sigma2": "sigma2", "estimator.k": "top_k"}
SWEEP_ROW_NUMBERS = ("axis_value", "final_plateau_mean", "iters_to_threshold", "diverged_count")


def version_string() -> str:
    """The package version that run.json and sweep.json record: with the
    config and seed, it is what a run's outputs are reproducible from."""
    return f"biased-momentum {__version__}"


# ---------------------------------------------------------------------------
# config loading


def _load_json(path) -> dict:
    path = Path(path)
    if not path.exists():
        raise ConfigurationError(f"config file not found: {path}")
    try:
        doc = json.loads(path.read_text())
    except json.JSONDecodeError as exc:
        raise ConfigurationError(f"{path}: invalid JSON at line {exc.lineno}: {exc.msg}")
    if not isinstance(doc, dict):
        raise ConfigurationError(f"{path}: top-level JSON value must be an object")
    return doc


def _apply_seed_env(doc: dict) -> dict:
    if SEED_ENV in os.environ:
        raw = os.environ[SEED_ENV]
        if not raw.strip().isdecimal():
            raise ConfigurationError(f"{SEED_ENV}={raw!r} is not a non-negative integer")
        doc = dict(doc, seed=int(raw))
    return doc


def load_config(path) -> RunConfig:
    return RunConfig.from_dict(_apply_seed_env(_load_json(path)))


def load_sweep(path) -> dict:
    doc = _load_json(path)
    _check_sweep(doc)
    doc["base"] = _apply_seed_env(doc["base"])
    return doc


def _check_sweep(doc: dict) -> None:
    """Raise a ConfigurationError unless doc is a sweep spec whose points
    can be built; ``load_sweep`` and ``sweep_summary_rows`` both check."""
    check_keys(doc, SWEEP_KEYS, "sweep spec", required=("base", "axis", "values"))
    if not isinstance(doc["values"], list) or not doc["values"]:
        raise ConfigurationError(f"sweep 'values' must be a non-empty list, got {doc['values']!r}")
    for j, value in enumerate(doc["values"]):
        if isinstance(value, (list, dict)):
            raise ConfigurationError(f"sweep 'values'[{j}] must be a single value, got {value!r}")
    if not isinstance(doc["base"], dict):
        raise ConfigurationError(f"sweep 'base' must be a JSON object, got {doc['base']!r}")
    if doc["axis"] == "trials" and "trials" in doc:  # it would override every axis value
        raise ConfigurationError("a sweep over 'trials' cannot also set a top-level 'trials'")


def set_by_path(doc: dict, dotted: str, value) -> dict:
    """Return a copy of doc with the dotted config path set to value."""
    out = copy.deepcopy(doc)
    node = out
    parts = dotted.split(".")
    for part in parts[:-1]:
        if part not in node or not isinstance(node[part], dict):
            raise ConfigurationError(f"sweep axis {dotted!r}: no such config section {part!r}")
        node = node[part]
    leaf = parts[-1]
    if leaf not in node:
        raise ConfigurationError(f"sweep axis {dotted!r}: no such config field {leaf!r}")
    node[leaf] = value
    return out


# ---------------------------------------------------------------------------
# summaries


def plateau_of(f: np.ndarray) -> float:
    """Mean of a trial's f column over its last PLATEAU_FRACTION."""
    tail = max(1, math.ceil(len(f) * PLATEAU_FRACTION))
    return float(np.mean(f[-tail:]))


def iters_to_threshold(stats: TrialStats, threshold: float) -> int:
    """First iteration where the trial-mean f drops to the threshold (-1 if never)."""
    mean_f = stats.mean["f"]
    hits = np.nonzero(mean_f <= threshold)[0]
    return int(hits[0]) if hits.size else -1


THRESHOLD_KINDS = ("absolute", "fraction_of_initial")


def parse_threshold(spec: dict | None) -> tuple[str, float]:
    """(kind, value) of a sweep's threshold spec; the default is half the initial f."""
    if spec is None:
        return "fraction_of_initial", 0.5
    check_keys(spec, ("kind", "value"), "threshold", required=("kind", "value"))
    if spec["kind"] not in THRESHOLD_KINDS:
        raise ConfigurationError(f"unknown threshold kind {spec['kind']!r}")
    return spec["kind"], config_float(spec["value"], "threshold value")


def resolve_threshold(threshold: tuple[str, float], stats: TrialStats) -> float:
    kind, value = threshold
    if kind == "absolute":
        return value
    if stats.k_max == 0:
        return math.inf
    return value * float(stats.mean["f"][0])


def summarize_point(stats: TrialStats, threshold: float) -> dict:
    plateaus = [plateau_of(stats.table["f"][r, :n]) for r, n in enumerate(stats.lengths)
                if n and not stats.diverged[r]]
    return {
        "final_plateau_mean": float(np.mean(plateaus)) if plateaus else math.nan,
        "final_plateau_std": float(np.std(plateaus)) if plateaus else math.nan,
        "iters_to_threshold": iters_to_threshold(stats, threshold),
        "diverged_count": sum(stats.diverged),
    }


def sweep_summary_rows(sweep_doc: dict):
    """Run every sweep point in order and yield (summary row, config, stats)."""
    _check_sweep(sweep_doc)
    threshold_spec = parse_threshold(sweep_doc.get("threshold"))
    for value in sweep_doc["values"]:
        doc = set_by_path(sweep_doc["base"], sweep_doc["axis"], value)
        if "trials" in sweep_doc:
            doc["trials"] = config_int(sweep_doc["trials"], "trials")
        cfg = RunConfig.from_dict(doc)
        stats = run_trials(cfg)
        threshold = resolve_threshold(threshold_spec, stats)
        yield {"axis_value": value, **summarize_point(stats, threshold)}, cfg, stats


# ---------------------------------------------------------------------------
# artifact writing


def _write_run_artifacts(cfg: RunConfig, stats: TrialStats, out_dir: Path, version: str) -> None:
    """run.csv plus the run.json sidecar (config echo, theory report, flags)."""
    out_dir.mkdir(parents=True, exist_ok=True)
    report, _ = pilot_report(cfg, stats)
    write_run_csv(stats, out_dir / "run.csv")
    doc = {
        "schema_version": 1,
        "config": cfg.to_dict(),
        "theory": report.to_dict(),
        "diverged": list(stats.diverged),
        "version": version,
        "seed": cfg.seed,
    }
    (out_dir / "run.json").write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")


# ---------------------------------------------------------------------------
# printing


def format_theory_table(report: TheoryReport) -> str:
    rows = []
    for key, val in report.to_dict().items():
        if isinstance(val, float):
            rows.append((key, f"{val:.10g}"))
        else:
            rows.append((key, str(val)))
    width = max(len(k) for k, _ in rows)
    return "\n".join(f"  {k:<{width}}  {v}" for k, v in rows)


def format_outcomes(outcomes: list[AuditOutcome]) -> str:
    lines = []
    for o in outcomes:
        tag = {"passed": "PASS", "failed": "FAIL", "skipped": "SKIP"}[o.status]
        extra = ""
        if o.worst_margin is not None:
            extra += f" worst_margin={o.worst_margin:.6g}"
        if o.location:
            extra += f" at {o.location}"
        if o.note:
            extra += f" ({o.note})"
        lines.append(f"{tag} {o.check_name}{extra}")
    return "\n".join(lines)


def _print_audits(report: TheoryReport, outcomes: list[AuditOutcome]) -> int:
    """Print the theory table and the outcomes; exit code 1 on any failure."""
    print("theory report")
    print(format_theory_table(report))
    print()
    print(format_outcomes(outcomes))
    return 1 if any(o.failed for o in outcomes) else 0


# ---------------------------------------------------------------------------
# subcommands


def cli_run(args) -> int:
    cfg = load_config(args.config)
    out_dir = Path(args.out)
    stats = run_trials(cfg)
    _write_run_artifacts(cfg, stats, out_dir, version_string())
    n_div = sum(stats.diverged)
    print(f"wrote {out_dir / 'run.csv'} ({cfg.trials} trials, {n_div} diverged)")
    return 0


def cli_sweep(args) -> int:
    sweep_doc = load_sweep(args.sweep)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    version = version_string()
    summary_lines = [
        "axis_value,final_plateau_mean,final_plateau_std,iters_to_threshold,diverged_count"
    ]
    rows = []
    for row, cfg, stats in sweep_summary_rows(sweep_doc):
        value = row["axis_value"]
        sub = out_dir / f"{sweep_doc['axis'].replace('.', '_')}_{value}"
        _write_run_artifacts(cfg, stats, sub, version)
        rows.append(row)
        summary_lines.append(
            f"{value},{row['final_plateau_mean']!r},{row['final_plateau_std']!r},"
            f"{row['iters_to_threshold']},{row['diverged_count']}"
        )
    (out_dir / "summary.csv").write_text("\n".join(summary_lines) + "\n")
    (out_dir / "sweep.json").write_text(
        json.dumps(
            {"spec": sweep_doc, "rows": rows, "version": version},
            indent=2,
            sort_keys=True,
        )
        + "\n"
    )
    print(f"wrote {out_dir / 'summary.csv'} ({len(rows)} points)")
    return 0


def cli_verify(args) -> int:
    cfg = load_config(args.config)
    report, outcomes, _stats = verify_config(cfg)
    return _print_audits(report, outcomes)


def _check_lengths(stats: TrialStats, diverged, iterations: int, csv_path) -> None:
    """Each trial of a run CSV holds exactly ``iterations`` rows, or fewer when
    run.json's ``diverged`` flags (one true/false per trial) mark it."""
    if not (isinstance(diverged, list) and len(diverged) == len(stats.lengths)
            and all(isinstance(flag, bool) for flag in diverged)):
        raise ConfigurationError(f"run.json 'diverged' needs one true/false per trial, "
                                 f"got {diverged!r}")
    for trial, (length, flag) in enumerate(zip(stats.lengths, diverged)):
        if not (length < iterations if flag else length == iterations):
            raise ConfigurationError(
                f"{csv_path}: trial {trial} has {length} rows for {iterations} iterations, "
                f"but run.json marks it {'' if flag else 'not '}diverged")


def _sweep_rows(doc: dict, path) -> tuple[str, list]:
    """(axis, rows) of a sweep.json document: ``spec`` an object with a
    string ``axis``, ``rows`` a list of objects, and for the axes with an
    ordering check every row's SWEEP_ROW_NUMBERS JSON numbers (NaN
    included, booleans not)."""
    spec, rows = doc.get("spec"), doc.get("rows")
    if not (isinstance(spec, dict) and isinstance(spec.get("axis"), str)):
        raise ConfigurationError(f"{path}: 'spec' must be an object with a string 'axis'")
    if not (isinstance(rows, list) and all(isinstance(row, dict) for row in rows)):
        raise ConfigurationError(f"{path}: 'rows' must be a list of objects")
    if spec["axis"] in ORDERING_AXES:
        for j, row in enumerate(rows):
            for key in SWEEP_ROW_NUMBERS:
                value = row.get(key)
                if isinstance(value, bool) or not isinstance(value, (int, float)):
                    raise ConfigurationError(f"{path}: row {j} {key!r} must be a number, "
                                             f"got {value!r}")
    return spec["axis"], rows


def check_theory(theory, report: TheoryReport) -> None:
    """Refuse a run.json theory document unless it holds every report field
    with the JSON text of report's; the first field that differs is named."""
    names = [f.name for f in fields(TheoryReport)]
    check_keys(theory, names, "theory", required=names)
    for name, value in report.to_dict().items():
        stored, derived = json.dumps(theory[name]), json.dumps(value)
        if stored != derived:
            raise ConfigurationError(f"theory {name!r} is {stored}, but its config gives "
                                     f"{derived}")


def cli_report(args) -> int:
    run_dir = Path(args.dir)
    sidecar_path = run_dir / "run.json"
    csv_path = run_dir / "run.csv"
    sweep_path = run_dir / "sweep.json"
    if sweep_path.exists() and not csv_path.exists():
        axis, rows = _sweep_rows(_load_json(sweep_path), sweep_path)
        kind = ORDERING_AXES.get(axis)
        if kind is None:
            print(f"sweep axis {axis}: no qualitative ordering check defined")
            return 0
        outcome = audit_figure2_qualitative(rows, kind)
        print(format_outcomes([outcome]))
        return 1 if outcome.failed else 0
    if not sidecar_path.exists() or not csv_path.exists():
        raise ConfigurationError(f"no run artifacts (run.csv + run.json) in {run_dir}")
    sidecar = _load_json(sidecar_path)
    cfg = RunConfig.from_dict(sidecar.get("config"))
    report, _ = pilot_report(cfg)
    check_theory(sidecar.get("theory"), report)
    stats = read_run_csv(csv_path, cfg.trials)
    _check_lengths(stats, sidecar.get("diverged"), cfg.iterations, csv_path)
    return _print_audits(report, record_audits(stats, report))


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="biased-momentum",
        description="parallel momentum methods under biased gradients: run, sweep, verify",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="execute one config, write CSV + sidecar")
    p_run.add_argument("config")
    p_run.add_argument("--out", required=True)
    p_run.set_defaults(func=cli_run)

    p_sweep = sub.add_parser("sweep", help="run a one-axis parameter sweep")
    p_sweep.add_argument("sweep")
    p_sweep.add_argument("--out", required=True)
    p_sweep.set_defaults(func=cli_sweep)

    p_verify = sub.add_parser("verify", help="run the audit battery on a config")
    p_verify.add_argument("config")
    p_verify.set_defaults(func=cli_verify)

    p_report = sub.add_parser("report", help="re-print audits from run artifacts")
    p_report.add_argument("dir")
    p_report.set_defaults(func=cli_report)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ConfigurationError, DataError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
