"""Correctness gate over one job's CLI results and emitted artifacts.

A job fails the gate when any of these hold:

* a CLI call raised or exited non-zero (this covers ``report`` too);
* a printed audit line says FAIL;
* a check recorded as PASS in ``reference.json`` comes back SKIP or is
  missing (SKIP -> PASS is allowed);
* a ``run.csv`` does not hold exactly trials x iterations well-formed,
  finite rows in (trial, k) order, or its ``run.json`` marks a diverged
  trial;
* a sweep ``summary.csv`` does not hold one row per value, in order, with
  ``diverged_count`` 0.

The sha256 of every emitted CSV is returned beside the verdict; it is
reported, not gated.
"""

from __future__ import annotations

import hashlib
import json
import math
import re
from dataclasses import dataclass, field
from pathlib import Path

STATUS_LINE = re.compile(r"^(PASS|FAIL|SKIP) (\S+)")
RUN_FIELDS = 8  # k, trial, f, grad_norm_sq, eta_norm_sq, v_error_sq, step_norm_sq, phi
SUMMARY_HEADER = "axis_value,final_plateau_mean,final_plateau_std,iters_to_threshold,diverged_count"

REFERENCE = json.loads((Path(__file__).resolve().parent / "reference.json").read_text())


@dataclass
class CallResult:
    label: str
    code: int
    stdout: str
    error: str | None = None


@dataclass
class Verdict:
    problems: list = field(default_factory=list)
    csv_sha256: dict = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return not self.problems


def statuses(stdout: str) -> dict:
    out = {}
    for line in stdout.splitlines():
        m = STATUS_LINE.match(line)
        if m:
            out[m.group(2)] = m.group(1)
    return out


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def check_run_dir(out_dir: Path, trials: int, iterations: int) -> list[str]:
    """Row count, row shape, order and finiteness of run.csv; diverged flags."""
    problems = []
    csv_path, sidecar = out_dir / "run.csv", out_dir / "run.json"
    if not csv_path.is_file():
        return [f"{csv_path.name} missing in {out_dir.name}"]
    lines = csv_path.read_text().splitlines()
    rows = lines[1:]
    if len(rows) != trials * iterations:
        problems.append(f"{out_dir.name}/run.csv has {len(rows)} rows, "
                        f"expected {trials} x {iterations}")
    for n, line in enumerate(rows):
        parts = line.split(",")
        want = (n // iterations, n % iterations) if iterations else None
        try:
            k, trial = int(parts[0]), int(parts[1])
            values = [float(v) for v in parts[2:]]
        except (ValueError, IndexError):
            problems.append(f"{out_dir.name}/run.csv row {n + 1} unparsable")
            break
        if len(parts) != RUN_FIELDS or (trial, k) != want or not all(map(math.isfinite, values)):
            problems.append(f"{out_dir.name}/run.csv row {n + 1} malformed: {line[:60]!r}")
            break
    if not sidecar.is_file():
        problems.append(f"{sidecar.name} missing in {out_dir.name}")
    else:
        diverged = json.loads(sidecar.read_text()).get("diverged")
        if not isinstance(diverged, list) or len(diverged) != trials or any(diverged):
            problems.append(f"{out_dir.name}/run.json diverged flags {diverged}")
    return problems


def check_summary(out_dir: Path, values) -> list[str]:
    path = out_dir / "summary.csv"
    if not path.is_file():
        return ["summary.csv missing"]
    lines = path.read_text().splitlines()
    if not lines or lines[0] != SUMMARY_HEADER:
        return ["summary.csv header changed"]
    rows = [line.split(",") for line in lines[1:]]
    if [r[0] for r in rows] != [str(v) for v in values]:
        return [f"summary.csv rows {[r[0] for r in rows]} != values {list(values)}"]
    bad = [r[0] for r in rows if len(r) != 5 or r[4] != "0"]
    return [f"summary.csv diverged or malformed at {bad}"] if bad else []


def check_job(workload: str, calls, results) -> Verdict:
    """Gate one job: ``calls`` are workloads.Call, ``results`` CallResult."""
    v = Verdict()
    reference = REFERENCE.get(workload, {})
    for call, res in zip(calls, results):
        if res.error is not None or res.code != 0:
            v.problems.append(f"{call.label}: exit {res.code} {res.error or ''}".strip())
            continue
        seen = statuses(res.stdout)
        for check, status in seen.items():
            if status == "FAIL":
                v.problems.append(f"{call.label}: {check} FAIL")
        for check in reference.get(call.label, ()):
            if seen.get(check) != "PASS":
                v.problems.append(f"{call.label}: {check} was PASS, now {seen.get(check, 'absent')}")
        if call.kind == "run":
            v.problems += check_run_dir(call.out_dir, call.trials, call.iterations)
        elif call.kind == "sweep":
            v.problems += check_summary(call.out_dir, call.values)
            for sub in sorted(p for p in call.out_dir.iterdir() if p.is_dir()):
                v.problems += check_run_dir(sub, call.trials, call.iterations)
        if call.out_dir is not None and call.out_dir.is_dir():
            for csv in sorted(call.out_dir.rglob("*.csv")):
                v.csv_sha256[str(csv.relative_to(call.out_dir.parent))] = sha256(csv)
    return v
