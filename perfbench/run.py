"""Benchmark of the biased_momentum CLI.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Each workload is a job of CLI calls into ``biased_momentum.harness.main``,
made in this process on configs generated from ``--seed``
(``workloads.py``).  Jobs repeat for about ``--seconds`` seconds: a job is
started while its predicted midpoint falls before the deadline.  Every job
passes through the correctness gate (``gate.py``), and a tamper self-test
shows first that the gate fails corrupted output.

``--trace 0`` prints the end-to-end metrics, from untraced jobs only:

* ``setup_s``: median over fresh interpreters of import + config load +
  problem build (``setup_probe.py``), after one untimed warm-up;
* ``wall_s``: median job wall time;
* ``worker_evals_per_s``: worker-gradient evaluations the result needs
  (counted from the configs, not from calls made) divided by ``wall_s``;
* ``peak_rss_mb``: peak resident memory of this process;
* ``pass_ratio``: share of jobs that pass the gate (1 - fail ratio; a
  ratio that is 0 when all is well cannot carry a relative bound).

``--trace 1`` alternates untraced and traced jobs and prints the per-layer
metrics of ``BENCHMARK.json``: per traced job, span counts, self time and
inclusive time of each layer's functions (``tracer.py``), plus the tracing
overhead and the share of job wall covered by spans.  Each value is the
median over traced jobs.

The last stdout line is the result object; the line before it holds the
run record (versions, thread settings, sample counts, tail percentile,
CSV sha256s, gate details), which is also written under ``.perfbench/``.
"""

from __future__ import annotations

import os

# One compute thread: the load comes from this process alone, and BLAS
# threads on a small shared machine only add noise.  Set before numpy loads.
BLAS_THREADS = {v: "1" for v in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                                 "MKL_NUM_THREADS", "BLIS_NUM_THREADS")}
os.environ.update(BLAS_THREADS)
os.environ.pop("BIASED_MOMENTUM_SEED", None)  # would override the generated seeds

import argparse  # noqa: E402
import contextlib  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import re  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import gate  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer, summarize  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = Path.cwd()
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"
SETUP_REPEATS = 7
CHILD_TIMEOUT_S = 60


def die(msg: str) -> None:
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def import_program():
    init = SRC / "biased_momentum" / "__init__.py"
    if not init.is_file():
        die(f"no program source at {init.relative_to(ROOT)}; run from a checkout root")
    sys.path.insert(0, str(SRC))
    import biased_momentum
    from biased_momentum import harness

    if Path(biased_momentum.__file__).resolve() != init.resolve():
        die(f"imported biased_momentum from {biased_momentum.__file__}, not {init}")
    return biased_momentum, harness


def expected_metrics() -> dict:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }


# ---------------------------------------------------------------------------
# jobs


def invoke(main, call, tracer=None, root_id=None):
    buf = io.StringIO()
    code, error = -1, None
    with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(buf):
        try:
            if tracer is None:
                code = main(list(call.argv))
            else:
                code = tracer.call(root_id, main, (list(call.argv),), {})
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 1
        except Exception as exc:  # the gate reports it; the benchmark goes on
            error = f"{type(exc).__name__}: {exc}"
    return gate.CallResult(call.label, code, buf.getvalue(), error)


def run_job(main, job, work: Path, tracer=None):
    shutil.rmtree(work / "out", ignore_errors=True)
    root_id = tracer.name_id("harness.main") if tracer else None
    t0, c0 = time.perf_counter(), time.process_time()
    results = [invoke(main, call, tracer, root_id) for call in job.calls]
    return time.perf_counter() - t0, time.process_time() - c0, results


def self_test(main, work: Path) -> dict:
    """The gate must pass clean output and fail each tampered copy of it."""
    cfg = workloads.tamper_config(work)
    out = work / "tamper"
    calls = [
        workloads.Call("run", "run", ("run", str(cfg), "--out", str(out)), out,
                       trials=2, iterations=30),
        workloads.Call("report", "report", ("report", str(out)), out),
    ]
    results = [invoke(main, c) for c in calls]
    outcome = {"clean_passes": gate.check_job("tamper", calls, results).ok}

    csv = out / "run.csv"
    text = csv.read_text()
    lines = text.splitlines()
    row = lines[7].split(",")
    row[2] = "corrupted"
    csv.write_text("\n".join(lines[:7] + [",".join(row)] + lines[8:]) + "\n")
    outcome["corrupted_row_fails"] = not gate.check_job("tamper", calls, results).ok
    csv.write_text(text)

    report = results[1]
    forced = re.sub(r"^(PASS|SKIP) ", "FAIL ", report.stdout, count=1, flags=re.M)
    tampered = [results[0], gate.CallResult(report.label, report.code, forced)]
    outcome["forced_fail_fails"] = (forced != report.stdout
                                    and not gate.check_job("tamper", calls, tampered).ok)

    skipped = re.sub(r"^PASS ", "SKIP ", report.stdout, flags=re.M)
    tampered = [results[0], gate.CallResult(report.label, report.code, skipped)]
    outcome["pass_to_skip_fails"] = (skipped != report.stdout
                                     and not gate.check_job("tamper", calls, tampered).ok)
    outcome["ok"] = all(outcome.values())
    return outcome


def measure_setup(job) -> list[float]:
    env = dict(os.environ, PYTHONPATH=str(SRC))
    argv = [sys.executable, str(HERE / "setup_probe.py")]
    argv += [f"{kind}:{path}" for kind, path in job.config_files]
    times = []
    for rep in range(SETUP_REPEATS + 1):
        proc = subprocess.run(argv, cwd=ROOT, env=env, capture_output=True, text=True,
                              timeout=CHILD_TIMEOUT_S)
        if proc.returncode != 0:
            die(f"setup probe failed: {proc.stderr.strip()[-500:]}")
        if rep:  # the first run warms the file cache and writes bytecode
            times.append(float(proc.stdout.strip().splitlines()[-1]))
    return times


def tail(samples: list[float]) -> dict:
    """Highest percentile with at least ten samples above it (None when that
    would not be above the median)."""
    s = sorted(samples)
    idx = len(s) - 11
    if idx < 0 or idx <= (len(s) - 1) / 2:
        return {"samples": len(s), "percentile": None, "value_s": None}
    return {"samples": len(s), "percentile": round(100.0 * (idx + 1) / len(s), 1),
            "value_s": s[idx]}


# ---------------------------------------------------------------------------
# per-layer metrics from one traced job's summary


def _agg(spans: dict, pattern: str, field: int) -> float:
    rx = re.compile(pattern)
    return sum(v[field] for k, v in spans.items() if rx.fullmatch(k))


def layer_metrics(s: dict, job) -> dict:
    sp, ct = s["spans"], s["counters"]

    def calls(p):
        return _agg(sp, p, 0)

    def self_s(p):
        return _agg(sp, p, 1)

    def incl_s(p):
        return _agg(sp, p, 2)

    wg = r"problems\.\w+\.worker_grad"
    q_self = self_s(r"problems\.QuadraticProblem\.worker_grad")
    q_bytes = ct.get("kernel.worker_grad.bytes", 0.0)
    m = {
        "problems.worker_grad.calls": calls(wg),
        "problems.worker_grad.self_s": self_s(wg),
        "problems.worker_grad.calls_per_eval": calls(wg) / job.needed_evals,
        "problems.worker_grad.computed_gbps": q_bytes / q_self / 1e9 if q_self > 0 else 0.0,
        "problems.worker_gradient.self_s": self_s(r"problems\.worker_gradient"),
        "problems.f.calls": calls(r"problems\.\w+\.f"),
        "problems.f.self_s": self_s(r"problems\.\w+\.f"),
        "problems.full_gradient.calls": calls(r"problems\.full_gradient"),
        "problems.problem_from_dict.calls": calls(r"problems\.problem_from_dict"),
        "problems.problem_from_dict.self_s": self_s(r"problems\.problem_from_dict"),
        "composite.chained_gradient.calls": calls(r"composite\.chained_gradient"),
        "estimators.worker_estimate.calls": calls(r"estimators\.worker_estimate"),
        "estimators.measure_eta.calls": calls(r"estimators\.measure_eta"),
        "estimators.measure_eta.incl_s": incl_s(r"estimators\.measure_eta"),
        "estimators.measure_eta.share": incl_s(r"estimators\.measure_eta") / s["wall_s"],
        "rng.substream.calls": calls(r"rng\.substream"),
        "rng.pairwise_mean.calls": calls(r"rng\.pairwise_mean"),
        "engine.step.calls": calls(r"engine\.step"),
        "engine.run.calls": calls(r"engine\.run"),
        "engine.run.calls_per_trial": calls(r"engine\.run") / job.needed_trials,
        "engine.run.diverged": ct.get("engine.run.diverged", 0.0),
        "engine.write_run_csv.bytes": ct.get("engine.write_run_csv.bytes", 0.0),
        "theory.build_theory_report.calls": calls(r"theory\.build_theory_report"),
        "audit.audit_affine_variance.incl_s": incl_s(r"audit\.audit_affine_variance"),
        "audit.audit_gradients.incl_s": incl_s(r"audit\.audit_gradients"),
        "audit.skipped": ct.get("audit.skipped", 0.0),
        "audit.failed": ct.get("audit.failed", 0.0),
        "harness.version_string.calls": calls(r"harness\.version_string"),
        "harness.self_s": self_s(r"harness\.\w+"),
        "trace.covered_fraction": s["covered_fraction"],
    }
    for name in ("composite.chained_gradient", "composite.inner_value",
                 "composite.inner_jacobian_t_vec", "composite.outer_gradient_at",
                 "composite.measure_composite_sigmas", "estimators.worker_estimate",
                 "estimators.top_k", "estimators.clip", "estimators.composite_estimate",
                 "rng.substream", "rng.pairwise_mean", "engine.step",
                 "engine.stats_from_results", "engine.write_run_csv", "engine.read_run_csv",
                 "theory.build_theory_report", "theory.measure_heterogeneity",
                 "theory.measure_suboptimality", "audit.verify_config",
                 "audit.audit_descent", "audit.audit_theorem_ncvx", "audit.audit_theorem_pl",
                 "harness.version_string"):
        m[f"{name}.self_s"] = self_s(re.escape(name))
    return m


def kernel_record(s: dict) -> dict:
    ct, sp = s["counters"], s["spans"]
    out = {"source": "computed from array shapes (float64 operands read once, "
                     "results written once), not measured"}
    for what, span in (("worker_grad", "problems.QuadraticProblem.worker_grad"),
                       ("f", "problems.QuadraticProblem.f")):
        n = sp.get(span, (0, 0.0, 0.0))[0]
        if n:
            out[what] = {"calls": n,
                         "bytes_per_call": ct.get(f"kernel.{what}.bytes", 0.0) / n,
                         "flops_per_call": ct.get(f"kernel.{what}.flops", 0.0) / n}
    return out


# ---------------------------------------------------------------------------
# run record


def run_record(pkg, args) -> dict:
    import numpy
    import scipy

    commit = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=CHILD_TIMEOUT_S)
        commit = proc.stdout.strip() or None
    digest = hashlib.sha256()
    for path in sorted((SRC / "biased_momentum").rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "commit": commit,
        "source_sha256": digest.hexdigest(),
        "package_version": getattr(pkg, "__version__", None),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "blas_env": {k: os.environ.get(k) for k in BLAS_THREADS},
    }


def thread_count() -> int | None:
    try:
        for line in Path("/proc/self/status").read_text().splitlines():
            if line.startswith("Threads:"):
                return int(line.split()[1])
    except OSError:
        pass
    return None


# ---------------------------------------------------------------------------


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    pkg, harness = import_program()
    expected = expected_metrics()[args.trace]
    work = OUT / f"work-{args.workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        record = run_record(pkg, args)
        job = workloads.WORKLOADS[args.workload](args.seed, work)
        record["shape"] = job.shape
        record["needed_worker_evals"] = job.needed_evals
        record["self_test"] = self_test(harness.main, work)

        if args.trace == 0:
            setup = measure_setup(job)
            record["setup_samples_s"] = setup

        tracer = Tracer() if args.trace else None
        walls, cpus, traced_walls, verdicts, shas = [], [], [], [], {}
        deadline = time.perf_counter() + args.seconds
        while True:
            traced = tracer is not None and len(walls) > len(traced_walls)
            done = walls and (not tracer or traced_walls)
            history = (traced_walls or [1.5 * statistics.median(walls)]) if traced else walls
            if done and time.perf_counter() + statistics.median(history) / 2 > deadline:
                break
            if traced:
                tracer.job_id = len(traced_walls)
                tracer.install()
                try:
                    wall, _, results = run_job(harness.main, job, work, tracer)
                finally:
                    tracer.uninstall()
                traced_walls.append(wall)
            else:
                wall, cpu, results = run_job(harness.main, job, work)
                walls.append(wall)
                cpus.append(cpu)
            verdict = gate.check_job(args.workload, job.calls, results)
            verdicts.append(verdict.problems)
            for name, digest in verdict.csv_sha256.items():
                shas.setdefault(name, set()).add(digest)

        attempted = len(verdicts)
        failed = sum(1 for p in verdicts if p)
        record["gate_problems"] = sorted({msg for p in verdicts for msg in p})[:50]
        record["fail_ratio"] = {"value": failed / attempted, "unit": "1"}
        record["csv_sha256"] = {k: sorted(v) for k, v in sorted(shas.items())}
        record["wall_samples_s"] = walls
        record["cpu_samples_s"] = cpus
        record["wall_tail"] = tail(walls)
        record["threads"] = thread_count()

        if args.trace == 0:
            wall_s = statistics.median(walls)
            metrics = {
                "setup_s": statistics.median(setup),
                "wall_s": wall_s,
                "worker_evals_per_s": job.needed_evals / wall_s,
                "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                "pass_ratio": (attempted - failed) / attempted,
            }
        else:
            summaries = summarize(tracer)
            per_job = [layer_metrics(s, job) for s in summaries.values()]
            metrics = {k: statistics.median(m[k] for m in per_job) for k in per_job[0]}
            metrics["trace.overhead_ratio"] = (statistics.median(traced_walls)
                                               / statistics.median(walls))
            record["traced_wall_samples_s"] = traced_walls
            record["kernel"] = kernel_record(next(iter(summaries.values())))
            record["untraced_functions"] = tracer.missing
            tracer.save(OUT / f"spans_{args.workload}.npz")

        if set(metrics) != set(expected):
            die(f"metric names differ from BENCHMARK.json: "
                f"{sorted(set(metrics) ^ set(expected))}")
        result = {
            "correct": failed == 0 and record["self_test"]["ok"],
            "attempted": attempted,
            "failed": failed,
            "metrics": {k: {"value": float(metrics[k]), "unit": expected[k]} for k in expected},
        }
        (OUT / f"record_{args.workload}_trace{args.trace}.json").write_text(
            json.dumps(record, indent=1, default=str) + "\n")
        print(json.dumps({"record": record}, default=str))
        print(json.dumps(result))
        return 0
    finally:
        shutil.rmtree(work, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
