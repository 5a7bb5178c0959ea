#!/usr/bin/env python3
"""Print a sha256 of every output the presets and demos produce.

Usage, from the root of a checkout:

    PYTHONPATH=src python3 tools/output_digest.py [--root CHECKOUT] > digest.txt

The ``biased_momentum`` package is whichever one ``PYTHONPATH`` provides;
the presets and demos come from ``--root`` (default: the checkout holding
this script).  In a fresh temporary directory it runs ``run`` on every
single-run preset, ``sweep`` on every sweep preset, ``verify`` on every
single-run preset, ``report`` on every run, every sweep and every sweep
point, and each demo in a fresh interpreter.  Each artifact and each
stdout gives one ``sha256  name`` line; the ``version`` field of
run.json and sweep.json is dropped before hashing, since it names the
package version, which a change under comparison may bump.  Two
checkouts produce the same bytes exactly when their listings do not
differ.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

SINGLE_RUN = ("pl_quadratic", "topk_quadratic", "clip_quadratic", "maml_composite", "logistic_l2",
              "nonconvex_reg", "composite_toy")
SWEEPS = ("fig2_K", "fig2_delta", "fig2_sigma", "beta_grid", "gamma_grid", "clip_tau")
SIDECARS = ("run.json", "sweep.json")


def digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def artifact_bytes(path: Path) -> bytes:
    if path.name not in SIDECARS:
        return path.read_bytes()
    doc = json.loads(path.read_text())
    doc.pop("version", None)
    return (json.dumps(doc, indent=2, sort_keys=True) + "\n").encode()


def cli(main, name: str, *argv: str) -> None:
    """Run one CLI call in this process and list its stdout and exit code."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(list(argv))
    print(f"{digest(out.getvalue().encode())}  {name} stdout (exit {code})", flush=True)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--root", type=Path, default=Path(__file__).resolve().parents[1],
                        help="checkout whose presets/ and demos/ to run")
    args = parser.parse_args(argv)
    root = args.root.resolve()
    presets = root / "presets"
    os.environ.pop("BIASED_MOMENTUM_SEED", None)  # would override the preset seeds

    import biased_momentum
    from biased_momentum.harness import main as harness_main

    # the demos import the same package as the CLI calls, from any working directory
    package_dir = str(Path(biased_momentum.__file__).resolve().parents[1])
    demo_env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, (package_dir, os.environ.get("PYTHONPATH")))))
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)  # relative --out paths, so stdout names no temporary directory
        for name in SINGLE_RUN:
            cli(harness_main, f"run {name}", "run", str(presets / f"{name}.json"),
                "--out", f"run/{name}")
            cli(harness_main, f"verify {name}", "verify", str(presets / f"{name}.json"))
        for name in SWEEPS:
            cli(harness_main, f"sweep {name}", "sweep", str(presets / f"{name}.json"),
                "--out", f"sweep/{name}")
        reports = sorted(p.parent for p in Path(".").rglob("run.json"))
        reports += sorted(Path("sweep", name) for name in SWEEPS)
        for directory in reports:
            cli(harness_main, f"report {directory}", "report", str(directory))
        for path in sorted(p for p in Path(".").rglob("*") if p.is_file()):
            print(f"{digest(artifact_bytes(path))}  {path}")
        for demo in sorted((root / "demos").glob("*.py")):
            proc = subprocess.run([sys.executable, str(demo)], env=demo_env,
                                  capture_output=True, timeout=600)
            print(f"{digest(proc.stdout)}  demo {demo.name} stdout (exit {proc.returncode})",
                  flush=True)
        os.chdir(root)
    return 0


if __name__ == "__main__":
    sys.exit(main())
