"""Span tracing of the program's layers, from outside the program.

``Tracer.install`` replaces each traced function of ``biased_momentum``
with a timing wrapper wherever a module of the package bound it by name
(``engine`` imports ``worker_estimate`` from ``estimators``, ``audit``
imports ``run`` from ``engine``, and so on), and each traced oracle
method on the problem classes that define it.  ``uninstall`` puts the
originals back, so untraced jobs run the unmodified program.

A span is (name, start, end, parent, job).  Spans live in flat arrays in
memory while jobs run; ``save`` writes them once at the end, and
``summarize`` derives self time (span duration minus the time its child
spans cover) from the same arrays.

A traced function that a later version of the program no longer has is
skipped and simply reports zero calls.
"""

from __future__ import annotations

import functools
import os
import sys
from array import array
from time import perf_counter

import numpy as np

PACKAGE = "biased_momentum"
ROOT = "harness.main"  # one span per CLI call, recorded by the benchmark

# layer -> functions of that module timed as spans (the per-layer metrics)
FUNCTIONS = {
    "problems": ("worker_gradient", "full_gradient", "problem_from_dict"),
    "composite": ("chained_gradient", "inner_value", "inner_jacobian_t_vec",
                  "outer_gradient_at", "measure_composite_sigmas"),
    "estimators": ("worker_estimate", "top_k", "clip", "composite_estimate",
                   "measure_eta"),
    "rng": ("substream", "pairwise_mean"),
    "engine": ("step", "run", "stats_from_results", "write_run_csv", "read_run_csv"),
    "theory": ("build_theory_report", "measure_heterogeneity", "measure_suboptimality"),
    "audit": ("verify_config", "audit_affine_variance", "audit_gradients",
              "audit_descent", "audit_theorem_ncvx", "audit_theorem_pl"),
    "harness": ("version_string",),
}
# oracle methods, timed on every Problem subclass that defines them
METHODS = ("worker_grad", "f")
METHOD_MODULES = ("problems", "composite")
AUDITS = ("audit_affine_variance", "audit_gradients", "audit_descent",
          "audit_theorem_ncvx", "audit_theorem_pl")


def quadratic_kernel(dimension: int, n_workers: int, i: int, what: str) -> tuple[int, int]:
    """Computed (bytes, flops) of one quadratic oracle call, from array shapes.

    worker_grad(i, x) = n * A_i^T (A_i x) on row block i of the d x d
    matrix A (``np.array_split`` row blocks); f(x) = 0.5 ||A x||^2.
    Bytes count each float64 operand read once and each result written
    once; cache effects are ignored.
    """
    d = dimension
    if what == "worker_grad":
        r = d // n_workers + (1 if i < d % n_workers else 0)
        return 8 * (2 * r * d + 2 * r + 4 * d), 4 * r * d + d
    return 8 * (d * d + d + 2 * d), 2 * d * d + 2 * d


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.job = array("i")
        self.start = array("d")
        self.end = array("d")
        self.stack = [-1]
        self.job_id = -1
        self.counters: dict[tuple[int, str], float] = {}
        self._patches: list[tuple[object, str, object]] = []
        self.missing: list[str] = []

    # -- recording ---------------------------------------------------------

    def name_id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def count(self, key: str, value: float = 1.0) -> None:
        k = (self.job_id, key)
        self.counters[k] = self.counters.get(k, 0.0) + value

    def call(self, nid: int, fn, args, kwargs):
        idx = len(self.name)
        self.name.append(nid)
        self.parent.append(self.stack[-1])
        self.job.append(self.job_id)
        self.end.append(0.0)
        self.stack.append(idx)
        self.start.append(perf_counter())
        try:
            return fn(*args, **kwargs)
        finally:
            self.end[idx] = perf_counter()
            self.stack.pop()

    def wrap(self, fn, span: str, after=None):
        nid = self.name_id(span)
        call = self.call

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            out = call(nid, fn, args, kwargs)
            if after is not None:
                after(args, kwargs, out)
            return out

        return traced

    # -- installing --------------------------------------------------------

    def _package_modules(self):
        return [m for n, m in list(sys.modules.items())
                if m is not None and (n == PACKAGE or n.startswith(PACKAGE + "."))]

    def _after_hooks(self):
        def diverged(args, kwargs, out):
            if getattr(out, "diverged", False):
                self.count("engine.run.diverged")

        def csv_bytes(args, kwargs, out):
            path = args[1] if len(args) > 1 else kwargs.get("path")
            try:
                self.count("engine.write_run_csv.bytes", os.path.getsize(path))
            except (OSError, TypeError):
                pass

        def audit_status(args, kwargs, out):
            status = getattr(out, "status", None)
            if status in ("skipped", "failed"):
                self.count(f"audit.{status}")

        hooks = {("engine", "run"): diverged, ("engine", "write_run_csv"): csv_bytes}
        hooks.update({("audit", a): audit_status for a in AUDITS})
        return hooks

    def _kernel_hook(self, what: str):
        def hook(args, kwargs, out):
            p, i = args[0], (args[1] if what == "worker_grad" else 0)
            nbytes, flops = quadratic_kernel(p.dimension, p.n_workers, i, what)
            self.count(f"kernel.{what}.bytes", nbytes)
            self.count(f"kernel.{what}.flops", flops)
        return hook

    def install(self) -> None:
        """Wrap every traced function and method (no-op while installed)."""
        if self._patches:
            return
        self.missing = []
        modules = self._package_modules()
        hooks = self._after_hooks()
        for layer, fnames in FUNCTIONS.items():
            mod = sys.modules.get(f"{PACKAGE}.{layer}")
            for fname in fnames:
                orig = getattr(mod, fname, None)
                if orig is None:
                    self.missing.append(f"{layer}.{fname}")
                    continue
                traced = self.wrap(orig, f"{layer}.{fname}", hooks.get((layer, fname)))
                for m in modules:
                    for attr, val in list(vars(m).items()):
                        if val is orig:
                            self._patches.append((m, attr, orig))
                            setattr(m, attr, traced)
        base = getattr(sys.modules.get(f"{PACKAGE}.problems"), "Problem", None)
        for modname in METHOD_MODULES:
            mod = sys.modules.get(f"{PACKAGE}.{modname}")
            for cls in list(vars(mod).values()) if mod else ():
                if not (isinstance(cls, type) and base and issubclass(cls, base)
                        and cls is not base):
                    continue
                for meth in METHODS:
                    orig = cls.__dict__.get(meth)
                    if orig is None:
                        continue
                    after = (self._kernel_hook(meth)
                             if cls.__name__ == "QuadraticProblem" else None)
                    traced = self.wrap(orig, f"problems.{cls.__name__}.{meth}", after)
                    self._patches.append((cls, meth, orig))
                    setattr(cls, meth, traced)

    def uninstall(self) -> None:
        for obj, attr, orig in reversed(self._patches):
            setattr(obj, attr, orig)
        self._patches.clear()

    # -- output ------------------------------------------------------------

    def arrays(self) -> dict:
        return {
            "name": np.frombuffer(self.name, dtype=np.int32).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int32).copy(),
            "job": np.frombuffer(self.job, dtype=np.int32).copy(),
            "start": np.frombuffer(self.start, dtype=np.float64).copy(),
            "end": np.frombuffer(self.end, dtype=np.float64).copy(),
        }

    def save(self, path) -> None:
        np.savez_compressed(path, names=np.array(self.names), **self.arrays())


def summarize(tracer: Tracer) -> dict:
    """Per traced job: {span name: (calls, self_s, incl_s)}, root coverage
    and counters.  Spans of a name nested inside the same name would be
    counted twice in incl_s; no traced function calls itself."""
    a = tracer.arrays()
    n = len(a["name"])
    dur = a["end"] - a["start"]
    has_parent = a["parent"] >= 0
    child = np.bincount(a["parent"][has_parent], weights=dur[has_parent], minlength=n)
    self_t = dur - child
    root = tracer.name_id(ROOT)
    k = len(tracer.names)
    out = {}
    for j in sorted(set(a["job"].tolist())):
        sel = a["job"] == j
        names = a["name"][sel]
        calls = np.bincount(names, minlength=k)
        selfs = np.bincount(names, weights=self_t[sel], minlength=k)
        incl = np.bincount(names, weights=dur[sel], minlength=k)
        spans = {tracer.names[i]: (int(calls[i]), float(selfs[i]), float(incl[i]))
                 for i in range(k) if calls[i]}
        root_sel = sel & (a["name"] == root)
        wall = float(dur[root_sel].sum())
        covered = float(child[root_sel].sum())
        counters = {key: v for (jid, key), v in tracer.counters.items() if jid == j}
        out[j] = {"spans": spans, "wall_s": wall,
                  "covered_fraction": covered / wall if wall > 0 else 0.0,
                  "counters": counters}
    return out
