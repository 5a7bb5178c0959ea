"""CLI front end: config parsing, artifacts, sweeps, verify/report exit codes."""

import dataclasses
import json
import os
import re
import shutil
import subprocess
import sys

import pytest

import biased_momentum
from biased_momentum import ConfigurationError, RunConfig, TheoryReport, harness, theory
from biased_momentum.audit import pilot_report
from biased_momentum.harness import (
    SEED_ENV,
    load_config,
    load_sweep,
    main,
    set_by_path,
    sweep_summary_rows,
    version_string,
)


def _write(path, doc):
    path.write_text(json.dumps(doc, indent=1))
    return str(path)


def _minimal_config(**overrides):
    doc = {
        "schema_version": 1,
        "problem": {"kind": "quadratic", "n_workers": 2, "seed": 1,
                    "matrix": {"spectrum": [0.5, 1.0, 1.5, 2.0]}},
        "gamma": 0.1,
        "beta": 0.5,
        "iterations": 20,
        "trials": 2,
        "estimator": {"kind": "identity"},
        "noise": {"sigma2": 0.01},
        "seed": 3,
    }
    doc.update(overrides)
    return doc


# ---------------------------------------------------------------------------
# config loading


def test_missing_required_key_names_it(tmp_path, capsys):
    doc = _minimal_config()
    del doc["gamma"]
    path = _write(tmp_path / "cfg.json", doc)
    assert main(["run", path, "--out", str(tmp_path / "out")]) == 2
    assert "gamma" in capsys.readouterr().err


def test_invalid_json_diagnostic_has_line(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text('{\n  "gamma": 0.1,\n  oops\n}')
    assert main(["run", str(path), "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert "line 3" in err


def test_seed_env_override(tmp_path, monkeypatch):
    path = _write(tmp_path / "cfg.json", _minimal_config())
    monkeypatch.setenv(SEED_ENV, "99")
    cfg = load_config(path)
    assert cfg.seed == 99
    monkeypatch.delenv(SEED_ENV)
    assert load_config(path).seed == 3


@pytest.mark.parametrize("field,overrides", [
    ("x0", {"x0": [1.0, 0.0, 0.0]}),
    ("delta_offset", {"noise": {"sigma2": 0.01, "delta_offset": [0.1, 0.0, 0.0]}}),
])
def test_length_other_than_the_dimension_exits_2(tmp_path, capsys, field, overrides):
    path = _write(tmp_path / "cfg.json", _minimal_config(**overrides))  # d = 4
    assert main(["run", path, "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and field in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("value", ["abc", "-1", "1.5", ""])
def test_bad_seed_env_exits_2(tmp_path, monkeypatch, capsys, value):
    path = _write(tmp_path / "cfg.json", _minimal_config())
    monkeypatch.setenv(SEED_ENV, value)
    assert main(["run", path, "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and SEED_ENV in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("field,overrides", [
    ("estimator", {"estimator": []}),
    ("estimator", {"estimator": "top_k"}),
    ("noise", {"noise": []}),
    ("problem spec", {"problem": [1, 2]}),
    ("matrix", {"problem": {"kind": "quadratic", "matrix": [0.5, 1.0]}}),
])
def test_config_section_of_another_json_type_exits_2(tmp_path, capsys, field, overrides):
    path = _write(tmp_path / "cfg.json", _minimal_config(**overrides))
    assert main(["run", path, "--out", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err.startswith(f"error: {field} must be a JSON object, got ")
    assert not (tmp_path / "out").exists()


def test_estimator_parameter_its_kind_never_reads_exits_2(tmp_path, capsys):
    estimator = {"kind": "top_k", "k": 2, "tau": -3.0}
    path = _write(tmp_path / "cfg.json", _minimal_config(estimator=estimator))
    assert main(["run", path, "--out", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err == "error: estimator top_k never reads ['tau']\n"
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("seed_env", [None, "7"])
def test_sweep_base_of_another_json_type_exits_2(tmp_path, monkeypatch, capsys, seed_env):
    monkeypatch.delenv(SEED_ENV, raising=False)
    if seed_env is not None:
        monkeypatch.setenv(SEED_ENV, seed_env)
    path = _write(tmp_path / "sweep.json", {"base": [1, 2], "axis": "gamma", "values": [0.1]})
    assert main(["sweep", path, "--out", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err == "error: sweep 'base' must be a JSON object, got [1, 2]\n"


def test_set_by_path_validates_axis():
    doc = _minimal_config()
    out = set_by_path(doc, "estimator.kind", "top_k")
    assert out["estimator"]["kind"] == "top_k"
    assert doc["estimator"]["kind"] == "identity"  # original untouched
    with pytest.raises(Exception, match="no such config field"):
        set_by_path(doc, "estimator.nope", 1)
    with pytest.raises(Exception, match="no such config section"):
        set_by_path(doc, "missing.k", 1)


# ---------------------------------------------------------------------------
# run artifacts


def test_run_writes_csv_and_sidecar(tmp_path):
    path = _write(tmp_path / "cfg.json", _minimal_config())
    out = tmp_path / "out"
    assert main(["run", path, "--out", str(out)]) == 0
    csv_text = (out / "run.csv").read_text().splitlines()
    assert csv_text[0] == "k,trial,f,grad_norm_sq,eta_norm_sq,v_error_sq,step_norm_sq,phi"
    assert len(csv_text) == 1 + 20 * 2
    sidecar = json.loads((out / "run.json").read_text())
    assert sidecar["config"]["gamma"] == 0.1
    assert sidecar["theory"]["gamma"] == 0.1
    assert sidecar["diverged"] == [False, False]
    assert sidecar["version"] == version_string()


def test_run_twice_byte_identical(tmp_path):
    path = _write(tmp_path / "cfg.json", _minimal_config())
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert main(["run", path, "--out", str(out1)]) == 0
    assert main(["run", path, "--out", str(out2)]) == 0
    assert (out1 / "run.csv").read_bytes() == (out2 / "run.csv").read_bytes()
    assert (out1 / "run.json").read_bytes() == (out2 / "run.json").read_bytes()


def test_run_sweep_and_report_a_toy_composite(tmp_path, capsys):
    # the toy's certified constants are plain floats, so run.json serializes
    doc = _minimal_config(problem={"kind": "composite_toy", "n_workers": 2}, gamma=1e-5,
                          estimator={"kind": "composite", "S_g": 2, "S_F": 2})
    path = _write(tmp_path / "cfg.json", doc)
    sweep = _write(tmp_path / "sweep.json", {"base": doc, "axis": "beta", "values": [0.5, 1.0]})
    assert main(["run", path, "--out", str(tmp_path / "run")]) == 0
    assert main(["report", str(tmp_path / "run")]) == 0
    assert main(["sweep", sweep, "--out", str(tmp_path / "sweep")]) == 0
    assert main(["report", str(tmp_path / "sweep")]) == 0


# ---------------------------------------------------------------------------
# sweep


def test_sweep_one_point_matches_run(tmp_path):
    cfg_doc = _minimal_config()
    sweep_doc = {"base": cfg_doc, "axis": "gamma", "values": [0.1]}
    cfg_path = _write(tmp_path / "cfg.json", cfg_doc)
    sweep_path = _write(tmp_path / "sweep.json", sweep_doc)
    out_run, out_sweep = tmp_path / "run", tmp_path / "sweep"
    assert main(["run", cfg_path, "--out", str(out_run)]) == 0
    assert main(["sweep", sweep_path, "--out", str(out_sweep)]) == 0
    sub = out_sweep / "gamma_0.1"
    assert (sub / "run.csv").read_bytes() == (out_run / "run.csv").read_bytes()
    summary = (out_sweep / "summary.csv").read_text().splitlines()
    assert summary[0] == (
        "axis_value,final_plateau_mean,final_plateau_std,iters_to_threshold,diverged_count"
    )
    assert len(summary) == 2


def test_sweep_summary_rows_library_path():
    sweep_doc = {
        "base": _minimal_config(iterations=60, trials=1,
                                noise={"sigma2": 0.0, "delta_offset": 0.0}),
        "axis": "noise.delta_offset",
        "values": [0.0, 0.05],
        "threshold": {"kind": "fraction_of_initial", "value": 0.5},
    }
    rows = [row for row, _, _ in sweep_summary_rows(sweep_doc)]
    assert rows[0]["axis_value"] == 0.0
    assert rows[0]["final_plateau_mean"] <= rows[1]["final_plateau_mean"]
    assert all(r["diverged_count"] == 0 for r in rows)


def test_sweep_summary_rows_refuses_a_trials_axis_with_a_top_level_trials(monkeypatch):
    # the library path checks the spec as load_sweep does, before any point runs
    doc = {"base": _minimal_config(iterations=5), "axis": "trials", "values": [1, 3], "trials": 2}
    monkeypatch.setattr(harness, "run_trials", lambda cfg: pytest.fail("a point ran"))
    with pytest.raises(ConfigurationError, match="a sweep over 'trials' cannot also set"):
        next(sweep_summary_rows(doc))


def test_sweep_missing_key(tmp_path, capsys):
    path = _write(tmp_path / "sweep.json", {"base": _minimal_config(), "axis": "gamma"})
    assert main(["sweep", path, "--out", str(tmp_path / "out")]) == 2
    assert "values" in capsys.readouterr().err


@pytest.mark.parametrize("key,value", [
    ("valuez", [0.2]), ("trials", float("nan")), ("trials", 2.5),
    ("threshold", {"kind": "absolute", "value": "0.1"}),
    ("threshold", {"kind": "absolute", "value": float("nan")}),
    ("threshold", {"kind": "absolute", "value": True}),
    ("threshold", {"kind": "absolute"}),
    ("threshold", {"value": 0.5}),
    ("threshold", {"kind": "absolute", "value": 0.1, "valu": 0.2}),
    ("threshold", {"kind": "median", "value": 0.5}),
    ("threshold", 0.5),
    ("values", [[0.1, 0.2]]),
    ("values", [{"gamma": 0.1}]),
    ("values", 0.1),
    ("values", []),
    ("base", [1, 2]),
])
def test_sweep_rejects_bad_spec(tmp_path, capsys, key, value):
    doc = {"base": _minimal_config(), "axis": "gamma", "values": [0.1], key: value}
    path = _write(tmp_path / "sweep.json", doc)
    assert main(["sweep", path, "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and key in err


def test_sweep_over_trials_refuses_a_top_level_trials(tmp_path, capsys):
    # the top-level trials would run every point with its count, under
    # directories and summary rows that name the axis values
    doc = {"base": _minimal_config(iterations=5), "axis": "trials", "values": [1, 3]}
    path = _write(tmp_path / "sweep.json", dict(doc, trials=2))
    assert main(["sweep", path, "--out", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err == ("error: a sweep over 'trials' cannot also set a "
                                       "top-level 'trials'\n")
    assert not (tmp_path / "out").exists()
    path = _write(tmp_path / "sweep.json", doc)
    assert main(["sweep", path, "--out", str(tmp_path / "out")]) == 0
    for trials in (1, 3):
        sidecar = json.loads((tmp_path / "out" / f"trials_{trials}" / "run.json").read_text())
        assert sidecar["config"]["trials"] == len(sidecar["diverged"]) == trials


# ---------------------------------------------------------------------------
# verify


def test_verify_preset_passes(presets_dir, capsys):
    rc = main(["verify", str(presets_dir / "pl_quadratic.json")])
    out = capsys.readouterr().out
    assert rc == 0
    assert "PASS gradient_oracle" in out
    assert "PASS pl_linear_rate" in out
    assert "FAIL" not in out


def test_verify_quadratic_preset_never_imports_scipy(repo_root):
    # no module of the package imports scipy (a test-only dependency); importing it costs start-up
    script = ("import sys, contextlib, io\n"
              "import biased_momentum\n"
              "from biased_momentum.harness import main\n"
              "with contextlib.redirect_stdout(io.StringIO()):\n"
              f"    rc = main(['verify', {str(repo_root / 'presets' / 'pl_quadratic.json')!r}])\n"
              "print(rc, sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n")
    path = [str(repo_root / "src"), os.environ.get("PYTHONPATH", "")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path)))
    proc = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                          text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["0", "[]"]


def test_run_from_source_tree_records_package_version(repo_root, tmp_path):
    # an uninstalled checkout on PYTHONPATH names its own version, not 0.0.0
    config = _write(tmp_path / "cfg.json", _minimal_config())
    path = [str(repo_root / "src"), os.environ.get("PYTHONPATH", "")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path)))
    proc = subprocess.run([sys.executable, "-m", "biased_momentum.harness", "run", config,
                           "--out", str(tmp_path / "out")],
                          env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    version = json.loads((tmp_path / "out" / "run.json").read_text())["version"]
    assert version.split()[:2] == ["biased-momentum", biased_momentum.__version__]


def test_run_records_the_package_version_and_spawns_no_process(repo_root, tmp_path):
    # the version names the package, not whatever git checkout the package sits in
    out = tmp_path / "out"
    script = ("import sys, contextlib, io\n"
              "from biased_momentum.harness import main\n"
              "with contextlib.redirect_stdout(io.StringIO()):\n"
              f"    rc = main(['run', {str(repo_root / 'presets' / 'pl_quadratic.json')!r}, "
              f"'--out', {str(out)!r}])\n"
              "print(rc, 'subprocess' in sys.modules)\n")
    path = [str(repo_root / "src"), os.environ.get("PYTHONPATH", "")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path)))
    proc = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                          text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["0", "False"]
    version = json.loads((out / "run.json").read_text())["version"]
    assert version == version_string() == f"biased-momentum {biased_momentum.__version__}"


@pytest.mark.parametrize("v_init", ["grad_at_x0", "zero"])
def test_run_and_report_of_an_overflowing_x0_warn_of_nothing(tmp_path, capsys, v_init):
    # f(x0), the heterogeneity premise, the first step's f and (v zero) the
    # squared gradient at x0 overflow, and so does verify's error-model
    # measurement there; the suite turns any warning into an error
    doc = _minimal_config(estimator={"kind": "top_k", "k": 2}, x0=[1e300] * 4, v_init=v_init)
    path, out = _write(tmp_path / "cfg.json", doc), tmp_path / "out"
    assert main(["run", path, "--out", str(out)]) == 0
    assert main(["report", str(out)]) == 0
    assert main(["verify", path]) == 1
    assert capsys.readouterr().err == ""
    sidecar = json.loads((out / "run.json").read_text())
    assert sidecar["diverged"] == [True, True]
    infinite = {name for name, value in sidecar["theory"].items() if value == float("inf")}
    assert {"C_var", "delta2_het", "f0_gap", "floor_ncvx", "floor_pl", "phi0_pl",
            "theta0"} <= infinite


def test_pyproject_version_is_package_version(repo_root):
    text = (repo_root / "pyproject.toml").read_text()
    project = re.search(r"^\[project\]$(.*?)(?=^\[|\Z)", text, re.M | re.S).group(1)
    version = re.search(r'^version = "([^"]+)"$', project, re.M).group(1)
    assert version == biased_momentum.__version__


def test_sigmoid_presets_never_import_scipy(repo_root, tmp_path):
    # the logistic and MAML sigmoids are numpy's; scipy is a test-only dependency
    presets = repo_root / "presets"
    calls = [["verify", str(presets / f"{name}.json")]
             for name in ("maml_composite", "logistic_l2", "nonconvex_reg")]
    calls.append(["run", str(presets / "composite_toy.json"), "--out", str(tmp_path / "out")])
    script = ("import sys, contextlib, io\n"
              "from biased_momentum.harness import main\n"
              "with contextlib.redirect_stdout(io.StringIO()):\n"
              f"    rcs = [main(argv) for argv in {calls!r}]\n"
              "print(rcs, sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n")
    path = [str(repo_root / "src"), os.environ.get("PYTHONPATH", "")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path)))
    proc = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                          text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[0, 0, 0, 0] []"


def test_verify_composite_with_noise_claims_no_C(presets_dir, tmp_path, capsys):
    # the composite error model bounds the subsampling error alone; with an
    # offset of norm^2 20 on top, its C (about 5.7) would fail a sound run
    doc = json.loads((presets_dir / "maml_composite.json").read_text())
    doc["noise"]["delta_offset"] = 2.0
    rc = main(["verify", _write(tmp_path / "cfg.json", doc)])
    out = capsys.readouterr().out
    assert rc == 0
    assert "SKIP affine_variance_bound (C unavailable for this configuration)" in out
    assert "FAIL" not in out and "PASS affine_variance_bound" not in out


def test_verify_inadmissible_gamma_skips_theorems(tmp_path, capsys):
    doc = _minimal_config(gamma=0.9, beta=0.1, iterations=30,
                          estimator={"kind": "top_k", "k": 2})
    path = _write(tmp_path / "cfg.json", doc)
    rc = main(["verify", path])
    out = capsys.readouterr().out
    assert rc == 0
    assert "SKIP descent_inequality" in out
    assert "SKIP min_gradient_bound" in out
    assert "PASS gradient_oracle" in out


def test_verify_names_first_diverged_trial(tmp_path, capsys):
    # gamma = 10 is far above the step-size ceiling of this L = 2 quadratic
    doc = _minimal_config(gamma=10.0, beta=1.0, iterations=50)
    rc = main(["verify", _write(tmp_path / "cfg.json", doc)])
    out = capsys.readouterr().out
    assert rc == 1
    line = next(ln for ln in out.splitlines() if "divergence" in ln)
    assert line.startswith("FAIL divergence (2 of 2 trials diverged; first: trial 0 at k=")
    assert line.endswith("> 1e+12)")


# ---------------------------------------------------------------------------
# report


def test_report_replays_run_dir(tmp_path, capsys):
    path = _write(tmp_path / "cfg.json", _minimal_config(iterations=40))
    out = tmp_path / "out"
    assert main(["run", path, "--out", str(out)]) == 0
    rc = main(["report", str(out)])
    printed = capsys.readouterr().out
    assert rc == 0
    assert "descent_inequality" in printed


def test_report_surfaces_corrupted_csv(tmp_path, capsys):
    # gamma below the PL ceiling so the descent audit actually runs
    path = _write(tmp_path / "cfg.json", _minimal_config(iterations=40, trials=1,
                                                          gamma=0.08,
                                                          noise={"sigma2": 0.0}))
    out = tmp_path / "out"
    assert main(["run", path, "--out", str(out)]) == 0
    csv_path = out / "run.csv"
    lines = csv_path.read_text().splitlines()
    parts = lines[20].split(",")
    parts[2] = repr(float(parts[2]) * 50.0 + 1.0)  # corrupt one f value
    lines[20] = ",".join(parts)
    csv_path.write_text("\n".join(lines) + "\n")
    rc = main(["report", str(out)])
    printed = capsys.readouterr().out
    assert rc == 1
    assert "FAIL" in printed


def test_report_names_the_descent_trial_verify_names(presets_dir, tmp_path, capsys):
    # the worst descent step of this preset lies in trial 2
    preset = str(presets_dir / "clip_quadratic.json")
    assert main(["verify", preset]) == 0
    verified = capsys.readouterr().out
    assert main(["run", preset, "--out", str(tmp_path / "out")]) == 0
    assert main(["report", str(tmp_path / "out")]) == 0
    reported = capsys.readouterr().out

    def descent(printed):
        return next(ln for ln in printed.splitlines() if "descent_inequality" in ln)

    assert " at trial 2, k=" in descent(verified)
    assert descent(reported) == descent(verified)


def _run_csv_lines(tmp_path):
    """A 2-trial, 40-iteration run whose descent audit runs; its CSV lines."""
    path = _write(tmp_path / "cfg.json", _minimal_config(iterations=40, gamma=0.08))
    out = tmp_path / "out"
    assert main(["run", path, "--out", str(out)]) == 0
    return out, (out / "run.csv").read_text().splitlines()


def _with_row(lines, k, trial, fields):
    return [f"{k},{trial}," + ",".join(fields)] + lines


def _rows(edit):
    """A run-directory edit through run.csv's data rows (the header stays)."""
    def apply(out):
        header, *rows = (out / "run.csv").read_text().splitlines()
        (out / "run.csv").write_text("\n".join([header] + edit(rows)) + "\n")
    return apply


def _sidecar(edit):
    """A run-directory edit of the run.json document."""
    def apply(out):
        doc = json.loads((out / "run.json").read_text())
        edit(doc)
        (out / "run.json").write_text(json.dumps(doc))
    return apply


def _truncated(name):
    """A run-directory edit cutting run.json, or a sweep.json standing in for
    run.csv, off halfway."""
    def apply(out):
        text = (out / "run.json").read_text()
        if name == "sweep.json":
            (out / "run.csv").unlink()
        (out / name).write_text(text[: len(text) // 2])
    return apply


def _sweep(doc):
    """A run-directory edit turning it into a sweep directory holding doc as
    sweep.json."""
    def apply(out):
        (out / "run.csv").unlink()
        (out / "sweep.json").write_text(json.dumps(doc))
    return apply


def _sweep_row(**overrides):
    row = {"axis_value": 0.01, "final_plateau_mean": float("nan"), "final_plateau_std": 0.0,
           "iters_to_threshold": 3, "diverged_count": 0}
    return dict(row, **overrides)


SIGMA2_SPEC = {"axis": "noise.sigma2"}
MALFORMED_ARTIFACTS = {  # rows (trial 0 at k=0..39, then trial 1) -> edited dir, error text
    "dropped": (_rows(lambda rows: rows[:20] + rows[21:]), "trial 0, k=20"),
    "duplicated": (_rows(lambda rows: rows + [rows[47]]), "trial 1, k=7"),
    "negative-k": (_rows(lambda rows: _with_row(rows, -1, 0, rows[1].split(",")[2:])),
                   "trial 0, k=-1"),
    "trial-beyond-config": (_rows(lambda rows: _with_row(rows, 0, 2, rows[1].split(",")[2:])),
                            "trial 2, k=0"),
    "unparsable-value": (_rows(lambda rows: rows[:5] + [rows[5] + "x"] + rows[6:]), "malformed"),
    "dropped-last-row": (_rows(lambda rows: rows[:39] + rows[40:]), "trial 0 has 39 rows"),
    # the reader parses by column: a fault in any row, the last one included,
    # is named by the row's own text
    "seven-fields": (_rows(lambda rows: rows[:3] + [rows[3].rsplit(",", 1)[0]] + rows[4:]),
                     "malformed CSV row: '3,0,"),
    "nine-fields": (_rows(lambda rows: rows[:3] + [rows[3] + ",1.0"] + rows[4:]),
                    "malformed CSV row: '3,0,"),
    "blank-line": (_rows(lambda rows: rows[:10] + [""] + rows[10:]), "malformed CSV row: ''"),
    "float-k": (_rows(lambda rows: rows[:1] + ["1.0" + rows[1][1:]] + rows[2:]),
                "malformed CSV row: '1.0,0,"),
    "unparsable-last-row": (_rows(lambda rows: rows[:-1] + [rows[-1] + "x"]),
                            "malformed CSV row: '39,1,"),
    "trial-beyond-config-last-row": (_rows(lambda rows: rows + ["0,2" + rows[0][3:]]),
                                     "row for trial 2, k=0; the run has trials 0..1 and k >= 0"),
    "diverged-but-complete": (_sidecar(lambda doc: doc["diverged"].__setitem__(1, True)),
                              "trial 1 has 40 rows"),
    "diverged-flags-short": (_sidecar(lambda doc: doc.update(diverged=[False])), "'diverged'"),
    "truncated-run-json": (_truncated("run.json"), "run.json: invalid JSON"),
    "truncated-sweep-json": (_truncated("sweep.json"), "sweep.json: invalid JSON"),
    "theory-unknown-key": (_sidecar(lambda doc: doc["theory"].update(extra=1.0)),
                           "unknown theory key(s) ['extra']"),
    "theory-missing-key": (_sidecar(lambda doc: doc["theory"].pop("B2")),
                           "theory missing required key 'B2'"),
    "sweep-no-spec": (_sweep({"rows": [], "version": "x"}), "'spec'"),
    "sweep-no-rows": (_sweep({"spec": SIGMA2_SPEC, "version": "x"}), "'rows'"),
    "sweep-spec-list": (_sweep({"spec": [SIGMA2_SPEC], "rows": []}), "'spec'"),
    "sweep-row-no-plateau": (_sweep({"spec": SIGMA2_SPEC, "rows": [
        _sweep_row(), {k: v for k, v in _sweep_row(axis_value=0.1).items()
                       if k != "final_plateau_mean"}]}), "row 1 'final_plateau_mean'"),
    "sweep-string-axis-value": (_sweep({"spec": SIGMA2_SPEC, "rows": [
        _sweep_row(axis_value="a"), _sweep_row(axis_value=0.1)]}), "row 0 'axis_value'"),
    "run-json-no-config": (_sidecar(lambda doc: doc.pop("config")),
                           "config must be a JSON object"),
    "run-json-theory-list": (_sidecar(lambda doc: doc.update(theory=[])),
                             "theory must be a JSON object"),
    "run-json-estimator-list": (_sidecar(lambda doc: doc["config"].update(estimator=[])),
                                "estimator must be a JSON object"),
    "theory-string-number": (_sidecar(lambda doc: doc["theory"].update(B2="big")), "'B2'"),
    "theory-string-flag": (_sidecar(lambda doc: doc["theory"].update(gamma_ok="yes")),
                           "'gamma_ok'"),
    "theory-flag-number": (_sidecar(lambda doc: doc["theory"].update(L=True)), "'L'"),
    "theory-null-number": (_sidecar(lambda doc: doc["theory"].update(gamma=None)), "'gamma'"),
    "theory-null-B-var": (_sidecar(lambda doc: doc["theory"].update(B_var=None)), "'B_var'"),
    "theory-number-string": (_sidecar(lambda doc: doc["theory"].update(regime=1)), "'regime'"),
    "theory-two-sigmas": (_sidecar(lambda doc: doc["theory"].update(composite_sigmas=[1, 2])),
                          "'composite_sigmas'"),
    # a derived constant its premises do not give, and premises that cannot hold
    "theory-B1": (_sidecar(lambda doc: doc["theory"].update(B1=doc["theory"]["B1"] * 0.9)),
                  "theory 'B1' is "),
    "theory-B3": (_sidecar(lambda doc: doc["theory"].update(B3=doc["theory"]["B3"] * 10)),
                  "theory 'B3' is "),
    "theory-floor": (_sidecar(lambda doc: doc["theory"].update(
        floor_ncvx=doc["theory"]["floor_ncvx"] * 0.5)), "theory 'floor_ncvx' is "),
    "theory-theta0": (_sidecar(lambda doc: doc["theory"].update(
        theta0=doc["theory"]["theta0"] * 0.5)), "theory 'theta0' is "),
    "theory-gamma-ok": (_sidecar(lambda doc: doc["theory"].update(
        gamma_ok=not doc["theory"]["gamma_ok"])), "theory 'gamma_ok' is "),
    "theory-beta-2": (_sidecar(lambda doc: doc["theory"].update(beta=2)), "theory 'beta' is 2"),
    "theory-L-0": (_sidecar(lambda doc: doc["theory"].update(L=0)), "theory 'L' is 0"),
    # a measured premise of another kind, and the identity run's own that goes missing
    "theory-delta2-on-identity": (_sidecar(lambda doc: doc["theory"].update(delta2_het=0.5)),
                                  "theory 'delta2_het' is 0.5"),
    "theory-no-delta2": (_sidecar(lambda doc: doc["theory"].pop("delta2_het")),
                         "theory missing required key 'delta2_het'"),
}


@pytest.mark.parametrize("case", list(MALFORMED_ARTIFACTS))
def test_report_rejects_malformed_csv(tmp_path, capsys, case):
    edit, named = MALFORMED_ARTIFACTS[case]
    out, _ = _run_csv_lines(tmp_path)
    edit(out)
    capsys.readouterr()
    assert main(["report", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and named in captured.err


# run configs whose run.json theories the tamper tests below edit
TAMPER_RUNS = {
    "pl-identity": _minimal_config(),
    "clip-no-f-star": _minimal_config(
        problem={"kind": "nonconvex_reg_classification", "dimension": 4, "n_workers": 2, "m": 6,
                 "seed": 3, "lambda": 0.5},
        gamma=0.01, estimator={"kind": "clip", "tau": 1.0}),
    "top-k": _minimal_config(estimator={"kind": "top_k", "k": 2}),
    "clip": _minimal_config(estimator={"kind": "clip", "tau": 1.0}),
    "composite": _minimal_config(problem={"kind": "composite_toy", "n_workers": 2}, gamma=1e-5,
                                 estimator={"kind": "composite", "S_g": 2, "S_F": 2},
                                 noise={"sigma2": 0.0}),
}


@pytest.fixture(scope="module")
def tamper_runs(tmp_path_factory):
    """Run directory per TAMPER_RUNS config, each written once."""
    root = tmp_path_factory.mktemp("tamper")
    for name, doc in TAMPER_RUNS.items():
        assert main(["run", _write(root / f"{name}.json", doc), "--out", str(root / name)]) == 0
    return root


def _report_of_tampered(tamper_runs, tmp_path, capsys, run, edit):
    """report's (exit code, stdout, stderr) on a copy of a run whose theory
    document edit(theory, report) rewrote in place, report being the one
    the run's config gives."""
    out = tmp_path / run
    shutil.copytree(tamper_runs / run, out)
    doc = json.loads((out / "run.json").read_text())
    edit(doc["theory"], pilot_report(RunConfig.from_dict(doc["config"]))[0])
    (out / "run.json").write_text(json.dumps(doc))
    capsys.readouterr()
    rc = main(["report", str(out)])
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


def _changed(value):
    """A value of the same JSON type that differs from value."""
    if isinstance(value, bool):
        return not value
    if isinstance(value, str):
        return value + "x"
    return 1.0 if value is None else 2.0 * value + 1.0


@pytest.mark.parametrize("run", ["pl-identity", "clip-no-f-star"])
@pytest.mark.parametrize("name", [f.name for f in dataclasses.fields(TheoryReport)])
def test_report_refuses_any_theory_field_its_config_does_not_give(
        tamper_runs, tmp_path, capsys, run, name):
    # every measured premise is null on these runs, so each field is named itself;
    # delta2_het on the identity run is a premise of another kind
    def edit(theory, _):
        theory[name] = _changed(theory[name])

    rc, out, err = _report_of_tampered(tamper_runs, tmp_path, capsys, run, edit)
    assert (rc, out) == (2, "")
    assert err.startswith(f"error: theory '{name}' is ")


# (run, theory rewritten consistently from the rebuilt report, the field named)
CONSISTENT_TAMPERS = {
    "gamma-x0.9": ("top-k", lambda r: dataclasses.replace(r, gamma=0.9 * r.gamma), "gamma"),
    "top-k-C-x100": ("top-k", lambda r: dataclasses.replace(r, C_var=100 * r.C_var), "C_var"),
    "clip-C-x100": ("clip", lambda r: dataclasses.replace(r, C_var=100 * r.C_var), "C_var"),
    "composite-C-x100": ("composite", lambda r: dataclasses.replace(r, C_var=100 * r.C_var),
                         "C_var"),
    "alpha-1": ("top-k", lambda r: dataclasses.replace(r, alpha_contraction=1.0),
                "alpha_contraction"),
    # a measured premise rewritten alone
    "delta2-x2": ("top-k", lambda r: dataclasses.replace(r, delta2_het=2 * r.delta2_het),
                  "delta2_het"),
    "subopt-x2": ("clip", lambda r: dataclasses.replace(r, delta_subopt=2 * r.delta_subopt),
                  "delta_subopt"),
    "sigmas-x2": ("composite", lambda r: dataclasses.replace(
        r, composite_sigmas=tuple(2 * s for s in r.composite_sigmas)), "composite_sigmas"),
}


@pytest.mark.parametrize("case", list(CONSISTENT_TAMPERS))
def test_report_refuses_a_consistent_theory_of_another_config(tamper_runs, tmp_path, capsys, case):
    run, tamper, named = CONSISTENT_TAMPERS[case]

    def edit(theory, report):
        theory.update(json.loads(json.dumps(tamper(report).to_dict())))

    rc, out, err = _report_of_tampered(tamper_runs, tmp_path, capsys, run, edit)
    assert (rc, out) == (2, "")
    assert err.startswith(f"error: theory '{named}' is ")


def _doubled(measured):
    return tuple(2 * s for s in measured) if isinstance(measured, tuple) else 2 * measured


# premise run -> the theory function that measures its premise at the pilot points
PREMISE_MEASUREMENTS = {"top-k": "measure_heterogeneity", "clip": "measure_suboptimality",
                        "composite": "measure_composite_sigmas"}


@pytest.mark.parametrize("run", list(PREMISE_MEASUREMENTS))
def test_report_refuses_a_measured_premise_rewritten_with_all_it_moves(
        tamper_runs, tmp_path, capsys, monkeypatch, run):
    # the theory the run would write had its pilot trial measured twice its
    # premise: C_var and every field derived from it agree with that premise,
    # and the replayed pilot trial still refuses it at C_var
    measure = getattr(theory, PREMISE_MEASUREMENTS[run])
    monkeypatch.setattr(theory, PREMISE_MEASUREMENTS[run], lambda *a: _doubled(measure(*a)))
    doubled = pilot_report(RunConfig.from_dict(TAMPER_RUNS[run]))[0]
    monkeypatch.undo()

    def edit(theory_doc, report):
        assert doubled.C_var != report.C_var
        theory_doc.update(json.loads(json.dumps(doubled.to_dict())))

    rc, out, err = _report_of_tampered(tamper_runs, tmp_path, capsys, run, edit)
    assert (rc, out) == (2, "")
    assert err.startswith("error: theory 'C_var' is ")


@pytest.mark.parametrize("run,name,value", [
    ("top-k", "delta2_het", True), ("top-k", "delta2_het", "1.0"), ("top-k", "delta2_het", [1.0]),
    ("top-k", "delta2_het", None), ("composite", "composite_sigmas", [1.0, 2.0]),
    ("composite", "composite_sigmas", [1.0, 2.0, False]), ("composite", "composite_sigmas", True),
], ids=["delta2-true", "delta2-string", "delta2-list", "delta2-null", "sigmas-two",
        "sigmas-false", "sigmas-true"])
def test_report_refuses_a_measured_premise_that_is_not_its_numbers(
        tamper_runs, tmp_path, capsys, run, name, value):
    # a premise is a JSON number (three for the composite sigmas)
    def edit(theory_doc, _):
        theory_doc[name] = value

    rc, out, err = _report_of_tampered(tamper_runs, tmp_path, capsys, run, edit)
    assert (rc, out) == (2, "")
    assert err.startswith(f"error: theory '{name}' is ")


@pytest.mark.parametrize("run", list(TAMPER_RUNS))
def test_report_passes_its_own_theory(tamper_runs, tmp_path, capsys, run):
    rc, out, err = _report_of_tampered(tamper_runs, tmp_path, capsys, run, lambda *_: None)
    assert rc == 0 and err == "" and out.startswith("theory report\n")


def test_report_ignores_row_order(tmp_path, capsys):
    out, lines = _run_csv_lines(tmp_path)
    capsys.readouterr()
    assert main(["report", str(out)]) == 0
    original = capsys.readouterr().out
    assert "PASS descent_inequality" in original
    rows = lines[1:]
    rows[3], rows[60] = rows[60], rows[3]
    (out / "run.csv").write_text("\n".join([lines[0]] + rows[::-1]) + "\n")
    assert main(["report", str(out)]) == 0
    assert capsys.readouterr().out == original


def _with_nan(row, first, count):
    """A run.csv data row with `count` value fields from field `first` on set to nan."""
    fields = row.split(",")
    fields[first:first + count] = ["nan"] * count
    return ",".join(fields)


def test_report_fails_on_a_nan_value(tmp_path, capsys):
    # f of trial 0 at k=10 is nan: the descent pair (k=9, k=10) is the first NaN margin
    out, _ = _run_csv_lines(tmp_path)
    _rows(lambda rows: [_with_nan(row, 2, 1) if row.startswith("10,0,") else row
                        for row in rows])(out)
    capsys.readouterr()
    assert main(["report", str(out)]) == 1
    printed = capsys.readouterr().out
    assert "FAIL descent_inequality worst_margin=nan at trial 0, k=9 " in printed


@pytest.mark.parametrize("k,prefix", [(0, 10), (10, 11)])
def test_report_fails_the_min_gradient_bound_on_a_nan_gradient(tmp_path, capsys, k, prefix):
    # grad_norm_sq of trial 0 is nan at k: its trial mean is nan, and the
    # first prefix holding it names that k
    out, _ = _run_csv_lines(tmp_path)
    _rows(lambda rows: [_with_nan(row, 3, 1) if row.startswith(f"{k},0,") else row
                        for row in rows])(out)
    capsys.readouterr()
    assert main(["report", str(out)]) == 1
    printed = capsys.readouterr().out
    assert f"FAIL min_gradient_bound worst_margin=nan at prefix K={prefix} (min at k={k}) " in printed


def test_report_fails_the_linear_rate_on_a_nan_value(tmp_path, capsys):
    # f of trial 0 at k=10 is nan, so the trial-mean phi at k=10 is nan
    out, _ = _run_csv_lines(tmp_path)
    _rows(lambda rows: [_with_nan(row, 2, 1) if row.startswith("10,0,") else row
                        for row in rows])(out)
    capsys.readouterr()
    assert main(["report", str(out)]) == 1
    assert "FAIL pl_linear_rate worst_margin=nan at k=10 " in capsys.readouterr().out


def test_report_never_passes_an_all_nan_run(tmp_path, capsys):
    out, _ = _run_csv_lines(tmp_path)
    _rows(lambda rows: [_with_nan(row, 2, 6) for row in rows])(out)
    capsys.readouterr()
    assert main(["report", str(out)]) == 1
    printed = capsys.readouterr().out
    assert printed.count("FAIL ") == 3
    assert "PASS" not in printed and "worst_margin=inf" not in printed


def test_report_sweep_dir(tmp_path, capsys):
    sweep_doc = {
        "base": _minimal_config(iterations=60, trials=1,
                                noise={"sigma2": 0.0, "delta_offset": 0.0}),
        "axis": "noise.delta_offset",
        "values": [0.0, 0.05],
    }
    path = _write(tmp_path / "sweep.json", sweep_doc)
    out = tmp_path / "out"
    assert main(["sweep", path, "--out", str(out)]) == 0
    rc = main(["report", str(out)])
    printed = capsys.readouterr().out
    assert rc == 0
    assert "sweep_ordering_delta" in printed


# ---------------------------------------------------------------------------
# shipped presets all parse


def test_all_presets_parse(presets_dir):
    configs = sorted(presets_dir.glob("*.json"))
    assert len(configs) >= 8
    for path in configs:
        doc = json.loads(path.read_text())
        if "axis" in doc:
            load_sweep(path)
        else:
            load_config(path)
