"""CLI front end: config parsing, artifacts, sweeps, verify/report exit codes."""

import json

import pytest

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


@pytest.mark.parametrize("value", ["abc", "-1", "1.5", ""])
def test_bad_seed_env_exits_2(tmp_path, monkeypatch, capsys, value):
    path = _write(tmp_path / "cfg.json", _minimal_config())
    monkeypatch.setenv(SEED_ENV, value)
    assert main(["run", path, "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and SEED_ENV in err
    assert not (tmp_path / "out").exists()


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


def test_sweep_missing_key(tmp_path, capsys):
    path = _write(tmp_path / "sweep.json", {"base": _minimal_config(), "axis": "gamma"})
    assert main(["sweep", path, "--out", str(tmp_path / "out")]) == 2
    assert "values" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# verify


def test_verify_preset_passes(presets_dir, capsys):
    rc = main(["verify", str(presets_dir / "pl_quadratic.json")])
    out = capsys.readouterr().out
    assert rc == 0
    assert "PASS gradient_oracle" in out
    assert "PASS pl_linear_rate" in out
    assert "FAIL" not in out


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
