import hashlib
import json
import subprocess
import sys

import numpy as np
import pytest

from fracdrum import cli


def write_config(tmp_path, doc, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def run_cli(tmp_path, experiment, doc, subdir="out", **kw):
    cfg = write_config(tmp_path, doc, name=f"{subdir}.json")
    out = tmp_path / subdir
    code = cli.run(experiment, cfg, str(out), **kw)
    return code, out


def test_bad_smoothness_exits_2_naming_field(tmp_path, capsys):
    doc = {"n": 1, "s": 1.5, "h": 0.25, "L": 1.0,
           "shape": {"kind": "intervals", "items": [[0, -0.5, 0.5]]}}
    code, _ = run_cli(tmp_path, "eigs", doc)
    assert code == 2
    assert "'s'" in capsys.readouterr().err


def test_unknown_key_exits_2(tmp_path, capsys):
    doc = {"n": 1, "s": 0.5, "h": 0.25, "L": 1.0, "bogus": 3,
           "shape": {"kind": "intervals", "items": [[0, -0.5, 0.5]]}}
    code, _ = run_cli(tmp_path, "eigs", doc)
    assert code == 2
    assert "unknown key 'bogus'" in capsys.readouterr().err


def test_experiment_mismatch_exits_2(tmp_path, capsys):
    doc = {"experiment": "weiss", "n": 1, "s": 0.5, "h": 0.25, "L": 1.0,
           "shape": {"kind": "intervals", "items": [[0, -0.5, 0.5]]}}
    code, _ = run_cli(tmp_path, "eigs", doc)
    assert code == 2
    assert "experiment" in capsys.readouterr().err


def test_library_rejection_exits_2(tmp_path, capsys):
    # more eigenvalues than cells: the solver's own validation must surface
    # as a config failure, not a traceback
    doc = {"n": 1, "s": 0.5, "h": 0.25, "L": 1.0, "count": 50,
           "shape": {"kind": "intervals", "items": [[0, -0.5, 0.5]]}}
    code, _ = run_cli(tmp_path, "eigs", doc)
    assert code == 2


@pytest.mark.parametrize("experiment,doc", [
    ("eigs", {"n": 1, "s": 0.5, "h": 0.25, "L": 1.0, "copies": 2,
              "shape": {"kind": "intervals", "items": [[2, -0.5, 0.5]]}}),
    ("eigs", {"n": 1, "s": 0.5, "h": 0.25, "L": 1.0, "copies": 2,
              "shape": {"kind": "intervals", "items": [[-1, -0.5, 0.5]]}}),
    ("eigs", {"n": 2, "s": 0.5, "h": 0.25, "L": 1.0,
              "shape": {"kind": "rects", "items": [[1, -0.5, 0.5, -0.5, 0.5]]}}),
    ("eigs", {"n": 2, "s": 0.5, "h": 0.25, "L": 1.0,
              "shape": {"kind": "rects", "items": [[-1, -0.5, 0.5, -0.5, 0.5]]}}),
    ("eigs", {"n": 2, "s": 0.5, "h": 0.125, "L": 1.0, "copies": 2,
              "shape": {"kind": "ball", "volume": 0.5, "copy": 2}}),
    ("eigs", {"n": 2, "s": 0.5, "h": 0.125, "L": 1.0, "copies": 2,
              "shape": {"kind": "ball", "volume": 0.5, "copy": -1}}),
    ("optimize-shape", {"n": 2, "s": 0.5, "h": 0.25, "L": 1.0, "steps": 2,
                        "init": {"kind": "random-blob", "cells": 4, "copy": 1}}),
    ("optimize-shape", {"n": 2, "s": 0.5, "h": 0.25, "L": 1.0, "steps": 2,
                        "init": {"kind": "random-blob", "cells": 4, "copy": -1}}),
])
def test_copy_out_of_range_exits_2_naming_field(tmp_path, capsys, experiment, doc):
    code, _ = run_cli(tmp_path, experiment, doc)
    assert code == 2
    err = capsys.readouterr().err
    assert "'items'" in err or "'copy'" in err


def test_numerical_failure_exits_3_with_record(tmp_path, monkeypatch):
    def boom(cfg, out, seed, timings):
        raise RuntimeError("synthetic solver breakdown")
    monkeypatch.setitem(cli._EXPERIMENTS, "eigs", boom)
    doc = {"anything": 1}
    code, out = run_cli(tmp_path, "eigs", doc)
    assert code == 3
    record = json.loads((out / "error.json").read_text())
    assert record["type"] == "RuntimeError"
    assert "breakdown" in record["error"]
    assert not (out / "summary.json").exists()


def test_toy_sweep_byte_identical_reruns(tmp_path):
    doc = {"d": 2, "n": 1, "s": 0.5, "trials": 10, "seed": 42,
           "max_steps": 400}
    code1, out1 = run_cli(tmp_path, "toy-sweep", doc, subdir="a")
    code2, out2 = run_cli(tmp_path, "toy-sweep", doc, subdir="b")
    assert code1 == 0 and code2 == 0
    assert (out1 / "summary.json").read_bytes() == (out2 / "summary.json").read_bytes()
    summary = json.loads((out1 / "summary.json").read_text())
    assert sum(summary["counts"].values()) == 10
    assert summary["exponent"] == pytest.approx(2.0)


def test_seed_override_changes_stream(tmp_path):
    doc = {"d": 2, "n": 1, "s": 0.5, "trials": 6, "seed": 42, "max_steps": 300}
    _, out1 = run_cli(tmp_path, "toy-sweep", doc, subdir="a")
    _, out2 = run_cli(tmp_path, "toy-sweep", doc, subdir="b", seed_override=43)
    s1 = json.loads((out1 / "summary.json").read_text())
    s2 = json.loads((out2 / "summary.json").read_text())
    assert s1["seed"] == 42 and s2["seed"] == 43


def test_manifest_indexes_every_file_with_hashes(tmp_path):
    doc = {"s": 0.5, "h": 1 / 64, "L": 1.0,
           "field": {"kind": "profile"},
           "radii": [0.1, 0.2, 0.3, 0.4], "seed": 0}
    code, out = run_cli(tmp_path, "weiss", doc)
    assert code == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert set(manifest["files"]) == {"summary.json", "weiss.csv"}
    for name, digest in manifest["files"].items():
        actual = hashlib.sha256((out / name).read_bytes()).hexdigest()
        assert digest == actual
    assert manifest["config"]["experiment"] == "weiss"
    assert manifest["wall_clock_s"] >= 0.0
    assert "weiss_s" in manifest["timings_s"]
    summary = json.loads((out / "summary.json").read_text())
    assert summary["monotonicity"]["fitted_negativity_constant"] >= 0.0
    assert len(summary["values"]) == 4


def test_eigs_smoke_and_field_dump(tmp_path):
    doc = {"n": 1, "s": 0.5, "h": 0.125, "L": 2.0, "count": 3,
           "dump_fields": True,
           "shape": {"kind": "intervals", "items": [[0, -1.0, 1.0]]}}
    code, out = run_cli(tmp_path, "eigs", doc)
    assert code == 0
    summary = json.loads((out / "summary.json").read_text())
    ev = summary["eigenvalues"]
    assert len(ev) == 3 and ev == sorted(ev) and ev[0] > 0
    assert summary["cell_count"] == 16
    lines = (out / "fields.csv").read_text().strip().split("\n")
    assert lines[0] == "copy,cell,u1,u2,u3"
    assert len(lines) == 17


def test_torsion_validate_summary(tmp_path):
    doc = {"s": 0.5, "h": 2 / 128, "L": 2.0}
    code, out = run_cli(tmp_path, "torsion-validate", doc)
    assert code == 0
    summary = json.loads((out / "summary.json").read_text())
    assert summary["max_norm_error"] <= 0.05
    assert summary["max_norm_pass"] is True
    assert summary["energy_pass"] is True
    assert summary["energy_expected"] == pytest.approx(-np.pi / 4, rel=1e-12)


def test_optimize_shape_smoke(tmp_path):
    doc = {"n": 1, "s": 0.5, "h": 0.25, "L": 2.0, "k": 1,
           "steps": 25, "seed": 9, "diagnostics": True,
           "init": {"kind": "ball", "volume": 1.0}}
    code, out = run_cli(tmp_path, "optimize-shape", doc)
    assert code == 0
    summary = json.loads((out / "summary.json").read_text())
    assert summary["best_objective"] <= summary["final_objective"] + 1e-12
    assert 0.0 <= summary["accept_rate"] <= 1.0
    assert summary["diagnostics"]["adjacency_violations"] == 0
    rec = summary["best_shape"]
    total = sum(run[1] for mask in rec["masks_rle"] for run in mask)
    assert total == summary["best_cell_count"]
    lines = (out / "trace.csv").read_text().strip().split("\n")
    assert lines[0] == "step,temperature,objective,accepted,kind"
    assert len(lines) == 26


def test_random_blob_init_is_seeded(tmp_path):
    doc = {"n": 2, "s": 0.5, "h": 0.25, "L": 1.0, "k": 1,
           "steps": 5, "seed": 11,
           "init": {"kind": "random-blob", "cells": 6}}
    code1, out1 = run_cli(tmp_path, "optimize-shape", doc, subdir="a")
    code2, out2 = run_cli(tmp_path, "optimize-shape", doc, subdir="b")
    assert code1 == 0 and code2 == 0
    assert (out1 / "summary.json").read_bytes() == (out2 / "summary.json").read_bytes()


def test_rearrange_check_smoke(tmp_path):
    doc = {"n": 1, "s": 0.5, "h": 0.125, "L": 2.0, "trials": 3,
           "seed": 4,
           "shape": {"kind": "intervals",
                     "items": [[0, -1.0, -0.25], [0, 0.25, 1.0]]}}
    code, out = run_cli(tmp_path, "rearrange-check", doc)
    assert code == 0
    summary = json.loads((out / "summary.json").read_text())
    assert summary["ball_no_worse"] is True
    assert summary["energy_ball"] <= summary["energy_shape"] + 1e-12
    assert summary["worst_rearrangement_ratio"] <= 1.02


def test_toy_classify_smoke(tmp_path):
    doc = {"positions": [[0.0], [1.0]], "masses": [2 ** -0.5, 2 ** -0.5],
           "exponent": 3.0}
    code, out = run_cli(tmp_path, "toy-classify", doc)
    assert code == 0
    summary = json.loads((out / "summary.json").read_text())
    assert summary["energy"] == pytest.approx(-2.0, rel=1e-12)
    assert summary["classification"] == "non-stationary"
    assert summary["min_hessian_eig"] is None


def test_console_entry_point_subprocess(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"d": 2, "n": 1, "s": 0.5, "trials": 2,
                               "seed": 1, "max_steps": 200}))
    out = tmp_path / "out"
    proc = subprocess.run(
        [sys.executable, "-m", "fracdrum", "toy-sweep",
         "--config", str(cfg), "--out", str(out)],
        capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert (out / "summary.json").exists()
    assert (out / "manifest.json").exists()
