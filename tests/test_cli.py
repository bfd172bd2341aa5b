import contextlib
import copy
import hashlib
import io
import json
import math
import os
import re
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fracdrum import (ExtensionGrid, ExtensionSolution, GridSpec, MultiIndicator, cli,
                      homogeneous_profile, weiss_functional)


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
    def boom(cfg, seed, timings):
        raise RuntimeError("synthetic solver breakdown")
    monkeypatch.setitem(cli._EXPERIMENTS, "eigs", boom)
    doc = {"n": 1, "s": 0.5, "h": 0.25, "L": 1.0,
           "shape": {"kind": "intervals", "items": [[0, -0.5, 0.5]]}}
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


def test_weiss_csv_has_a_row_per_radius(tmp_path):
    radii = np.linspace(0.1, 0.4, 7)
    doc = {"s": 0.5, "h": 1 / 64, "L": 1.0, "field": {"kind": "profile"},
           "radii": radii.tolist()}
    code, out = run_cli(tmp_path, "weiss", doc)
    assert code == 0
    g = ExtensionGrid(hx=1 / 64, hy=1 / 64, L=1.0, H=1.0)
    X, Y = np.meshgrid(g.x_nodes(), g.y_rows(), indexing="ij")
    sol = ExtensionSolution(grid=g, s=0.5,
                            trace=homogeneous_profile(g.x_nodes(), 0.0, 0.5),
                            values=homogeneous_profile(X, Y, 0.5), energy=float("nan"))
    curve = weiss_functional(sol, 0.0, radii, support_intervals=[(0.0, 1.0)])

    lines = (out / "weiss.csv").read_text().strip().split("\n")
    assert lines[0] == "radius,value,bulk,thin,sphere"
    assert len(lines) == 8
    first = [float(tok) for tok in lines[1].split(",")]
    assert first[0] == pytest.approx(0.1)
    assert first[1] == pytest.approx(curve.values[0], rel=1e-15)


def test_manifest_lists_exactly_the_files_this_run_wrote(tmp_path, monkeypatch):
    doc = {"n": 1, "s": 0.5, "h": 0.125, "L": 2.0, "count": 2, "dump_fields": True,
           "shape": {"kind": "intervals", "items": [[0, -1.0, 1.0]]}}

    def files(out):
        return set(json.loads((out / "manifest.json").read_text())["files"])

    code, out = run_cli(tmp_path, "eigs", doc)
    assert code == 0 and files(out) == {"fields.csv", "summary.json"}

    def boom(cfg, seed, timings):
        raise RuntimeError("synthetic solver breakdown")
    with monkeypatch.context() as m:
        m.setitem(cli._EXPERIMENTS, "eigs", boom)
        assert run_cli(tmp_path, "eigs", doc)[0] == 3
    assert (out / "error.json").exists()
    assert not (out / "manifest.json").exists()     # the first run's is gone

    # a good run into the same directory: the failure's record goes, and the
    # first run's fields.csv stays on disk but is not indexed
    code, out = run_cli(tmp_path, "eigs", dict(doc, dump_fields=False))
    assert code == 0 and files(out) == {"summary.json"}
    assert not (out / "error.json").exists()
    assert (out / "fields.csv").exists()


@pytest.mark.parametrize("h, solver", [(1 / 64, "eigh"), (1 / 512, "lobpcg")])
def test_eigs_manifest_records_the_eigensolve(tmp_path, h, solver):
    doc = {"n": 1, "s": 0.5, "h": h, "L": 2.0, "count": 4,
           "shape": {"kind": "intervals", "items": [[0, -1.0, 1.0]]}}
    code, out = run_cli(tmp_path, "eigs", doc)
    assert code == 0
    record = json.loads((out / "manifest.json").read_text())["eigensolve"]
    summary = json.loads((out / "summary.json").read_text())
    assert record["solver"] == solver
    assert (record["iterations"] > 0) == (solver == "lobpcg")
    assert record["max_residual"] == max(summary["residuals"])
    assert not {"solver", "iterations", "max_residual"} & set(summary)


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

    # two copies: the rows run over the active cell ids in order
    doc = dict(doc, copies=2, count=2, shape={
        "kind": "intervals", "items": [[0, -1.0, -0.5], [1, 0.25, 1.0]]})
    code, out = run_cli(tmp_path, "eigs", doc, subdir="two")
    assert code == 0
    g = GridSpec(n=1, h=0.125, L=2.0, copies=2)
    masks = [MultiIndicator.from_interval(g, -1.0, -0.5).masks[0],
             MultiIndicator.from_interval(g, 0.25, 1.0, copy=1).masks[1]]
    copies, cells = np.divmod(np.flatnonzero(masks), g.box_size)
    rows = [line.split(",") for line in
            (out / "fields.csv").read_text().strip().split("\n")[1:]]
    assert [(int(r[0]), int(r[1])) for r in rows] \
        == list(zip(copies.tolist(), cells.tolist()))
    assert set(copies.tolist()) == {0, 1}


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


@pytest.mark.parametrize("k", [1, 2])
def test_optimize_shape_reports_a_multiple_eigenvalue(tmp_path, k):
    # equal intervals on two copies: lambda_1 = lambda_2, so the audit of
    # the k-th eigenfield is flagged inconclusive, whether the tie is with
    # the eigenvalue below (k = 2) or above (k = 1)
    doc = {"n": 1, "s": 0.5, "h": 0.125, "L": 2.0, "copies": 2, "k": k,
           "steps": 0, "diagnostics": True,
           "init": {"kind": "intervals",
                    "items": [[0, -1.0, 1.0], [1, -1.0, 1.0]]}}
    code, out = run_cli(tmp_path, "optimize-shape", doc)
    assert code == 0
    summary = json.loads((out / "summary.json").read_text())
    assert summary["diagnostics"]["inconclusive"] is True


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


@pytest.mark.parametrize("positions, masses", [
    ([[0.0], [1e200]], [2 ** -0.5, -(2 ** -0.5)]),
    ([[1e308], [1.0]], [2 ** -0.5, 2 ** -0.5]),
])
def test_toy_classify_far_apart_pair_exits_0(tmp_path, positions, masses):
    doc = {"positions": positions, "masses": masses, "exponent": 3.0}
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, out = run_cli(tmp_path, "toy-classify", doc)
    assert code == 0
    assert caught == []
    summary = json.loads((out / "summary.json").read_text())
    assert summary["classification"] == "non-stationary"
    assert all(math.isfinite(summary[k])
               for k in ("gradient_norm", "euler_residual", "energy"))


@pytest.mark.parametrize("positions, exponent", [
    ([[1e-200], [0.0]], 3.0),
    ([[0.0], [1.0]], 1e308),
])
def test_toy_classify_non_finite_exits_3(tmp_path, positions, exponent):
    doc = {"positions": positions, "masses": [2 ** -0.5, 2 ** -0.5],
           "exponent": exponent}
    with np.errstate(all="ignore"):
        code, out = run_cli(tmp_path, "toy-classify", doc)
    assert code == 3
    assert not (out / "summary.json").exists()
    record = json.loads((out / "error.json").read_text())
    assert record["type"] == "RuntimeError" and "finite" in record["error"]


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


def test_outputs_do_not_depend_on_the_blas_thread_count(tmp_path):
    # a 2-D chain that scores forms of 185 cells and more, and a dense
    # eigensolve at N=512: sizes at which a two-thread eigh gives other
    # bytes than a one-thread one
    runs = {
        "chain": ("optimize-shape", {
            "n": 2, "s": 0.5, "h": 0.0625, "L": 1.0, "copies": 2, "k": 2,
            "steps": 300, "initial_temperature": 0.3,
            "init": {"kind": "ball", "volume": 0.3}, "seed": 2134807384}),
        "interval": ("eigs", {
            "n": 1, "s": 0.5, "h": 1 / 256, "L": 2.0, "count": 4,
            "shape": {"kind": "intervals", "items": [[0, -1.0, 1.0]]}}),
    }
    src = os.path.dirname(os.path.dirname(cli.__file__))
    outputs = {}
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads,
                   PYTHONPATH=os.pathsep.join(
                       filter(None, [src, os.environ.get("PYTHONPATH")])))
        for name, (experiment, doc) in runs.items():
            cfg = write_config(tmp_path, doc, name=f"{name}.json")
            out = tmp_path / threads / name
            proc = subprocess.run(
                [sys.executable, "-m", "fracdrum", experiment,
                 "--config", cfg, "--out", str(out)],
                capture_output=True, text=True, env=env)
            assert proc.returncode == 0, proc.stderr
            outputs[threads, name] = {
                f.name: f.read_bytes() for f in sorted(out.iterdir())
                if f.name == "summary.json" or f.suffix == ".csv"}
    assert "trace.csv" in outputs["1", "chain"]
    for name in runs:
        assert outputs["1", name] == outputs["2", name], name


def _python_with_src(code: str, *args: str) -> subprocess.CompletedProcess:
    """Run ``code`` in a fresh interpreter that imports this fracdrum."""
    src = os.path.dirname(os.path.dirname(cli.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    return subprocess.run([sys.executable, "-c", code, *args],
                          capture_output=True, text=True, env=env)


def test_cli_import_leaves_fft_and_ndimage_unloaded():
    # no scipy package is imported, so no __init__ of scipy, scipy.fft,
    # scipy.ndimage or scipy.sparse runs: the one compiled module that every
    # process needs, LAPACK, is loaded from its file; nor is numpy.ma
    proc = _python_with_src(
        "import sys, fracdrum.cli; "
        "print(*(m for m in sys.modules if m.startswith('scipy')), "
        "'numpy.ma' in sys.modules)")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["scipy.linalg._flapack", "False"]


def test_weiss_run_loads_only_pocketfft_beyond_lapack(tmp_path):
    cfg = write_config(tmp_path, {"s": 0.5, "h": 0.0625, "L": 2.0, "H": 2.0,
                                  "field": {"kind": "bump"}, "radii": [0.25]})
    proc = _python_with_src(
        "import sys; from fracdrum import cli; "
        "code = cli.run('weiss', sys.argv[1], sys.argv[2]); "
        "print(code, *sorted(m for m in sys.modules if m.startswith('scipy')))",
        cfg, str(tmp_path / "out"))
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["0", "scipy.fft._pocketfft.pypocketfft",
                                   "scipy.linalg._flapack"]


def test_torsion_run_loads_no_scipy_sparse(tmp_path):
    # torsion's CG is the one solver that once came from scipy.sparse.linalg
    cfg = write_config(tmp_path, {"s": 0.5, "h": 0.125, "L": 2.0})
    proc = _python_with_src(
        "import sys; from fracdrum import cli; "
        "code = cli.run('torsion-validate', sys.argv[1], sys.argv[2]); "
        "print(code, *(m for m in sys.modules if m.startswith('scipy.sparse')))",
        cfg, str(tmp_path / "out"))
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["0"]


# ------------------------------------------------------------ config schema

@pytest.mark.parametrize("experiment,doc,field", [
    ("eigs", {"n": 1, "s": 0.5, "h": 0.25, "L": 1.0,
              "shape": {"kind": "intervals", "items": [[0, None, 1.0]]}},
     "shape.items[0][1]"),
    ("eigs", {"n": 2, "s": 0.5, "h": 0.25, "L": 1.0,
              "shape": {"kind": "rects", "items": [[0, "a", 0.5, -0.5, 0.5]]}},
     "shape.items[0][1]"),
    ("eigs", {"n": 1, "s": 0.5, "h": 0.25, "L": float("inf"),
              "shape": {"kind": "intervals", "items": [[0, -0.5, 0.5]]}}, "L"),
    ("weiss", {"s": 0.5, "h": 0.0625, "L": 1.0, "H": float("inf"),
               "field": {"kind": "profile"}, "radii": [0.1]}, "H"),
    ("toy-sweep", {"d": 2, "n": 1, "s": 0.5, "trials": 2, "max_steps": -5},
     "max_steps"),
    ("rearrange-check", {"n": 1, "s": 0.5, "h": 0.25, "L": 1.0, "trials": -3,
                         "shape": {"kind": "intervals", "items": [[0, -0.5, 0.5]]}},
     "trials"),
    ("weiss", {"s": 0.5, "h": 0.0625, "L": 1.0, "field": {"kind": "profile"},
               "radii": [True]}, "radii[0]"),
    ("optimize-shape", {"n": 1, "s": 0.5, "h": 0.25, "L": 2.0, "steps": 2,
                        "initial_temperature": float("nan"),
                        "init": {"kind": "ball", "volume": 1.0}},
     "initial_temperature"),
    ("toy-classify", {"positions": [[]], "masses": [1.0], "exponent": 3.0},
     "positions[0]"),
    ("optimize-shape", {"n": 1, "s": 0.5, "h": 0.25, "L": 2.0, "steps": 2, "k": 0,
                        "init": {"kind": "ball", "volume": 1.0}}, "k"),
    ("eigs", {"n": 1, "s": 0.5, "h": 0.25, "L": 1.0,
              "shape": {"kind": "random-blob", "cells": 2}}, "shape.kind"),
    ("toy-classify", {"positions": [[0.0], [1.0, 0.0]], "masses": [0.6, 0.8],
                      "exponent": 3.0}, "positions"),
    # one charge has no pair, and its empty Hessian spectrum would be
    # reported as min_hessian_eig = Infinity, which is not JSON
    ("toy-classify", {"positions": [[0.0]], "masses": [1.0], "exponent": 3.0},
     "positions"),
    # the cells of (-1, 1) need L >= 1 + h/2 to lie strictly inside the box
    ("torsion-validate", {"s": 0.5, "h": 0.25, "L": 1.0}, "L"),
    ("torsion-validate", {"s": 0.5, "h": 2.0, "L": 2.0}, "h"),
    # shape items that reach the box wall or select no cell
    ("rearrange-check", {"n": 1, "s": 0.5, "h": 0.25, "L": 1.0,
                         "shape": {"kind": "intervals", "items": [[0, -0.9, 0.9]]}},
     "items[0]"),
    ("eigs", {"n": 2, "s": 0.5, "h": 0.25, "L": 1.0,
              "shape": {"kind": "rects", "items": [[0, -0.5, 0.5, -0.5, 0.5],
                                                   [0, -0.5, 0.5, 0.5, 1.0]]}},
     "items[1]"),
    ("eigs", {"n": 1, "s": 0.5, "h": 0.25, "L": 1.0,
              "shape": {"kind": "intervals", "items": [[0, 0.13, 0.2]]}}, "items[0]"),
    ("rearrange-check", {"n": 1, "s": 0.5, "h": 0.25, "L": 1.0,
                         "shape": {"kind": "intervals", "items": [[0, 0.13, 0.2]]}},
     "items[0]"),
    ("optimize-shape", {"n": 1, "s": 0.5, "h": 0.25, "L": 1.0, "steps": 2,
                        "init": {"kind": "intervals", "items": [[0, 0.13, 0.2]]}},
     "items[0]"),
    ("eigs", {"n": 1, "s": 0.5, "h": 0.25, "L": 1.0,
              "shape": {"kind": "intervals", "items": []}}, "shape.items"),
    ("eigs", {"n": 2, "s": 0.5, "h": 0.25, "L": 1.0,
              "shape": {"kind": "ball", "volume": 0.0}}, "volume"),
    # a ball larger than the strict interior, and one larger than the box
    ("eigs", {"n": 2, "s": 0.5, "h": 0.25, "L": 1.0,
              "shape": {"kind": "ball", "volume": 3.9}}, "volume"),
    ("eigs", {"n": 2, "s": 0.5, "h": 0.25, "L": 1.0,
              "shape": {"kind": "ball", "volume": 5}}, "volume"),
    # more eigenvalues requested than the initial shape has cells
    *[("optimize-shape", {"n": 1, "s": 0.5, "h": 0.25, "L": 1.0, "steps": 2,
                          "k": 3, "init": {"kind": "intervals",
                                           "items": [[0, -0.3, 0.3]]}}, field)
      for field in ("k", "init")],
    # a required field left out
    ("toy-sweep", {"n": 1, "s": 0.5, "trials": 2}, "d"),
    # a shape kind made for the other dimension
    ("eigs", {"n": 2, "s": 0.5, "h": 0.25, "L": 1.0,
              "shape": {"kind": "intervals", "items": [[0, -0.5, 0.5]]}}, "kind"),
    # the exponent given neither way, and both ways
    ("toy-classify", {"positions": [[0.0], [1.0]], "masses": [1.0, -1.0]},
     "exponent"),
    ("toy-classify", {"positions": [[0.0], [1.0]], "masses": [1.0, -1.0],
                      "s": 0.5, "exponent": 3.0}, "s"),
    # an experiment that does not exist
    ("eigenvalues", {}, "eigenvalues"),
    # a spacing that does not divide the box
    ("eigs", {"n": 1, "s": 0.5, "h": 0.3, "L": 1.0,
              "shape": {"kind": "intervals", "items": [[0, -0.5, 0.5]]}}, "h"),
    ("optimize-shape", {"n": 1, "s": 0.5, "h": 0.3, "L": 1.0, "steps": 2,
                        "init": {"kind": "intervals", "items": [[0, -0.5, 0.5]]}},
     "h"),
    ("rearrange-check", {"n": 1, "s": 0.5, "h": 0.3, "L": 1.0,
                         "shape": {"kind": "intervals", "items": [[0, -0.5, 0.5]]}},
     "h"),
    ("torsion-validate", {"s": 0.5, "h": 0.3, "L": 2.0}, "h"),
    ("weiss", {"s": 0.5, "h": 0.3, "L": 1.0, "field": {"kind": "profile"},
               "radii": [0.1]}, "h"),
    ("weiss", {"s": 0.5, "h": 0.0625, "L": 1.0, "H": 0.3,
               "field": {"kind": "profile"}, "radii": [0.1]}, "H"),
    # the bump's support (-1, 1) needs L >= 1 + h/2 to stay off the wall cells
    ("weiss", {"s": 0.5, "h": 0.125, "L": 1.0, "field": {"kind": "bump"},
               "radii": [0.1]}, "L"),
    # more eigenvalues requested than the shape has cells
    ("eigs", {"n": 1, "s": 0.5, "h": 0.25, "L": 1.0, "count": 50,
              "shape": {"kind": "intervals", "items": [[0, -0.5, 0.5]]}}, "count"),
    # a ball of the largest radius that reaches past the grid
    *[("weiss", {"s": 0.5, "h": 0.0625, "L": 1.0, "field": {"kind": "profile"},
                 "center": 0.8, "radii": [0.3]}, field)
      for field in ("center", "radii")],
    # masses off the unit sphere, and a repeated position
    ("toy-classify", {"positions": [[0.0], [1.0]], "masses": [0.6, 0.6],
                      "exponent": 3.0}, "masses"),
    ("toy-classify", {"positions": [[0.5], [0.5]], "masses": [0.6, 0.8],
                      "exponent": 3.0}, "positions"),
])
def test_malformed_field_exits_2_naming_it(tmp_path, capsys, experiment, doc, field):
    code, out = run_cli(tmp_path, experiment, doc)
    assert code == 2
    assert f"'{field}'" in capsys.readouterr().err
    assert not (out / "summary.json").exists()


@pytest.mark.parametrize("doc", [[1, 2], "text", 3])
def test_config_that_is_not_an_object_exits_2(tmp_path, capsys, doc):
    code, _ = run_cli(tmp_path, "toy-sweep", doc)
    assert code == 2
    assert "JSON object" in capsys.readouterr().err


@pytest.mark.parametrize("raw", [b"\xff\xfe{", b"[" * 100000 + b"]" * 100000],
                         ids=["not-utf8", "nested-too-deeply"])
def test_unreadable_config_exits_2(tmp_path, capsys, raw):
    path = tmp_path / "bad.json"
    path.write_bytes(raw)
    assert cli.run("toy-sweep", str(path), str(tmp_path / "out")) == 2
    assert "cannot read config" in capsys.readouterr().err


TOY_SWEEP = {"d": 2, "n": 1, "s": 0.5, "trials": 3, "seed": 1, "max_steps": 50}


def test_unwritable_manifest_exits_3_with_record(tmp_path, capsys):
    (tmp_path / "out" / "manifest.json.tmp").mkdir(parents=True)
    code, out = run_cli(tmp_path, "toy-sweep", TOY_SWEEP)
    assert code == 3
    err = capsys.readouterr().err
    assert str(out / "manifest.json.tmp") in err
    assert "Traceback" not in err
    assert json.loads((out / "error.json").read_text())["type"] == "IsADirectoryError"
    assert not (out / "manifest.json").exists()


def test_unwritable_summary_and_error_record_exit_3(tmp_path, capsys):
    for name in ("summary.json", "error.json"):
        (tmp_path / "out" / name).mkdir(parents=True)
    code, out = run_cli(tmp_path, "toy-sweep", TOY_SWEEP)
    assert code == 3
    err = capsys.readouterr().err
    assert str(out / "summary.json") in err and str(out / "error.json") in err
    assert "Traceback" not in err


def _records(out):
    """The run records in ``out``, each with its ``exit_code`` if it has one."""
    return {name: json.loads((Path(out) / name).read_text()).get("exit_code")
            for name in ("manifest.json", "error.json") if (Path(out) / name).exists()}


def test_every_run_leaves_exactly_one_record(tmp_path, monkeypatch, capsys):
    out = tmp_path / "out"
    unreadable = tmp_path / "unreadable.json"
    unreadable.write_bytes(b"\xff\xfe{")

    def broken(cfg, seed, timings):
        raise RuntimeError("synthetic fault")
    good = write_config(tmp_path, TOY_SWEEP, name="good.json")
    runs = [(good, 0), (write_config(tmp_path, dict(TOY_SWEEP, trials=-1)), 2),
            (str(unreadable), 2), (good, 3), (good, 0)]
    for cfg, expected in runs:
        with monkeypatch.context() as m:
            if expected == 3:
                m.setitem(cli._EXPERIMENTS, "toy-sweep", broken)
            code = cli.run("toy-sweep", cfg, str(out))
        assert code == expected
        assert _records(out) == ({"manifest.json": None} if code == 0
                                 else {"error.json": code})
    assert "cannot read config" in capsys.readouterr().err


def test_out_naming_a_file_exits_2_naming_it(tmp_path, capsys):
    (tmp_path / "out").write_text("")
    code, out = run_cli(tmp_path, "toy-sweep", TOY_SWEEP)
    assert code == 2
    err = capsys.readouterr().err
    assert f"cannot use output directory {out}" in err
    assert "config" not in err and "Traceback" not in err


@pytest.mark.parametrize("exc_type", [TypeError, KeyError, np.linalg.LinAlgError])
def test_unexpected_failure_exits_3_with_record(tmp_path, monkeypatch, capsys,
                                                exc_type):
    def broken(cfg, seed, timings):
        raise exc_type("synthetic fault")
    monkeypatch.setitem(cli._EXPERIMENTS, "eigs", broken)
    doc = {"n": 1, "s": 0.5, "h": 0.25, "L": 1.0,
           "shape": {"kind": "intervals", "items": [[0, -0.5, 0.5]]}}
    code, out = run_cli(tmp_path, "eigs", doc)
    assert code == 3
    record = json.loads((out / "error.json").read_text())
    assert record["type"] == exc_type.__name__
    assert "Traceback" not in capsys.readouterr().err


def test_extension_residual_failure_exits_3(tmp_path, monkeypatch):
    import fracdrum.extension as extension
    solve = extension._solve_tridiagonal
    monkeypatch.setattr(extension, "_solve_tridiagonal",
                        lambda ab, b: solve(ab, b) * (1 + 1e-6))
    doc = {"s": 0.5, "h": 0.0625, "L": 2.0, "field": {"kind": "bump"},
           "radii": [0.25]}
    code, out = run_cli(tmp_path, "weiss", doc)
    assert code == 3
    record = json.loads((out / "error.json").read_text())
    assert record["type"] == "RuntimeError" and "residual" in record["error"]


@pytest.mark.parametrize("s, radii, name", [(1e-20, [0.25], "s = 1e-20"),
                                             (0.5, [1e-300], "radii")])
def test_weiss_refuses_a_vanishing_s_or_radius(tmp_path, s, radii, name):
    # at s = 1e-20 the conductances are not finite; at r = 1e-300, r ** 2
    # underflows and the value was -Infinity, written with exit 0
    doc = {"s": s, "h": 0.25, "L": 2.0, "field": {"kind": "bump"}, "radii": radii}
    code, out = run_cli(tmp_path, "weiss", doc)
    assert code == 2
    record = json.loads((out / "error.json").read_text())
    assert record["type"] == "ValueError" and name in record["error"]
    assert not (out / "summary.json").exists()


def test_torsion_cg_without_convergence_exits_3(tmp_path, monkeypatch):
    monkeypatch.setattr("fracdrum.spectra.CG_MAXITER", 1)
    code, out = run_cli(tmp_path, "torsion-validate", {"s": 0.5, "h": 2 / 64, "L": 2.0})
    assert code == 3
    record = json.loads((out / "error.json").read_text())
    assert record["type"] == "RuntimeError" and "failed to converge" in record["error"]
    assert not (out / "summary.json").exists()


def test_annealer_with_no_legal_move_exits_2_naming_k(tmp_path, capsys):
    # both interior cells are filled and k = 2 forbids any removal
    doc = {"n": 1, "s": 0.5, "h": 0.5, "L": 1.0, "k": 2, "steps": 3,
           "init": {"kind": "intervals", "items": [[0, -0.5, 0.5]]}}
    code, _ = run_cli(tmp_path, "optimize-shape", doc)
    assert code == 2
    assert "k = 2" in capsys.readouterr().err


def test_readme_command_line_examples_run(tmp_path):
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = readme.split("## Command line")[1].split("\n## ")[0]
    blocks = list(re.finditer(r"```json\n(.*?)```", section, re.S))
    assert len(blocks) >= 4
    for i, block in enumerate(blocks):
        experiment = re.findall(r"\*\*([a-z-]+)\*\*", section[:block.start()])[-1]
        code, _ = run_cli(tmp_path, experiment, json.loads(block.group(1)),
                          subdir=f"example{i}")
        assert code == 0, experiment


# Small valid configs; the fuzz test below swaps one field at a time for a
# value from a fixed pool.  No pool value is valid and large, so no swap can
# build a big grid or a long run.
FUZZ_BASES = [
    ("eigs", {"n": 1, "s": 0.5, "h": 0.25, "L": 1.0, "copies": 2, "count": 2,
              "dump_fields": True,
              "shape": {"kind": "intervals", "items": [[0, -0.5, 0.5], [1, -0.5, 0.5]]}}),
    ("eigs", {"n": 2, "s": 0.5, "h": 0.25, "L": 1.0, "count": 1,
              "shape": {"kind": "rects", "items": [[0, -0.5, 0.5, -0.5, 0.5]]}}),
    ("torsion-validate", {"s": 0.5, "h": 0.125, "L": 2.0}),
    ("optimize-shape", {"n": 1, "s": 0.5, "h": 0.25, "L": 2.0, "copies": 2, "k": 1,
                        "steps": 3, "cooling": 0.9, "initial_temperature": 0.3,
                        "diagnostics": True, "seed": 3,
                        "init": {"kind": "random-blob", "cells": 3, "copy": 1}}),
    ("rearrange-check", {"n": 2, "s": 0.5, "h": 0.25, "L": 1.0, "trials": 2,
                         "seed": 1,
                         "shape": {"kind": "ball", "volume": 0.5, "copy": 0}}),
    ("toy-sweep", {"d": 2, "n": 1, "s": 0.5, "trials": 2, "max_steps": 50,
                   "seed": 1}),
    ("toy-classify", {"positions": [[0.0], [1.0]], "masses": [2 ** -0.5, 2 ** -0.5],
                      "exponent": 3.0}),
    ("toy-classify", {"positions": [[0.0, 0.0], [1.0, 0.0]],
                      "masses": [2 ** -0.5, -(2 ** -0.5)], "s": 0.5}),
    ("weiss", {"s": 0.5, "h": 0.0625, "L": 2.0, "H": 2.0, "center": 0.0,
               "field": {"kind": "bump"}, "radii": [0.25, 0.5]}),
    ("weiss", {"s": 0.3, "h": 0.0625, "L": 1.0, "field": {"kind": "profile"},
               "radii": [0.1, 0.2]}),
]

FUZZ_POOL = [None, True, "x", [], {}, -1, 0, float("nan"), float("inf"),
             float("-inf"), 1e308]


def _paths(doc, prefix=()):
    """Every key and list entry of a config, nested ones included."""
    items = doc.items() if isinstance(doc, dict) else enumerate(doc)
    for key, value in items:
        yield prefix + (key,)
        if isinstance(value, (dict, list)):
            yield from _paths(value, prefix + (key,))


FUZZ_CASES = [(i, path) for i, (_, doc) in enumerate(FUZZ_BASES)
              for path in _paths(doc)]


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(case=st.sampled_from(FUZZ_CASES), value=st.sampled_from(FUZZ_POOL))
def test_fuzzed_config_keeps_exit_code_contract(case, value):
    base, path = case
    experiment, doc = FUZZ_BASES[base]
    doc = copy.deepcopy(doc)
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    parent[path[-1]] = value
    with tempfile.TemporaryDirectory() as tmp:
        cfg = os.path.join(tmp, "config.json")
        with open(cfg, "w") as f:
            json.dump(doc, f)
        err = io.StringIO()
        # recorded, not raised: cli.run would turn a raised warning into exit 3
        with contextlib.redirect_stderr(err), \
                warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = cli.run(experiment, cfg, os.path.join(tmp, "out"))
        records = _records(os.path.join(tmp, "out"))
    assert code in (0, 2, 3), (experiment, path, value)
    assert [str(w.message) for w in caught] == [], (experiment, path, value)
    assert "Traceback" not in err.getvalue()
    assert records == ({"manifest.json": None} if code == 0
                       else {"error.json": code}), (experiment, path, value)


# sha256 of summary.json and every CSV of each FUZZ_BASES run, recorded before
# config validation moved from the runners into cli.run
SUMMARY_DIGESTS = [
    {"fields.csv": "9dbd9e423d92d8dfb12768e78cf374a4607c6e269de09f2a4f2df7b043a307a5",
     "summary.json": "d8866720808dace51eb03ff1f169dc205eeb1208a8d9ba9d7ea1441546a00936"},
    {"summary.json": "2cae61f4f5e3c1c2e2a5c32f91e690b9d708dd33c118d4247bd1567187383e06"},
    {"summary.json": "13cc46fb93cbde20f78e997b7323f22f2be8a1082204192156e05b88473b10eb"},
    {"summary.json": "93975f00472a965ebb7e0575438dcd64e286053220374916855f9550fdc9b8e1",
     "trace.csv": "e75a6a2022010b5830253d8aa8a0220cbac5a84be4bdb2b428ca23d2536a9394"},
    {"summary.json": "e7456c468a72e1fe30a53723a936892a7ee8ff5baab6e6890fc34ed2b8bf536e"},
    {"summary.json": "8ace2debfdb182224efacbdb498dedcc2acdaa457b2f09f38433b0d66f646500"},
    {"summary.json": "9f9a6a2aaa0e8b44fb178f537a19df716147e68c8c4b1a554377195b482a2566"},
    {"summary.json": "1fef824158b880a1b0a62d928461814a01e539ff3b5da1044883960e58ad4c83"},
    {"summary.json": "72952d0ec4eb6cd363f9f89e7db54e9618e8b14be9ecc5f5a7458d1ea9eeec39",
     "weiss.csv": "a9c23c351e4cde2337b8afd1dc4db1bf4eb0d1c5bcab0c85752a70a5a404a32a"},
    {"summary.json": "dd9741f8c7a8577f81292d5379cd7a96769dcc8bb296a3bd5a1b57111bcb0f20",
     "weiss.csv": "9bdadeb7e0cd621b54128b72015afd0c71134d972087882de0b6e15c0c654994"},
]


@pytest.mark.parametrize("base", range(len(FUZZ_BASES)))
def test_summary_bytes_are_frozen(tmp_path, base):
    experiment, doc = FUZZ_BASES[base]
    code, out = run_cli(tmp_path, experiment, doc)
    assert code == 0
    digests = {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
               for p in out.iterdir()
               if p.name == "summary.json" or p.suffix == ".csv"}
    assert digests == SUMMARY_DIGESTS[base]


def _blob_by_frontier_sets(grid, cells, rng):
    """The set-based growth that cli._random_blob replaced, kept as reference."""
    m = grid.cells_per_side
    mask = np.zeros(grid.shape, dtype=bool)
    mask[(m // 2,) * grid.n] = True
    offsets = [(-1,), (1,)] if grid.n == 1 else [(-1, 0), (1, 0), (0, -1), (0, 1)]
    while int(mask.sum()) < cells:
        frontier = set()
        for idx in np.argwhere(mask):
            for off in offsets:
                nb = tuple(int(a + b) for a, b in zip(idx, off))
                if all(0 < x < m - 1 for x in nb) and not mask[nb]:
                    frontier.add(nb)
        mask[sorted(frontier)[int(rng.integers(len(frontier)))]] = True
    return mask


@pytest.mark.parametrize("n,h,cells", [(1, 0.0625, 20), (2, 0.125, 40), (2, 0.25, 36)])
def test_random_blob_matches_frontier_set_reference(n, h, cells):
    grid = cli.GridSpec(n=n, h=h, L=1.0)
    for seed in range(5):
        got = cli._random_blob(grid, cells, 0, np.random.default_rng(seed))
        want = _blob_by_frontier_sets(grid, cells, np.random.default_rng(seed))
        assert np.array_equal(got.masks[0], want)
    with pytest.raises(cli.ConfigError, match="strict interior"):
        # a 4-cell side leaves 2 ** n strictly interior cells
        cli._random_blob(cli.GridSpec(n=n, h=0.5, L=1.0), 2 ** n + 1, 0,
                         np.random.default_rng(0))


def test_rle_matches_run_loop():
    rng = np.random.default_rng(0)
    for _ in range(20):
        mask = rng.random((int(rng.integers(1, 12)), 7)) < 0.5
        runs, start = [], None
        for i, on in enumerate([*mask.ravel(), False]):
            if on and start is None:
                start = i
            elif not on and start is not None:
                runs.append([start, i - start])
                start = None
        assert cli._rle(mask) == runs
