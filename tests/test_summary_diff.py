import importlib.util
import json
import math
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parents[1] / "tools" / "summary_diff.py"
_spec = importlib.util.spec_from_file_location("summary_diff", _PATH)
summary_diff = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(summary_diff)


def write_outputs(path, summary, csv_text):
    path.mkdir()
    (path / "summary.json").write_text(json.dumps(summary, indent=2,
                                                  sort_keys=True))
    (path / "weiss.csv").write_text(csv_text)


def test_compare_reports_each_changed_field_and_column(tmp_path):
    summary = {"values": [1.0, 2.0], "kind": "a", "count": 3}
    write_outputs(tmp_path / "p", summary, "radius,value\n0.1,1.0\n0.2,4.0\n")
    write_outputs(tmp_path / "same", summary, "radius,value\n0.1,1.0\n0.2,4.0\n")
    assert summary_diff.compare(tmp_path / "p", tmp_path / "same") == []

    write_outputs(tmp_path / "c", {"values": [1.0, 2.5],
                                   "kind": "b", "count": 3},
                  "radius,value\n0.1,1.0\n0.2,4.000000000002\n")
    lines = summary_diff.compare(tmp_path / "p", tmp_path / "c")
    assert lines[0] == "summary.json kind: 'a' -> 'b'"
    assert lines[1] == "summary.json values[1]: relative change 0.25"
    assert lines[2].startswith("weiss.csv column value: max relative change 5")
    assert len(lines) == 3


def test_rel_change():
    assert summary_diff.rel_change(2.0, 2.0) == 0.0
    assert summary_diff.rel_change(math.nan, math.nan) == 0.0
    assert summary_diff.rel_change(0.0, 1e-300) == math.inf
    assert summary_diff.rel_change(-4.0, -3.0) == pytest.approx(0.25)
    assert summary_diff.rel_change("0.5", "0.75") == pytest.approx(0.5)
    assert summary_diff.rel_change("stable", "stable") == 0.0
    assert summary_diff.rel_change("stable", "unstable") == math.inf


def fake_tree(root, value, code):
    pkg = root / "fracdrum"
    pkg.mkdir(parents=True)
    (pkg / "__init__.py").write_text("")
    (pkg / "cli.py").write_text(
        "import json, os, sys\n"
        "def run(experiment, config_path, out_dir):\n"
        "    os.makedirs(out_dir)\n"
        "    with open(os.path.join(out_dir, 'summary.json'), 'w') as f:\n"
        f"        json.dump({{'value': {value!r}}}, f)\n"
        f"    if {code}:\n"
        f"        print('working', file=sys.stderr)\n"
        f"        print('error: exit {code}', file=sys.stderr)\n"
        f"    return {code}\n")
    return str(root)


def test_main_runs_each_tree_and_fails_on_exit_code(tmp_path, monkeypatch,
                                                    capsys):
    monkeypatch.setattr(summary_diff.workloads, "build",
                        lambda name, seed: [("op", "weiss", {"s": 0.5})])
    parent = fake_tree(tmp_path / "parent", 1.0, 0)
    drifted = fake_tree(tmp_path / "drifted", 1.5, 0)
    failing = fake_tree(tmp_path / "failing", 1.0, 3)

    assert summary_diff.main([parent, parent, "--workload", "probe",
                              "--seeds", "1"]) == 0
    assert "op: identical" in capsys.readouterr().out
    assert summary_diff.main([parent, drifted, "--workload", "probe",
                              "--seeds", "1", "2"]) == 0
    out = capsys.readouterr().out
    assert out.count("summary.json value: relative change 0.5") == 2
    assert summary_diff.main([parent, failing, "--workload", "probe",
                              "--seeds", "1"]) == 1
    assert "op: exit 0 -> 3 (change: error: exit 3)" in capsys.readouterr().out


def test_run_op_keeps_the_last_stderr_line(tmp_path):
    # more eigenvalues than cells: the CLI exits 2 and says why on stderr
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps({
        "n": 1, "s": 0.5, "h": 0.25, "L": 1.0, "count": 50,
        "shape": {"kind": "intervals", "items": [[0, -0.5, 0.5]]}}))
    src = str(_PATH.parents[1] / "src")
    code, line = summary_diff.run_op(src, "eigs", str(cfg), str(tmp_path / "out"))
    assert code == 2
    assert line.startswith("error: count must be in 1..")
