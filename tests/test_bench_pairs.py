import hashlib
import importlib.util
import json
import math
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parents[1] / "tools" / "bench_pairs.py"
_spec = importlib.util.spec_from_file_location("bench_pairs", _PATH)
bench_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pairs)


def test_quartiles_interpolate_between_sorted_values():
    assert bench_pairs.quartiles([4.0, 1.0, 3.0, 2.0, 5.0]) == (2.0, 3.0, 4.0)
    assert bench_pairs.quartiles([1.0, 2.0, 3.0, 4.0]) == (1.75, 2.5, 3.25)
    assert bench_pairs.quartiles([7.0]) == (7.0, 7.0, 7.0)


def test_compare_counts_pairs_won_by_direction():
    parent = [1.0, 1.2, 1.1, 1.3, 1.0]
    change = [0.8, 1.3, 0.9, 1.3, 0.7]     # lower in pairs 1, 3 and 5; a tie
    st = bench_pairs.compare(parent, change, "lower")
    assert st["wins"] == 3 and st["pairs"] == 5
    assert st["parent"] == (1.0, 1.1, 1.2)
    assert st["change"] == (0.8, 0.9, 1.3)
    assert st["relative_change"] == pytest.approx(-0.2 / 1.1)
    assert st["parent_spread"] == pytest.approx(0.2)
    # the same numbers where higher is better: the tie still counts for neither
    assert bench_pairs.compare(parent, change, "higher")["wins"] == 1


def test_compare_refuses_unpaired_runs():
    with pytest.raises(ValueError):
        bench_pairs.compare([1.0, 2.0], [1.0], "lower")
    with pytest.raises(ValueError):
        bench_pairs.compare([], [], "lower")


def write_outputs(path, summary, csv_text):
    """Write two outputs and the manifest a cli run indexes them in."""
    path.mkdir()
    files = {"summary.json": json.dumps(summary, indent=2, sort_keys=True),
             "weiss.csv": csv_text}
    for name, text in files.items():
        (path / name).write_text(text)
    (path / "manifest.json").write_text(json.dumps({"files": {
        name: hashlib.sha256(text.encode()).hexdigest()
        for name, text in files.items()}}))


def test_compare_reports_each_changed_field_and_column(tmp_path):
    summary = {"values": [1.0, 2.0], "kind": "a", "count": 3}
    write_outputs(tmp_path / "p", summary, "radius,value\n0.1,1.0\n0.2,4.0\n")
    write_outputs(tmp_path / "same", summary, "radius,value\n0.1,1.0\n0.2,4.0\n")
    assert bench_pairs.compare_outputs(tmp_path / "p", tmp_path / "same") == []

    write_outputs(tmp_path / "c", {"values": [1.0, 2.5],
                                   "kind": "b", "count": 3},
                  "radius,value\n0.1,1.0\n0.2,4.000000000002\n")
    lines = bench_pairs.compare_outputs(tmp_path / "p", tmp_path / "c")
    assert lines[0] == "summary.json kind: 'a' -> 'b'"
    assert lines[1] == "summary.json values[1]: relative change 0.25"
    assert lines[2].startswith("weiss.csv column value: max relative change 5")
    assert len(lines) == 3


def test_rel_change():
    assert bench_pairs.rel_change(2.0, 2.0) == 0.0
    assert bench_pairs.rel_change(math.nan, math.nan) == 0.0
    assert bench_pairs.rel_change(0.0, 1e-300) == math.inf
    assert bench_pairs.rel_change(-4.0, -3.0) == pytest.approx(0.25)
    assert bench_pairs.rel_change("0.5", "0.75") == pytest.approx(0.5)
    assert bench_pairs.rel_change("stable", "stable") == 0.0
    assert bench_pairs.rel_change("stable", "unstable") == math.inf


# argv: ... --workload W ...; keeps one op's outputs where perfbench/run.py
# keeps them (a summary.json with the manifest indexing it, or an
# error.json), then prints a result line and exits as a run that passed or not
_STUB_RUN = """
import hashlib, json, os, shutil, sys
out = os.path.join(".perfbench_work", sys.argv[sys.argv.index("--workload") + 1])
shutil.rmtree(out, ignore_errors=True)
out = os.path.join(out, "rep0", "op", "out")
os.makedirs(out)
name, doc = {record!r}
with open(os.path.join(out, name), "w") as f:
    json.dump(doc, f)
if name == "summary.json":
    with open(os.path.join(out, name), "rb") as f:
        files = {{name: hashlib.sha256(f.read()).hexdigest()}}
    with open(os.path.join(out, "manifest.json"), "w") as f:
        json.dump({{"files": files}}, f)
print("FAIL rep0 op: run returned 3" + {detail!r} if {failing} else "all ops passed")
print(json.dumps({{"correct": not {failing}, "metrics": {{"solve_s": {{"value": 1.0}}}}}}))
sys.exit(1 if {failing} else 0)
"""


def fake_root(root, record, failing=False, detail=""):
    (root / "perfbench").mkdir(parents=True)
    (root / "perfbench" / "run.py").write_text(
        _STUB_RUN.format(record=record, failing=failing, detail=detail))
    (root / "BENCHMARK.json").write_text(json.dumps(
        {"end_to_end": [{"name": "solve_s", "better": "lower"}]}))
    return str(root)


def test_main_diffs_the_outputs_each_run_keeps(tmp_path, capsys):
    parent = fake_root(tmp_path / "parent", ("summary.json", {"value": 1.0}))
    same = fake_root(tmp_path / "same", ("summary.json", {"value": 1.0}))
    drifted = fake_root(tmp_path / "drifted", ("summary.json", {"value": 1.5}))
    failing = fake_root(tmp_path / "failing",
                        ("error.json", {"error": "no convergence"}), failing=True)
    args = ["--workload", "probe", "--pairs", "2", "--seconds", "1"]

    assert bench_pairs.main([parent, same, *args]) == 0
    out = capsys.readouterr().out
    assert "pair 2/2" in out and "solve_s" in out
    assert "  op: identical" in out
    assert bench_pairs.main([parent, drifted, *args]) == 0
    assert ("op:\n    summary.json value: relative change 0.5"
            in capsys.readouterr().out)

    # the run fails in the first pair; what each root then holds is diffed
    assert bench_pairs.main([parent, failing, *args]) == 1
    captured = capsys.readouterr()
    assert "FAIL rep0 op: run returned 3" in captured.err
    assert "pair 1/2" not in captured.out and "won" not in captured.out
    assert "  op: exit 0 -> 3 (change: no convergence)" in captured.out


def test_main_clears_the_outputs_an_earlier_invocation_left(tmp_path, capsys):
    failing = fake_root(tmp_path / "failing",
                        ("error.json", {"error": "no convergence"}), failing=True)
    change = fake_root(tmp_path / "change", ("summary.json", {"value": 1.0}))
    stale = tmp_path / "change" / ".perfbench_work" / "probe" / "rep0" / "op" / "out"
    stale.mkdir(parents=True)
    (stale / "error.json").write_text(json.dumps({"error": "from an earlier run"}))

    # the parent runs first in pair 1 and fails, so the change never runs
    args = ["--workload", "probe", "--pairs", "2", "--seconds", "1"]
    assert bench_pairs.main([failing, change, *args]) == 1
    out = capsys.readouterr().out
    assert "  op: exit 3 -> 2 (parent: no convergence)" in out
    assert "earlier run" not in out and "identical" not in out
    assert not stale.exists()


def test_a_failed_run_is_quoted_in_whole_lines(tmp_path, capsys):
    parent = fake_root(tmp_path / "parent", ("summary.json", {"value": 1.0}))
    reference = ", reference [" + ", ".join(["0.99668112344367"] * 300) + "]"
    failing = fake_root(tmp_path / "failing", ("error.json", {"error": "mismatch"}),
                        failing=True, detail=reference)
    assert len(reference) > 3000
    args = ["--workload", "probe", "--pairs", "1", "--seconds", "1"]
    assert bench_pairs.main([parent, failing, *args]) == 1
    assert "FAIL rep0 op: run returned 3" + reference in capsys.readouterr().err


def test_main_refuses_one_root_given_twice(tmp_path, capsys):
    root = fake_root(tmp_path / "root", ("summary.json", {"value": 1.0}))
    (tmp_path / "link").symlink_to(root)
    for other in (root, str(tmp_path / "root" / "perfbench" / ".."),
                  str(tmp_path / "link")):
        assert bench_pairs.main([root, other, "--workload", "probe"]) == 2
    assert "both roots are" in capsys.readouterr().err
    assert not (tmp_path / "root" / ".perfbench_work").exists()


def test_each_op_is_read_from_the_one_record_its_run_left(tmp_path, capsys):
    # an exit-2 rerun over a good run's outputs: summary.json stays on disk
    write_outputs(tmp_path / "parent", {"value": 1.0}, "radius,value\n0.1,1.0\n")
    rerun = tmp_path / "rerun"
    write_outputs(rerun, {"value": 1.0}, "radius,value\n0.1,1.0\n")
    (rerun / "manifest.json").unlink()
    (rerun / "error.json").write_text(json.dumps(
        {"error": "field 'trials' must be >= 1, got -1", "exit_code": 2}))
    assert bench_pairs._record(rerun) == (2, "field 'trials' must be >= 1, got -1", {})

    # an error.json from a cli that wrote no exit_code means exit 3
    (rerun / "error.json").write_text(json.dumps({"error": "no convergence"}))
    assert bench_pairs._record(rerun)[:2] == (3, "no convergence")
    assert bench_pairs._record(tmp_path / "missing") == (2, "", {})

    # a CSV an earlier run left, not in this run's manifest, is not diffed
    write_outputs(tmp_path / "change", {"value": 1.0}, "radius,value\n0.1,1.0\n")
    (tmp_path / "change" / "trace.csv").write_text("step\n1\n")
    assert bench_pairs.compare_outputs(tmp_path / "parent", tmp_path / "change") == []

    for side, name in (("parent", "parent"), ("change", "rerun")):
        out = tmp_path / "root" / side / ".perfbench_work" / "probe" / "rep0" / "op"
        out.mkdir(parents=True)
        (out / "out").symlink_to(tmp_path / name)
    (rerun / "error.json").write_text(json.dumps(
        {"error": "field 'trials' must be >= 1, got -1", "exit_code": 2}))
    roots = [str(tmp_path / "root" / side) for side in bench_pairs.SIDES]
    assert bench_pairs.diff_ops(roots, "probe") == 1
    assert ("  op: exit 0 -> 2 (change: field 'trials' must be >= 1, got -1)"
            in capsys.readouterr().out)
