"""Tests of the benchmark's own machinery: span arithmetic, the wrappers and
the correctness gate."""

import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [os.path.join(os.path.dirname(HERE), "src"), HERE]

import pytest  # noqa: E402

import fracdrum  # noqa: E402
import fracdrum.anneal  # noqa: E402
import fracdrum.cli  # noqa: E402
import fracdrum.form  # noqa: E402

import gate  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402


def test_self_time_subtracts_the_union_of_child_spans():
    tree = [
        ["cli.run", 0.0, 10.0, -1, "op", None],
        ["anneal.minimize", 1.0, 6.0, 0, "op", None],
        ["form.assemble_form", 2.0, 3.0, 1, "op", None],
        ["spectra.dirichlet_eigs", 3.5, 5.0, 1, "op", "RuntimeError"],
        ["form.assemble_form", 4.0, 4.5, 3, "op", None],
        ["charges.descend", 7.0, 9.0, 0, "op", None],
        # overlapping children are counted once
        ["charges.classify", 7.5, 8.5, 5, "op", None],
        ["charges.classify", 8.0, 8.8, 5, "op", None],
    ]
    assert spans.self_times(tree) == pytest.approx(
        [3.0, 2.5, 1.0, 1.0, 0.5, 0.7, 1.0, 0.8])

    layers = spans.layer_metrics(tree, {"anneal.minimize.proposals": 4,
                                        "anneal.minimize.accepted": 1})
    m = layers["metrics"]
    assert m["form.assemble_form.calls"] == 2
    assert m["form.assemble_form.self_s"] == pytest.approx(1.5)
    assert m["spectra.dirichlet_eigs.errors"] == 1
    assert m["charges.classify.self_s"] == pytest.approx(1.8)
    assert m["anneal.minimize.accept_ratio"] == 0.25
    assert m["anneal.minimize.scored_ratio"] == 0.75
    assert layers["scoring_errors"] == {"RuntimeError": 1}
    assert layers["errors_by_type"] == {"spectra.dirichlet_eigs": {"RuntimeError": 1}}


def test_wrappers_see_calls_made_inside_the_package():
    original = fracdrum.form.assemble_form
    grid = fracdrum.GridSpec(n=1, h=0.25, L=2.0)
    init = fracdrum.MultiIndicator.from_interval(grid, -0.5, 0.5)
    with spans.Tracer() as tracer:
        assert fracdrum.anneal.assemble_form is not original
        assert fracdrum.assemble_form is fracdrum.anneal.assemble_form
        fracdrum.minimize(init, fracdrum.KernelParams(n=1, s=0.5), k=1,
                          schedule=fracdrum.AnnealSchedule(steps=3, seed=1))
    assert fracdrum.anneal.assemble_form is original
    assert fracdrum.assemble_form is original

    names = [s[0] for s in tracer.spans]
    top = names.index("anneal.minimize")
    assert all(s[3] == -1 for s in tracer.spans[:top + 1])
    inner = [s for s in tracer.spans if s[3] == top]
    assert sum(s[0] == "form.assemble_form" for s in inner) == 4
    assert sum(s[0] == "anneal.enumerate_moves" for s in inner) == 3
    assert any(s[0] == "grid.connected_components" and s[3] > top
               for s in tracer.spans)
    assert tracer.counts["anneal.minimize.proposals"] == 3
    assert tracer.counts["form.assemble_form.cells"] > 0


def _run_op(tmp_path, op_id, experiment, cfg):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    out = tmp_path / "out"
    assert fracdrum.cli.run(experiment, str(path), str(out)) == 0
    return json.loads((out / "summary.json").read_text()), str(out)


def test_gate_fails_a_perturbed_summary(tmp_path):
    reference = gate.load_reference()
    op_id, experiment, cfg = next(op for op in workloads.build("refine", 0)
                                  if op[0] == "torsion-s0.5-h64")
    summary, out = _run_op(tmp_path, op_id, experiment, cfg)
    assert gate.check(op_id, experiment, cfg, summary, out, reference) == []

    nudged = dict(summary, energy=summary["energy"] * (1 + 1e-6))
    assert gate.check(op_id, experiment, cfg, nudged, out, reference)
    flagged = dict(summary, energy_pass=False)
    assert gate.check(op_id, experiment, cfg, flagged, out, reference)


def test_gate_fails_a_toy_sweep_that_loses_a_trial(tmp_path):
    cfg = {"d": 3, "n": 1, "s": 0.5, "trials": 5, "seed": 3}
    summary, out = _run_op(tmp_path, "sweep", "toy-sweep", cfg)
    assert gate.check("sweep", "toy-sweep", cfg, summary, out, {}) == []
    counts = dict(summary["counts"])
    key = max(counts, key=counts.get)
    counts[key] -= 1
    assert gate.check("sweep", "toy-sweep", cfg, dict(summary, counts=counts),
                      out, {})


def test_gate_fails_an_anneal_best_that_does_not_rescore(tmp_path):
    cfg = {"n": 1, "s": 0.5, "h": 0.125, "L": 2.0, "copies": 2, "k": 2,
           "steps": 40, "initial_temperature": 0.3,
           "init": {"kind": "intervals", "items": [[0, -1.0, 1.0]]}, "seed": 5}
    summary, out = _run_op(tmp_path, "chain", "optimize-shape", cfg)
    # a 40-step chain is far from the two-ball optimum, so only the
    # re-scoring and trace checks are asked to pass here
    assert not any("re-scores" in r or "trace.csv" in r for r in
                   gate.check("chain", "optimize-shape", cfg, summary, out, {}))
    nudged = dict(summary, best_objective=summary["best_objective"] * (1 - 1e-6))
    assert any("re-scores" in r for r in
               gate.check("chain", "optimize-shape", cfg, nudged, out, {}))


def test_workloads_are_a_function_of_the_seed():
    for name in workloads.WORKLOADS:
        assert workloads.build(name, 7) == workloads.build(name, 7)
        assert workloads.build(name, 7) != workloads.build(name, 8)
        ops = workloads.build(name, 7)
        assert len({op_id for op_id, _, _ in ops}) == len(ops)
