"""One workload process: set up, run the op sequence once, gate, report.

Started by ``run.py`` in a fresh interpreter, with the BLAS thread variables
already in its environment, as

    python3 perfbench/worker.py WORKLOAD SEED TRACE STARTED OUT_DIR

``STARTED`` is the parent's ``time.monotonic()`` just before it spawned this
process; on Linux that clock is system-wide, so ``setup_s`` spans interpreter
start, the package import and writing the config documents.  The result is
one JSON object on the last line of standard output.
"""

import os
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [os.path.join(os.path.dirname(HERE), "src"), HERE]

import csv  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import traceback  # noqa: E402

import fracdrum.cli  # noqa: E402

import gate  # noqa: E402
import machine  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402


def _prepare(ops, out_dir):
    paths = []
    for op_id, _, cfg in ops:
        op_dir = os.path.join(out_dir, op_id)
        os.makedirs(op_dir)
        path = os.path.join(op_dir, "config.json")
        with open(path, "w") as f:
            json.dump(cfg, f, indent=2, sort_keys=True)
        paths.append((path, os.path.join(op_dir, "out")))
    return paths


def _solve(ops, paths, tracer):
    """Run every op; returns per-op (return code or error text, seconds)."""
    outcomes = []
    for (op_id, experiment, _), (cfg_path, out) in zip(ops, paths):
        if tracer is not None:
            tracer.op = op_id
        t0 = time.perf_counter()
        try:
            rc = fracdrum.cli.run(experiment, cfg_path, out)
        except Exception:
            rc = traceback.format_exc(limit=3)
        outcomes.append((rc, time.perf_counter() - t0))
    return outcomes


def _move_counts(trace_csv):
    """Proposals and acceptances by move kind, from an anneal ``trace.csv``."""
    counts = {}
    with open(trace_csv) as f:
        for row in csv.DictReader(f):
            kind = counts.setdefault(row["kind"], [0, 0])
            kind[0] += 1
            kind[1] += int(row["accepted"])
    return counts


def _judge(ops, paths, outcomes, reference):
    """Gate every op; returns per-op records and the anneal move counts."""
    records, moves = {}, {}
    for (op_id, experiment, cfg), (_, out), (rc, seconds) in zip(ops, paths,
                                                                   outcomes):
        record = {"experiment": experiment, "seconds": seconds,
                  "digest": None, "failures": []}
        records[op_id] = record
        if rc != 0:
            record["failures"].append(f"run returned {rc!r}")
            continue
        with open(os.path.join(out, "summary.json"), "rb") as f:
            raw = f.read()
        record["digest"] = hashlib.sha256(raw).hexdigest()
        try:
            record["failures"] += gate.check(op_id, experiment, cfg,
                                             json.loads(raw), out, reference)
        except Exception:
            record["failures"].append(traceback.format_exc(limit=3))
        if experiment == "optimize-shape":
            for kind, (proposed, accepted) in _move_counts(
                    os.path.join(out, "trace.csv")).items():
                total = moves.setdefault(kind, [0, 0])
                total[0] += proposed
                total[1] += accepted
    return records, moves


def main(argv):
    workload, seed, trace, started, out_dir = argv
    ops = workloads.build(workload, int(seed))
    paths = _prepare(ops, out_dir)
    setup_s = time.monotonic() - float(started)

    tracer = spans.Tracer() if trace == "1" else None
    if tracer is not None:
        tracer.install()
    try:
        t0 = time.perf_counter()
        outcomes = _solve(ops, paths, tracer)
        solve_s = time.perf_counter() - t0
    finally:
        if tracer is not None:
            tracer.uninstall()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    records, moves = _judge(ops, paths, outcomes, gate.load_reference())
    proposals = sum(p for p, _ in moves.values())
    result = {
        "setup_s": setup_s,
        "solve_s": solve_s,
        "ops": proposals if workload == "anneal" else len(ops),
        "peak_rss_mb": peak_rss_mb,
        "records": records,
        "moves": moves,
        "environment": machine.environment(),
        "speed": machine.speed_probe(),
    }
    if tracer is not None:
        tracer.write(os.path.join(out_dir, "spans.json"))
        result["layers"] = spans.layer_metrics(tracer.spans, tracer.counts)
    print(json.dumps(result))


if __name__ == "__main__":
    main(sys.argv[1:])
