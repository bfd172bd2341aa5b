"""fracdrum benchmark: end-to-end solve metrics and a traced per-layer run.

Run from the root of a checkout:

    python3 perfbench/run.py --workload anneal --seed 1 --seconds 30 --trace 0

Each repetition is a fresh interpreter (``worker.py``) that imports the
package from ``src/``, writes the workload's config documents, and runs the
op sequence through ``fracdrum.cli.run``.  There are at least two
repetitions, and more while the next one is expected to end within
``--seconds``; every metric is the median over repetitions.  BLAS thread variables are set to the core count in each
workload process's environment, before numpy loads.

``--trace 0`` reports the end-to-end metrics, measured with tracing off:

* ``setup_s``: interpreter start until ``fracdrum.cli`` is imported and the
  config documents are written;
* ``solve_s``: wall time of the op sequence;
* ``ops_per_s``: ops per second of ``solve_s`` (an anneal proposal step on
  ``anneal``, one experiment otherwise);
* ``peak_rss_mb``: peak resident memory of the workload process.

``--trace 1`` alternates untraced and traced repetitions and reports the
per-layer metrics ``<module>.<function>.<stat>`` from the traced ones, plus
``tracing.overhead_s``, traced minus untraced ``solve_s``.

Both print a human-readable report, then the environment, then one JSON
result line.  The exit code is 1 if any op failed the correctness gate or a
summary's bytes changed between repetitions, 2 if the checkout has no
package to benchmark.  Run all three workloads with ``bash perfbench/all.sh``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import gate  # noqa: E402
import machine  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

END_TO_END = (("setup_s", "s"), ("solve_s", "s"), ("ops_per_s", "1/s"),
              ("peak_rss_mb", "MB"))
DEADLINE_S = 170.0           # the whole run, set-up and every repetition
MIN_REPS = 2                 # so set-up is timed, and summaries compared, twice
MOVE_KINDS = ("flip", "translate", "relocate")


def per_layer_names() -> list[tuple[str, str]]:
    """Every per-layer metric a traced run reports, with its unit."""
    names = []
    for fn in spans.TRACED:
        names += [(f"{fn}.calls", "count"), (f"{fn}.self_s", "s"),
                  (f"{fn}.errors", "count")]
    names += [
        ("form.assemble_form.cells", "count"),
        ("form.assemble_form.pair_evals", "pairs-computed"),
        ("spectra.dirichlet_eigs.pairs", "count"),
        ("spectra.dirichlet_eigs.above_dense_limit", "count"),
        ("spectra.dirichlet_eigs.max_residual", "1"),
        ("anneal.minimize.proposals", "count"),
        ("anneal.minimize.accept_ratio", "1"),
        ("anneal.minimize.scored_ratio", "1"),
    ]
    for kind in MOVE_KINDS:
        names += [(f"anneal.minimize.{kind}.proposals", "count"),
                  (f"anneal.minimize.{kind}.accepted", "count")]
    names += [
        ("anneal.minimize.scoring_errors.ValueError", "count"),
        ("anneal.minimize.scoring_errors.RuntimeError", "count"),
        ("extension.harmonic_extension.unknowns", "count"),
        ("extension.weiss_functional.radii", "count"),
        ("charges.descend.steps", "count"),
        ("tracing.overhead_s", "s"),
    ]
    return names


def _worker(workload, seed, traced, out_dir, env, timeout):
    """One fresh workload process; returns its result or an error text."""
    started = time.monotonic()
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), workload, str(seed),
           "1" if traced else "0", repr(started), out_dir]
    try:
        proc = subprocess.run(cmd, env=env, cwd=ROOT, capture_output=True,
                              text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        return f"workload process exceeded {timeout:.0f} s"
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return (f"workload process exited {proc.returncode}: "
                + proc.stderr.strip()[-2000:])
    result = json.loads(lines[-1])
    result["traced"] = traced
    result["wall_s"] = time.monotonic() - started
    return result


def _repeat(args, env, work):
    """Repetitions while another one is expected to end within ``--seconds``;
    at least ``MIN_REPS``, and with ``--trace 1`` both kinds."""
    t0 = time.monotonic()
    reps, crashes = [], []
    while True:
        traced = bool(args.trace) and len(reps) % 2 == 1
        out_dir = os.path.join(work, f"rep{len(reps)}")
        left = DEADLINE_S - (time.monotonic() - t0)
        res = _worker(args.workload, args.seed, traced, out_dir, env, left)
        if isinstance(res, str):
            crashes.append(res)
            break
        reps.append(res)
        elapsed = time.monotonic() - t0
        enough = len(reps) >= MIN_REPS  # with --trace 1, one of each kind
        limit = args.seconds if enough else DEADLINE_S - 5
        if elapsed + res["wall_s"] > limit:
            break
    return reps, crashes


def _median(values):
    return statistics.median(values) if values else 0.0


def _end_to_end(reps):
    return {
        "setup_s": _median([r["setup_s"] for r in reps]),
        "solve_s": _median([r["solve_s"] for r in reps]),
        "ops_per_s": _median([r["ops"] / r["solve_s"] for r in reps]),
        "peak_rss_mb": _median([r["peak_rss_mb"] for r in reps]),
    }


def _per_layer(untraced, traced):
    merged = []
    for r in traced:
        m = dict(r["layers"]["metrics"])
        for kind in MOVE_KINDS:
            proposed, accepted = r["moves"].get(kind, (0, 0))
            m[f"anneal.minimize.{kind}.proposals"] = proposed
            m[f"anneal.minimize.{kind}.accepted"] = accepted
        for err in ("ValueError", "RuntimeError"):
            m[f"anneal.minimize.scoring_errors.{err}"] = (
                r["layers"]["scoring_errors"].get(err, 0))
        merged.append(m)
    out = {}
    for name, _ in per_layer_names():
        out[name] = _median([m.get(name, 0) for m in merged])
    out["tracing.overhead_s"] = (_median([r["solve_s"] for r in traced])
                                 - _median([r["solve_s"] for r in untraced]))
    return out


def _digest_mismatches(reps):
    """Op ids whose summary bytes differ between repetitions."""
    seen = {}
    for r in reps:
        for op_id, rec in r["records"].items():
            if rec["digest"] is not None:
                seen.setdefault(op_id, set()).add(rec["digest"])
    return sorted(op for op, digests in seen.items() if len(digests) > 1)


def _fmt(value):
    return f"{value:.6g}" if isinstance(value, float) else str(value)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "fracdrum", "cli.py")):
        print(f"error: no fracdrum package under {os.path.join(ROOT, 'src')}",
              file=sys.stderr)
        return 2

    work = os.path.join(ROOT, ".perfbench_work", args.workload)
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    threads = str(machine.core_count())
    env = dict(os.environ, PYTHONHASHSEED="0",
               **{var: threads for var in machine.THREAD_VARS})

    reps, crashes = _repeat(args, env, work)
    untraced = [r for r in reps if not r["traced"]]
    traced = [r for r in reps if r["traced"]]
    n_ops = len(workloads.build(args.workload, args.seed))
    attempted = n_ops * (len(reps) + len(crashes))
    failures = [(i, op, f) for i, r in enumerate(reps)
                for op, rec in r["records"].items() for f in rec["failures"]]
    failed = len({(i, op) for i, op, _ in failures}) + n_ops * len(crashes)
    mismatched = _digest_mismatches(reps)
    known = [op for op in mismatched if op in gate.NONDETERMINISTIC]
    mismatched = [op for op in mismatched if op not in known]
    correct = failed == 0 and not mismatched and bool(reps)

    print(f"workload {args.workload}  seed {args.seed}  repetitions "
          f"{len(untraced)} untraced, {len(traced)} traced, {len(crashes)} crashed")
    for text in crashes:
        print(f"  CRASH {text}")
    for i, op, text in failures:
        print(f"  FAIL rep{i} {op}: {text}")
    for op in mismatched:
        print(f"  FAIL {op}: summary.json bytes differ between repetitions")
    for op in known:
        print(f"  KNOWN DEFECT {op}: summary.json bytes differ between "
              f"repetitions; {gate.NONDETERMINISTIC[op]}")
    e2e = _end_to_end(untraced) if untraced else {}
    for name, unit in END_TO_END:
        if name in e2e:
            print(f"  {name:<12} {_fmt(e2e[name]):>12} {unit}")
    print(f"  {'fail_ratio':<12} {_fmt(failed / max(attempted, 1)):>12} 1"
          f"   ({failed} of {attempted} ops)")
    timed = untraced or reps
    if timed:
        print("  op seconds, median: " + ", ".join(
            f"{op} {_median([r['records'][op]['seconds'] for r in timed]):.3g}"
            for op in timed[0]["records"]))

    metrics = {}
    if args.trace:
        layers = _per_layer(untraced, traced) if traced and untraced else {}
        units = dict(per_layer_names())
        for name, value in layers.items():
            metrics[name] = {"value": value, "unit": units[name]}
            if value or name.endswith(".calls"):
                print(f"  {name:<48} {_fmt(value):>14} {units[name]}")
        for r in traced[:1]:
            if r["layers"]["errors_by_type"]:
                print(f"  errors by type: {json.dumps(r['layers']['errors_by_type'])}")
    else:
        metrics = {name: {"value": e2e[name], "unit": unit}
                   for name, unit in END_TO_END if name in e2e}

    digests = {op: rec["digest"] for op, rec in
               sorted(reps[0]["records"].items())
               if op not in gate.NONDETERMINISTIC} if reps else {}
    combined = hashlib.sha256(json.dumps(digests).encode()).hexdigest()
    print(f"summary digest {combined} (of the reproducible ops)")
    if reps:
        speed = {k: _median([r["speed"][k] for r in reps]) for k in reps[0]["speed"]}
        print("environment " + json.dumps(reps[0]["environment"]))
        print("machine speed " + json.dumps(speed))
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
