"""Compare two checkouts: benchmark metrics in alternating pairs, then outputs.

    python3 tools/bench_pairs.py PARENT_ROOT CHANGE_ROOT --workload anneal \\
        --pairs 10 --seconds 30 [--seed 1]

Each pair runs ``perfbench/run.py --workload W --seed SEED --seconds S
--trace 0`` once in each checkout's root, the side that goes first switching
from pair to pair so that a drift in the host's speed falls on both alike.
Per end-to-end metric of the change's ``BENCHMARK.json`` it prints each
side's quartiles, the change of the median, the parent's spread (the distance
between its quartiles) and the pairs the change won (ties count for neither).

The output diff reads the outputs of the last pair's runs, which perfbench
keeps in ``.perfbench_work/W/rep0/OP/out`` of each root; both roots'
``.perfbench_work/W`` are cleared before the first pair.  Per op, from the
one record its run left (``_record``), it prints ``identical`` when the two
manifests list the same digests, else the largest relative change of each
``summary.json`` field and CSV column of a file whose digest differs, or
``exit A -> B`` when the exit codes differ, quoting either side's error.

The exit code is 1 if a run failed or missed its correctness gate (the whole
lines holding the last 3000 characters of its output are quoted, no
statistics are printed, the outputs each root holds are still diffed) or an
op's exit code differs; 2 if both roots are one directory, or (before
anything is cleared) if ``--pairs`` is below 1.
"""

import argparse
import csv
import json
import math
import os
import shutil
import statistics
import subprocess
import sys

SIDES = ("parent", "change")


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """(first quartile, median, third quartile), interpolated linearly
    between the sorted values."""
    if len(values) == 1:
        return (values[0],) * 3
    return tuple(statistics.quantiles(values, n=4, method="inclusive"))


def compare(parent: list[float], change: list[float], better: str) -> dict:
    """Statistics of one metric over pairs (``parent[i]`` and ``change[i]``
    from one pair); ``better`` is ``"lower"`` or ``"higher"``."""
    if len(parent) != len(change) or not parent:
        raise ValueError("need the same positive number of runs on each side")
    sign = {"lower": 1.0, "higher": -1.0}[better]
    p, c = quartiles(parent), quartiles(change)
    return {
        "parent": p,
        "change": c,
        "relative_change": (c[1] - p[1]) / p[1] if p[1] else float("nan"),
        "parent_spread": p[2] - p[0],
        "wins": sum(sign * (b - a) < 0 for a, b in zip(parent, change)),
        "pairs": len(parent),
    }


def run_once(root: str, workload: str, seed: int, seconds: float) -> dict:
    """The metrics of one ``perfbench/run.py --trace 0`` run in ``root``."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=root, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if proc.returncode == 0 and lines else None
    if result is None or not result.get("correct"):
        text = proc.stdout + proc.stderr
        # whole lines, from the one holding the 3000th character from the end
        quote = text[text.rfind("\n", 0, max(len(text) - 3000, 0)) + 1:]
        raise RuntimeError(f"{' '.join(cmd)} in {root} exited {proc.returncode}:\n"
                           + quote)
    return {name: m["value"] for name, m in result["metrics"].items()}


def _number(value):
    """``value`` as a float if it is a JSON number or a numeric CSV cell."""
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        return float(value)
    try:
        return float(value) if isinstance(value, str) else None
    except ValueError:
        return None


def rel_change(a, b) -> float:
    """Relative change from ``a`` to ``b`` for two numbers (NaN equals NaN;
    inf from zero or to or from an infinity); else 0 if equal, inf if not."""
    x, y = _number(a), _number(b)
    if x is None or y is None:
        return 0.0 if a == b else math.inf
    if x == y or (math.isnan(x) and math.isnan(y)):
        return 0.0
    if x == 0 or not (math.isfinite(x) and math.isfinite(y)):
        return math.inf
    return abs(y - x) / abs(x)


def _leaves(doc, path=""):
    if isinstance(doc, dict):
        for key in doc:
            yield from _leaves(doc[key], f"{path}.{key}" if path else key)
    elif isinstance(doc, list):
        for i, item in enumerate(doc):
            yield from _leaves(item, f"{path}[{i}]")
    else:
        yield path, doc


def _diff_summary(a_path: str, b_path: str) -> list:
    with open(a_path) as fa, open(b_path) as fb:
        a, b = dict(_leaves(json.load(fa))), dict(_leaves(json.load(fb)))
    lines = []
    for key in sorted(a.keys() | b.keys()):
        if key not in a or key not in b:
            lines.append(f"{key}: only in the {'change' if key in b else 'parent'}")
        elif r := rel_change(a[key], b[key]):
            numeric = None not in (_number(a[key]), _number(b[key]))
            lines.append(f"{key}: relative change {r:.3g}" if numeric
                         else f"{key}: {a[key]!r} -> {b[key]!r}")
    return lines


def _diff_csv(a_path: str, b_path: str) -> list:
    with open(a_path, newline="") as fa, open(b_path, newline="") as fb:
        a, b = list(csv.reader(fa)), list(csv.reader(fb))
    if not a or not b or a[0] != b[0] or len(a) != len(b):
        return ["header or row count differs"]
    lines = []
    for col, name in enumerate(a[0]):
        worst = max((rel_change(ra[col], rb[col]) for ra, rb in zip(a[1:], b[1:])),
                    default=0.0)
        if worst:
            lines.append(f"column {name}: max relative change {worst:.3g}")
    return lines


def _record(out: str) -> tuple[int, str, dict]:
    """An op's exit code, error and ``{file: sha256}`` from the one record
    its run left: ``error.json`` (its ``exit_code``), else ``manifest.json``
    (0), else none (2)."""
    for name in ("error.json", "manifest.json"):
        if os.path.isfile(path := os.path.join(out, name)):
            with open(path) as f:
                doc = json.load(f)
            return doc.get("exit_code", 0), doc.get("error", ""), doc.get("files", {})
    return 2, "", {}


def compare_outputs(parent_out: str, change_out: str) -> list:
    """One line per difference between two op runs' outputs; [] when their
    records list the same digests.  Only files whose digests differ are read."""
    a, b = _record(parent_out)[2], _record(change_out)[2]
    lines = []
    for name in sorted(a.keys() | b.keys()):
        if name not in a or name not in b:
            lines.append(f"{name}: only in the {'change' if name in b else 'parent'}")
        elif a[name] != b[name]:
            diff = _diff_summary if name == "summary.json" else _diff_csv
            lines += [f"{name} {line}" for line in diff(os.path.join(parent_out, name),
                                                        os.path.join(change_out, name))
                      ] or [f"{name}: bytes differ, values equal"]
    return lines


def diff_ops(roots: list, workload: str) -> int:
    """Print each op's diff; returns the number of ops whose exit codes differ."""
    reps = [os.path.join(r, ".perfbench_work", workload, "rep0") for r in roots]
    ops = sorted({op for d in reps if os.path.isdir(d) for op in os.listdir(d)
                  if os.path.isdir(os.path.join(d, op))})
    mismatched = 0
    for op in ops:
        outs = [os.path.join(d, op, "out") for d in reps]
        (a, a_error, _), (b, b_error, _) = map(_record, outs)
        if a != b:
            mismatched += 1
            said = "; ".join(f"{side}: {error}" for side, error
                             in zip(SIDES, (a_error, b_error)) if error)
            print(f"  {op}: exit {a} -> {b}" + (f" ({said})" if said else ""))
            continue
        lines = compare_outputs(*outs)
        failed = f" (exit {a} on both)" if a else ""
        print(f"  {op}: identical{failed}" if not lines else
              "\n    ".join([f"  {op}:{failed}"] + lines))
    return mismatched


def _positive(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("parent_root")
    ap.add_argument("change_root")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--pairs", type=_positive, default=10)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--seed", type=int, default=1)
    args = ap.parse_args(argv)
    roots = dict(zip(SIDES, map(os.path.realpath,
                                (args.parent_root, args.change_root))))
    if roots["parent"] == roots["change"]:
        print(f"error: both roots are {roots['parent']}", file=sys.stderr)
        return 2
    with open(os.path.join(roots["change"], "BENCHMARK.json")) as f:
        better = {m["name"]: m["better"] for m in json.load(f)["end_to_end"]}

    # outputs an earlier invocation left must not be diffed as this one's,
    # should a run fail before the other side runs
    for root in roots.values():
        shutil.rmtree(os.path.join(root, ".perfbench_work", args.workload),
                      ignore_errors=True)
    runs, failed = {side: [] for side in SIDES}, False
    try:
        for i in range(args.pairs):
            order = SIDES if i % 2 == 0 else SIDES[::-1]
            for side in order:
                runs[side].append(run_once(roots[side], args.workload,
                                           args.seed, args.seconds))
            print(f"pair {i + 1}/{args.pairs}: "
                  + "  ".join(f"{side} solve_s {runs[side][-1]['solve_s']:.3f}"
                              for side in order), flush=True)
    except RuntimeError as exc:
        print(exc, file=sys.stderr)
        failed = True

    print(f"\n{args.workload} seed {args.seed}, {args.pairs} pairs, "
          f"--seconds {args.seconds:g}")
    if not failed:
        print(f"{'metric':<14}{'parent q1 / median / q3':>30}"
              f"{'change q1 / median / q3':>30}{'median':>9}{'spread':>9}{'won':>7}")
        for name, direction in better.items():
            st = compare([r[name] for r in runs["parent"]],
                         [r[name] for r in runs["change"]], direction)
            p, c = st["parent"], st["change"]
            print(f"{name:<14}{p[0]:>10.4g}{p[1]:>10.4g}{p[2]:>10.4g}"
                  f"{c[0]:>10.4g}{c[1]:>10.4g}{c[2]:>10.4g}"
                  f"{st['relative_change']:>+9.1%}{st['parent_spread']:>9.3g}"
                  f"{st['wins']:>4}/{st['pairs']}")
    return 1 if diff_ops(list(roots.values()), args.workload) or failed else 0


if __name__ == "__main__":
    sys.exit(main())
