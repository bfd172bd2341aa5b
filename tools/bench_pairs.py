"""Compare the end-to-end benchmark metrics of two checkouts in alternating pairs.

Run from anywhere:

    python3 tools/bench_pairs.py PARENT_ROOT CHANGE_ROOT --workload anneal \\
        --pairs 10 --seconds 30 [--seed 1]

``PARENT_ROOT`` and ``CHANGE_ROOT`` are the roots of two checkouts.  Each pair
runs ``perfbench/run.py --workload W --seed SEED --seconds S --trace 0`` once
in each checkout, in that checkout's directory; the side that goes first
switches from one pair to the next, so that a drift in the host's speed
falls on both sides alike.  Per metric the script prints each side's median
and quartiles, the change of the median, the spread of the parent's own runs
(the distance between its quartiles) and the number of pairs the change
won; a tie counts for neither side.  Whether lower or higher is better comes
from the change's ``BENCHMARK.json``.

The exit code is 1 if a benchmark run failed or its correctness gate did not
pass; the output of that run is quoted and no statistics are printed.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """(first quartile, median, third quartile), interpolated linearly
    between the sorted values."""
    if len(values) == 1:
        return (values[0],) * 3
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def compare(parent: list[float], change: list[float], better: str) -> dict:
    """Statistics of one metric over pairs: ``parent[i]`` and ``change[i]``
    were measured in the same pair.  ``better`` is ``"lower"`` or
    ``"higher"``."""
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
        raise RuntimeError(f"{' '.join(cmd)} in {root} exited {proc.returncode}:\n"
                           + (proc.stdout + proc.stderr)[-3000:])
    return {name: m["value"] for name, m in result["metrics"].items()}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("parent_root")
    ap.add_argument("change_root")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--seed", type=int, default=1)
    args = ap.parse_args(argv)
    roots = {"parent": os.path.abspath(args.parent_root),
             "change": os.path.abspath(args.change_root)}
    with open(os.path.join(roots["change"], "BENCHMARK.json")) as f:
        better = {m["name"]: m["better"] for m in json.load(f)["end_to_end"]}

    runs = {"parent": [], "change": []}
    try:
        for i in range(args.pairs):
            order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
            for side in order:
                runs[side].append(run_once(roots[side], args.workload,
                                           args.seed, args.seconds))
            print(f"pair {i + 1}/{args.pairs}: "
                  + "  ".join(f"{side} solve_s {runs[side][-1]['solve_s']:.3f}"
                              for side in order), flush=True)
    except RuntimeError as exc:
        print(exc, file=sys.stderr)
        return 1

    print(f"\n{args.workload} seed {args.seed}, {args.pairs} pairs, "
          f"--seconds {args.seconds:g}")
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
    return 0


if __name__ == "__main__":
    sys.exit(main())
