"""Compare the outputs of two fracdrum source trees on a benchmark workload.

Run from the root of a checkout:

    python3 tools/summary_diff.py PARENT_SRC CHANGE_SRC --workload probe --seeds 1 2

``PARENT_SRC`` and ``CHANGE_SRC`` are directories that hold a ``fracdrum``
package, such as the ``src/`` of two checkouts.  Every op of
``perfbench.workloads.build(workload, seed)`` runs through each tree's
``fracdrum.cli.run``, each in a fresh interpreter.  Per op the script prints
``identical`` when ``summary.json`` and every CSV match byte for byte;
otherwise it prints the maximum relative change of each numeric
``summary.json`` field and of each CSV column, and any other field that
differs.  When an op's exit code differs between the trees, its line says
``exit A -> B`` and quotes the last line each tree's run wrote to stderr,
such as the CLI's ``error:`` message; the exit code of the script is then 1.
Nothing under ``perfbench/`` is written.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import subprocess
import sys
import tempfile

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "perfbench"))

import workloads  # noqa: E402

# argv: SRC EXPERIMENT CONFIG OUT; refuses to run a package found elsewhere
_RUNNER = """
import os, sys
src = os.path.abspath(sys.argv[1])
sys.path.insert(0, src)
import fracdrum.cli
if not os.path.abspath(fracdrum.cli.__file__).startswith(src + os.sep):
    sys.exit(f"fracdrum was imported from {fracdrum.cli.__file__}, not {src}")
sys.exit(fracdrum.cli.run(*sys.argv[2:5]))
"""


def run_op(src: str, experiment: str, config_path: str,
           out_dir: str) -> tuple[int, str]:
    """Exit code of one op run by the tree at ``src`` in a fresh interpreter,
    and the last line it wrote to stderr ("" if none)."""
    proc = subprocess.run([sys.executable, "-c", _RUNNER, src, experiment,
                           config_path, out_dir], capture_output=True, text=True)
    lines = proc.stderr.strip().splitlines()
    return proc.returncode, lines[-1] if lines else ""


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


def compare(parent_out: str, change_out: str) -> list:
    """One line per difference between two output directories; [] when
    ``summary.json`` and every CSV are byte-identical."""
    names = {name for d in (parent_out, change_out) if os.path.isdir(d)
             for name in os.listdir(d)
             if name == "summary.json" or name.endswith(".csv")}
    lines = []
    for name in sorted(names):
        a, b = os.path.join(parent_out, name), os.path.join(change_out, name)
        if not (os.path.exists(a) and os.path.exists(b)):
            lines.append(f"{name}: only in the {'change' if os.path.exists(b) else 'parent'}")
            continue
        with open(a, "rb") as fa, open(b, "rb") as fb:
            if fa.read() == fb.read():
                continue
        diff = _diff_summary if name == "summary.json" else _diff_csv
        lines += [f"{name} {line}" for line in diff(a, b)
                  ] or [f"{name}: bytes differ, values equal"]
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent_src")
    parser.add_argument("change_src")
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seeds", type=int, nargs="+", required=True)
    args = parser.parse_args(argv)
    mismatched = 0
    with tempfile.TemporaryDirectory() as work:
        for seed in args.seeds:
            print(f"{args.workload} seed {seed}")
            for op_id, experiment, cfg in workloads.build(args.workload, seed):
                op_dir = os.path.join(work, str(seed), op_id)
                os.makedirs(op_dir)
                cfg_path = os.path.join(op_dir, "config.json")
                with open(cfg_path, "w") as f:
                    json.dump(cfg, f, indent=2, sort_keys=True)
                outs = [os.path.join(op_dir, side) for side in ("parent", "change")]
                runs = [run_op(src, experiment, cfg_path, out) for src, out in
                        zip((args.parent_src, args.change_src), outs)]
                codes = [code for code, _ in runs]
                if codes[0] != codes[1]:
                    mismatched += 1
                    said = "; ".join(f"{side}: {line}" for side, (_, line) in
                                     zip(("parent", "change"), runs) if line)
                    print(f"  {op_id}: exit {codes[0]} -> {codes[1]}"
                          + (f" ({said})" if said else ""))
                    continue
                lines = compare(*outs)
                failed = f" (exit {codes[0]} on both)" if codes[0] else ""
                print(f"  {op_id}: identical{failed}" if not lines else
                      "\n    ".join([f"  {op_id}:{failed}"] + lines))
    return 1 if mismatched else 0


if __name__ == "__main__":
    sys.exit(main())
