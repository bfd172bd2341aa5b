"""Write ``reference.json``: the seed-independent figures each op must keep.

Run from the root of a checkout, once, when the benchmark's workloads are
defined or deliberately changed:

    python3 perfbench/record_reference.py

Values that depend on the benchmark seed (anneal chains, rearrangement trial
fields) are gated by other checks, not recorded here.
"""

import json
import os
import shutil
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [os.path.join(ROOT, "src"), HERE]

import fracdrum.cli  # noqa: E402

import gate  # noqa: E402
import workloads  # noqa: E402


def main():
    work = os.path.join(ROOT, ".perfbench_work", "reference")
    shutil.rmtree(work, ignore_errors=True)
    reference = {}
    for name in workloads.WORKLOADS:
        for op_id, experiment, cfg in workloads.build(name, 0):
            summary = {}
            if experiment != "optimize-shape":
                op_dir = os.path.join(work, op_id)
                os.makedirs(op_dir)
                path = os.path.join(op_dir, "config.json")
                with open(path, "w") as f:
                    json.dump(cfg, f)
                if fracdrum.cli.run(experiment, path, op_dir) != 0:
                    raise SystemExit(f"{op_id} failed; nothing recorded")
                with open(os.path.join(op_dir, "summary.json")) as f:
                    summary = json.load(f)
            values = gate.reference_values(experiment, cfg, summary)
            if values:
                reference[op_id] = values
            print(op_id, flush=True)
    with open(gate.REFERENCE_PATH, "w") as f:
        json.dump(reference, f, indent=1, sort_keys=True)
        f.write("\n")


if __name__ == "__main__":
    main()
