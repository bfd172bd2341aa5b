"""The experiment sequences each benchmark workload runs.

An op is one ``fracdrum.cli.run(experiment, config_path, out_dir)`` call, the
same thing a user runs from the command line.  ``build(name, seed)`` returns
the sequence as ``(op_id, experiment, config)`` triples; the same seed gives
the same sequence.

Why these three workloads:

* ``anneal`` -- thousands of small shapes on one fixed grid, where work is
  shared most across calls.  Component labelling and move enumeration dominate
  the 1-D chain; form assembly dominates the 2-D chain.
* ``refine`` -- a refinement study in which every op has its own (grid,
  kernel), with large forms and no sharing across ops.  A per-(grid, kernel)
  cache pays its set-up here without a gain; the dense and ``eigsh``
  eigensolve paths and the torsion solve carry the work.
* ``probe`` -- never builds a lattice form.  A sparse direct solve (harmonic
  extension), the Weiss quadrature and Python-level charge descent carry the
  work, so changes to ``form``, ``spectra`` and ``anneal`` should leave it
  unchanged.

The seed fixes the anneal chain seeds, the rearrangement trial fields and the
order of ops.
"""

from __future__ import annotations

import random

WORKLOADS = ("anneal", "refine", "probe")

S_VALUES = (0.3, 0.5, 0.7)


def _anneal(rng: random.Random) -> list:
    # the two-copy k=2 chain of acceptance criterion 8, and a 2-D chain that
    # grows from a 77-cell ball to roughly 185 cells
    chain_1d = {
        "n": 1, "s": 0.5, "h": 0.125, "L": 2.0, "copies": 2, "k": 2,
        "steps": 3000, "cooling": 0.996, "initial_temperature": 0.3,
        "init": {"kind": "intervals", "items": [[0, -1.0, -0.25], [0, 0.25, 1.0]]},
        "seed": rng.randrange(2 ** 31),
    }
    chain_2d = {
        "n": 2, "s": 0.5, "h": 0.0625, "L": 1.0, "copies": 2, "k": 2,
        "steps": 300, "initial_temperature": 0.3,
        "init": {"kind": "ball", "volume": 0.3},
        "seed": rng.randrange(2 ** 31),
    }
    return [("chain-1d", "optimize-shape", chain_1d),
            ("chain-2d", "optimize-shape", chain_2d)]


def _refine(rng: random.Random) -> list:
    ops = []
    for s in S_VALUES:
        for inv_h in (64, 128, 256):
            ops.append((f"torsion-s{s}-h{inv_h}", "torsion-validate",
                        {"s": s, "h": 1.0 / inv_h, "L": 2.0}))
    # the last rung has N = 4096 > DENSE_LIMIT, so it takes the eigsh branch
    for inv_h in (256, 512, 1024, 2048):
        ops.append((f"eigs1d-h{inv_h}", "eigs",
                    {"n": 1, "s": 0.5, "h": 1.0 / inv_h, "L": 2.0,
                     "shape": {"kind": "intervals", "items": [[0, -1.0, 1.0]]},
                     "count": 4}))
    for s in S_VALUES:
        ops.append((f"eigs2d-s{s}-h32", "eigs",
                    {"n": 2, "s": s, "h": 1.0 / 32, "L": 1.0,
                     "shape": {"kind": "ball", "volume": 1.0}, "count": 4}))
    ops.append(("eigs2d-s0.5-h40", "eigs",
                {"n": 2, "s": 0.5, "h": 1.0 / 40, "L": 1.0,
                 "shape": {"kind": "ball", "volume": 1.4}, "count": 4}))
    ops.append(("eigs2d-rects", "eigs",
                {"n": 2, "s": 0.5, "h": 1.0 / 16, "L": 1.0, "copies": 2,
                 "shape": {"kind": "rects",
                           "items": [[0, -0.6, 0.6, -0.4, 0.4],
                                     [1, -0.3, 0.5, -0.5, 0.7]]},
                 "count": 4}))
    ops.append(("rearrange-1d", "rearrange-check",
                {"n": 1, "s": 0.5, "h": 1.0 / 32, "L": 2.0, "copies": 2,
                 "shape": {"kind": "intervals",
                           "items": [[0, -1.0, -0.25], [1, 0.0, 1.25]]},
                 "trials": 8, "seed": rng.randrange(2 ** 31)}))
    ops.append(("rearrange-2d", "rearrange-check",
                {"n": 2, "s": 0.5, "h": 1.0 / 16, "L": 1.0,
                 "shape": {"kind": "rects", "items": [[0, -0.6, 0.4, -0.3, 0.5]]},
                 "trials": 4, "seed": rng.randrange(2 ** 31)}))
    rng.shuffle(ops)
    return ops


def _probe(rng: random.Random) -> list:
    ops = []
    for s in S_VALUES:
        ops.append((f"weiss-bump-s{s}", "weiss",
                    {"s": s, "h": 1.0 / 128, "L": 2.0, "H": 2.0,
                     "field": {"kind": "bump"}, "center": 0.0,
                     "radii": [0.25, 0.5, 0.75]}))
    for s in (0.3, 0.5):
        ops.append((f"weiss-profile-s{s}", "weiss",
                    {"s": s, "h": 1.0 / 256, "L": 1.0, "H": 1.0,
                     "field": {"kind": "profile"}, "center": 0.0,
                     "radii": [0.1 + 0.025 * i for i in range(13)]}))
    # the criterion-8 sweeps keep their own seed: descent work varies with
    # it, and the seed's only effect here is the order of ops
    for d, n, trials in ((3, 1, 200), (4, 1, 150), (5, 2, 150)):
        ops.append((f"toy-sweep-d{d}", "toy-sweep",
                    {"d": d, "n": n, "s": 0.5, "trials": trials, "seed": 99}))
    rng.shuffle(ops)
    return ops


_BUILDERS = {"anneal": _anneal, "refine": _refine, "probe": _probe}


def build(name: str, seed: int) -> list:
    """The op sequence of workload ``name`` for benchmark seed ``seed``."""
    return _BUILDERS[name](random.Random(f"{name}:{seed}"))
