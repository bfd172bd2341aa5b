"""In-memory span tracer for the package's public layer functions.

``Tracer.install()`` replaces each listed function, in every ``fracdrum``
module namespace that binds it, with a wrapper that records a span: name,
start, end, parent span and op id.  Binding every namespace matters because
the package calls its own layers through module-level imports, e.g.
``fracdrum.anneal.assemble_form`` is what ``minimize`` calls.  Spans stay in
memory until ``write``; ``uninstall`` restores the original functions.

Alongside spans the wrappers keep exact work counts, computed from each
call's arguments and result, so they repeat bit for bit across runs.
"""

from __future__ import annotations

import importlib
import json
import time
from collections import Counter, defaultdict

# the layers are the package modules; these are their traced entry points
TRACED = (
    "grid.connected_components",
    "form.assemble_form", "form.rayleigh",
    "spectra.dirichlet_eigs", "spectra.torsion_solve",
    "anneal.minimize", "anneal.enumerate_moves", "anneal.apply_move",
    "rearrange.rearrange", "rearrange.ball_energy_check",
    "extension.harmonic_extension", "extension.weiss_functional",
    "charges.conjecture_sweep", "charges.descend", "charges.classify",
    "cli.run",
)

MODULES = ("grid", "form", "spectra", "anneal", "rearrange", "extension",
           "charges", "cli")

# scoring failures: exceptions leaving these layers straight into minimize,
# which records them as ordinary rejected proposals
SCORING = ("form.assemble_form", "spectra.dirichlet_eigs")


def _count_assemble(counts, args, kwargs, F):
    counts["form.assemble_form.cells"] += F.size
    box_cells = 1
    for side in F.grid.shape:
        box_cells *= side
    # computed, not measured: each active cell of a copy is weighed against
    # every cell of that copy's box
    counts["form.assemble_form.pair_evals"] += F.size * box_cells


def _count_eigs(counts, args, kwargs, res):
    from fracdrum.spectra import DENSE_LIMIT
    A = args[0] if args else kwargs["A"]
    counts["spectra.dirichlet_eigs.pairs"] += len(res.eigenvalues)
    counts["spectra.dirichlet_eigs.above_dense_limit"] += (
        A.cell_count() > DENSE_LIMIT)
    counts["spectra.dirichlet_eigs.max_residual"] = max(
        counts["spectra.dirichlet_eigs.max_residual"],
        float(max(res.residuals)))


def _count_minimize(counts, args, kwargs, res):
    counts["anneal.minimize.proposals"] += len(res.trace)
    counts["anneal.minimize.accepted"] += sum(r.accepted for r in res.trace)


def _count_extension(counts, args, kwargs, sol):
    counts["extension.harmonic_extension.unknowns"] += sol.values.size


def _count_weiss(counts, args, kwargs, curve):
    counts["extension.weiss_functional.radii"] += len(curve.radii)


def _count_descend(counts, args, kwargs, res):
    counts["charges.descend.steps"] += res.steps


COUNTERS = {
    "form.assemble_form": _count_assemble,
    "spectra.dirichlet_eigs": _count_eigs,
    "anneal.minimize": _count_minimize,
    "extension.harmonic_extension": _count_extension,
    "extension.weiss_functional": _count_weiss,
    "charges.descend": _count_descend,
}


class Tracer:
    """Records spans and counts while installed; see the module docstring."""

    def __init__(self):
        self.spans: list[list] = []   # [name, start, end, parent, op, error]
        self.counts: defaultdict = defaultdict(int)
        self.op = None
        self._stack: list[int] = []
        self._patches: list[tuple] = []

    def _wrap(self, name, fn):
        counter = COUNTERS.get(name)
        spans, stack, counts = self.spans, self._stack, self.counts

        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, self.op, None]
            stack.append(len(spans))
            spans.append(span)
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                span[5] = type(exc).__name__
                raise
            finally:
                span[2] = time.perf_counter()
                stack.pop()
            if counter is not None:
                counter(counts, args, kwargs, result)
            return result

        return traced

    def install(self):
        pkg = importlib.import_module("fracdrum")
        spaces = [pkg] + [importlib.import_module(f"fracdrum.{m}") for m in MODULES]
        for name in TRACED:
            module, attr = name.split(".")
            original = getattr(importlib.import_module(f"fracdrum.{module}"), attr)
            wrapper = self._wrap(name, original)
            for space in spaces:
                for key, value in list(vars(space).items()):
                    if value is original:
                        self._patches.append((space, key, original))
                        setattr(space, key, wrapper)
        return self

    def uninstall(self):
        for space, key, original in reversed(self._patches):
            setattr(space, key, original)
        self._patches.clear()

    def __enter__(self):
        return self.install()

    def __exit__(self, *exc):
        self.uninstall()
        return False

    def write(self, path):
        with open(path, "w") as f:
            json.dump({"fields": ["name", "start", "end", "parent", "op", "error"],
                       "spans": self.spans}, f)


def self_times(spans) -> list[float]:
    """Per span: its duration minus the part of it its child spans cover."""
    children = defaultdict(list)
    for i, span in enumerate(spans):
        if span[3] >= 0:
            children[span[3]].append(i)
    out = []
    for i, (_, start, end, *_rest) in enumerate(spans):
        covered, reach = 0.0, start
        for c in sorted(children[i], key=lambda c: spans[c][1]):
            lo, hi = max(spans[c][1], reach), min(spans[c][2], end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append((end - start) - covered)
    return out


def layer_metrics(spans, counts) -> dict:
    """Per traced function ``calls``, ``self_s`` and ``errors``, plus counts.

    ``errors_by_type`` maps each function to a Counter of exception type
    names; ``scoring_errors`` counts, by type, the exceptions that left a
    scoring layer straight into ``anneal.minimize``.
    """
    metrics = {}
    for name in TRACED:
        metrics[f"{name}.calls"] = 0
        metrics[f"{name}.self_s"] = 0.0
        metrics[f"{name}.errors"] = 0
    by_type = defaultdict(Counter)
    scoring = Counter()
    for span, own in zip(spans, self_times(spans)):
        name, error = span[0], span[5]
        metrics[f"{name}.calls"] += 1
        metrics[f"{name}.self_s"] += own
        if error is not None:
            metrics[f"{name}.errors"] += 1
            by_type[name][error] += 1
            parent = span[3]
            if (name in SCORING and parent >= 0
                    and spans[parent][0] == "anneal.minimize"):
                scoring[error] += 1
    metrics.update(counts)
    proposals = counts.get("anneal.minimize.proposals", 0)
    if proposals:
        metrics["anneal.minimize.accept_ratio"] = (
            counts["anneal.minimize.accepted"] / proposals)
        metrics["anneal.minimize.scored_ratio"] = (
            (proposals - sum(scoring.values())) / proposals)
    return {"metrics": metrics,
            "errors_by_type": {k: dict(v) for k, v in by_type.items()},
            "scoring_errors": dict(scoring)}
