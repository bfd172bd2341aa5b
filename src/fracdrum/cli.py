"""Batch front end: seeded experiments in, JSON summaries and CSV traces out.

Every subcommand reads one JSON config document, writes any experiment CSVs
and then ``summary.json`` (sorted keys, no timings, byte-reproducible for a
fixed config and seed) into the output directory, and finishes with
``manifest.json`` carrying the config echo, version, wall clock, timing
breakdown, the sha256 of each file this run wrote, and for ``eigs`` the
eigensolver branch, its iteration count and the largest residual.  The
manifest is written to a temp name and atomically renamed, so a crash never
leaves a half-written index.

Seed discipline: the config's master seed is used directly for single-chain
experiments; multi-trial experiments derive stream t from the pair
(master_seed, t), and auxiliary draws (such as the random initial blob of
the shape optimizer) use (master_seed, tag) with a fixed small tag, so
adding trials or reordering work never shifts another stream.

``run`` checks each config once, seed included, against its schema in
``_SCHEMAS``, stamps ``experiment`` on the summary and writes every file; the
runners only compute and return the summary and their CSV tables, each a
header and rows of Python ints, floats and strs, written as their ``str()``.

Exit codes: 0 success; 2 invalid or unreadable config, with a message
naming the offending field, or an ``--out`` that cannot be made a directory;
3 numerical failure, an output that cannot be written, or any other
unexpected error.  Once ``--out`` exists, a run removes the last run's
records and leaves one: ``manifest.json`` on exit 0, else ``error.json``
with the ``exit_code``, error and traceback (where it can be written).
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import itertools
import json
import math
import os
import sys
import time

import numpy as np

from . import __version__
from .anneal import AnnealSchedule, diagnostics, minimize
from .charges import ChargeConfig, classify, conjecture_sweep
from .extension import (ExtensionGrid, harmonic_extension, homogeneous_profile,
                        monotonicity_report, weiss_functional, ExtensionSolution)
from .form import assemble_form, rayleigh
from .grid import GridSpec, KernelParams, LatticeField, MultiIndicator, _open_face
from .rearrange import ball_energy_check, ball_indicator, rearrange
from .spectra import dirichlet_eigs, torsion_solve

_BLOB_TAG = 1          # seed stream tag for the optimizer's random initial blob
_FIELD_TAG = 2         # seed stream tag for rearrange-check trial fields


class ConfigError(ValueError):
    pass


# ------------------------------------------------------------------- schemas
#
# A schema maps each key of a JSON object to a spec: its "type" (int, float,
# bool, list or dict), optional bounds "gt", "ge", "lt", "le", and a "default"
# if the key may be left out (None: no value).  A list spec gives "item" for
# each entry or a fixed "row" of entry specs, and may give "min_len"; a dict
# spec gives "kinds", the schema of its other keys for each "kind" value.

_FLOAT = {"type": float}
_POSITIVE = {"type": float, "gt": 0}
_S = {"type": float, "gt": 0, "lt": 1}
_COPY = {"type": int}        # checked against 'copies' where the shape is built

_KERNEL = {"n": {"type": int, "ge": 1, "le": 2}, "s": _S, "h": _POSITIVE,
           "L": _POSITIVE, "copies": {"type": int, "ge": 1, "default": 1}}

# shape items: [copy, lo, hi] for intervals, [copy, xlo, xhi, ylo, yhi] for rects
_INTERVAL = {"type": list, "row": (_COPY, _FLOAT, _FLOAT)}
_RECT = {"type": list, "row": (_COPY, _FLOAT, _FLOAT, _FLOAT, _FLOAT)}
_SHAPE_KINDS = {
    "intervals": {"items": {"type": list, "min_len": 1, "item": _INTERVAL}},
    "rects": {"items": {"type": list, "min_len": 1, "item": _RECT}},
    "ball": {"volume": {"type": float, "ge": 0}, "copy": dict(_COPY, default=0)},
}
_SHAPE = {"type": dict, "kinds": _SHAPE_KINDS}
# only the optimizer's initial shape may be random: it has a seeded stream
_INIT = {"type": dict, "kinds": dict(_SHAPE_KINDS, **{"random-blob": {
    "cells": {"type": int, "ge": 1}, "copy": dict(_COPY, default=0)}})}

_SCHEMAS = {
    "eigs": dict(_KERNEL, shape=_SHAPE, count={"type": int, "ge": 1, "default": 4},
                 dump_fields={"type": bool, "default": False}),
    # h < 2 leaves a cell centre in (-1, 1)
    "torsion-validate": {"s": _S, "h": {"type": float, "gt": 0, "lt": 2}, "L": _POSITIVE},
    "optimize-shape": dict(
        _KERNEL, init=_INIT, k={"type": int, "ge": 1, "default": 1},
        steps={"type": int, "ge": 0, "default": 5000},
        cooling={"type": float, "gt": 0, "lt": 1, "default": 0.995},
        initial_temperature=dict(_POSITIVE, default=None),
        diagnostics={"type": bool, "default": False}),
    "rearrange-check": dict(_KERNEL, shape=_SHAPE,
                            trials={"type": int, "ge": 1, "default": 20}),
    "toy-sweep": {"d": {"type": int, "ge": 2}, "n": {"type": int, "ge": 1}, "s": _S,
                  "trials": {"type": int, "ge": 1},
                  "max_steps": {"type": int, "ge": 0, "default": 5000}},
    "toy-classify": {
        "positions": {"type": list, "min_len": 1,
                      "item": {"type": list, "min_len": 1, "item": _FLOAT}},
        "masses": {"type": list, "min_len": 1, "item": _FLOAT},
        "s": dict(_S, default=None), "exponent": dict(_POSITIVE, default=None)},
    "weiss": {"s": _S, "h": _POSITIVE, "L": _POSITIVE,
              "H": dict(_POSITIVE, default=None),
              "field": {"type": dict, "kinds": {"profile": {}, "bump": {}}},
              "center": dict(_FLOAT, default=0.0),
              "radii": {"type": list, "min_len": 1, "item": _POSITIVE}},
}

_BOUNDS = (("gt", ">", lambda v, b: v > b), ("ge", ">=", lambda v, b: v >= b),
           ("lt", "<", lambda v, b: v < b), ("le", "<=", lambda v, b: v <= b))


def _check(doc: dict, schema: dict, path: str = "") -> dict:
    """Check a JSON object against a schema; return its fields with defaults
    filled in and float fields as floats.  Every failure is a ConfigError
    naming the field by its dotted path."""
    unknown = sorted(set(doc) - set(schema))
    if unknown:
        raise ConfigError(f"unknown key '{unknown[0]}' in {path or 'config'}")
    out = {}
    for key, spec in schema.items():
        name = f"{path}.{key}" if path else key
        if key in doc:
            out[key] = _value(doc[key], spec, name)
        elif "default" in spec:
            out[key] = spec["default"]
        else:
            raise ConfigError(f"missing field '{name}'")
    return out


def _value(v, spec: dict, name: str):
    kind = spec["type"]

    def fail(wanted):
        return ConfigError(f"field '{name}' must be {wanted}, got {json.dumps(v)}")

    if kind is dict:
        if not isinstance(v, dict):
            raise fail("an object")
        rest = dict(v)
        choice = rest.pop("kind", None)
        if not isinstance(choice, str) or choice not in spec["kinds"]:
            raise ConfigError(f"field '{name}.kind' must be one of "
                              f"{', '.join(spec['kinds'])}, got {json.dumps(choice)}")
        return dict(_check(rest, spec["kinds"][choice], name), kind=choice)
    if kind is list:
        if not isinstance(v, list):
            raise fail("a list")
        row = spec.get("row")
        if row is not None and len(v) != len(row):
            raise fail(f"a list of {len(row)} entries")
        if len(v) < spec.get("min_len", 0):
            raise fail(f"a list of at least {spec['min_len']} entries")
        specs = row or [spec["item"]] * len(v)
        return [_value(x, s, f"{name}[{i}]") for i, (x, s) in enumerate(zip(v, specs))]
    if kind is bool:
        if not isinstance(v, bool):
            raise fail("true or false")
        return v
    if isinstance(v, bool) or not isinstance(v, int if kind is int else (int, float)):
        raise fail("an integer" if kind is int else "a number")
    if kind is float:
        if not abs(v) <= sys.float_info.max:    # inf, NaN, or an int past it
            raise fail("finite")
        v = float(v)
    bounds = [(sym, spec[key], test) for key, sym, test in _BOUNDS if key in spec]
    if not all(test(v, b) for _, b, test in bounds):
        raise fail(" and ".join(f"{sym} {b}" for sym, b, _ in bounds))
    return v


def _kernel(cfg: dict) -> tuple[GridSpec, KernelParams]:
    return (GridSpec(n=cfg["n"], h=cfg["h"], L=cfg["L"], copies=cfg["copies"]),
            KernelParams(n=cfg["n"], s=cfg["s"]))


def _shape_from_config(spec: dict, grid: GridSpec, rng=None) -> MultiIndicator:
    kind = spec["kind"]
    if kind in ("intervals", "rects"):
        n = 1 if kind == "intervals" else 2
        if grid.n != n:
            raise ConfigError(f"field 'kind' is '{kind}', which requires n = {n}")
        masks = np.zeros((grid.copies, *grid.shape), dtype=bool)
        centers = grid.axis_centers()
        for i, (c, *bounds) in enumerate(spec["items"]):
            # cells whose centre lies strictly inside the box, axis by axis
            inside = [(centers > lo) & (centers < hi)
                      for lo, hi in zip(bounds[::2], bounds[1::2])]
            box = np.all(np.meshgrid(*inside, indexing="ij"), axis=0)
            masks[grid.copy_index(c)] |= box
            if not (box.any() and grid.interior()[box].all()):
                raise ConfigError(f"field 'items[{i}]' must select at least one "
                                  "cell, and no cell on the box wall")
        return MultiIndicator(grid, masks)
    if kind == "ball":
        A = ball_indicator(spec["volume"], grid, copy=spec["copy"])
        if not A.cell_count():
            raise ConfigError("field 'volume' must select at least one cell")
        return A
    return _random_blob(grid, spec["cells"], grid.copy_index(spec["copy"]), rng)


def _random_blob(grid: GridSpec, cells: int, copy: int, rng) -> MultiIndicator:
    """Seeded connected blob grown cell by cell from the box center: each
    step adds a uniform pick, in row-major order, of the strictly interior
    cells face-adjacent to the blob."""
    masks = np.zeros((grid.copies, *grid.shape), dtype=bool)
    masks[(copy, *(grid.cells_per_side // 2,) * grid.n)] = True
    interior = grid.interior()
    while int(masks.sum()) < cells:
        frontier = np.flatnonzero(~masks & interior & _open_face(~masks))
        if not frontier.size:
            raise ConfigError("field 'cells' exceeds the strict interior")
        masks.flat[frontier[int(rng.integers(frontier.size))]] = True
    return MultiIndicator(grid, masks)


def _rle(mask: np.ndarray) -> list:
    """[start, length] of each run of true cells in the flattened mask."""
    edges = np.flatnonzero(np.diff(mask.ravel(), prepend=False, append=False))
    return [[int(a), int(b - a)] for a, b in zip(edges[::2], edges[1::2])]


def _shape_record(A: MultiIndicator) -> dict:
    g = A.grid
    return {"n": g.n, "h": g.h, "L": g.L, "copies": g.copies,
            "masks_rle": [_rle(mk) for mk in A.masks]}


# ---------------------------------------------------------------- experiments

def _run_eigs(cfg: dict, seed: int, manifest: dict) -> tuple[dict, dict]:
    grid, kp = _kernel(cfg)
    A = _shape_from_config(cfg["shape"], grid)
    count = cfg["count"]
    t0 = time.perf_counter()
    res = dirichlet_eigs(A, kp, count)
    manifest["timings_s"]["eigs_s"] = time.perf_counter() - t0
    manifest["eigensolve"] = {"solver": res.solver, "iterations": res.iterations,
                              "max_residual": float(res.residuals.max())}
    tables = {}
    if cfg["dump_fields"]:      # rows in cell id order
        copies, cells = np.divmod(np.flatnonzero(A.masks), grid.box_size)
        columns = ("copy", "cell", *(f"u{j + 1}" for j in range(count)))
        rows = zip(copies.tolist(), cells.tolist(), *res.vectors.T.tolist())
        tables["fields.csv"] = (columns, rows)
    return {
        "eigenvalues": [float(v) for v in res.eigenvalues],
        "residuals": [float(v) for v in res.residuals],
        "gaps": [float(v) for v in np.diff(res.eigenvalues)],
        "cell_count": A.cell_count(),
        "volume": A.volume(),
        "shape": _shape_record(A),
    }, tables


def _run_torsion_validate(cfg: dict, seed: int, manifest: dict) -> tuple[dict, dict]:
    s, h, L = cfg["s"], cfg["h"], cfg["L"]
    grid, kp = _kernel(dict(cfg, n=1, copies=1))
    try:
        A = MultiIndicator.from_interval(grid, -1.0, 1.0)
    except ValueError:              # a cell centre in (-1, 1) on the box wall
        raise ConfigError(f"field 'L' must be at least 1 + h/2, got {L}") from None
    t0 = time.perf_counter()
    res = torsion_solve(A, kp)
    manifest["timings_s"]["torsion_s"] = time.perf_counter() - t0
    x = grid.cell_centers()[:, 0][A.masks[0]]
    c_ball = (2.0 ** (-2 * s) * math.gamma(0.5)
              / (math.gamma((1 + 2 * s) / 2) * math.gamma(1 + s)))
    exact = c_ball * np.maximum(1 - x ** 2, 0.0) ** s
    u = res.vector
    max_norm = float(np.max(np.abs(u - exact)) / np.max(exact))
    e_exact = -0.5 * c_ball * math.sqrt(math.pi) * math.gamma(s + 1) / math.gamma(s + 1.5)
    e_rel = abs(res.energy - e_exact) / abs(e_exact)
    return {
        "s": s, "h": h, "L": L,
        "max_norm_error": max_norm,
        "energy": res.energy,
        "energy_expected": e_exact,
        "energy_rel_error": e_rel,
        "max_norm_pass": bool(max_norm <= 0.05),
        "energy_pass": bool(e_rel <= 0.05),
    }, {}


def _run_optimize_shape(cfg: dict, seed: int, manifest: dict) -> tuple[dict, dict]:
    grid, kp = _kernel(cfg)
    k, steps = cfg["k"], cfg["steps"]
    blob_rng = np.random.default_rng([seed, _BLOB_TAG])
    init = _shape_from_config(cfg["init"], grid, rng=blob_rng)
    schedule = AnnealSchedule(steps=steps, cooling=cfg["cooling"],
                              initial_temperature=cfg["initial_temperature"],
                              seed=seed)
    t0 = time.perf_counter()
    res = minimize(init, kp, k=k, schedule=schedule)
    manifest["timings_s"]["anneal_s"] = time.perf_counter() - t0
    summary = {
        "k": k, "steps": steps, "seed": seed,
        "best_objective": res.best_objective,
        "best_eigenvalues": [float(v) for v in res.best_spectrum.eigenvalues],
        "best_volume": res.best.volume(),
        "best_cell_count": res.best.cell_count(),
        "final_objective": res.final_objective,
        "accept_rate": (sum(r.accepted for r in res.trace) / len(res.trace)
                        if res.trace else 0.0),
        "best_shape": _shape_record(res.best),
        "final_shape": _shape_record(res.final),
    }
    if cfg["diagnostics"]:
        radii = [4 * grid.h, 8 * grid.h, 16 * grid.h]
        u = res.best.field(res.best_spectrum.vectors[:, k - 1])
        rep = diagnostics(res.best, u, kp, radii)
        # the chain solved k pairs; one more shows a tie with lambda_{k+1}
        wider = dirichlet_eigs(res.best, kp, min(k + 1, res.best.cell_count()))
        summary["diagnostics"] = {
            "component_signs": [str(v) for v in rep.component_signs],
            "adjacency_violations": rep.adjacency_violations,
            "growth_ratios": {repr(r): v for r, v in rep.growth_ratios.items()},
            "positive_density": {repr(r): v for r, v in rep.positive_density.items()},
            "zero_density": {repr(r): v for r, v in rep.zero_density.items()},
            "inconclusive": wider.is_numerically_multiple(k),
        }
    columns = ("step", "temperature", "objective", "accepted", "kind")
    rows = ((r.step, r.temperature, r.objective, int(r.accepted), r.kind)
            for r in res.trace)
    return summary, {"trace.csv": (columns, rows)}


def _run_rearrange_check(cfg: dict, seed: int, manifest: dict) -> tuple[dict, dict]:
    grid, kp = _kernel(cfg)
    A = _shape_from_config(cfg["shape"], grid)
    trials = cfg["trials"]
    t0 = time.perf_counter()
    report = ball_energy_check(A, kp)
    manifest["timings_s"]["ball_check_s"] = time.perf_counter() - t0

    worst = 0.0
    t0 = time.perf_counter()
    F_u = assemble_form(A, kp)
    for t in range(trials):
        rng = np.random.default_rng([seed, _FIELD_TAG, t])
        vals = np.zeros(A.masks.shape)
        vals[A.masks] = rng.uniform(0.1, 1.0, size=A.cell_count())
        u = LatticeField(grid, vals)
        star = rearrange(u)
        F_star = assemble_form(star.support, kp)
        num = rayleigh(F_star, star) * star.norm_sq()
        den = rayleigh(F_u, u) * u.norm_sq()
        worst = max(worst, num / den)
    manifest["timings_s"]["polya_szego_s"] = time.perf_counter() - t0
    return {
        "seed": seed, "trials": trials,
        "energy_shape": report.energy_shape,
        "energy_ball": report.energy_ball,
        "ball_no_worse": report.passed,
        "worst_rearrangement_ratio": worst,
        "shape": _shape_record(A),
    }, {}


def _run_toy_sweep(cfg: dict, seed: int, manifest: dict) -> tuple[dict, dict]:
    t0 = time.perf_counter()
    sweep = conjecture_sweep(seed=seed, **cfg)      # cfg: its other arguments
    manifest["timings_s"]["sweep_s"] = time.perf_counter() - t0
    return dict(cfg, seed=seed, exponent=sweep.exponent, counts=sweep.counts,
                stable_finds=sweep.stable_finds), {}


def _run_toy_classify(cfg: dict, seed: int, manifest: dict) -> tuple[dict, dict]:
    positions, masses = cfg["positions"], cfg["masses"]
    s, exponent = cfg["s"], cfg["exponent"]
    if (s is None) == (exponent is None):
        raise ConfigError("exactly one of 's' and 'exponent' is required")
    if len({len(p) for p in positions}) > 1:
        raise ConfigError("field 'positions' must hold points of one dimension")
    c = (ChargeConfig(positions, masses, exponent) if s is None
         else ChargeConfig.from_smoothness(positions, masses, s))
    t0 = time.perf_counter()
    rep = classify(c)
    manifest["timings_s"]["classify_s"] = time.perf_counter() - t0
    return {
        "exponent": c.exponent,
        "classification": rep.classification.value,
        "gradient_norm": rep.gradient_norm,
        "min_hessian_eig": rep.min_hessian_eig,
        "euler_residual": rep.euler_residual,
        "energy": rep.energy,
    }, {}


def _run_weiss(cfg: dict, seed: int, manifest: dict) -> tuple[dict, dict]:
    s, L, center = cfg["s"], cfg["L"], cfg["center"]
    H = L if cfg["H"] is None else cfg["H"]
    eg = ExtensionGrid(h=cfg["h"], L=L, H=H)
    xs = eg.x_nodes()
    intervals = None
    if cfg["field"]["kind"] == "profile":
        sol = ExtensionSolution(grid=eg, s=s,
                                trace=homogeneous_profile(xs, np.zeros_like(xs), s),
                                values=homogeneous_profile(xs[:, None],
                                                           eg.y_rows(), s),
                                energy=float("nan"))
        intervals = [(0.0, L)]
    else:
        trace = np.where(np.abs(xs) < 1,
                         np.exp(-1.0 / np.maximum(1 - xs ** 2, 1e-300)), 0.0)
        if trace[0] or trace[-1]:   # the bump's support (-1, 1) meets a wall cell
            raise ConfigError(f"field 'L' must be at least 1 + h/2, got {L}")
        t0 = time.perf_counter()
        sol = harmonic_extension(trace, eg, s)
        manifest["timings_s"]["extension_s"] = time.perf_counter() - t0
    t0 = time.perf_counter()
    curve = weiss_functional(sol, center, cfg["radii"],
                             support_intervals=intervals)
    manifest["timings_s"]["weiss_s"] = time.perf_counter() - t0
    columns = ("radius", "value", "bulk", "thin", "sphere")
    rows = zip(*(a.tolist() for a in (curve.radii, curve.values, curve.bulk,
                                      curve.thin, curve.sphere)))
    return {
        "s": s, "center": center,
        "radii": [float(r) for r in curve.radii],
        "values": [float(v) for v in curve.values],
        "monotonicity": monotonicity_report(curve),
    }, {"weiss.csv": (columns, rows)}


_EXPERIMENTS = {
    "eigs": _run_eigs,
    "torsion-validate": _run_torsion_validate,
    "optimize-shape": _run_optimize_shape,
    "rearrange-check": _run_rearrange_check,
    "toy-sweep": _run_toy_sweep,
    "toy-classify": _run_toy_classify,
    "weiss": _run_weiss,
}


def _write(out_dir: str, name: str, lines) -> str:
    """Stream text ``lines`` into the file ``name``; returns the bytes' sha256."""
    digest = hashlib.sha256()
    with open(os.path.join(out_dir, name), "wb") as f:
        for data in map(str.encode, lines):
            digest.update(data)
            f.write(data)
    return digest.hexdigest()


def _json(doc: dict) -> list:
    return [json.dumps(doc, indent=2, sort_keys=True) + "\n"]


def _read_config(path: str):
    try:
        with open(path) as f:
            return json.load(f)
    except (OSError, ValueError, RecursionError) as exc:    # not JSON, too deep
        raise ConfigError(f"cannot read config: {exc}") from None


def _fail(exc: Exception, code: int, experiment: str, out_dir: str) -> int:
    """Report a failed run, with an ``error.json`` record if it can be written."""
    import traceback
    record = {"error": str(exc), "type": type(exc).__name__, "exit_code": code,
              "experiment": experiment, "traceback": traceback.format_exc()}
    if hasattr(exc, "residual_history"):      # a LOBPCG solve out of contract
        record["residual_history"] = exc.residual_history
    try:
        _write(out_dir, "error.json", _json(record))
        details = "details in error.json"
    except OSError as err:
        details = f"no error.json: {err}"
    print(f"error: {type(exc).__name__}: {exc} ({details})", file=sys.stderr)
    return code


def run(experiment: str, config_path: str, out_dir: str,
        seed_override: int | None = None) -> int:
    started = time.perf_counter()
    try:
        os.makedirs(out_dir, exist_ok=True)
    except OSError as exc:
        print(f"error: cannot use output directory {out_dir}: {exc}",
              file=sys.stderr)
        return 2
    # an earlier run's records must not pass for this run's; a path that
    # cannot be removed is reported by the write that meets it
    for name in ("error.json", "manifest.json"):
        with contextlib.suppress(OSError):
            os.remove(os.path.join(out_dir, name))

    try:
        cfg = _read_config(config_path)
        if experiment not in _EXPERIMENTS:
            raise ConfigError(f"unknown experiment '{experiment}'")
        if not isinstance(cfg, dict):
            raise ConfigError("config document must be a JSON object")
        declared = cfg.pop("experiment", experiment)
        if declared != experiment:
            raise ConfigError(f"field 'experiment' is {json.dumps(declared)}, "
                              f"but the subcommand is '{experiment}'")
        if seed_override is not None:
            cfg["seed"] = seed_override
        checked = _check(cfg, dict(seed={"type": int, "ge": 0, "default": 0},
                                   **_SCHEMAS[experiment]))
        seed = checked.pop("seed")
        entries: dict = {"timings_s": {}}      # the runner's manifest entries
        summary, tables = _EXPERIMENTS[experiment](checked, seed, entries)
        summary["experiment"] = experiment
        files = {}      # sha256 of each file this run writes, by name
        for name, (columns, rows) in tables.items():
            csv = (",".join(map(str, r)) + "\n" for r in itertools.chain([columns], rows))
            files[name] = _write(out_dir, name, csv)
        files["summary.json"] = _write(out_dir, "summary.json", _json(summary))
        manifest = {"config": dict(cfg, experiment=experiment, seed=seed),
                    "version": __version__, "files": files,
                    "wall_clock_s": time.perf_counter() - started, **entries}
        _write(out_dir, "manifest.json.tmp", _json(manifest))
        os.replace(os.path.join(out_dir, "manifest.json.tmp"),
                   os.path.join(out_dir, "manifest.json"))
    except Exception as exc:
        # a ConfigError or a library check rejecting a config value exits 2;
        # LinAlgError (a ValueError too), a broken solver contract, an
        # unwritten output or any other fault exits 3
        config = isinstance(exc, ValueError) and not isinstance(exc, np.linalg.LinAlgError)
        return _fail(exc, 2 if config else 3, experiment, out_dir)
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="fracdrum",
        description="Seeded numerical experiments on nonlocal drum shapes.")
    sub = parser.add_subparsers(dest="experiment", required=True)
    for name in _EXPERIMENTS:
        p = sub.add_parser(name)
        p.add_argument("--config", required=True, help="JSON config document")
        p.add_argument("--out", required=True, help="output directory")
        p.add_argument("--seed", type=int, default=None,
                       help="override the config master seed")
    args = parser.parse_args(argv)
    return run(args.experiment, args.config, args.out, seed_override=args.seed)


if __name__ == "__main__":
    sys.exit(main())
