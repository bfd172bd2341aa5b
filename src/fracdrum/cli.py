"""Batch front end: seeded experiments in, JSON summaries and CSV traces out.

Every subcommand reads one JSON config document, writes ``summary.json``
(sorted keys, no timings, byte-reproducible for a fixed config and seed)
plus any experiment CSVs into the output directory, and finishes with
``manifest.json`` carrying the config echo, version, wall clock, timing
breakdown, and a sha256 index of every emitted file.  The manifest is
written to a temp name and atomically renamed, so a crash never leaves a
half-written index.

Seed discipline: the config's master seed is used directly for single-chain
experiments; multi-trial experiments derive stream t from the pair
(master_seed, t), and auxiliary draws (such as the random initial blob of
the shape optimizer) use (master_seed, tag) with a fixed small tag, so
adding trials or reordering work never shifts another stream.

Exit codes: 0 success; 2 invalid config, with a message naming the
offending field; 3 numerical failure, with an ``error.json`` record.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import sys
import time

import numpy as np

from . import __version__
from .anneal import AnnealSchedule, diagnostics, minimize
from .charges import ChargeConfig, classify, conjecture_sweep, energy
from .extension import (ExtensionGrid, harmonic_extension, homogeneous_profile,
                        monotonicity_report, weiss_functional, ExtensionSolution)
from .form import assemble_form, rayleigh
from .grid import GridSpec, KernelParams, LatticeField, MultiIndicator
from .rearrange import ball_energy_check, ball_indicator, rearrange
from .spectra import dirichlet_eigs, torsion_solve

_BLOB_TAG = 1          # seed stream tag for the optimizer's random initial blob
_FIELD_TAG = 2         # seed stream tag for rearrange-check trial fields


class ConfigError(ValueError):
    pass


def _take(cfg: dict, field: str, kind, required: bool = True, default=None):
    if field not in cfg:
        if required:
            raise ConfigError(f"missing field '{field}'")
        return default
    v = cfg.pop(field)
    if kind is float and isinstance(v, int) and not isinstance(v, bool):
        v = float(v)
    if kind is not None and (not isinstance(v, kind)
                             or (kind is not bool and isinstance(v, bool))):
        raise ConfigError(f"field '{field}' must be {kind.__name__}")
    return v


def _no_leftovers(cfg: dict, where: str = "config"):
    if cfg:
        raise ConfigError(f"unknown key '{sorted(cfg)[0]}' in {where}")


def _kernel(cfg: dict) -> tuple[GridSpec, KernelParams]:
    n = _take(cfg, "n", int)
    s = _take(cfg, "s", float)
    h = _take(cfg, "h", float)
    L = _take(cfg, "L", float)
    copies = _take(cfg, "copies", int, required=False, default=1)
    if not 0 < s < 1:
        raise ConfigError("field 's' must lie in (0, 1)")
    try:
        grid = GridSpec(n=n, h=h, L=L, copies=copies)
        kp = KernelParams(n=n, s=s)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    return grid, kp


def _copy_index(value, grid: GridSpec, field: str) -> int:
    if isinstance(value, bool) or value not in range(grid.copies):
        raise ConfigError(f"field '{field}' names copy {value!r}, outside "
                          f"0..{grid.copies - 1}")
    return int(value)


def _shape_from_config(spec, grid: GridSpec, rng=None) -> MultiIndicator:
    if not isinstance(spec, dict):
        raise ConfigError("field 'shape' must be an object")
    spec = dict(spec)
    kind = _take(spec, "kind", str)
    if kind == "intervals":
        items = _take(spec, "items", list)
        _no_leftovers(spec, "shape")
        if grid.n != 1:
            raise ConfigError("shape kind 'intervals' requires n = 1")
        A = MultiIndicator.empty(grid)
        for it in items:
            if not (isinstance(it, list) and len(it) == 3):
                raise ConfigError("shape items must be [copy, lo, hi] triples")
            c, lo, hi = it
            A = _union(A, MultiIndicator.from_interval(
                grid, float(lo), float(hi), copy=_copy_index(c, grid, "items")))
        return A
    if kind == "rects":
        items = _take(spec, "items", list)
        _no_leftovers(spec, "shape")
        if grid.n != 2:
            raise ConfigError("shape kind 'rects' requires n = 2")
        masks = [np.zeros(grid.shape, dtype=bool) for _ in range(grid.copies)]
        centers = grid.axis_centers()
        for it in items:
            if not (isinstance(it, list) and len(it) == 5):
                raise ConfigError("shape items must be [copy, xlo, xhi, ylo, yhi]")
            c, xlo, xhi, ylo, yhi = it
            ix = (centers > xlo) & (centers < xhi)
            iy = (centers > ylo) & (centers < yhi)
            masks[_copy_index(c, grid, "items")] |= ix[:, None] & iy[None, :]
        return MultiIndicator(grid, masks)
    if kind == "ball":
        volume = _take(spec, "volume", float)
        copy = _take(spec, "copy", int, required=False, default=0)
        _no_leftovers(spec, "shape")
        return ball_indicator(volume, grid, copy=_copy_index(copy, grid, "copy"))
    if kind == "random-blob":
        cells = _take(spec, "cells", int)
        copy = _take(spec, "copy", int, required=False, default=0)
        _no_leftovers(spec, "shape")
        if rng is None:
            raise ConfigError("shape kind 'random-blob' needs a seeded experiment")
        return _random_blob(grid, cells, _copy_index(copy, grid, "copy"), rng)
    raise ConfigError(f"unknown shape kind '{kind}'")


def _union(A: MultiIndicator, B: MultiIndicator) -> MultiIndicator:
    return MultiIndicator(A.grid, [a | b for a, b in zip(A.masks, B.masks)])


def _random_blob(grid: GridSpec, cells: int, copy: int, rng) -> MultiIndicator:
    """Seeded connected blob grown cell by cell from the box center."""
    m = grid.cells_per_side
    if cells < 1:
        raise ConfigError("field 'cells' must be positive")
    mask = np.zeros(grid.shape, dtype=bool)
    center = (m // 2,) * grid.n
    mask[center] = True
    offsets = ([(-1,), (1,)] if grid.n == 1
               else [(-1, 0), (1, 0), (0, -1), (0, 1)])
    while int(mask.sum()) < cells:
        frontier = set()
        for idx in np.argwhere(mask):
            for off in offsets:
                nb = tuple(int(a + b) for a, b in zip(idx, off))
                if all(0 < x < m - 1 for x in nb) and not mask[nb]:
                    frontier.add(nb)
        if not frontier:
            raise ConfigError("field 'cells' exceeds the strict interior")
        pick = sorted(frontier)[int(rng.integers(len(frontier)))]
        mask[pick] = True
    masks = [np.zeros(grid.shape, dtype=bool) for _ in range(grid.copies)]
    masks[copy] = mask
    return MultiIndicator(grid, masks)


def _rle(mask: np.ndarray) -> list:
    flat = mask.ravel()
    runs = []
    i = 0
    while i < flat.size:
        if flat[i]:
            j = i
            while j + 1 < flat.size and flat[j + 1]:
                j += 1
            runs.append([int(i), int(j - i + 1)])
            i = j + 1
        else:
            i += 1
    return runs


def _shape_record(A: MultiIndicator) -> dict:
    g = A.grid
    return {"n": g.n, "h": g.h, "L": g.L, "copies": g.copies,
            "masks_rle": [_rle(mk) for mk in A.masks]}


# ---------------------------------------------------------------- experiments

def _run_eigs(cfg: dict, out: str, seed: int, timings: dict) -> dict:
    grid, kp = _kernel(cfg)
    shape_spec = _take(cfg, "shape", dict)
    count = _take(cfg, "count", int, required=False, default=4)
    dump_fields = _take(cfg, "dump_fields", bool, required=False, default=False)
    _no_leftovers(cfg)
    A = _shape_from_config(shape_spec, grid)
    t0 = time.perf_counter()
    res = dirichlet_eigs(A, kp, count)
    timings["eigs_s"] = time.perf_counter() - t0
    if dump_fields:
        cells = A.active_cells()
        with open(os.path.join(out, "fields.csv"), "w") as f:
            f.write("copy,cell," + ",".join(f"u{j + 1}" for j in range(count)) + "\n")
            for row, (c, idx) in enumerate(cells):
                vals = ",".join(repr(float(res.fields[j].values[c].ravel()[idx]))
                                for j in range(count))
                f.write(f"{c},{idx},{vals}\n")
    return {
        "experiment": "eigs",
        "eigenvalues": [float(v) for v in res.eigenvalues],
        "residuals": [float(v) for v in res.residuals],
        "gaps": [float(v) for v in res.multiplicity_gaps],
        "cell_count": A.cell_count(),
        "volume": A.volume(),
        "shape": _shape_record(A),
    }


def _run_torsion_validate(cfg: dict, out: str, seed: int, timings: dict) -> dict:
    s = _take(cfg, "s", float)
    h = _take(cfg, "h", float)
    L = _take(cfg, "L", float)
    _no_leftovers(cfg)
    if not 0 < s < 1:
        raise ConfigError("field 's' must lie in (0, 1)")
    try:
        grid = GridSpec(n=1, h=h, L=L)
        kp = KernelParams(n=1, s=s)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    A = MultiIndicator.from_interval(grid, -1.0, 1.0)
    t0 = time.perf_counter()
    res = torsion_solve(A, kp)
    timings["torsion_s"] = time.perf_counter() - t0
    centers = grid.cell_centers()[:, 0]
    active = A.masks[0]
    x = centers[active]
    c_ball = (2.0 ** (-2 * s) * math.gamma(0.5)
              / (math.gamma((1 + 2 * s) / 2) * math.gamma(1 + s)))
    exact = c_ball * np.maximum(1 - x ** 2, 0.0) ** s
    u = res.field.values[0][active]
    max_norm = float(np.max(np.abs(u - exact)) / np.max(exact))
    e_exact = -0.5 * c_ball * math.sqrt(math.pi) * math.gamma(s + 1) / math.gamma(s + 1.5)
    e_rel = abs(res.energy - e_exact) / abs(e_exact)
    return {
        "experiment": "torsion-validate",
        "s": s, "h": h, "L": L,
        "max_norm_error": max_norm,
        "energy": res.energy,
        "energy_expected": e_exact,
        "energy_rel_error": e_rel,
        "max_norm_pass": bool(max_norm <= 0.05),
        "energy_pass": bool(e_rel <= 0.05),
    }


def _run_optimize_shape(cfg: dict, out: str, seed: int, timings: dict) -> dict:
    grid, kp = _kernel(cfg)
    k = _take(cfg, "k", int, required=False, default=1)
    steps = _take(cfg, "steps", int, required=False, default=5000)
    cooling = _take(cfg, "cooling", float, required=False, default=0.995)
    t_init = _take(cfg, "initial_temperature", float, required=False)
    init_spec = _take(cfg, "init", dict)
    want_diag = _take(cfg, "diagnostics", bool, required=False, default=False)
    _no_leftovers(cfg)
    blob_rng = np.random.default_rng([seed, _BLOB_TAG])
    init = _shape_from_config(init_spec, grid, rng=blob_rng)
    schedule = AnnealSchedule(steps=steps, cooling=cooling,
                              initial_temperature=t_init, seed=seed)
    t0 = time.perf_counter()
    res = minimize(init, kp, k=k, schedule=schedule)
    timings["anneal_s"] = time.perf_counter() - t0
    res.trace_csv(os.path.join(out, "trace.csv"))
    summary = {
        "experiment": "optimize-shape",
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
    if want_diag:
        radii = [4 * grid.h, 8 * grid.h, 16 * grid.h]
        rep = diagnostics(res.best, res.best_spectrum.fields[k - 1], kp, radii,
                          multiple=res.best_spectrum.is_numerically_multiple(k))
        summary["diagnostics"] = {
            "component_signs": [str(v) for v in rep.component_signs],
            "adjacency_violations": rep.adjacency_violations,
            "growth_ratios": {repr(r): v for r, v in rep.growth_ratios.items()},
            "positive_density": {repr(r): v for r, v in rep.positive_density.items()},
            "zero_density": {repr(r): v for r, v in rep.zero_density.items()},
            "inconclusive": rep.inconclusive,
        }
    return summary


def _run_rearrange_check(cfg: dict, out: str, seed: int, timings: dict) -> dict:
    grid, kp = _kernel(cfg)
    shape_spec = _take(cfg, "shape", dict)
    trials = _take(cfg, "trials", int, required=False, default=20)
    _no_leftovers(cfg)
    A = _shape_from_config(shape_spec, grid)
    t0 = time.perf_counter()
    report = ball_energy_check(A, kp)
    timings["ball_check_s"] = time.perf_counter() - t0

    worst = 0.0
    t0 = time.perf_counter()
    F_u = assemble_form(A, kp)
    for t in range(trials):
        rng = np.random.default_rng([seed, _FIELD_TAG, t])
        vals = [np.zeros(grid.shape) for _ in range(grid.copies)]
        for c, mk in enumerate(A.masks):
            vals[c][mk] = rng.uniform(0.1, 1.0, size=int(mk.sum()))
        u = LatticeField(grid, vals)
        star = rearrange(u).field
        F_star = assemble_form(MultiIndicator(
            grid, [v > 0 for v in star.values]), kp)
        num = rayleigh(F_star, star) * star.norm_sq()
        den = rayleigh(F_u, u) * u.norm_sq()
        worst = max(worst, num / den)
    timings["polya_szego_s"] = time.perf_counter() - t0
    return {
        "experiment": "rearrange-check",
        "seed": seed, "trials": trials,
        "energy_shape": report.energy_shape,
        "energy_ball": report.energy_ball,
        "ball_no_worse": report.passed,
        "worst_rearrangement_ratio": worst,
        "shape": _shape_record(A),
    }


def _run_toy_sweep(cfg: dict, out: str, seed: int, timings: dict) -> dict:
    d = _take(cfg, "d", int)
    n = _take(cfg, "n", int)
    s = _take(cfg, "s", float)
    trials = _take(cfg, "trials", int)
    max_steps = _take(cfg, "max_steps", int, required=False, default=5000)
    _no_leftovers(cfg)
    if not 0 < s < 1:
        raise ConfigError("field 's' must lie in (0, 1)")
    if d < 2:
        raise ConfigError("field 'd' must be at least 2")
    if n < 1:
        raise ConfigError("field 'n' must be at least 1")
    if trials < 1:
        raise ConfigError("field 'trials' must be positive")
    t0 = time.perf_counter()
    sweep = conjecture_sweep(d, n, s, trials, seed=seed, max_steps=max_steps)
    timings["sweep_s"] = time.perf_counter() - t0
    return {
        "experiment": "toy-sweep",
        "d": d, "n": n, "s": s, "exponent": sweep.exponent,
        "trials": trials, "seed": seed, "max_steps": max_steps,
        "counts": sweep.counts,
        "stable_finds": sweep.stable_finds,
    }


def _run_toy_classify(cfg: dict, out: str, seed: int, timings: dict) -> dict:
    positions = _take(cfg, "positions", list)
    masses = _take(cfg, "masses", list)
    s = _take(cfg, "s", float, required=False)
    exponent = _take(cfg, "exponent", float, required=False)
    _no_leftovers(cfg)
    if (s is None) == (exponent is None):
        raise ConfigError("exactly one of 's' and 'exponent' is required")
    try:
        if s is not None:
            c = ChargeConfig.from_smoothness(positions, masses, s)
        else:
            c = ChargeConfig(np.asarray(positions, dtype=float),
                             np.asarray(masses, dtype=float), exponent)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    t0 = time.perf_counter()
    rep = classify(c)
    timings["classify_s"] = time.perf_counter() - t0
    return {
        "experiment": "toy-classify",
        "exponent": c.exponent,
        "classification": rep.classification.value,
        "gradient_norm": rep.gradient_norm,
        "min_hessian_eig": rep.min_hessian_eig,
        "euler_residual": rep.euler_residual,
        "energy": energy(c),
    }


def _run_weiss(cfg: dict, out: str, seed: int, timings: dict) -> dict:
    s = _take(cfg, "s", float)
    hx = _take(cfg, "h", float)
    L = _take(cfg, "L", float)
    H = _take(cfg, "H", float, required=False, default=L)
    field_spec = _take(cfg, "field", dict)
    center = _take(cfg, "center", float, required=False, default=0.0)
    radii = _take(cfg, "radii", list)
    _no_leftovers(cfg)
    if not 0 < s < 1:
        raise ConfigError("field 's' must lie in (0, 1)")
    if not radii or not all(isinstance(r, (int, float)) and r > 0 for r in radii):
        raise ConfigError("field 'radii' must be a list of positive numbers")
    try:
        eg = ExtensionGrid(hx=hx, hy=hx, L=L, H=H)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    field_spec = dict(field_spec)
    kind = _take(field_spec, "kind", str)
    intervals = None
    if kind == "profile":
        _no_leftovers(field_spec, "field")
        xs = eg.x_nodes()
        yr = eg.y_rows()
        XX, YY = np.meshgrid(xs, yr, indexing="ij")
        sol = ExtensionSolution(grid=eg, s=s,
                                trace=homogeneous_profile(xs, np.zeros_like(xs), s),
                                values=homogeneous_profile(XX, YY, s),
                                energy=float("nan"))
        intervals = [(0.0, L)]
    elif kind == "bump":
        _no_leftovers(field_spec, "field")
        xs = eg.x_nodes()
        trace = np.where(np.abs(xs) < 1,
                         np.exp(-1.0 / np.maximum(1 - xs ** 2, 1e-300)), 0.0)
        t0 = time.perf_counter()
        sol = harmonic_extension(trace, eg, s)
        timings["extension_s"] = time.perf_counter() - t0
    else:
        raise ConfigError(f"unknown field kind '{kind}'")
    t0 = time.perf_counter()
    curve = weiss_functional(sol, center, radii, support_intervals=intervals)
    timings["weiss_s"] = time.perf_counter() - t0
    curve.write_csv(os.path.join(out, "weiss.csv"))
    return {
        "experiment": "weiss",
        "s": s, "center": center,
        "radii": [float(r) for r in curve.radii],
        "values": [float(v) for v in curve.values],
        "monotonicity": monotonicity_report(curve),
    }


_EXPERIMENTS = {
    "eigs": _run_eigs,
    "torsion-validate": _run_torsion_validate,
    "optimize-shape": _run_optimize_shape,
    "rearrange-check": _run_rearrange_check,
    "toy-sweep": _run_toy_sweep,
    "toy-classify": _run_toy_classify,
    "weiss": _run_weiss,
}


def _sha256(path: str) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as f:
        for chunk in iter(lambda: f.read(65536), b""):
            digest.update(chunk)
    return digest.hexdigest()


def _limit_threads(count: int | None):
    if count is None:
        return
    try:
        from threadpoolctl import threadpool_limits
        threadpool_limits(limits=count)
    except ImportError:
        for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
            os.environ[var] = str(count)


def run(experiment: str, config_path: str, out_dir: str,
        seed_override: int | None = None, threads: int | None = None) -> int:
    started = time.perf_counter()
    try:
        with open(config_path) as f:
            cfg = json.load(f)
        if not isinstance(cfg, dict):
            raise ConfigError("config document must be a JSON object")
    except (OSError, json.JSONDecodeError) as exc:
        print(f"error: cannot read config: {exc}", file=sys.stderr)
        return 2

    _limit_threads(threads)
    os.makedirs(out_dir, exist_ok=True)
    timings: dict[str, float] = {}
    try:
        cfg = dict(cfg)
        declared = cfg.pop("experiment", experiment)
        if declared != experiment:
            raise ConfigError(f"field 'experiment' is '{declared}', "
                              f"but the subcommand is '{experiment}'")
        seed = cfg.pop("seed", 0)
        if seed_override is not None:
            seed = seed_override
        if not isinstance(seed, int) or isinstance(seed, bool) or seed < 0:
            raise ConfigError("field 'seed' must be a nonnegative integer")
        config_echo = dict(cfg, experiment=experiment, seed=seed)
        summary = _EXPERIMENTS[experiment](cfg, out_dir, seed, timings)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        # library-level validation rejecting config-supplied values
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (RuntimeError, np.linalg.LinAlgError, FloatingPointError) as exc:
        record = {"error": str(exc), "type": type(exc).__name__,
                  "experiment": experiment}
        with open(os.path.join(out_dir, "error.json"), "w") as f:
            json.dump(record, f, indent=2, sort_keys=True)
        print(f"error: numerical failure: {exc}", file=sys.stderr)
        return 3

    summary_path = os.path.join(out_dir, "summary.json")
    with open(summary_path, "w") as f:
        json.dump(summary, f, indent=2, sort_keys=True)
        f.write("\n")

    files = {}
    for name in sorted(os.listdir(out_dir)):
        path = os.path.join(out_dir, name)
        if name not in ("manifest.json",) and os.path.isfile(path):
            files[name] = _sha256(path)
    manifest = {
        "config": config_echo,
        "version": __version__,
        "wall_clock_s": time.perf_counter() - started,
        "timings_s": timings,
        "files": files,
    }
    tmp = os.path.join(out_dir, "manifest.json.tmp")
    with open(tmp, "w") as f:
        json.dump(manifest, f, indent=2, sort_keys=True)
        f.write("\n")
    os.replace(tmp, os.path.join(out_dir, "manifest.json"))
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
        p.add_argument("--threads", type=int, default=None,
                       help="cap BLAS/solver thread pools")
    args = parser.parse_args(argv)
    return run(args.experiment, args.config, args.out,
               seed_override=args.seed, threads=args.threads)


if __name__ == "__main__":
    sys.exit(main())
