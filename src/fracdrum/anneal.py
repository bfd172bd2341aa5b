"""Simulated annealing over multi-copy cell shapes.

Moves are enumerated in a fixed lexicographic order so that a seeded run is
bit-reproducible: single-cell flips first (by id), then whole-component
translations (by component id, axis, then -/+ sign), then whole-component
relocations to another copy (by component id, then target copy).  A cell's
id is its flat index into the (copies, *box) mask.

Each distinct shape is scored once per run: ``minimize`` keeps every
objective it computes, keyed by the shape's masks packed one bit per cell, so
a shape proposed again is neither assembled nor solved.  Scoring is a pure
function of the shape and there is no incremental eigenvalue update, so the
chain is the same bit for bit as one that solves every proposal.  A shape
is labelled once (``MultiIndicator.components``) and its move list built
once, however many proposals start from it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
import math

import numpy as np

from .form import _distinct, assemble_form, interaction_energy
from .grid import (KernelParams, LatticeField, MultiIndicator, _box_masks,
                   _open_face, component_signs)
from .spectra import SpectralResult, dirichlet_eigs

Move = tuple


def enumerate_moves(A: MultiIndicator, min_cells: int = 1) -> list[Move]:
    """All legal moves from ``A`` in the canonical proposal order.

    Flip moves toggle one boundary-adjacent cell: removals take an active
    cell with an inactive face neighbor and keep the total count at or above
    ``min_cells``; additions take an inactive cell that touches the shape
    (face adjacency) and stays strictly inside the box, so the chain grows
    and shrinks along boundaries rather than teleporting mass.

    The list is built once per shape and ``min_cells`` and kept on ``A``;
    each call returns a fresh copy of it.
    """
    # a shape's masks are read-only, so its move lists never go stale
    built = A.__dict__.setdefault("_moves", {})
    if min_cells not in built:
        built[min_cells] = tuple(_legal_moves(A, min_cells))
    return list(built[min_cells])


def _legal_moves(A: MultiIndicator, min_cells: int) -> list[Move]:
    grid, masks, decomp = A.grid, A.masks, A.components
    ids = np.flatnonzero(masks)
    comp = decomp.labels.ravel()[ids]
    # the face neighbours of every shape cell, one row per axis and sign in
    # move order (-1 then +1); shape cells are interior, so each neighbour
    # is in the cell's own box
    strides = [grid.cells_per_side ** (grid.n - 1 - axis) for axis in range(grid.n)]
    steps = np.array([sign * st for st in strides for sign in (-1, 1)])
    near = ids + steps[:, None]
    on = masks.ravel()[near]
    wall = _box_masks(grid.shape)[1].ravel()[near % grid.box_size]

    # flips: an empty interior cell next to the shape, or, above the floor,
    # a shape cell next to the outside
    flips = np.zeros(masks.size, dtype=bool)
    flips[near[~on & ~wall]] = True
    if len(ids) > min_cells:
        flips[ids[~on.all(axis=0)]] = True
    moves: list[Move] = [("flip", i) for i in np.flatnonzero(flips).tolist()]

    # only the box boundary blocks a translation: a cell of another
    # component one step away would be a face neighbour, so in this one
    legal = np.ones((decomp.count, len(steps)), dtype=bool)
    step, cell = np.nonzero(wall)
    legal[comp[cell], step] = False
    moves.extend(("translate", c, d // 2, 2 * (d % 2) - 1)
                 for c, d in zip(*(i.tolist() for i in np.nonzero(legal))))

    # a relocation is legal when the target copy is empty under every cell;
    # the home copy never is, since the component's own cells hold it
    held = masks.reshape(grid.copies, -1)[:, ids % grid.box_size]
    free = np.ones((decomp.count, grid.copies), dtype=bool)
    target, cell = np.nonzero(held)
    free[comp[cell], target] = False
    moves.extend(("relocate", c, t)
                 for c, t in zip(*(i.tolist() for i in np.nonzero(free))))
    return moves


def apply_move(A: MultiIndicator, move: Move) -> MultiIndicator:
    grid, masks = A.grid, A.masks.copy()
    cells = masks.ravel()
    if move[0] == "flip":
        cells[move[1]] ^= True
        return MultiIndicator(grid, masks)
    if move[0] not in ("translate", "relocate"):
        raise ValueError(f"unknown move kind {move[0]!r}")
    decomp = A.components
    if not 0 <= move[1] < decomp.count:
        raise ValueError(f"{move!r}: the shape has no component {move[1]!r}")
    ids = decomp.cells[move[1]]
    if move[0] == "translate":
        _, _, axis, sign = move
        if axis not in range(grid.n) or sign not in (-1, 1):
            raise ValueError(f"{move!r}: a translation is one cell along an axis")
        # a one-cell shift cannot reach another component: that cell would
        # be a face neighbour, so in this component
        moved = ids + sign * grid.cells_per_side ** (grid.n - 1 - axis)
    else:
        target, home = move[2], int(ids[0]) // grid.box_size
        if not 0 <= target < grid.copies or target == home:
            raise ValueError(f"{move!r}: the target copy must be another one "
                             f"of 0..{grid.copies - 1}")
        moved = ids + (target - home) * grid.box_size
        if cells[moved].any():
            raise ValueError(f"{move!r}: the target cells are held by another "
                             "component")
    cells[ids] = False
    cells[moved] = True
    return MultiIndicator(grid, masks)


@dataclass
class AnnealSchedule:
    steps: int = 5000
    cooling: float = 0.995
    initial_temperature: float | None = None
    seed: int = 0

    def __post_init__(self):
        if self.steps < 0:
            raise ValueError("steps must be nonnegative")
        if not 0 < self.cooling < 1:
            raise ValueError("cooling factor must lie in (0, 1)")
        if (self.initial_temperature is not None
                and not 0 < self.initial_temperature < math.inf):
            raise ValueError("initial temperature must be positive and finite")


@dataclass
class TraceRow:
    step: int
    temperature: float
    objective: float
    accepted: bool
    kind: str


@dataclass
class AnnealResult:
    best: MultiIndicator
    best_objective: float
    best_spectrum: SpectralResult
    final: MultiIndicator
    final_objective: float
    trace: list[TraceRow] = field(repr=False, default_factory=list)


def minimize(init: MultiIndicator, kp: KernelParams, k: int = 1,
             schedule: AnnealSchedule | None = None) -> AnnealResult:
    """Anneal ``objective = eigenvalue_k + volume`` starting from ``init``."""
    if schedule is None:
        schedule = AnnealSchedule()
    if init.cell_count() < k:
        raise ValueError("initial shape has fewer cells than requested eigenvalues")
    rng = np.random.default_rng(schedule.seed)
    current = init
    cur_obj, best_spec = _score(current, kp, k)
    # the objective of every shape scored so far, keyed by its packed masks
    scored = {np.packbits(current.masks).tobytes(): cur_obj}
    t0 = schedule.initial_temperature
    if t0 is None:
        t0 = 0.1 * abs(cur_obj)
    best, best_obj = current, cur_obj
    trace: list[TraceRow] = []
    for step in range(schedule.steps):
        temp = t0 * schedule.cooling ** step
        moves = enumerate_moves(current, min_cells=k)
        if not moves:
            raise ValueError(f"no legal move: the shape has k = {k} cells, so none "
                             "may be removed, and none can be added or moved")
        move = moves[int(rng.integers(len(moves)))]
        candidate = apply_move(current, move)
        key = np.packbits(candidate.masks).tobytes()
        cand_obj = scored.get(key)
        if cand_obj is None:
            cand_obj, spec = _score(candidate, kp, k)
            scored[key] = cand_obj
            # best_obj <= cur_obj, so a shape below the best is downhill and
            # accepted without a draw; a shape scored earlier never is
            if cand_obj < best_obj:
                best, best_obj, best_spec = candidate, cand_obj, spec
        delta = cand_obj - cur_obj
        # once the temperature underflows to 0, an uphill move is rejected
        # without a draw
        accept = delta <= 0 or (temp > 0 and rng.random() < math.exp(-delta / temp))
        if accept:
            current, cur_obj = candidate, cand_obj
        trace.append(TraceRow(step, temp, cur_obj, accept, move[0]))
    return AnnealResult(best=best, best_objective=best_obj, best_spectrum=best_spec,
                        final=current, final_objective=cur_obj, trace=trace)


def _score(A: MultiIndicator, kp: KernelParams, k: int):
    F = assemble_form(A, kp)
    spec = dirichlet_eigs(A, kp, k, F=F)
    return float(spec.eigenvalues[k - 1]) + A.volume(), spec


def translation_gradient(u: LatticeField, A1, A2, direction,
                         kp: KernelParams) -> float:
    """Central difference of the interaction energy when the second cell
    group slides one cell along ``direction``, per unit length.

    ``direction`` is a lattice unit vector (one entry is +-1, the rest 0).
    ``A1`` and ``A2`` are disjoint sequences of distinct cell ids; the
    field must vanish outside their union.  A negative value means moving
    the group along ``direction`` lowers the interaction energy.
    """
    grid = u.grid
    direction = np.asarray(direction, dtype=int)
    if direction.shape != (grid.n,) or np.sum(np.abs(direction)) != 1:
        raise ValueError("direction must be a lattice unit vector")
    axis = int(np.flatnonzero(direction)[0])
    m, stack = grid.cells_per_side, (grid.copies, *grid.shape)
    ids1, ids2 = _distinct(A1), _distinct(A2)
    out = []
    for sign in (-int(direction[axis]), int(direction[axis])):
        coords = list(np.unravel_index(ids2, stack))
        coords[axis + 1] += sign
        if not all(np.all((x > 0) & (x < m - 1)) for x in coords[1:]):
            raise ValueError("shifted group leaves the interior of the box")
        moved = np.ravel_multi_index(coords, stack)
        if np.isin(moved, ids1).any():
            raise ValueError("shifted group collides with the fixed group")
        cells = np.concatenate([ids1, moved])
        masks, vals = np.zeros(stack, dtype=bool), np.zeros(stack)
        masks.ravel()[cells] = True
        vals.ravel()[cells] = u.values.ravel()[np.concatenate([ids1, ids2])]
        F = assemble_form(MultiIndicator(grid, masks), kp)
        v = LatticeField(grid, vals)
        out.append(interaction_energy(F, v, ids1, moved))
    return (out[1] - out[0]) / (2.0 * grid.h)


@dataclass
class DiagnosticsReport:
    component_signs: list
    adjacency_violations: int
    growth_ratios: dict          # r -> min over boundary cells of sup|u| / r^s
    fitted_c0: float             # min growth ratio over all radii
    positive_density: dict
    zero_density: dict
    inconclusive: bool


def diagnostics(A: MultiIndicator, u: LatticeField, kp: KernelParams, radii,
                multiple: bool = False) -> DiagnosticsReport:
    """Boundary-behavior audit of an eigenfield on its shape.

    For every cell of ``A`` that touches the complement, and every radius r
    in ``radii``, record the worst case (minimum over boundary cells) of
    sup |u| over the ball of radius r around the cell center divided by
    r**s, plus the mean cell-measure density of the strictly positive part
    and of the zero set in the same ball.  Nothing is asserted; callers
    persist the report and read it after the fact.
    """
    grid = A.grid
    signs = component_signs(A.components, u)
    scale = float(np.abs(u.values).max())
    thr = 1e-9 * scale if scale > 0 else 1e-9    # |u| at or below counts as zero

    violations = 0
    for axis in range(1, u.values.ndim):     # face neighbours within a copy
        v = u.values.swapaxes(1, axis)
        a, b = v[:, :-1], v[:, 1:]
        violations += int(np.sum((a > thr) & (b < -thr)))
        violations += int(np.sum((a < -thr) & (b > thr)))

    centers = grid.cell_centers()
    # active cells with at least one inactive face neighbor
    copies, flats = np.divmod(np.flatnonzero(A.masks & _open_face(A.masks)),
                              grid.box_size)
    if not copies.size:
        raise ValueError("shape has no boundary cells")
    growth: dict[float, float] = {}
    pos_density: dict[float, float] = {}
    zero_density: dict[float, float] = {}
    for r in radii:
        sup_ratios, pos_r, zero_r = [], [], []
        for c, idx in zip(copies, flats):
            ball = np.linalg.norm(centers - centers[idx], axis=1) <= r + 1e-12
            vals = u.values[c].ravel()[ball]
            sup_ratios.append(float(np.abs(vals).max()) / r ** kp.s)
            pos_r.append(np.sum(vals > thr) * grid.cell_volume / r ** grid.n)
            zero_r.append(np.sum(np.abs(vals) <= thr) * grid.cell_volume / r ** grid.n)
        growth[float(r)] = float(np.min(sup_ratios))
        pos_density[float(r)] = float(np.mean(pos_r))
        zero_density[float(r)] = float(np.mean(zero_r))
    return DiagnosticsReport(component_signs=signs,
                             adjacency_violations=violations,
                             growth_ratios=growth,
                             fitted_c0=min(growth.values()),
                             positive_density=pos_density,
                             zero_density=zero_density,
                             inconclusive=multiple)
