"""Simulated annealing over multi-copy cell shapes.

Moves are enumerated in a fixed lexicographic order so that a seeded run is
bit-reproducible: single-cell flips first (by id), then whole-component
translations (by component id, axis, then -/+ sign), then whole-component
relocations to another copy (by component id, then target copy).  A cell's
id is its flat index into the (copies, *box) mask.

Each distinct shape is built and scored once per run: ``minimize`` keeps
every shape it scores, with its objective, in one memo keyed by the shape's
masks packed one bit per cell.  A proposal is answered from the current
masks and the move alone: its key is the current key with one bit flipped,
or the packed masks of the moved component, and a shape found in the memo is
neither built, assembled nor solved, and is the memo's own object when
accepted.  So each shape the chain stands on keeps its labelling and move
list, and is labelled and its moves listed once per run.  Scoring is a pure
function of the shape and there is no incremental eigenvalue update, so the
chain is the same bit for bit as one that solves every proposal.  The whole
chain runs in one ``_serial_blas`` scope.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cache
import math

import numpy as np
import numpy.random     # loaded with the package, not in the first chain

from .form import _distinct, assemble_form, interaction_energy
from .grid import (GridSpec, KernelParams, LatticeField, MultiIndicator,
                   _box_masks, _is_int, _open_face, component_signs)
from .spectra import SpectralResult, _serial_blas, dirichlet_eigs

Move = tuple
# what follows a move's kind, each an integer
_FIELDS = {"flip": ("cell",), "translate": ("component", "axis", "sign"),
           "relocate": ("component", "target copy")}


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
    # a shape's masks are read-only, so its moves never go stale
    built = A.__dict__.setdefault("_moves", {})
    if min_cells not in built:
        built[min_cells] = _legal_moves(A, min_cells)
    return list(built[min_cells])


@cache
def _face_walls(grid: GridSpec) -> tuple:
    """The id steps to a cell's face neighbours in move order (axis by axis,
    -1 then +1), and per step and box cell whether that neighbour is a wall
    cell of the box."""
    strides = [grid.cells_per_side ** (grid.n - 1 - axis) for axis in range(grid.n)]
    steps = np.array([sign * st for st in strides for sign in (-1, 1)])
    near = (np.arange(grid.box_size) + steps[:, None]) % grid.box_size
    return steps, _box_masks(grid.shape)[1].ravel()[near]


def _legal_moves(A: MultiIndicator, min_cells: int) -> list:
    """The legal moves, in proposal order: flips by ascending cell id, then
    translations by component and step, then relocations by component and
    target copy."""
    grid, masks, decomp = A.grid, A.masks, A.components
    ids, comp = decomp.ids, decomp.index
    steps, walls = _face_walls(grid)
    flats = ids % grid.box_size
    # the face neighbours of every shape cell, one row per step; shape cells
    # are interior, so each neighbour is in the cell's own box
    near = ids + steps[:, None]
    on = masks.ravel()[near]
    wall = walls[:, flats]

    # flips: an empty interior cell next to the shape, or, above the floor,
    # a shape cell next to the outside
    flips = np.zeros(masks.size, dtype=bool)
    flips[near[~on & ~wall]] = True
    if len(ids) > min_cells:
        flips[ids[~on.all(axis=0)]] = True

    # only the box boundary blocks a translation: a cell of another
    # component one step away would be a face neighbour, so in this one
    shifts = np.ones((decomp.count, len(steps)), dtype=bool)
    step, cell = np.nonzero(wall)
    shifts[comp[cell], step] = False

    # a relocation is legal when the target copy is empty under every cell;
    # the home copy never is, since the component's own cells hold it
    held = masks.reshape(grid.copies, -1)[:, flats]
    free = np.ones((decomp.count, grid.copies), dtype=bool)
    target, cell = np.nonzero(held)
    free[comp[cell], target] = False

    (shifted, step), (moved, target) = np.nonzero(shifts), np.nonzero(free)
    return ([("flip", i) for i in np.flatnonzero(flips).tolist()]
            + [("translate", c, d // 2, 2 * (d % 2) - 1)
               for c, d in zip(shifted.tolist(), step.tolist())]
            + [("relocate", c, t) for c, t in zip(moved.tolist(), target.tolist())])


def apply_move(A: MultiIndicator, move: Move) -> MultiIndicator:
    """The shape ``move`` makes from ``A``; ValueError for a move that is
    not one of the three kinds, whose ids, axis or sign are not integers
    (Python or numpy ints, not bools), or whose cell, component, axis, sign
    or target copy does not fit ``A``."""
    grid, kind = A.grid, move[0]
    if kind not in _FIELDS:
        raise ValueError(f"unknown move kind {kind!r}")
    if len(move) != 1 + len(_FIELDS[kind]) or not all(map(_is_int, move[1:])):
        raise ValueError(f"{move!r}: a {kind} move is {kind!r} then integers: "
                         + ", ".join(_FIELDS[kind]))
    if kind == "flip":
        if not 0 <= move[1] < A.masks.size:
            raise ValueError(f"{move!r}: the stack has no cell {move[1]}")
    else:
        decomp = A.components
        if not 0 <= move[1] < decomp.count:
            raise ValueError(f"{move!r}: the shape has no component {move[1]!r}")
        if kind == "translate":
            _, _, axis, sign = move
            if axis not in range(grid.n) or sign not in (-1, 1):
                raise ValueError(f"{move!r}: a translation is one cell along an axis")
        else:
            ids = decomp.cells[move[1]]
            target, home = move[2], int(ids[0]) // grid.box_size
            if not 0 <= target < grid.copies or target == home:
                raise ValueError(f"{move!r}: the target copy must be another one "
                                 f"of 0..{grid.copies - 1}")
            if A.masks[target].ravel()[ids % grid.box_size].any():
                raise ValueError(f"{move!r}: the target cells are held by another "
                                 "component")
    return MultiIndicator(grid, _after(A, move))


def _after(A: MultiIndicator, move: Move) -> np.ndarray:
    """The masks of the shape a legal ``move`` makes from ``A``."""
    masks = A.masks.copy()
    cells = masks.ravel()
    if move[0] == "flip":
        cells[move[1]] ^= True
        return masks
    grid, decomp = A.grid, A.components
    ids = decomp.ids[decomp.index == move[1]]
    if move[0] == "translate":
        # a one-cell shift cannot reach another component: that cell would
        # be a face neighbour, so in this component
        shift = move[3] * grid.cells_per_side ** (grid.n - 1 - move[2])
    else:
        shift = (move[2] - int(ids[0]) // grid.box_size) * grid.box_size
    cells[ids] = False
    cells[ids + shift] = True
    return masks


def _proposal(A: MultiIndicator, key: bytes, move: Move) -> tuple:
    """The packed key of the shape a legal ``move`` makes from ``A``, whose
    packed key is ``key``, and the shape's masks, or None for a flip, whose
    key needs no masks."""
    if move[0] == "flip":
        flipped = bytearray(key)
        # packbits fills each byte from its most significant bit
        flipped[move[1] >> 3] ^= 0x80 >> (move[1] & 7)
        return bytes(flipped), None
    masks = _after(A, move)
    return np.packbits(masks).tobytes(), masks


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


# one per step, the chain's largest allocation: slots keep each row small
@dataclass(slots=True)
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
    grid, rng = init.grid, np.random.default_rng(schedule.seed)
    trace: list[TraceRow] = []
    with _serial_blas():
        current, cur_key = init, np.packbits(init.masks).tobytes()
        cur_obj, best_spec = _score(current, kp, k)
        # every shape scored so far and its objective, by its packed masks
        scored = {cur_key: (current, cur_obj)}
        t0 = schedule.initial_temperature
        if t0 is None:
            t0 = 0.1 * abs(cur_obj)
        best, best_obj = current, cur_obj
        for step in range(schedule.steps):
            temp = t0 * schedule.cooling ** step
            moves = enumerate_moves(current, min_cells=k)
            if not moves:
                raise ValueError(f"no legal move: the shape has k = {k} cells, so "
                                 "none may be removed, and none can be added or "
                                 "moved")
            move = moves[int(rng.integers(len(moves)))]
            key, masks = _proposal(current, cur_key, move)
            if key in scored:
                candidate, cand_obj = scored[key]
            else:
                candidate = MultiIndicator._adopt(
                    grid, _after(current, move) if masks is None else masks)
                cand_obj, spec = _score(candidate, kp, k)
                scored[key] = candidate, cand_obj
                # best_obj <= cur_obj, so a shape below the best is downhill
                # and accepted without a draw; a shape scored earlier never is
                if cand_obj < best_obj:
                    best, best_obj, best_spec = candidate, cand_obj, spec
            delta = cand_obj - cur_obj
            # once the temperature underflows to 0, an uphill move is
            # rejected without a draw
            accept = delta <= 0 or (temp > 0 and rng.random() < math.exp(-delta / temp))
            if accept:
                current, cur_key, cur_obj = candidate, key, cand_obj
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
    direction = np.asarray(direction)
    if (direction.shape != (grid.n,) or direction.dtype.kind not in "iu"
            or np.sum(np.abs(direction)) != 1):
        raise ValueError(f"direction must be a lattice unit vector of integers, "
                         f"got {direction.tolist()!r}")
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
    positive_density: dict
    zero_density: dict


def diagnostics(A: MultiIndicator, u: LatticeField, kp: KernelParams,
                radii) -> DiagnosticsReport:
    """Boundary-behavior audit of an eigenfield on its shape.

    For every cell of ``A`` that touches the complement and lies in a
    component on which ``u`` does not vanish (its ``component_signs`` entry
    is not 0), and every radius r in ``radii``, record the worst case
    (minimum over those boundary cells) of sup |u| over the ball of radius r
    around the cell center divided by r**s, plus the mean cell-measure
    density of the strictly positive part and of the zero set in the same
    ball.  The boundary that matters is that of {u != 0}: on a component
    where u vanishes, every growth ratio would read 0.  ValueError if no
    component carries the field.  Nothing is asserted; callers persist the
    report and read it after the fact.
    """
    grid, decomp = A.grid, A.components
    signs = component_signs(decomp, u)
    scale = float(np.abs(u.values).max())
    thr = 1e-9 * scale if scale > 0 else 1e-9    # |u| at or below counts as zero

    sign = (u.values > thr).astype(int) - (u.values < -thr)   # 0 near zero
    violations = 0
    for axis in range(1, u.values.ndim):     # face neighbours within a copy
        v = sign.swapaxes(1, axis)
        violations += int(np.sum(v[:, :-1] * v[:, 1:] < 0))

    centers = grid.cell_centers()
    # active cells with at least one inactive face neighbor, in a component
    # that carries the field
    carries = np.array([sign != 0 for sign in signs], dtype=bool)
    boundary = np.flatnonzero(A.masks & _open_face(A.masks))
    boundary = boundary[carries[decomp.labels.ravel()[boundary]]]
    if not boundary.size:
        raise ValueError("no boundary cell lies in a component that carries "
                         "the field")
    copies, flats = np.divmod(boundary, grid.box_size)
    radii = [float(r) for r in radii]
    reach = np.array(radii)[:, None] + 1e-12
    # per radius and boundary cell: sup |u| / r^s, positive and zero density
    meas = np.empty((3, len(radii), len(copies)))
    for i, (c, idx) in enumerate(zip(copies, flats)):
        balls = np.linalg.norm(centers - centers[idx], axis=1) <= reach
        vals = u.values[c].ravel()
        meas[:, :, i] = (np.where(balls, np.abs(vals), 0.0).max(axis=1),
                         np.sum(balls & (vals > thr), axis=1),
                         np.sum(balls & (np.abs(vals) <= thr), axis=1))
    meas[0] /= [[r ** kp.s] for r in radii]
    meas[1:] = meas[1:] * grid.cell_volume / [[r ** grid.n] for r in radii]
    growth, pos, zero = (dict(zip(radii, a.tolist())) for a in
                         (meas[0].min(axis=1), *meas[1:].mean(axis=2)))
    return DiagnosticsReport(signs, violations, growth, pos, zero)
