"""Symmetric decreasing rearrangement on the lattice.

The rearranged field keeps the exact multiset of nonzero cell values and
redistributes them onto the first copy, largest first, filling cells in
increasing distance of their centers from the box center.  Exact cell-count
equimeasurability is the design point; geometric roundness of the level
sets follows only as the spacing shrinks.
"""

from __future__ import annotations

from dataclasses import dataclass
import math

import numpy as np

from .grid import GridSpec, KernelParams, LatticeField, MultiIndicator
from .spectra import torsion_solve


def center_outward_order(grid: GridSpec) -> np.ndarray:
    """Flat cell indices sorted by center distance from the origin, ties by
    flat index, restricted to cells strictly inside the box."""
    centers = grid.cell_centers()
    dist = np.linalg.norm(centers, axis=1)
    order = np.lexsort((np.arange(len(dist)), dist))
    return order[grid.interior().ravel()[order]]


def rearrange(u: LatticeField) -> LatticeField:
    """Sort the nonzero values descending and refill center-outward."""
    vals = u.values.ravel()
    if np.any(vals < 0):
        raise ValueError("rearrangement requires a nonnegative field")
    nz = np.sort(vals[vals > 0])[::-1]
    grid = u.grid
    order = center_outward_order(grid)
    if len(nz) > len(order):
        raise ValueError("rearranged support does not fit strictly inside the box")
    out = np.zeros(u.values.shape)
    out[0].ravel()[order[:len(nz)]] = nz
    return LatticeField(grid, out)


def ball_indicator(volume: float, grid: GridSpec, copy: int = 0) -> MultiIndicator:
    """Centered lattice ball with ceil(volume / h^n) cells on one copy."""
    if volume < 0:
        raise ValueError("volume must be nonnegative")
    if volume > (2 * grid.L) ** grid.n:
        raise ValueError("volume exceeds the box")
    count = math.ceil(volume / grid.cell_volume - 1e-9)
    order = center_outward_order(grid)
    if count > len(order):
        raise ValueError("ball of that volume does not fit strictly inside the box")
    masks = np.zeros((grid.copies, *grid.shape), dtype=bool)
    masks[grid.copy_index(copy)].ravel()[order[:count]] = True
    return MultiIndicator(grid, masks)


@dataclass
class BallEnergyReport:
    energy_shape: float
    energy_ball: float
    passed: bool


def ball_energy_check(A: MultiIndicator, kp: KernelParams) -> BallEnergyReport:
    """Compare the torsion energy of a shape against the centered ball of
    equal volume; pass means the ball is no worse up to a 2 percent slack."""
    if A.is_empty():
        raise ValueError("shape is empty")
    e_shape = torsion_solve(A, kp).energy
    ball = ball_indicator(A.volume(), A.grid)
    e_ball = torsion_solve(ball, kp).energy
    return BallEnergyReport(energy_shape=e_shape, energy_ball=e_ball,
                            passed=bool(e_ball <= e_shape + 0.02 * abs(e_shape)))
