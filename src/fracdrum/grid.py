"""Lattice geometry shared by every other module.

A computational domain lives on k disjoint copies of the box [-L, L]^n,
discretized into cells of side h with centers at -L + (i + 1/2) h.  Points
in different copies are at infinite distance from each other, so every
kernel weight between copies is exactly zero.  Shapes are boolean masks
over the cells (one mask per copy), fields are real arrays supported on
such masks.
"""

from __future__ import annotations

from dataclasses import dataclass, field
import math

import numpy as np


@dataclass(frozen=True)
class GridSpec:
    """Lattice description: dimension, spacing, box half-width, copy count."""

    n: int
    h: float
    L: float
    copies: int = 1

    def __post_init__(self):
        if self.n not in (1, 2):
            raise ValueError(f"n must be 1 or 2, got {self.n}")
        if not self.h > 0:
            raise ValueError(f"h must be positive, got {self.h}")
        ratio = self.L / self.h
        if (not math.isfinite(ratio) or abs(ratio - round(ratio)) > 1e-9 * max(1.0, ratio)
                or round(ratio) < 1):
            raise ValueError(f"L/h must be a positive integer, got {ratio}")
        if self.copies < 1:
            raise ValueError(f"copies must be >= 1, got {self.copies}")

    @property
    def cells_per_side(self) -> int:
        return 2 * int(round(self.L / self.h))

    @property
    def shape(self) -> tuple:
        return (self.cells_per_side,) * self.n

    @property
    def cell_volume(self) -> float:
        return self.h ** self.n

    def axis_centers(self) -> np.ndarray:
        """Cell-center coordinates along one axis."""
        m = self.cells_per_side
        return -self.L + (np.arange(m) + 0.5) * self.h

    def cell_centers(self) -> np.ndarray:
        """Array of all cell centers, shape (#cells, n), row-major order."""
        c = self.axis_centers()
        if self.n == 1:
            return c[:, None]
        gx, gy = np.meshgrid(c, c, indexing="ij")
        return np.column_stack([gx.ravel(), gy.ravel()])


@dataclass(frozen=True)
class KernelParams:
    """Interaction kernel |x-y|^{-(n+2s)} with the cross-copy zero convention.

    Energies built from this kernel are reported in bare seminorm units:
    the kernel carries no multiplicative constant.  near_field_radius is the
    center-distance cutoff, in cells, below which pair weights switch from
    the midpoint rule to subcell quadrature.
    """

    n: int
    s: float
    near_field_radius: int = 3

    def __post_init__(self):
        if not 0 < self.s < 1:
            raise ValueError(f"s must lie in (0,1), got {self.s}")
        if self.n not in (1, 2):
            raise ValueError(f"n must be 1 or 2, got {self.n}")
        if self.near_field_radius < 1:
            raise ValueError("near_field_radius must be >= 1")

    @property
    def exponent(self) -> float:
        return self.n + 2 * self.s


class MultiIndicator:
    """A shape: one boolean cell mask per copy, all true cells strictly inside."""

    def __init__(self, grid: GridSpec, masks):
        if len(masks) != grid.copies:
            raise ValueError(f"need {grid.copies} masks, got {len(masks)}")
        clean = []
        for m in masks:
            m = np.asarray(m, dtype=bool)
            if m.shape != grid.shape:
                raise ValueError(f"mask shape {m.shape} != grid shape {grid.shape}")
            clean.append(m.copy())
        self.grid = grid
        self.masks = tuple(clean)
        for m in self.masks:
            if _touches_boundary(m):
                raise ValueError("mask touches the box boundary")
        for m in self.masks:
            m.setflags(write=False)

    @classmethod
    def empty(cls, grid: GridSpec) -> "MultiIndicator":
        return cls(grid, [np.zeros(grid.shape, dtype=bool) for _ in range(grid.copies)])

    @classmethod
    def from_interval(cls, grid: GridSpec, lo: float, hi: float, copy: int = 0):
        """n=1 helper: all cells whose centers lie in (lo, hi), on one copy."""
        if grid.n != 1:
            raise ValueError("from_interval requires n=1")
        c = grid.axis_centers()
        masks = [np.zeros(grid.shape, dtype=bool) for _ in range(grid.copies)]
        masks[copy] = (c > lo) & (c < hi)
        return cls(grid, masks)

    def cell_count(self) -> int:
        return int(sum(m.sum() for m in self.masks))

    def volume(self) -> float:
        return self.grid.cell_volume * self.cell_count()

    def is_empty(self) -> bool:
        return self.cell_count() == 0

    def with_mask(self, copy: int, mask: np.ndarray) -> "MultiIndicator":
        masks = list(self.masks)
        masks[copy] = mask
        return MultiIndicator(self.grid, masks)

    def active_cells(self):
        """Deterministic cell enumeration: list of (copy, flat index), row-major."""
        out = []
        for c, m in enumerate(self.masks):
            out.extend((c, int(f)) for f in np.flatnonzero(m.ravel()))
        return out

    def __eq__(self, other):
        return (isinstance(other, MultiIndicator) and self.grid == other.grid
                and all(np.array_equal(a, b) for a, b in zip(self.masks, other.masks)))


def _touches_boundary(mask: np.ndarray) -> bool:
    if mask.ndim == 1:
        return bool(mask[0] or mask[-1])
    return bool(mask[0, :].any() or mask[-1, :].any()
                or mask[:, 0].any() or mask[:, -1].any())


class LatticeField:
    """A real-valued function on the lattice, zero outside its support mask."""

    def __init__(self, grid: GridSpec, values, support: MultiIndicator | None = None):
        if len(values) != grid.copies:
            raise ValueError(f"need {grid.copies} value arrays, got {len(values)}")
        vals = []
        for v in values:
            v = np.asarray(v, dtype=float)
            if v.shape != grid.shape:
                raise ValueError(f"value shape {v.shape} != grid shape {grid.shape}")
            vals.append(v.copy())
        if support is None:
            support = MultiIndicator(grid, [v != 0 for v in vals])
        else:
            for v, m in zip(vals, support.masks):
                if np.any(v[~m] != 0):
                    raise ValueError("values nonzero outside the support mask")
        self.grid = grid
        self.values = tuple(vals)
        self.support = support
        for v in self.values:
            v.setflags(write=False)

    def norm_sq(self) -> float:
        """Cell-measure weighted squared l2 norm, h^n * sum(u^2)."""
        return self.grid.cell_volume * float(sum((v ** 2).sum() for v in self.values))

    def on_active(self, cells) -> np.ndarray:
        """Values at the given (copy, flat) cell list, in that order."""
        flat = [v.ravel() for v in self.values]
        return np.array([flat[c][f] for c, f in cells])


@dataclass
class ComponentDecomposition:
    """Face-adjacency connected components; each lies inside a single copy."""

    labels: tuple                 # per copy, int array, -1 outside the shape
    count: int
    cells: list = field(default_factory=list)   # per component: (copy, flat array)

    def copy_of(self, comp: int) -> int:
        return self.cells[comp][0]


def connected_components(A: MultiIndicator) -> ComponentDecomposition:
    """Label face-adjacent components in deterministic row-major discovery order."""
    # imported here: loading scipy.ndimage costs every CLI process ~0.1 s
    from scipy.ndimage import label

    labels = []
    cells = []
    for copy, mask in enumerate(A.masks):
        raw, count = label(mask, output=int)   # 1..count in raster-scan order
        labels.append(np.where(raw > 0, raw + (len(cells) - 1), -1))
        if count:
            flat = np.flatnonzero(mask)
            ids = raw.ravel()[flat]
            bounds = np.cumsum(np.bincount(ids)[1:-1])
            groups = np.split(flat[np.argsort(ids, kind="stable")], bounds)
            cells.extend((copy, g) for g in groups)
    return ComponentDecomposition(labels=tuple(labels), count=len(cells),
                                  cells=cells)


def component_signs(decomp: ComponentDecomposition, u: LatticeField,
                    tol: float = 1e-12):
    """Sign of the field on each component: +1, -1, 0, or 'mixed'."""
    out = []
    for copy, flat in decomp.cells:
        vals = u.values[copy].ravel()[flat]
        pos = np.any(vals > tol)
        neg = np.any(vals < -tol)
        if pos and neg:
            out.append("mixed")
        elif pos:
            out.append(1)
        elif neg:
            out.append(-1)
        else:
            out.append(0)
    return out
