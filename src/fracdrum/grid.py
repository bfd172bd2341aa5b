"""Lattice geometry shared by every other module.

A computational domain lives on k disjoint copies of the box [-L, L]^n,
discretized into cells of side h with centers at -L + (i + 1/2) h.  Points
in different copies are at infinite distance from each other, so every
kernel weight between copies is exactly zero.  Shapes are boolean masks
over the cells, stacked as one (copies, *box) array; fields are real arrays
of the same shape supported on such masks.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache, cached_property
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
        if not _is_int(self.n) or self.n not in (1, 2):
            raise ValueError(f"'n' must be 1 or 2, got {self.n!r}")
        if not self.h > 0:
            raise ValueError(f"'h' must be positive, got {self.h}")
        ratio = self.L / self.h
        if (not math.isfinite(ratio) or abs(ratio - round(ratio)) > 1e-9 * max(1.0, ratio)
                or round(ratio) < 1):
            raise ValueError(f"'L'/'h' must be a positive integer, got {ratio}")
        if not _is_int(self.copies) or self.copies < 1:
            raise ValueError(f"'copies' must be an integer >= 1, got {self.copies!r}")

    # computed once per grid: the annealer reads these on every proposal
    @cached_property
    def cells_per_side(self) -> int:
        return 2 * int(round(self.L / self.h))

    @cached_property
    def shape(self) -> tuple:
        return (self.cells_per_side,) * self.n

    @property
    def box_size(self) -> int:
        """Cells in one copy's box."""
        return self.cells_per_side ** self.n

    @property
    def cell_volume(self) -> float:
        return self.h ** self.n

    def axis_centers(self) -> np.ndarray:
        """Cell-center coordinates along one axis."""
        m = self.cells_per_side
        return -self.L + (np.arange(m) + 0.5) * self.h

    def cell_centers(self) -> np.ndarray:
        """Array of all cell centers, shape (#cells, n), row-major order."""
        axes = np.meshgrid(*[self.axis_centers()] * self.n, indexing="ij")
        return np.column_stack([x.ravel() for x in axes])

    def interior(self) -> np.ndarray:
        """Read-only box mask of the cells strictly inside the box."""
        return _box_masks(self.shape)[0]

    def copy_index(self, copy) -> int:
        """``copy``, checked to number one of the grid's copies."""
        if not _is_int(copy) or copy not in range(self.copies):
            raise ValueError(f"'copy' must be an integer in 0..{self.copies - 1}, "
                             f"got {copy!r}")
        return copy


def _is_int(x) -> bool:
    """A Python or numpy int, not a bool."""
    return isinstance(x, (int, np.integer)) and not isinstance(x, bool)


@cache
def _box_masks(shape: tuple) -> tuple:
    """Read-only (interior, boundary) masks of a box, built once per shape."""
    interior = np.zeros(shape, dtype=bool)
    interior[(slice(1, -1),) * len(shape)] = True
    boundary = ~interior
    interior.setflags(write=False)
    boundary.setflags(write=False)
    return interior, boundary


@dataclass(frozen=True)
class KernelParams:
    """Interaction kernel |x-y|^{-(n+2s)} with the cross-copy zero convention.

    Energies built from this kernel are reported in bare seminorm units:
    the kernel carries no multiplicative constant.
    """

    n: int
    s: float

    def __post_init__(self):
        if not 0 < self.s < 1:
            raise ValueError(f"s must lie in (0,1), got {self.s}")
        if self.n not in (1, 2):
            raise ValueError(f"n must be 1 or 2, got {self.n}")

    @property
    def exponent(self) -> float:
        return self.n + 2 * self.s


class MultiIndicator:
    """A shape: one read-only boolean array of shape (copies, *box), all true
    cells strictly inside the box.  A cell's id is its flat index into the
    array, so ids run copy-major, row-major within a copy.  Since the masks
    never change, ``components`` labels the shape once, on first use."""

    def __init__(self, grid: GridSpec, masks):
        self.grid = grid
        self.masks = _stack(grid, masks, bool, "masks", "mask")
        if (self.masks & _box_masks(grid.shape)[1]).any():
            raise ValueError("mask touches the box boundary")

    @classmethod
    def _adopt(cls, grid: GridSpec, masks: np.ndarray) -> "MultiIndicator":
        """The shape of ``masks``, a new (copies, *box) bool array already
        known to fit ``grid`` with no cell on the box boundary: it is kept
        and made read-only, not copied and checked."""
        A = cls.__new__(cls)
        A.grid = grid
        masks.setflags(write=False)
        A.masks = masks
        return A

    @classmethod
    def empty(cls, grid: GridSpec) -> "MultiIndicator":
        return cls(grid, np.zeros((grid.copies, *grid.shape), dtype=bool))

    @classmethod
    def from_interval(cls, grid: GridSpec, lo: float, hi: float, copy: int = 0):
        """n=1 helper: all cells whose centers lie in (lo, hi), on one copy."""
        if grid.n != 1:
            raise ValueError("from_interval requires n=1")
        c = grid.axis_centers()
        masks = np.zeros((grid.copies, *grid.shape), dtype=bool)
        masks[grid.copy_index(copy)] = (c > lo) & (c < hi)
        return cls(grid, masks)

    def cell_count(self) -> int:
        return int(np.count_nonzero(self.masks))

    def volume(self) -> float:
        return self.grid.cell_volume * self.cell_count()

    def is_empty(self) -> bool:
        return self.cell_count() == 0

    def field(self, vec) -> "LatticeField":
        """The field taking the values ``vec``, in id order, on the active
        cells and zero elsewhere."""
        values = np.zeros(self.masks.shape)
        values[self.masks] = vec
        return LatticeField(self.grid, values)

    @cached_property
    def components(self) -> "ComponentDecomposition":
        """The face-adjacency components, from one ``connected_components``."""
        return connected_components(self)

    def __eq__(self, other):
        return (isinstance(other, MultiIndicator) and self.grid == other.grid
                and np.array_equal(self.masks, other.masks))


def _stack(grid: GridSpec, arrays, dtype, plural: str, single: str) -> np.ndarray:
    """One read-only (copies, *box) array from a sequence of per-copy arrays."""
    if len(arrays) != grid.copies:
        raise ValueError(f"need {grid.copies} {plural}, got {len(arrays)}")
    if isinstance(arrays, np.ndarray) and arrays.shape[1:] == grid.shape:
        bad = None
    else:
        bad = next((np.shape(a) for a in arrays if np.shape(a) != grid.shape), None)
    if bad is not None:
        raise ValueError(f"{single} shape {bad} != grid shape {grid.shape}")
    out = np.array(arrays, dtype=dtype)
    out.setflags(write=False)
    return out


def _open_face(masks: np.ndarray) -> np.ndarray:
    """Cells with at least one face neighbor, in their own copy, outside
    ``masks``; the outside of the box counts as outside."""
    out = np.zeros_like(masks)
    off = ~masks
    for axis in range(1, masks.ndim):
        o, f = out.swapaxes(1, axis), off.swapaxes(1, axis)
        o[:, 1:] |= f[:, :-1]
        o[:, :-1] |= f[:, 1:]
        o[:, 0] = o[:, -1] = True
    return out


class LatticeField:
    """A real-valued function on the lattice, zero outside its support mask;
    ``values`` is one read-only float array of shape (copies, *box)."""

    def __init__(self, grid: GridSpec, values):
        self.grid = grid
        self.values = _stack(grid, values, float, "value arrays", "value")
        if not np.isfinite(self.values).all():
            raise ValueError("field values must be finite")
        self.support = MultiIndicator(grid, self.values != 0)

    def norm_sq(self) -> float:
        """Cell-measure weighted squared l2 norm, h^n * sum(u^2)."""
        # one sum per copy: a single sum over the stack rounds differently
        return self.grid.cell_volume * float(sum((v ** 2).sum() for v in self.values))


@dataclass
class ComponentDecomposition:
    """Face-adjacency connected components; each lies inside a single copy.

    Components are numbered in order of their first cell id.  ``index`` is
    all that labelling computes; the per-cell ``labels`` array and the
    per-component ``cells`` are built from it on first read."""

    ids: np.ndarray               # (N,) the shape's cell ids, ascending
    index: np.ndarray             # (N,) the component of each of those cells
    count: int
    shape: tuple                  # (copies, *box)

    @cached_property
    def labels(self) -> np.ndarray:
        """Read-only (copies, *box) int array, -1 outside the shape."""
        labels = np.full(self.shape, -1)
        labels.ravel()[self.ids] = self.index
        labels.setflags(write=False)
        return labels

    @cached_property
    def cells(self) -> list:
        """Per component, its cell ids ascending."""
        order = np.argsort(self.index, kind="stable")
        bounds = np.searchsorted(self.index[order],
                                 np.arange(self.count + 1)).tolist()
        members = self.ids[order]
        return [members[a:b] for a, b in zip(bounds[:-1], bounds[1:])]


def connected_components(A: MultiIndicator) -> ComponentDecomposition:
    """Label face-adjacent components, numbered in order of their first cell id.

    A run of consecutive cell ids is a piece of one row along the last axis:
    box-boundary cells are never in a shape, so no run crosses a row end.
    In 1-D the runs are the components.  In 2-D two runs join when a cell of
    one has the cell a row below it in the other, and each run takes the
    smallest run id it is joined to (union-find over the distinct joined
    pairs).
    """
    on = A.masks.ravel()
    ids = on.nonzero()[0]
    first = np.ones(ids.size, dtype=bool)       # first cell of its run
    first[1:] = ids[1:] - ids[:-1] != 1
    run = first.cumsum() - 1
    index, count = run, int(np.count_nonzero(first))
    if A.grid.n == 2 and count:
        m = A.grid.cells_per_side
        # the last row of a copy is boundary, so no pair spans two copies
        upper = np.flatnonzero(on[:-m] & on[m:])
        run_of = np.empty(on.size, dtype=run.dtype)
        run_of[ids] = run
        above, below = run_of[upper], run_of[upper + m]
        # along ascending cells neither run id falls, so a repeated pair
        # follows its first occurrence
        new = np.empty(upper.size, dtype=bool)
        new[:1] = True
        new[1:] = (above[1:] != above[:-1]) | (below[1:] != below[:-1])
        root = list(range(count))

        def find(r):
            while root[r] != r:
                root[r] = r = root[root[r]]
            return r
        for a, b in zip(above[new].tolist(), below[new].tolist()):
            a, b = find(a), find(b)
            if a != b:
                root[max(a, b)] = min(a, b)
        root = np.array([find(r) for r in range(count)])
        # runs are in first-id order, so roots ranked ascending number the
        # components by their first cell
        is_root = root == np.arange(count)
        index = (np.cumsum(is_root) - 1)[root][run]
        count = int(np.count_nonzero(is_root))
    return ComponentDecomposition(ids=ids, index=index, count=count,
                                  shape=A.masks.shape)


def component_signs(decomp: ComponentDecomposition, u: LatticeField):
    """Sign of the field on each component: +1, -1, 0, or 'mixed'; values
    within 1e-12 max|u| of zero count as zero, so scaling u changes nothing."""
    out = []
    flat = u.values.ravel()
    thr = 1e-12 * float(np.abs(flat).max(initial=0.0))
    for ids in decomp.cells:
        vals = flat[ids]
        pos = np.any(vals > thr)
        neg = np.any(vals < -thr)
        if pos and neg:
            out.append("mixed")
        elif pos:
            out.append(1)
        elif neg:
            out.append(-1)
        else:
            out.append(0)
    return out
