"""Discrete quadratic form of the nonlocal kernel energy.

For a field u that is piecewise constant on active cells p with values u_p,
the energy is

    B[u,u] = sum_{p != q} w_pq (u_p - u_q)^2  +  sum_p e_p u_p^2,

where the first sum runs over ordered pairs of active cells.  w_pq is the
cell-pair kernel weight: the midpoint rule h^{2n} |x_p - x_q|^{-(n+2s)} for
pairs more than 3 cells apart (_NEAR_RADIUS), and 4-per-axis subcell
midpoint quadrature for near pairs, whose error would otherwise dominate.
Pairs in different copies get weight exactly 0, and the same-cell weight is
0 because a piecewise-constant field has no within-cell increment.

e_p collects the interaction of cell p with the zero exterior, both
integration orders combined: twice the lattice sum over box cells outside
the shape plus twice the closed-form integral of the kernel beyond the box.
That integral is evaluated in one place, ``_box_tail``, once per box, at
every cell center and exactly per box face (n=1: one term per side; n=2:
four half-plane terms minus the four corner quadrants, from one table of
fixed-order Gauss-Legendre quadratures in polar form, mirrored).  The table
is evaluated in chunks of _TAIL_CHUNK cells, so a 2-D stencil build holds
O(m^2) floats for a box of m cells per side and (_TAIL_CHUNK, 48)
quadrature temporaries, never (m^2, 48) ones: its peak was 10 MiB at
m = 256 and 40 MiB at m = 512.  A tail at face resolution, not collapsed
to the nearest-face distance, keeps the absolute spectral and torsion
errors at the few-tenths-of-a-percent level the validation suite pins.

A weight depends only on the offset between two cells, so the operator of a
whole box is Toeplitz (n=1) or block-Toeplitz (n=2).  One table of Q's
off-diagonal by signed offset and one per-box-cell diagonal are cached per
(grid, kernel), and the matrix of any shape is gathered from them as a
principal submatrix: Q_pp = 2 (T_p + h^n tail_p), with T_p the weight of p
against its whole box, and Q_pq = -2 w_pq.  Hence e_p = Q_pp - 2 sum_q w_pq.
Assembly indexes the table by one subtraction of the two cells' keys.  The
same two tables also apply Q without forming it: the off-diagonal part is a
convolution with the table, done by FFT (``form_operator``).  Every torsion
solve uses it, and so do eigensolves of shapes too large for a dense matrix.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache
import itertools
import math

import numpy as np
from numpy.polynomial.legendre import leggauss

from .grid import GridSpec, KernelParams, LatticeField, MultiIndicator

_NEAR_RADIUS = 3   # center distance, in cells, up to which pairs are near
_NSUB = 4          # subcells per axis in near-field quadrature
_GL_NODES = 48     # Gauss-Legendre order for n=2 corner integrals
_TAIL_CHUNK = 2048  # box cells per n=2 corner-integral call: its (chunk, 48)
                    # temporaries stay a few MiB at any box size


# ---------------------------------------------------------------------------
# beyond-box kernel integrals

def _corner_integral(gx: np.ndarray, gy: np.ndarray, s: float) -> np.ndarray:
    """int over the quadrant {t > gx, u > gy} of (t^2+u^2)^{-(1+s)}.

    Polar form: (2s)^{-1} int_0^{pi/2} min(cos(phi)/gx, sin(phi)/gy)^{2s} dphi,
    split at the corner angle so both pieces are smooth.
    """
    nodes, weights = leggauss(_GL_NODES)
    phic = np.arctan2(gy, gx)
    out = np.zeros_like(gx, dtype=float)
    # piece 1: phi in (0, phic), radial cutoff set by the u > gy face
    half = 0.5 * phic
    phi1 = half[:, None] * nodes[None, :] + half[:, None]
    out += half * np.sum(weights[None, :] * (np.sin(phi1) / gy[:, None]) ** (2 * s),
                         axis=1)
    # piece 2: phi in (phic, pi/2), cutoff set by the t > gx face
    half2 = 0.5 * (math.pi / 2 - phic)
    mid2 = 0.5 * (math.pi / 2 + phic)
    phi2 = half2[:, None] * nodes[None, :] + mid2[:, None]
    out += half2 * np.sum(weights[None, :] * (np.cos(phi2) / gx[:, None]) ** (2 * s),
                          axis=1)
    return out / (2 * s)


def _box_tail(grid: GridSpec, s: float) -> np.ndarray:
    """int over R^n minus the box of |x-y|^{-(n+2s)} dy at every cell center
    x of the box, in row-major order.

    n=1: one closed-form term per wall.  n=2: four half-plane terms minus
    the four corner quadrants.  The corner integrals are evaluated once, on
    the m x m table of low-wall distances; a cell's distance to a high wall
    is the low-wall distance of its mirror cell, so the other three corners
    are the table's flips.
    """
    x = grid.axis_centers()
    low = x + grid.L
    lo, hi = low ** (-2 * s), (grid.L - x) ** (-2 * s)
    if grid.n == 1:
        return (hi + lo) / (2 * s)
    halfplane = math.sqrt(math.pi) * math.gamma(s + 0.5) / (2 * s * math.gamma(1 + s))
    # x walls, then y walls: the summation order the frozen form digests pin
    tot = halfplane * ((lo + hi)[:, None] + lo[None, :] + hi[None, :])
    gx, gy = (g.ravel() for g in np.meshgrid(low, low, indexing="ij"))
    # each point's quadrature is a sum along its own row, so chunking keeps
    # every bit
    table = np.empty(gx.size)
    for i in range(0, gx.size, _TAIL_CHUNK):
        part = slice(i, i + _TAIL_CHUNK)
        table[part] = _corner_integral(gx[part], gy[part], s)
    table = table.reshape(len(x), len(x))
    for corner in (table, table[:, ::-1], table[::-1, :], table[::-1, ::-1]):
        tot -= corner
    return tot.ravel()


# ---------------------------------------------------------------------------
# assembly

@lru_cache(maxsize=None)
def _box_stencil(grid: GridSpec, kp: KernelParams):
    """Off-diagonal table and per-box-cell diagonal of Q for one box.

    ``table`` holds Q's off-diagonal entry -2 w_pq by the signed offset d of
    the two cells: entry ``c + sum_a d_a (2m - 1)^(n-1-a)``, with c the entry
    of d = 0 (the middle one), so the entry of two cells is found by
    subtracting their keys, their coordinates read as digits in base 2m - 1.
    A zero pads the table at each end, before the first offset and after the
    last, for pairs that are in no box together (``assemble_form``).
    diag[f] is 2 (T_f + h^n tail_f) for box cell f (flat index), with T_f the
    weight of f against every cell of its box, summed over offsets by prefix
    sums of w, and w at offset zero is 0.
    """
    m, n, h, R = grid.cells_per_side, grid.n, grid.h, _NEAR_RADIUS
    offsets = np.meshgrid(*[np.arange(m)] * n, indexing="ij")
    r2 = sum(o * o for o in offsets)
    far = r2 > R * R
    w = np.zeros(r2.shape)
    w[far] = h ** (2 * n) * (h * np.sqrt(r2[far])) ** (-kp.exponent)
    # near pairs: the subcell midpoint rule, subcell a of one cell against
    # subcell b of the other, axes a_1..a_n then b_1..b_n
    sub = (np.arange(_NSUB) + 0.5) / _NSUB - 0.5
    grids = np.meshgrid(*[sub] * (2 * n), indexing="ij")
    scale = h ** (n - 2 * kp.s)
    for off in itertools.product(range(R + 1), repeat=n):
        if 0 < sum(k * k for k in off) <= R * R:
            d = np.hypot.reduce([np.abs(k + b - a)
                                 for k, a, b in zip(off, grids[:n], grids[n:])])
            g = float(np.sum(d ** (-kp.exponent))) / _NSUB ** (2 * n)
            w[off] = w[off[::-1]] = scale * g
    # per axis, cell i sees offsets 0..i on one side and 0..m-1-i on the
    # other; the zero offset is in both prefix sums, so it is taken off once
    T = w
    for axis in range(n):
        C = np.cumsum(T, axis=axis)
        T = C + np.flip(C, axis=axis) - np.take(T, [0], axis=axis)
    tail = grid.cell_volume * _box_tail(grid, kp.s)
    diag = 2.0 * (T.ravel() + tail)
    # every solver reads Q through these two tables, so this one check keeps
    # non-finite entries out of them all
    if not (np.isfinite(w).all() and np.isfinite(diag).all()):
        raise RuntimeError(f"the form on {grid} with {kp} has non-finite "
                           "entries: the grid's scale is out of floating-point "
                           "range")
    fold = np.abs(np.arange(1 - m, m))
    table = np.zeros((2 * m - 1) ** n + 2)
    table[1:-1] = -2.0 * w[np.ix_(*[fold] * n)].ravel()
    table.setflags(write=False)
    diag.setflags(write=False)
    return table, diag


@dataclass
class FormOperator:
    """Matrix-free Q of one shape, applied to (N,) vectors or (N, k) blocks.

    Q u = d∘u + P (K ⋆ Pᵀu).  Pᵀ scatters the N values into a stack of
    periodic boxes, one per copy, 2b cells per axis for a shape b cells wide;
    K is Q's off-diagonal table, -2 w, folded by minimum image onto that box,
    and ⋆ is one batched real FFT over the stack.  Offsets inside the shape
    stay below b, so the periodic convolution is the linear one and P gathers
    exactly the rows of Q.  The same circulant with max(d) on its diagonal,
    whose eigenvalues are ``symbol``, is the preconditioner (T. Chan's optimal
    circulant, SISC 1988, applied to a principal submatrix).
    """

    ids: np.ndarray          # (N,) ascending cell ids, as in FormMatrix
    diagonal: np.ndarray     # (N,) d, the diagonal of Q
    cells: np.ndarray        # (N,) flat index of each cell into the stack
    stack: tuple             # (copies, 2b per axis)
    kernel_hat: np.ndarray   # real half spectrum of K on the periodic box
    symbol: np.ndarray       # max(d) + kernel_hat, positive

    @property
    def size(self) -> int:
        return len(self.ids)

    def _convolve(self, U: np.ndarray, spectrum: np.ndarray) -> np.ndarray:
        X = U.reshape(self.size, -1)
        buf = np.zeros((X.shape[1], math.prod(self.stack)))
        buf[:, self.cells] = X.T
        box = self.stack[1:]
        axes = tuple(range(2, 2 + len(box)))
        # one name for the scatter box and its transforms, so that each is
        # freed as the next is made
        buf = np.fft.rfftn(buf.reshape(-1, *self.stack), axes=axes)
        buf *= spectrum
        buf = np.fft.irfftn(buf, s=box, axes=axes)
        return buf.reshape(X.shape[1], -1)[:, self.cells].T.reshape(U.shape)

    def apply(self, U: np.ndarray) -> np.ndarray:
        """Q U."""
        D = self.diagonal.reshape(-1, *(1,) * (U.ndim - 1))
        return D * U + self._convolve(U, self.kernel_hat)

    @cached_property
    def _inverse_symbol(self) -> np.ndarray:
        return 1.0 / self.symbol

    def precondition(self, R: np.ndarray) -> np.ndarray:
        """P C⁻¹ Pᵀ R, with C the circulant whose eigenvalues are ``symbol``."""
        return self._convolve(R, self._inverse_symbol)


def _checked_ids(A: MultiIndicator, kp: KernelParams) -> np.ndarray:
    if kp.n != A.grid.n:
        raise ValueError("kernel and grid dimension disagree")
    if A.is_empty():
        raise ValueError("cannot assemble the form of an empty shape")
    return np.flatnonzero(A.masks)


def form_operator(A: MultiIndicator, kp: KernelParams) -> FormOperator:
    """The shape's Q as an FFT operator; no N x N array is built."""
    ids = _checked_ids(A, kp)
    table, diag = _box_stencil(A.grid, kp)
    m = A.grid.cells_per_side
    copy, *coords = np.unravel_index(ids, A.masks.shape)
    lo = [x.min() for x in coords]
    period = [2 * int(x.max() - x0 + 1) for x, x0 in zip(coords, lo)]
    stack = (A.grid.copies, *period)
    cells = np.ravel_multi_index(
        (copy, *(x - x0 for x, x0 in zip(coords, lo))), stack)
    # b <= m - 2 for a shape inside the box, so offsets up to b are in the
    # table, whose entry of offset d sits at d + m - 1 along each axis
    fold = [np.minimum(np.arange(p), p - np.arange(p)) + m - 1 for p in period]
    # K is real and even, so its spectrum is real
    K = table[1:-1].reshape((2 * m - 1,) * A.grid.n)[np.ix_(*fold)]
    kernel_hat = np.fft.rfftn(K).real
    d = diag[ids % A.grid.box_size]
    symbol = d.max() + kernel_hat
    if not symbol.min() > 0:
        raise RuntimeError(f"circulant preconditioner symbol {symbol.min():.2e} "
                           "is not positive")
    return FormOperator(ids=ids, diagonal=d, cells=cells, stack=stack,
                        kernel_hat=kernel_hat, symbol=symbol)


@dataclass
class FormMatrix:
    """Assembled quadratic form over the active cells of one shape."""

    grid: GridSpec
    ids: np.ndarray               # (N,) ascending flat indices into (copies, *box)
    quadratic_matrix: np.ndarray  # (N, N) Q with u^T Q u = B[u,u]

    @property
    def size(self) -> int:
        return len(self.ids)

    @property
    def positions(self) -> np.ndarray:
        """(N, n) cell centers."""
        return self.grid.cell_centers()[self.ids % self.grid.box_size]

    @property
    def weights(self) -> np.ndarray:
        """(N, N) symmetric pair weights w_pq, zero diagonal and across copies."""
        W = -0.5 * self.quadratic_matrix
        np.fill_diagonal(W, 0.0)
        return W

    @property
    def exterior(self) -> np.ndarray:
        """(N,) exterior coefficients e_p = Q_pp - 2 sum_q w_pq."""
        return np.diag(self.quadratic_matrix) - 2.0 * self.weights.sum(axis=1)

    def field_vector(self, u: LatticeField) -> np.ndarray:
        """Active-cell value vector of u; errors if u lives outside the shape."""
        inside = u.support.masks.ravel()[self.ids]
        if np.count_nonzero(inside) != u.support.cell_count():
            raise ValueError("field support leaves the assembled shape")
        return np.where(inside, u.values.ravel()[self.ids], 0.0)


@lru_cache(maxsize=None)
def _cell_keys(grid: GridSpec) -> np.ndarray:
    """Per cell id, its key into ``_box_stencil``'s padded table.

    Within a box the key of flat index x m + y (n = 2) or y (n = 1) reads its
    coordinates in base 2m - 1.  Each copy adds the padded table's length, so
    the keys of two cells in different copies differ by more than any offset
    and their clipped gather lands on a padding zero."""
    m = grid.cells_per_side
    copy, flats = np.divmod(np.arange(grid.copies * grid.box_size), grid.box_size)
    keys = flats + flats // m * (m - 1) + copy * ((2 * m - 1) ** grid.n + 2)
    keys.setflags(write=False)
    return keys


def assemble_form(A: MultiIndicator, kp: KernelParams) -> FormMatrix:
    """Gather the shape's Q as a principal submatrix of the box operator."""
    grid = A.grid
    ids = _checked_ids(A, kp)
    table, diag = _box_stencil(grid, kp)
    keys = _cell_keys(grid)[ids]
    Q = np.take(table, np.subtract.outer(keys + len(table) // 2, keys), mode="clip")
    np.fill_diagonal(Q, diag[ids % grid.box_size])
    return FormMatrix(grid=grid, ids=ids, quadratic_matrix=Q)


# ---------------------------------------------------------------------------
# evaluation

def bilinear(F: FormMatrix, u: LatticeField, v: LatticeField) -> float:
    """Symmetric bilinear energy pairing of two fields on F's shape."""
    uv = F.field_vector(u)
    vv = F.field_vector(v)
    return float(uv @ F.quadratic_matrix @ vv)


def rayleigh(F: FormMatrix, u: LatticeField) -> float:
    """Energy over cell-measure weighted mass, scale invariant in u."""
    uv = F.field_vector(u)
    mass = F.grid.cell_volume * float(uv @ uv)
    if mass == 0:
        raise ValueError("Rayleigh quotient of the zero field")
    return float(uv @ F.quadratic_matrix @ uv) / mass


@dataclass
class EnergyDecomposition:
    """Energy split over two labeled cell groups and the shared exterior.

    parts holds the double-sum pieces keyed by region pair; they add up to
    the total energy.  cross_term is the interaction part alone, the piece
    that moves when one group is translated, with both integration orders
    combined:  -4 sum_{p in first, q in second} w_pq u_p u_q.
    """

    parts: dict
    cross_term: float

    @property
    def total(self) -> float:
        return float(sum(self.parts.values()))


def _distinct(ids) -> np.ndarray:
    """The cell ids ``ids``, sorted; a cell listed twice would count twice."""
    ids = np.sort(np.asarray(ids, dtype=int))
    twice = ids[1:][ids[1:] == ids[:-1]]
    if twice.size:
        raise ValueError(f"cell {twice[0]} is listed more than once")
    return ids


def _rows_of(F: FormMatrix, A1, A2) -> list:
    """Sorted rows of F holding each of two disjoint groups of cell ids."""
    rows = []
    for ids in (_distinct(A1), _distinct(A2)):
        r = np.searchsorted(F.ids, ids)
        missing = F.ids[np.minimum(r, F.size - 1)] != ids
        if missing.any():
            raise ValueError(f"cell {ids[missing][0]} is not in the assembled shape")
        rows.append(r)
    if np.intersect1d(*rows).size:
        raise ValueError("the two cell groups overlap")
    return rows


def energy_decomposition(F: FormMatrix, u: LatticeField, A1, A2) -> EnergyDecomposition:
    """Split B[u,u] by membership of each integration variable in A1, A2, or
    the exterior region; A1 and A2 are sequences of distinct cell ids that
    must not overlap and must carry all of u."""
    r1, r2 = _rows_of(F, A1, A2)
    uv = F.field_vector(u)
    groups = np.union1d(r1, r2)
    rest = np.setdiff1d(np.arange(F.size), groups)
    if np.any(uv[rest] != 0):
        raise ValueError("the two cell groups do not carry the whole field")

    # blocks of Q only; off its diagonal Q_pq = -2 w_pq
    Q = F.quadratic_matrix
    u1, u2 = uv[r1], uv[r2]

    def intra(rows, vals):
        # the diagonal of the block meets a zero increment and adds nothing
        blk = -0.5 * Q[np.ix_(rows, rows)]
        d = vals[:, None] - vals[None, :]
        return float(np.sum(blk * d * d))

    blk12 = -0.5 * Q[np.ix_(r1, r2)]
    d12 = u1[:, None] - u2[None, :]
    pair12 = 2.0 * float(np.sum(blk12 * d12 * d12))
    cross = -4.0 * float(u1 @ blk12 @ u2)

    # the exterior each group sees, zero-valued active cells included:
    # e_p + 2 sum_{q in rest} w_pq, and e_p = sum_q Q_pq, so the row sum of
    # Q over the two groups
    def ext(rows, vals):
        return float(np.sum(Q[np.ix_(rows, groups)].sum(axis=1) * vals * vals))

    parts = {
        ("A1", "A1"): intra(r1, u1),
        ("A2", "A2"): intra(r2, u2),
        ("ext", "ext"): 0.0,
        ("A1", "A2"): pair12,
        ("A1", "ext"): ext(r1, u1),
        ("A2", "ext"): ext(r2, u2),
    }
    return EnergyDecomposition(parts=parts, cross_term=cross)


def interaction_energy(F: FormMatrix, u: LatticeField, A1, A2) -> float:
    """The translation-sensitive interaction piece alone; A1 and A2 are
    sequences of distinct cell ids."""
    r1, r2 = _rows_of(F, A1, A2)
    if r1.size == 0 or r2.size == 0:
        return 0.0
    uv = F.field_vector(u)
    # r1 and r2 are disjoint, so the block holds no diagonal entry of Q
    W12 = -0.5 * F.quadratic_matrix[np.ix_(r1, r2)]
    return -4.0 * float(uv[r1] @ W12 @ uv[r2])
