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
The beyond-box integral is evaluated exactly per box face (n=1: one term
per side at its own distance; n=2: four half-plane terms minus the four
corner-quadrant overlaps, the corners by fixed-order Gauss-Legendre
quadrature in polar form).  Evaluating the tail at face resolution rather
than collapsing it to the nearest-face distance is what keeps the absolute
spectral and torsion errors at the few-tenths-of-a-percent level the
validation suite pins.

A weight depends only on the offset between two cells, so the operator of a
whole box is Toeplitz (n=1) or block-Toeplitz (n=2).  One offset table and
one per-box-cell diagonal are cached per (grid, kernel), and the matrix of
any shape is gathered from them as a principal submatrix:
Q_pp = 2 (T_p + h^n tail_p), with T_p the weight of p against its whole box,
and Q_pq = -2 w_pq.  Hence e_p = Q_pp - 2 sum_q w_pq.  The same two tables
also apply Q without forming it: the off-diagonal part is a convolution with
w, done by FFT (``form_operator``).  Every torsion solve uses it, and so do
eigensolves of shapes too large for a dense matrix.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
import math

import numpy as np
from numpy.polynomial.legendre import leggauss

from .grid import GridSpec, KernelParams, LatticeField, MultiIndicator

_NEAR_RADIUS = 3   # center distance, in cells, up to which pairs are near
_NSUB = 4          # subcells per axis in near-field quadrature
_GL_NODES = 48     # Gauss-Legendre order for n=2 corner integrals


def _near_offsets(n: int, radius: int):
    """Integer cell offsets with 0 < |delta| <= radius, up to reflection."""
    out = []
    if n == 1:
        for k in range(1, radius + 1):
            out.append((k,))
    else:
        for a in range(0, radius + 1):
            for b in range(0, radius + 1):
                if 0 < a * a + b * b <= radius * radius:
                    out.append((a, b))
    return tuple(out)


@lru_cache(maxsize=None)
def _near_table(n: int, s: float, radius: int):
    """Dimensionless subcell weights G(delta); w = h^{n-2s} G."""
    p = n + 2 * s
    o = (np.arange(_NSUB) + 0.5) / _NSUB - 0.5
    tbl = {}
    if n == 1:
        a, b = np.meshgrid(o, o, indexing="ij")
        for (k,) in _near_offsets(1, radius):
            d = np.abs(k + b - a)
            tbl[(k,)] = float(np.sum(d ** (-p))) / _NSUB ** 2
    else:
        ax, ay, bx, by = np.meshgrid(o, o, o, o, indexing="ij")
        for (dx, dy) in _near_offsets(2, radius):
            d = np.hypot(dx + bx - ax, dy + by - ay)
            tbl[(dx, dy)] = float(np.sum(d ** (-p))) / _NSUB ** 4
    return tbl


# ---------------------------------------------------------------------------
# beyond-box kernel integrals

def _tail_1d(x: np.ndarray, L: float, s: float) -> np.ndarray:
    """int_{|y|>L} |x-y|^{-(1+2s)} dy for points x inside (-L, L)."""
    return ((L - x) ** (-2 * s) + (L + x) ** (-2 * s)) / (2 * s)


def _halfplane_const(s: float) -> float:
    return math.sqrt(math.pi) * math.gamma(s + 0.5) / (2 * s * math.gamma(1 + s))


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


def _tail_2d(pos: np.ndarray, L: float, s: float, corners=None) -> np.ndarray:
    """int over R^2 minus the box [-L,L]^2 of |x-y|^{-(2+2s)} dy, per point.

    ``corners``, if given, are the four corner-quadrant integrals of the
    points, (x-, y-), (x-, y+), (x+, y-), (x+, y+) by the wall pairs they
    leave out; otherwise they are evaluated here.
    """
    gxm = pos[:, 0] + L
    gxp = L - pos[:, 0]
    gym = pos[:, 1] + L
    gyp = L - pos[:, 1]
    c = _halfplane_const(s)
    tot = c * (gxm ** (-2 * s) + gxp ** (-2 * s) + gym ** (-2 * s) + gyp ** (-2 * s))
    if corners is None:
        corners = [_corner_integral(gx, gy, s) for gx in (gxm, gxp) for gy in (gym, gyp)]
    for corner in corners:
        tot -= corner
    return tot


def exterior_tail(pos: np.ndarray, grid: GridSpec, s: float) -> np.ndarray:
    """Beyond-box kernel integral for each cell center in pos (shape (N, n))."""
    if grid.n == 1:
        return _tail_1d(pos[:, 0], grid.L, s)
    return _tail_2d(pos, grid.L, s)


def _box_tail(grid: GridSpec, s: float) -> np.ndarray:
    """``exterior_tail`` at every cell center of the box, in row-major order.

    In 2-D the corner integrals are evaluated once, on the m x m table of
    low-wall distances; a cell's distance to a high wall is the low-wall
    distance of its mirror cell, so the other three corners are the table's
    flips.
    """
    if grid.n == 1:
        return exterior_tail(grid.cell_centers(), grid, s)
    low = grid.axis_centers() + grid.L
    gx, gy = np.meshgrid(low, low, indexing="ij")
    table = _corner_integral(gx.ravel(), gy.ravel(), s).reshape(gx.shape)
    corners = [table, table[:, ::-1], table[::-1, :], table[::-1, ::-1]]
    return _tail_2d(grid.cell_centers(), grid.L, s,
                    [corner.ravel() for corner in corners])


# ---------------------------------------------------------------------------
# assembly

@lru_cache(maxsize=None)
def _box_stencil(grid: GridSpec, kp: KernelParams):
    """Offset weight table and per-box-cell diagonal of Q for one box.

    w[|di|] (n=1) or w[|di|, |dj|] (n=2) is the weight of any two cells of a
    copy that lie that many cells apart; w at offset zero is 0.  diag[f] is
    2 (T_f + h^n tail_f) for box cell f (flat index), with T_f the weight of f
    against every cell of its box, summed over offsets by prefix sums of w.
    """
    m, n, h, R = grid.cells_per_side, grid.n, grid.h, _NEAR_RADIUS
    offsets = np.meshgrid(*[np.arange(m)] * n, indexing="ij")
    r2 = sum(o * o for o in offsets)
    far = r2 > R * R
    w = np.zeros(r2.shape)
    w[far] = h ** (2 * n) * (h * np.sqrt(r2[far])) ** (-kp.exponent)
    scale = h ** (n - 2 * kp.s)
    for off, g in _near_table(n, kp.s, R).items():
        w[off] = w[off[::-1]] = scale * g
    # per axis, cell i sees offsets 0..i on one side and 0..m-1-i on the
    # other; the zero offset is in both prefix sums, so it is taken off once
    T = w
    for axis in range(n):
        C = np.cumsum(T, axis=axis)
        T = C + np.flip(C, axis=axis) - np.take(T, [0], axis=axis)
    tail = grid.cell_volume * _box_tail(grid, kp.s)
    diag = 2.0 * (T.ravel() + tail)
    w.setflags(write=False)
    diag.setflags(write=False)
    return w, diag


@dataclass
class FormOperator:
    """Matrix-free Q of one shape, applied to (N,) vectors or (N, k) blocks.

    Q u = d∘u - 2 P (K ⋆ Pᵀu).  Pᵀ scatters the N values into a stack of
    periodic boxes, one per copy, 2b cells per axis for a shape b cells wide;
    K is the offset table w folded by minimum image onto that box, and ⋆ is
    one batched real FFT over the stack.  Offsets inside the shape stay below
    b, so the periodic convolution is the linear one and P gathers exactly
    the rows of Q.  The same circulant with max(d) on its diagonal, whose
    eigenvalues are ``symbol``, is the preconditioner (T. Chan's optimal
    circulant, SISC 1988, applied to a principal submatrix).
    """

    ids: np.ndarray          # (N,) ascending cell ids, as in FormMatrix
    diagonal: np.ndarray     # (N,) d, the diagonal of Q
    cells: np.ndarray        # (N,) flat index of each cell into the stack
    stack: tuple             # (copies, 2b per axis)
    kernel_hat: np.ndarray   # real half spectrum of K on the periodic box
    symbol: np.ndarray       # max(d) - 2 kernel_hat, positive

    @property
    def size(self) -> int:
        return len(self.ids)

    def _convolve(self, U: np.ndarray, spectrum: np.ndarray) -> np.ndarray:
        X = U.reshape(self.size, -1)
        buf = np.zeros((X.shape[1], math.prod(self.stack)))
        buf[:, self.cells] = X.T
        box = self.stack[1:]
        axes = tuple(range(2, 2 + len(box)))
        Y = np.fft.rfftn(buf.reshape(-1, *self.stack), axes=axes)
        Y *= spectrum
        Y = np.fft.irfftn(Y, s=box, axes=axes)
        return Y.reshape(X.shape[1], -1)[:, self.cells].T.reshape(U.shape)

    def apply(self, U: np.ndarray) -> np.ndarray:
        """Q U."""
        D = self.diagonal.reshape(-1, *(1,) * (U.ndim - 1))
        return D * U - 2.0 * self._convolve(U, self.kernel_hat)

    def precondition(self, R: np.ndarray) -> np.ndarray:
        """P C⁻¹ Pᵀ R, with C the circulant whose eigenvalues are ``symbol``."""
        return self._convolve(R, 1.0 / self.symbol)


def _checked_ids(A: MultiIndicator, kp: KernelParams) -> np.ndarray:
    if kp.n != A.grid.n:
        raise ValueError("kernel and grid dimension disagree")
    if A.is_empty():
        raise ValueError("cannot assemble the form of an empty shape")
    return np.flatnonzero(A.masks)


def form_operator(A: MultiIndicator, kp: KernelParams) -> FormOperator:
    """The shape's Q as an FFT operator; no N x N array is built."""
    ids = _checked_ids(A, kp)
    w, diag = _box_stencil(A.grid, kp)
    copy, *coords = np.unravel_index(ids, A.masks.shape)
    lo = [x.min() for x in coords]
    period = [2 * int(x.max() - x0 + 1) for x, x0 in zip(coords, lo)]
    stack = (A.grid.copies, *period)
    cells = np.ravel_multi_index(
        (copy, *(x - x0 for x, x0 in zip(coords, lo))), stack)
    # b <= m - 2 for a shape inside the box, so offsets up to b are in w
    fold = [np.minimum(np.arange(p), p - np.arange(p)) for p in period]
    # K is real and even, so its spectrum is real
    kernel_hat = np.fft.rfftn(w[np.ix_(*fold)]).real
    d = diag[ids % A.grid.box_size]
    symbol = d.max() - 2.0 * kernel_hat
    if not symbol.min() > 0:
        raise RuntimeError(f"circulant preconditioner symbol {symbol.min():.2e} "
                           "is not positive")
    return FormOperator(ids=ids, diagonal=d, cells=cells, stack=stack,
                        kernel_hat=kernel_hat, symbol=symbol)


@dataclass
class FormMatrix:
    """Assembled quadratic form over the active cells of one shape."""

    grid: GridSpec
    kp: KernelParams
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


def assemble_form(A: MultiIndicator, kp: KernelParams) -> FormMatrix:
    """Gather the shape's Q as a principal submatrix of the box operator."""
    grid = A.grid
    ids = _checked_ids(A, kp)
    w, diag = _box_stencil(grid, kp)

    N = len(ids)
    Q = np.zeros((N, N))
    lo = 0
    for mask in A.masks:
        # per axis |coordinate difference|, folded into a flat index of w;
        # intp and in place, so np.take makes no index copy
        offset = None
        for x in np.nonzero(mask):         # row-major, as in the cell ids
            d = np.subtract.outer(x, x)
            np.abs(d, out=d)
            if offset is None:
                offset = d
            else:
                offset *= w.shape[0]
                offset += d
        hi = lo + int(mask.sum())
        block = Q[lo:hi, lo:hi]
        np.take(w, offset, out=block, mode="clip")
        block *= -2.0
        lo = hi
    np.fill_diagonal(Q, diag[ids % grid.box_size])
    return FormMatrix(grid=grid, kp=kp, ids=ids, quadratic_matrix=Q)


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


def _rows_of(F: FormMatrix, ids) -> np.ndarray:
    """Sorted rows of F holding the cell ids ``ids``, duplicates kept."""
    ids = np.sort(np.asarray(ids, dtype=int))
    rows = np.searchsorted(F.ids, ids)
    missing = F.ids[np.minimum(rows, F.size - 1)] != ids
    if missing.any():
        raise ValueError(f"cell {ids[missing][0]} is not in the assembled shape")
    return rows


def energy_decomposition(F: FormMatrix, u: LatticeField, A1, A2) -> EnergyDecomposition:
    """Split B[u,u] by membership of each integration variable in A1, A2, or
    the exterior region; A1 and A2 are sequences of cell ids that must not
    overlap and must carry all of u."""
    r1 = _rows_of(F, A1)
    r2 = _rows_of(F, A2)
    if np.intersect1d(r1, r2).size:
        raise ValueError("the two cell groups overlap")
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
    sequences of cell ids."""
    r1 = _rows_of(F, A1)
    r2 = _rows_of(F, A2)
    if np.intersect1d(r1, r2).size:
        raise ValueError("the two cell groups overlap")
    if r1.size == 0 or r2.size == 0:
        return 0.0
    uv = F.field_vector(u)
    # r1 and r2 are disjoint, so the block holds no diagonal entry of Q
    W12 = -0.5 * F.quadratic_matrix[np.ix_(r1, r2)]
    return -4.0 * float(uv[r1] @ W12 @ uv[r2])
