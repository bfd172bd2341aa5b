"""Degenerate-elliptic extension into the upper half plane and the Weiss
quantity built from it.

The trace lives on a 1-d cell grid at y = 0; the extended field solves
div(y^a grad v) = 0 on [-L, L] x (0, H] with a = 1 - 2s, zero on the far
sides and top.  Edge conductances integrate the weight exactly across each
band (horizontal edges) or invert the exact resistance integral (vertical
edges), which is what keeps the trace energy honest down to the first row:
midpoint-weight conductances misprice the singular bottom band by tens of
percent at the extreme exponents.  Horizontal conductances depend only on
the row, so the five-point operator separates: a DST-II along x leaves one
tridiagonal system in y per mode, solved a quarter of the modes per call.

The Weiss quantity combines the weighted Dirichlet bulk on a half ball
(even reflection doubles it), the length of the trace support inside the
thin ball, and a weighted sphere average, with scaling powers chosen so the
exact homogeneous profile makes it constant in the radius.

Full-size arrays: the solve keeps the field; the band, right side and
LAPACK's copies of both are held for a quarter of the modes at a time, and
the residual's fluxes for one axis at a time.  In the quadrature only the
weighted gradient density has a value per bulk subpoint; coordinates and
gradients are factors broadcast over the axes they depend on.
"""

from __future__ import annotations

from dataclasses import dataclass
import math

import numpy as np
from scipy.linalg import solve_banded

_NSUB = 4              # bulk quadrature subpoints per axis
_SPHERE_NODES = 360


def equivalence_constant(n: int, s: float) -> float:
    """Ratio of the doubled extension energy to the pairwise double sum."""
    if not 0 < s < 1:
        raise ValueError("smoothness index must lie in (0, 1)")
    return 2.0 * s * math.gamma(n / 2 + s) / (math.pi ** (n / 2) * math.gamma(s))


@dataclass(frozen=True)
class ExtensionGrid:
    """Tensor grid for the upper half plane: x-nodes at cell centers of
    [-L, L], y-rows at (j + 1/2) hy up to height H."""
    hx: float
    hy: float
    L: float
    H: float

    def __post_init__(self):
        if self.hx <= 0 or self.hy <= 0:
            raise ValueError("spacings must be positive")
        for extent, step, name in ((2 * self.L, self.hx, "2L/hx"),
                                   (self.H, self.hy, "H/hy")):
            ratio = extent / step
            if not math.isfinite(ratio) or abs(ratio - round(ratio)) > 1e-9 \
                    or round(ratio) < 1:
                raise ValueError(f"{name} must be a positive integer, got {ratio}")

    @property
    def nx(self) -> int:
        return int(round(2 * self.L / self.hx))

    @property
    def ny(self) -> int:
        return int(round(self.H / self.hy))

    def x_nodes(self) -> np.ndarray:
        return -self.L + (np.arange(self.nx) + 0.5) * self.hx

    def y_rows(self) -> np.ndarray:
        return (np.arange(self.ny) + 0.5) * self.hy


def _conductances(g: ExtensionGrid, s: float):
    """Edge conductances for the y^a-weighted Dirichlet energy."""
    a = 1.0 - 2.0 * s
    yr = g.y_rows()
    edges = np.arange(g.ny + 1) * g.hy
    band = (edges[1:] ** (1 + a) - edges[:-1] ** (1 + a)) / (1 + a)
    ch = band / g.hx
    cv = g.hx * (1 - a) / (yr[1:] ** (1 - a) - yr[:-1] ** (1 - a))
    ct = (1 - a) * (g.hy / 2) ** (a - 1) * g.hx
    ctop = g.hx * (1 - a) / (g.H ** (1 - a) - yr[-1] ** (1 - a))
    return ch, cv, ct, ctop


@dataclass
class ExtensionSolution:
    grid: ExtensionGrid
    s: float
    trace: np.ndarray            # (nx,)
    values: np.ndarray           # (nx, ny)
    energy: float

    def sample(self, qx, qy):
        """Bilinear interpolation of the field at qy >= 0; below the first
        row the trace itself supplies the lower interpolation values."""
        qx = np.asarray(qx, dtype=float)
        qy = np.asarray(qy, dtype=float)
        xs = self.grid.x_nodes()
        yr = self.grid.y_rows()
        fi = (qx - xs[0]) / self.grid.hx
        i0 = np.clip(np.floor(fi).astype(int), 0, len(xs) - 2)
        wx = np.clip(fi - i0, 0.0, 1.0)
        wy0 = np.clip(qy / yr[0], 0.0, 1.0)
        v_lo = self.trace[i0] * (1 - wx) + self.trace[i0 + 1] * wx
        v_hi = self.values[i0, 0] * (1 - wx) + self.values[i0 + 1, 0] * wx
        below = v_lo * (1 - wy0) + v_hi * wy0
        fj = (qy - yr[0]) / self.grid.hy
        j0 = np.clip(np.floor(fj).astype(int), 0, len(yr) - 2)
        wyg = np.clip(fj - j0, 0.0, 1.0)
        g_lo = self.values[i0, j0] * (1 - wx) + self.values[i0 + 1, j0] * wx
        g_hi = self.values[i0, j0 + 1] * (1 - wx) + self.values[i0 + 1, j0 + 1] * wx
        general = g_lo * (1 - wyg) + g_hi * wyg
        return np.where(qy < yr[0], below, general)


def _residual_and_energy(v, trace, cond):
    """The residual ``A v - b`` of the linear system and the Dirichlet energy
    of ``v``, from the flux across every edge; the trace below, the zero top
    and the zero side walls enter as ghost values, one axis at a time."""
    ch, cv, ct, ctop = cond
    dy = np.diff(np.column_stack((trace, v, np.zeros(len(v)))), axis=1)
    fy = np.concatenate(([ct], cv, [ctop])) * dy
    r, energy = -np.diff(fy, axis=1), np.sum(fy * dy)
    del dy, fy
    dx = np.diff(np.pad(v, ((1, 1), (0, 0))), axis=0)
    fx = ch * dx
    fx[[0, -1]] = 2 * ch * dx[[0, -1]]     # the wall sits half a cell away
    r -= np.diff(fx, axis=0)
    return r, float(energy + np.sum(fx * dx))


def harmonic_extension(trace, g: ExtensionGrid, s: float) -> ExtensionSolution:
    """Solve the weighted Laplace problem for a given trace and report the
    Dirichlet energy of the solution over the half plane grid.

    The operator is ``T_x (x) diag(ch) + I (x) T_y``: ``ch`` depends only on
    the row and a wall edge conducts ``2 ch``, so ``T_x`` is the cell-centred
    Dirichlet Laplacian tridiag(-1, 2, -1) with 3 at both ends.  A DST-II
    diagonalises it with eigenvalues ``4 sin^2(pi k / 2 nx)``, which leaves nx
    decoupled tridiagonal systems in y (Buzbee, Golub & Nielson 1970).
    """
    # imported here: loading scipy.fft costs every CLI process ~0.05 s
    from scipy.fft import dst, idst

    if not 0 < s < 1:
        raise ValueError("smoothness index must lie in (0, 1)")
    trace = np.asarray(trace, dtype=float)
    if trace.shape != (g.nx,):
        raise ValueError(f"trace must have {g.nx} cell values, got {trace.shape}")
    if trace[0] != 0 or trace[-1] != 0:
        raise ValueError("trace support must stay strictly inside the box")
    nx, ny = g.nx, g.ny
    cond = _conductances(g, s)
    ch, cv, ct, ctop = cond

    lam = 4.0 * np.sin(np.pi * np.arange(1, nx + 1) / (2 * nx)) ** 2
    v = np.zeros((nx, ny))
    v[:, 0] = dst(ct * trace, type=2, norm="ortho")
    # the uncoupled tridiagonals of a quarter of the modes laid end to end
    for m in np.array_split(np.arange(nx), 4):
        ab = np.zeros((3, len(m), ny))
        ab[0, :, 1:] = ab[2, :, :-1] = -cv
        ab[1] = lam[m, None] * ch + np.append(ct, cv) + np.append(cv, ctop)
        v[m] = solve_banded((1, 1), ab.reshape(3, -1), v[m].ravel()).reshape(-1, ny)
    del ab
    v = idst(v, type=2, norm="ortho", axis=0)

    r, energy = _residual_and_energy(v, trace, cond)
    resid, scale = np.linalg.norm(r), np.linalg.norm(ct * trace)
    if not resid <= 1e-8 * scale:                  # NaN fails too
        raise RuntimeError(f"extension residual {resid:.2e} against |b| = "
                           f"{scale:.2e} exceeds the solver contract")
    return ExtensionSolution(grid=g, s=s, trace=trace, values=v, energy=energy)


def homogeneous_profile(x, y, s: float):
    """The s-homogeneous half-space model: ((rho + x) / 2)^s with
    rho = sqrt(x^2 + y^2); vanishes on the left half of the trace line."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    rho = np.hypot(x, y)
    half = np.maximum((rho + x) / 2.0, 0.0)
    return half ** s


def trace_support_intervals(trace, g: ExtensionGrid):
    """Maximal x-intervals covered by cells where the trace is nonzero."""
    xs = g.x_nodes()
    nz = np.abs(np.asarray(trace, dtype=float)) > 0
    edges = np.flatnonzero(np.diff(nz, prepend=False, append=False))
    return [(xs[i] - g.hx / 2, xs[j - 1] + g.hx / 2)
            for i, j in zip(edges[::2], edges[1::2])]


@dataclass
class WeissCurve:
    s: float
    radii: np.ndarray
    values: np.ndarray
    bulk: np.ndarray             # doubled (full-ball) Dirichlet part
    thin: np.ndarray             # trace support length inside the thin ball
    sphere: np.ndarray           # doubled weighted boundary average


def monotonicity_report(curve: WeissCurve) -> dict:
    """Drift record for the radius dependence; nothing is asserted here.

    The fitted constant scales any negative increment against the drift
    budget (r^(2s-1) + 1) dr, so a perfectly monotone curve reports 0 and
    larger values flag instances whose dips outrun that allowance.
    """
    inc = np.diff(curve.values)
    budget = (curve.radii[:-1] ** (2 * curve.s - 1) + 1.0) * np.diff(curve.radii)
    fitted = float(np.max(np.maximum(-inc, 0.0) / budget)) if inc.size else 0.0
    return {
        "increments": inc.tolist(),
        "min_increment": float(inc.min()) if inc.size else 0.0,
        "monotone": bool(np.all(inc >= 0)) if inc.size else True,
        "fitted_negativity_constant": fitted,
    }


def weiss_functional(sol: ExtensionSolution, center: float, radii,
                     support_intervals=None) -> WeissCurve:
    """Evaluate the scaled energy-minus-boundary quantity at each radius.

    Bulk gradients use per-cell corner interpolation with 4 x 4 (_NSUB)
    subpoints and the exact weight at each subpoint; the bottom strip
    between the trace line and the first row gets its own boundary-layer
    quadrature, since the field there varies like y^(1-a) and a naive
    difference quotient misses the weight concentration.  The sphere term
    walks midpoint polar nodes on the upper half circle and doubles.
    """
    g = sol.grid
    s = sol.s
    a = 1.0 - 2.0 * s
    vals, trace = sol.values, sol.trace
    if support_intervals is None:
        support_intervals = trace_support_intervals(trace, g)
    radii = np.asarray(radii, dtype=float)
    if not (np.all(radii > 0) and float(radii.max()) < min(g.L, g.H) / 2):
        raise ValueError("radii must lie in (0, min(L, H)/2)")
    rmax = float(radii.max())
    if not -g.L <= center - rmax <= center + rmax <= g.L:
        raise ValueError("ball of largest radius leaves the grid")

    xs = g.x_nodes()
    yr = g.y_rows()
    y0 = g.hy / 2
    hx, hy = g.hx, g.hy

    I = np.where(np.abs(xs - center) <= rmax + 2 * hx)[0]
    I = I[I + 1 < g.nx]
    J = np.arange(g.ny - 1)
    J = J[yr[J] <= rmax + 2 * hy]
    # subpoint (xi, eta) of cell (i, j) on axes 2, 3; only dens_int is full
    t = (np.arange(_NSUB) + 0.5) / _NSUB
    ii, jj = np.ix_(I, J)
    v00, v10 = vals[ii, jj], vals[ii + 1, jj]
    v01, v11 = vals[ii, jj + 1], vals[ii + 1, jj + 1]
    dx2 = (xs[ii][..., None, None] + t[:, None] * hx - center) ** 2
    py = yr[jj][..., None, None] + t * hy
    ux = ((v10 - v00)[..., None, None] * (1 - t)
          + (v11 - v01)[..., None, None] * t) / hx
    uy = ((v01 - v00)[..., None, None] * (1 - t)[:, None]
          + (v11 - v10)[..., None, None] * t[:, None]) / hy
    del v00, v10, v01, v11
    dens_int = ux ** 2 + uy ** 2
    del ux, uy
    dens_int *= py ** a
    area_sub = hx * hy / _NSUB ** 2

    tr0, tr1 = trace[I], trace[I + 1]
    w0, w1 = vals[I, 0], vals[I + 1, 0]
    sx = xs[I][:, None] + t[None, :] * hx
    du = (w0[:, None] * (1 - t)[None, :] + w1[:, None] * t[None, :]
          - tr0[:, None] * (1 - t)[None, :] - tr1[:, None] * t[None, :])
    dtr = (tr1 - tr0) / hx
    drow = (w1 - w0) / hx
    wsub = hx / _NSUB

    near_x, near_y = dx2.min(axis=(1, 2, 3)), py.min(axis=(0, 2, 3)) ** 2
    out_w, out_bulk, out_thin, out_sph = [], [], [], []
    for r in radii:
        # rows and columns from the first to the last with a subpoint in
        # the ball (all of them if none has): no subpoint outside is inside,
        # so the summed vector, and its order, is the whole box's
        bi, bj = (slice(k.argmax(), len(k) - k[::-1].argmax())
                  for k in (near_x <= r * r, near_y <= r * r))
        inside = dx2[bi] + py[:, bj] ** 2 <= r * r
        bulk = float(np.sum(dens_int[bi, bj][inside]) * area_sub)

        ycut = np.sqrt(np.maximum(r * r - (sx - center) ** 2, 0.0))
        cut = np.minimum(ycut, y0)
        hit = cut > 0
        uy_term = float(np.sum((1 - a) * cut ** (1 - a) / y0 ** (2 - 2 * a)
                               * du ** 2 * wsub * hit))
        ysub = cut[..., None] * t[None, None, :]
        ysub_safe = np.where(ysub > 0, ysub, 1.0)
        eta = ysub / y0
        uxs = dtr[:, None, None] * (1 - eta) + drow[:, None, None] * eta
        ux_term = float(np.sum(ysub_safe ** a * uxs ** 2
                               * (cut[..., None] / _NSUB) * wsub
                               * hit[..., None]))
        bulk_total = 2.0 * (bulk + uy_term + ux_term)

        thin = 0.0
        for lo, hi in support_intervals:
            thin += max(0.0, min(hi, center + r) - max(lo, center - r))

        th = (np.arange(_SPHERE_NODES) + 0.5) / _SPHERE_NODES * math.pi
        qx = center + r * np.cos(th)
        qy = r * np.sin(th)
        u_q = sol.sample(qx, qy)
        sph = float(2.0 * np.sum(qy ** a * u_q ** 2) * (math.pi * r / _SPHERE_NODES))

        out_bulk.append(bulk_total)
        out_thin.append(thin)
        out_sph.append(sph)
        out_w.append((bulk_total + thin) / r - s * sph / r ** 2)
    return WeissCurve(s=s, radii=radii,
                      values=np.array(out_w), bulk=np.array(out_bulk),
                      thin=np.array(out_thin), sphere=np.array(out_sph))
