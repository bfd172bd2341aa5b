"""Eigenvalue and torsion solvers on top of the assembled quadratic form.

Eigenvalues are reported in bare seminorm units: the Rayleigh quotient of
the raw double-integral energy against the cell-measure weighted mass
h^n sum u^2, with no kernel constant.  The torsion problem is the one
place the classical operator normalization enters, because its closed-form
ball solution and energy are stated in those units; the conversion is a
single multiplicative constant on the form.
"""

from __future__ import annotations

from dataclasses import dataclass
import math

import numpy as np
from scipy.linalg import eigh
from scipy.sparse.linalg import cg, eigsh

from .form import FormMatrix, assemble_form
from .grid import KernelParams, MultiIndicator

# Active-cell count above which shift-invert eigsh on a dense LU replaces
# eigh(subset_by_index).  Crossover for the 4 lowest pairs on a 2-core host:
# eigh wins at N=512 (0.010 vs 0.012 s), the two tie near N=700-1000, and
# eigsh wins from N=1024 (0.049 vs 0.067 s; 0.27 vs 0.54 s at N=2048).
DENSE_LIMIT = 1000
MULTIPLICITY_RTOL = 1e-6      # gap below this (relative) flags a numeric tie
RESIDUAL_RTOL = 1e-8


def kernel_operator_constant(n: int, s: float) -> float:
    """Constant turning the bare double-integral energy into the classical
    singular-integral operator normalization."""
    return (2 ** (2 * s) * s * math.gamma((n + 2 * s) / 2)
            / (math.pi ** (n / 2) * math.gamma(1 - s)))


@dataclass
class SpectralResult:
    """Ascending eigenvalues with cell-measure orthonormal eigenvectors:
    column j of ``vectors`` belongs to eigenvalue j, its rows in cell-id
    order (``np.flatnonzero(A.masks)``); ``A.field(v)`` makes it a field."""

    eigenvalues: np.ndarray
    vectors: np.ndarray
    residuals: np.ndarray
    multiplicity_gaps: np.ndarray

    def is_numerically_multiple(self, k: int) -> bool:
        """Whether the k-th eigenvalue (1-based) ties a neighbor numerically."""
        lam = self.eigenvalues
        tol = MULTIPLICITY_RTOL * abs(lam[k - 1])
        lo = k - 2
        return ((lo >= 0 and self.multiplicity_gaps[lo] < tol)
                or (k - 1 < len(self.multiplicity_gaps)
                    and self.multiplicity_gaps[k - 1] < tol))


def dirichlet_eigs(A: MultiIndicator, kp: KernelParams, count: int,
                   F: FormMatrix | None = None) -> SpectralResult:
    """Smallest eigenpairs of the form against the cell-measure mass."""
    if F is None:
        F = assemble_form(A, kp)
    N = F.size
    if count < 1 or count > N:
        raise ValueError(f"count must be in 1..{N}, got {count}")
    Q = F.quadratic_matrix
    mass = F.grid.cell_volume
    if N <= DENSE_LIMIT or count >= N:
        vals, vecs = eigh(Q, subset_by_index=[0, count - 1])
    else:
        # shift-invert on one dense LU of Q; a fixed start vector, since
        # ARPACK's default one is drawn from OS entropy
        vals, vecs = eigsh(Q, k=count, sigma=0, which="LM", v0=np.ones(N))
        order = np.argsort(vals)
        vals, vecs = vals[order], vecs[:, order]
    lam = vals / mass
    if lam[0] <= 0:
        raise RuntimeError("form lost definiteness: nonpositive bottom eigenvalue")

    residuals = np.zeros(count)
    vecs = vecs / math.sqrt(mass)      # orthonormal in the h^n-weighted norm
    for j in range(count):
        v = vecs[:, j]
        anchor = np.flatnonzero(np.abs(v) > 1e-12 * np.max(np.abs(v)))
        if anchor.size and v[anchor[0]] < 0:
            v = -v
            vecs[:, j] = v
        r = Q @ v / mass - lam[j] * v
        residuals[j] = math.sqrt(mass * float(r @ r)) / abs(lam[j])
        if residuals[j] > RESIDUAL_RTOL:
            raise RuntimeError(f"eigenpair {j + 1} residual {residuals[j]:.2e} "
                               "exceeds the solver contract")
    gaps = np.diff(lam)
    return SpectralResult(eigenvalues=lam, vectors=vecs,
                          residuals=residuals, multiplicity_gaps=gaps)


def objective(A: MultiIndicator, kp: KernelParams, k: int,
              F: FormMatrix | None = None) -> float:
    """k-th eigenvalue plus shape volume, the quantity the optimizer drives."""
    res = dirichlet_eigs(A, kp, k, F=F)
    return float(res.eigenvalues[k - 1]) + A.volume()


@dataclass
class TorsionResult:
    vector: np.ndarray           # (N,) torsion values in cell-id order
    energy: float


def torsion_solve(A: MultiIndicator, kp: KernelParams,
                  F: FormMatrix | None = None) -> TorsionResult:
    """Solve the unit-load problem on the shape and report its energy.

    The system is (c/2) Q u = h^n on active cells, with c the classical
    operator constant, so u matches the closed-form ball solution and the
    energy at the minimizer reduces to -(1/2) h^n sum u.
    """
    if F is None:
        F = assemble_form(A, kp)
    c = kernel_operator_constant(kp.n, kp.s)
    M = 0.5 * c * F.quadratic_matrix
    rhs = np.full(F.size, F.grid.cell_volume)
    u, info = cg(M, rhs, x0=np.zeros(F.size), rtol=1e-10, atol=0.0,
                 maxiter=20 * F.size)
    if info != 0:
        raise RuntimeError(f"torsion solve failed to converge (cg info {info})")
    resid = np.linalg.norm(M @ u - rhs) / np.linalg.norm(rhs)
    if resid > 1e-8:
        raise RuntimeError(f"torsion residual {resid:.2e} out of contract")
    if u.min() < -1e-9 * max(u.max(), 1.0):
        raise RuntimeError("torsion field lost positivity")
    u = np.maximum(u, 0.0)
    energy = -0.5 * F.grid.cell_volume * float(u.sum())
    return TorsionResult(vector=u, energy=energy)


def gamma_distance(A: MultiIndicator, B: MultiIndicator, kp: KernelParams) -> float:
    """L1 distance between the torsion fields of two shapes, both extended
    by zero to the whole lattice."""
    if A.grid != B.grid:
        raise ValueError("shapes live on different grids")
    ua = A.field(torsion_solve(A, kp).vector)
    ub = B.field(torsion_solve(B, kp).vector)
    return A.grid.cell_volume * float(np.abs(ua.values - ub.values).sum())
