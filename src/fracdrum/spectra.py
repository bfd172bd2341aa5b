"""Eigenvalue and torsion solvers on top of the quadratic form.

Eigenvalues are reported in bare seminorm units: the Rayleigh quotient of
the raw double-integral energy against the cell-measure weighted mass
h^n sum u^2, with no kernel constant.  The torsion problem is the one
place the classical operator normalization enters, because its closed-form
ball solution and energy are stated in those units; the conversion is a
single multiplicative constant on the form.

Torsion is always solved matrix-free: CG on Q applied by FFT
(``form.form_operator``), preconditioned by its circulant.  Eigenpairs use
``eigh`` on the assembled dense Q up to DENSE_LIMIT active cells; above it
no N x N array is built and LOBPCG (Knyazev, SISC 2001) runs on the same
operator and preconditioner.  Every solve checks its residual.
"""

from __future__ import annotations

from dataclasses import dataclass
import math
import warnings

import numpy as np
from scipy.linalg import eigh
from scipy.sparse.linalg import LinearOperator, cg, lobpcg

from .form import FormMatrix, FormOperator, assemble_form, form_operator
from .grid import KernelParams, MultiIndicator

# Active-cell count above which the eigensolve goes matrix-free.  Crossover for
# the 4 lowest pairs, assembly included, 1-D interval and 2-D ball, on a
# 2-core host: eigh wins up to N=784 (0.057 s against 0.053-0.085 s), LOBPCG
# from N=1024 (0.054-0.092 s against 0.16 s; 0.065 s against 0.31 s at
# N=1536).  Anneal forms (N <= about 300) stay on eigh.
DENSE_LIMIT = 1000
MULTIPLICITY_RTOL = 1e-6      # gap below this (relative) flags a numeric tie
RESIDUAL_RTOL = 1e-8
LOBPCG_MAXITER = 400
CG_MAXITER = 200              # preconditioned torsion CG takes 4-26 iterations


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
    """Smallest eigenpairs of the form against the cell-measure mass.

    ``F`` is the shape's assembled form, built if not given; it goes unread
    when the solve is matrix-free (above DENSE_LIMIT cells, and a count
    small enough for LOBPCG's block).
    """
    N = A.cell_count()
    if count < 1 or count > N:
        raise ValueError(f"count must be in 1..{N}, got {count}")
    block = max(2 * count, 8)
    # below 5 blocks lobpcg itself would fall back to a dense solve
    if N <= DENSE_LIMIT or N < 5 * block:
        if F is None:
            F = assemble_form(A, kp)
        Q = F.quadratic_matrix
        vals, vecs = eigh(Q, subset_by_index=[0, count - 1])
    else:
        op = form_operator(A, kp)
        Q = _linear_operator(op, op.apply)
        vals, vecs = _lobpcg(Q, op, count, block)
    mass = A.grid.cell_volume
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


def _linear_operator(op: FormOperator, fn) -> LinearOperator:
    return LinearOperator((op.size, op.size), matvec=fn, matmat=fn, dtype=float)


def _lobpcg(Q: LinearOperator, op: FormOperator, count: int, block: int):
    """The ``count`` lowest eigenpairs of Q, the operator ``op`` applies, by
    LOBPCG preconditioned with its circulant, on a ``block``-column start
    drawn from a fixed generator."""
    X = np.random.default_rng(0).standard_normal((op.size, block))
    # lobpcg's tol bounds the absolute residual |Q x - mu x| of a unit x;
    # min(symbol) sits below mu_1 on every shape tried, so this keeps the
    # relative residual a tenth of the contract without over-solving
    tol = 0.1 * RESIDUAL_RTOL * float(op.symbol.min())
    with warnings.catch_warnings():
        # lobpcg warns when any column of the block, the spare ones too,
        # misses tol; the residual check on the requested pairs decides
        warnings.filterwarnings("ignore", "(Exited|Failed) ", UserWarning)
        vals, vecs = lobpcg(Q, X, M=_linear_operator(op, op.precondition),
                            tol=tol, maxiter=LOBPCG_MAXITER, largest=False)
    order = np.argsort(vals)[:count]
    return vals[order], vecs[:, order]


def objective(A: MultiIndicator, kp: KernelParams, k: int) -> float:
    """k-th eigenvalue plus shape volume, the quantity the optimizer drives."""
    res = dirichlet_eigs(A, kp, k)
    return float(res.eigenvalues[k - 1]) + A.volume()


@dataclass
class TorsionResult:
    vector: np.ndarray           # (N,) torsion values in cell-id order
    energy: float


def torsion_solve(A: MultiIndicator, kp: KernelParams) -> TorsionResult:
    """Solve the unit-load problem on the shape and report its energy.

    The system is (c/2) Q u = h^n on active cells, with c the classical
    operator constant, so u matches the closed-form ball solution and the
    energy at the minimizer reduces to -(1/2) h^n sum u.  CG runs on the FFT
    operator, preconditioned by its circulant; no N x N array is built.
    """
    half_c = 0.5 * kernel_operator_constant(kp.n, kp.s)
    op = form_operator(A, kp)
    N = op.size
    rhs = np.full(N, A.grid.cell_volume)
    M = _linear_operator(op, lambda u: half_c * op.apply(u))
    precond = _linear_operator(op, lambda r: op.precondition(r) / half_c)
    u, info = cg(M, rhs, x0=np.zeros(N), rtol=1e-10, atol=0.0,
                 maxiter=CG_MAXITER, M=precond)
    if info != 0:
        raise RuntimeError(f"torsion solve failed to converge (cg info {info})")
    resid = np.linalg.norm(M @ u - rhs) / np.linalg.norm(rhs)
    if resid > 1e-8:
        raise RuntimeError(f"torsion residual {resid:.2e} out of contract")
    if u.min() < -1e-9 * max(u.max(), 1.0):
        raise RuntimeError("torsion field lost positivity")
    u = np.maximum(u, 0.0)
    energy = -0.5 * A.grid.cell_volume * float(u.sum())
    return TorsionResult(vector=u, energy=energy)


def gamma_distance(A: MultiIndicator, B: MultiIndicator, kp: KernelParams) -> float:
    """L1 distance between the torsion fields of two shapes, both extended
    by zero to the whole lattice."""
    if A.grid != B.grid:
        raise ValueError("shapes live on different grids")
    ua = A.field(torsion_solve(A, kp).vector)
    ub = B.field(torsion_solve(B, kp).vector)
    return A.grid.cell_volume * float(np.abs(ua.values - ub.values).sum())
