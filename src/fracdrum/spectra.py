"""Eigenvalue and torsion solvers on top of the quadratic form.

Eigenvalues are reported in bare seminorm units: the Rayleigh quotient of
the raw double-integral energy against the cell-measure weighted mass
h^n sum u^2, with no kernel constant.  The torsion problem is the one
place the classical operator normalization enters, because its closed-form
ball solution and energy are stated in those units; the conversion is a
single multiplicative constant on the form.

Torsion is always solved matrix-free: CG on Q applied by FFT
(``form.form_operator``), preconditioned by its circulant.  Eigenpairs use
``eigh`` on the assembled dense Q up to DENSE_LIMIT active cells.  Above it
no N x N array is built: block LOBPCG (Knyazev, SISC 2001) runs on the same
operator and preconditioner, with the search basis kept orthonormal as in
Hetmaniuk and Lehoucq (J. Comput. Phys. 218, 2006), a start block of
low sine modes of the shape's bounding box, and a stop on the relative
residuals of the requested pairs alone.  LOBPCG runs with OpenBLAS on one
thread (``_serial_blas``).  Every solve checks its residual.
"""

from __future__ import annotations

from contextlib import contextmanager
import ctypes
from dataclasses import dataclass
import functools
import math

import numpy as np
from scipy.linalg import eigh
from scipy.sparse.linalg import LinearOperator, cg

from .form import FormMatrix, FormOperator, assemble_form, form_operator
from .grid import KernelParams, MultiIndicator

# Active-cell count above which the eigensolve goes matrix-free.  Crossover for
# the 4 lowest pairs, assembly included, 1-D interval and 2-D ball at
# s in {0.3, 0.5, 0.7}, on a 2-core host (eigh against LOBPCG): 0.012 s
# against 0.007-0.020 s at N=512, 0.047-0.080 s against 0.015-0.040 s at
# N=784-788, 0.12-0.16 s against 0.021-0.091 s at N=1020-1024.  So LOBPCG
# wins from about N=600-800; the limit stays above that so that anneal forms
# (N <= about 300) and every solve with N <= 1000 keep their bytes.
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
    order (``np.flatnonzero(A.masks)``); ``A.field(v)`` makes it a field.
    ``solver`` names the branch that ran, ``"eigh"`` or ``"lobpcg"``, and
    ``iterations`` counts LOBPCG iterations (0 for ``eigh``)."""

    eigenvalues: np.ndarray
    vectors: np.ndarray
    residuals: np.ndarray
    multiplicity_gaps: np.ndarray
    solver: str
    iterations: int

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
    # LOBPCG's [X, W, P] basis holds up to 3 blocks of columns; on fewer
    # than 5 blocks' worth of cells the dense solve is the cheaper one
    if N <= DENSE_LIMIT or N < 5 * block:
        if F is None:
            F = assemble_form(A, kp)
        Q = F.quadratic_matrix
        vals, vecs = eigh(Q, subset_by_index=[0, count - 1])
        solver, iterations = "eigh", 0
    else:
        op = form_operator(A, kp)
        Q = _linear_operator(op, op.apply)
        with _serial_blas():
            vals, vecs, iterations = _lobpcg(op, count, block)
        solver = "lobpcg"
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
    return SpectralResult(eigenvalues=lam, vectors=vecs, residuals=residuals,
                          multiplicity_gaps=gaps, solver=solver,
                          iterations=iterations)


def _linear_operator(op: FormOperator, fn) -> LinearOperator:
    return LinearOperator((op.size, op.size), matvec=fn, matmat=fn, dtype=float)


def _lobpcg(op: FormOperator, count: int, block: int):
    """The ``count`` lowest eigenpairs of the matrix ``op`` applies, and the
    iterations taken, by block LOBPCG on ``block`` columns.

    The search basis [X, W, P] is kept orthonormal (Hetmaniuk and Lehoucq,
    J. Comput. Phys. 218, 2006), so each Rayleigh-Ritz step is a standard
    symmetric ``eigh`` with no Cholesky factor to break down.  W is the
    circulant-preconditioned residual of the columns not yet converged;
    converged columns are soft-locked, and the spare columns past ``count``
    only speed convergence.  The iteration stops when the first ``count``
    pairs meet a tenth of the relative residual contract, or at
    LOBPCG_MAXITER; the caller checks the contract either way.
    """
    tol = 0.1 * RESIDUAL_RTOL
    X = np.linalg.qr(_sine_start(op, block))[0]
    AX = op.apply(X)
    theta, C = np.linalg.eigh(_symmetric(X.T @ AX))
    X, AX = X @ C, AX @ C
    P = AP = np.zeros((op.size, 0))
    for iterations in range(LOBPCG_MAXITER + 1):
        R = AX - X * theta
        res = np.linalg.norm(R, axis=0) / np.abs(theta)
        if np.all(res[:count] <= tol) or iterations == LOBPCG_MAXITER:
            break
        W = _orthonormal(op.precondition(R[:, res > tol]), X, P)
        S = np.hstack([X, W, P])
        AS = np.hstack([AX, op.apply(W), AP])
        theta, C = np.linalg.eigh(_symmetric(S.T @ AS))
        theta, C = theta[:block], C[:, :block]
        # P is the part of the new X outside the old X, made orthonormal
        # and orthogonal to the new X in coefficient space
        Z = C.copy()
        Z[:block] = 0.0
        Z = _orthonormal(Z, C)
        X, AX = S @ C, AS @ C
        P, AP = S @ Z, AS @ Z
    return theta[:count], X[:, :count], iterations


# thread-count entry points of the OpenBLAS builds numpy and scipy ship
_OPENBLAS_THREADS = ("scipy_openblas_{}_num_threads64_",
                     "scipy_openblas_{}_num_threads", "openblas_{}_num_threads")


@functools.cache
def _openblas_thread_controls() -> tuple:
    """(get, set) thread-count functions of every OpenBLAS loaded in this
    process, found through /proc/self/maps; none where that file is missing."""
    try:
        with open("/proc/self/maps") as f:
            paths = {line.split()[-1] for line in f if "openblas" in line.lower()}
    except OSError:
        return ()
    controls = []
    for path in sorted(p for p in paths if p.startswith("/") and ".so" in p):
        lib = ctypes.CDLL(path)
        for stem in _OPENBLAS_THREADS:
            get, put = (getattr(lib, stem.format(verb), None)
                        for verb in ("get", "set"))
            if get is not None and put is not None:
                controls.append((get, put))
                break
    return tuple(controls)


@contextmanager
def _serial_blas():
    """Run the block with every loaded OpenBLAS on one thread, and restore
    the thread counts after it.

    LOBPCG's products are N x (at most 3 blocks) and smaller.  Split over
    threads, such a product waits for the other thread to be scheduled, and
    on a shared host that wait now and then takes milliseconds: on a 2-core
    host a 2048 x 24 Gram product took 0.07-0.1 ms in most processes and
    3.7 ms in one.  The seven refine benchmark solves above DENSE_LIMIT took
    0.59-0.97 s together on two threads against 0.54-0.66 s on one, and
    0.71-1.33 s against 0.51-0.63 s with another process busy on one core.
    Their summaries keep their bytes.  The count is process-wide: BLAS calls
    on other Python threads meanwhile run on one thread too.  Without
    OpenBLAS this does nothing."""
    controls = _openblas_thread_controls()
    before = [get() for get, _ in controls]
    for _, put in controls:
        put(1)
    try:
        yield
    finally:
        for (_, put), count in zip(controls, before):
            put(count)


def _symmetric(G: np.ndarray) -> np.ndarray:
    return 0.5 * (G + G.T)


def _orthonormal(V: np.ndarray, *bases: np.ndarray) -> np.ndarray:
    """Orthonormal columns spanning the part of V outside the orthonormal
    ``bases``, by projection and the ``eigh`` of a Gram matrix; the columns
    are scaled to unit norm first, so that a direction is dropped as
    numerically dependent by its angle, not by its length.  Two passes:
    the second mends what rounding left of the first."""
    for _ in range(2):
        for B in bases:
            V = V - B @ (B.T @ V)
        V = V / np.maximum(np.linalg.norm(V, axis=0), np.finfo(float).tiny)
        d, U = np.linalg.eigh(_symmetric(V.T @ V))
        keep = d > 1e-12 * d.max(initial=0.0)
        V = V @ (U[:, keep] / np.sqrt(d[keep]))
    return V


def _sine_start(op: FormOperator, block: int) -> np.ndarray:
    """``block`` smooth start columns: the lowest Dirichlet sine modes of the
    shape's bounding box, in the operator's periodic-box coordinates, each
    restricted to one copy in turn, plus a fixed-seed perturbation of
    relative size 1e-3 so that no symmetry of the shape hides a pair."""
    copy, *coords = np.unravel_index(op.cells, op.stack)
    widths = [p // 2 for p in op.stack[1:]]
    ks = np.stack(np.meshgrid(*[np.arange(1, min(b, block) + 1) for b in widths],
                              indexing="ij"), axis=-1).reshape(-1, len(widths))
    freq = ((ks / (np.array(widths) + 1)) ** 2).sum(axis=1)
    ks = ks[np.argsort(freq, kind="stable")]
    # dirichlet_eigs comes here with N >= 5 block cells, so the box has a
    # mode for every column each copy gets
    present = np.unique(copy)
    X = np.zeros((op.size, block))
    for j in range(block):
        k, c = ks[j // len(present)], present[j % len(present)]
        col = (copy == c).astype(float)
        for ka, x, b in zip(k, coords, widths):
            col *= np.sin(math.pi * ka * (x + 1) / (b + 1))
        X[:, j] = col / max(np.linalg.norm(col), np.finfo(float).tiny)
    noise = np.random.default_rng(0).standard_normal(X.shape)
    return X + 1e-3 / math.sqrt(op.size) * noise


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
