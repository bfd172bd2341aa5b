"""Eigenvalue and torsion solvers on top of the quadratic form.

Eigenvalues are reported in bare seminorm units: the Rayleigh quotient of
the raw double-integral energy against the cell-measure weighted mass
h^n sum u^2, with no kernel constant.  The torsion problem is the one
place the classical operator normalization enters, because its closed-form
ball solution and energy are stated in those units; the conversion is a
single multiplicative constant on the form.

Torsion is always solved matrix-free: CG on Q applied by FFT
(``form.form_operator``), preconditioned by its circulant.  The CG loop is
this module's ``cg``, with the operation order and so the bits of
``scipy.sparse.linalg.cg``; nothing here loads ``scipy.sparse``.  Eigenpairs of
the assembled dense Q, up to DENSE_LIMIT active cells, come from LAPACK
``dsyevr`` (MRRR) in scipy's compiled ``_flapack``, loaded from its file
(importing scipy.linalg would double a process's start) and called with the
arguments that ``scipy.linalg.eigh(Q, subset_by_index=...)`` passes and so
its bits; left out are eigh's per-call validation and work-size query, which
at N=12 took longer than the solve.  That branch keeps the name ``"eigh"``.
Above DENSE_LIMIT no N x N array is built: block LOBPCG (Knyazev, SISC
2001) runs on the same operator and preconditioner, with the search basis
kept orthonormal as in Hetmaniuk and Lehoucq (J. Comput. Phys. 218, 2006),
a start block of low sine modes of the shape's bounding box, and a stop on
the relative residuals of the requested pairs alone.  One basis and its
image are alive at a time: each iteration's are freed before the next is
built, so a 1-D solve peaks at about 14 arrays of N x block floats.  Every
solve checks its residual, and a NaN fails every check; a LOBPCG solve that
misses it says why (``_lobpcg_failure``).

Thread policy: every eigensolve, dense or LOBPCG, residual check included,
runs with OpenBLAS on one thread (``_serial_blas``, which gives the
timings), so that its bytes, and with them every seeded output, do not
depend on the host's core count.  Torsion gives the same bytes at any
thread count and is left to the BLAS default.
"""

from __future__ import annotations

from contextlib import contextmanager
import ctypes
from dataclasses import dataclass
import functools
import importlib.machinery
import importlib.util
import math
import os
import sys
import threading

import numpy as np

from .form import FormMatrix, FormOperator, assemble_form, form_operator
from .grid import KernelParams, MultiIndicator

# Active-cell count above which the eigensolve goes matrix-free.  Crossover for
# the 4 lowest pairs, assembly included, 1-D interval and 2-D ball at
# s in {0.3, 0.5, 0.7}, on a 2-core host (one-thread eigh against LOBPCG):
# 0.013-0.020 s against 0.010-0.051 s at N=512, 0.043-0.058 s against
# 0.015-0.059 s at N=784-789, 0.12-0.15 s against 0.021-0.090 s at N=1024.
# A two-thread eigh gave about the same crossover (0.012 s, 0.047-0.080 s and
# 0.12-0.16 s).  So LOBPCG wins from about N=600-800; the limit stays above
# that so that anneal forms (N <= about 300) and every solve with N <= 1000
# keep their bytes.
DENSE_LIMIT = 1000
MULTIPLICITY_RTOL = 1e-6      # gap below this (relative) flags a numeric tie
RESIDUAL_RTOL = 1e-8
LOBPCG_MAXITER = 400
CG_MAXITER = 200              # preconditioned torsion CG takes 4-26 iterations


def _scipy_compiled(name: str):
    """The compiled module ``scipy.<name>``, loaded from its file so that no
    scipy ``__init__`` runs; a later ``import scipy...`` reuses it."""
    full = f"scipy.{name}"
    if full not in sys.modules:
        root = importlib.util.find_spec("scipy")        # runs no scipy code
        spec = root and importlib.machinery.FileFinder(
            os.path.join(root.submodule_search_locations[0], *name.split(".")[:-1]),
            (importlib.machinery.ExtensionFileLoader,
             importlib.machinery.EXTENSION_SUFFIXES)).find_spec(full)
        if spec is None:
            return importlib.import_module(full)
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        sys.modules[full] = module
    return sys.modules[full]


# loaded now, not at the first solve: _openblas() reads the process's
# OpenBLAS builds once, and must find the one _flapack links
_flapack = _scipy_compiled("linalg._flapack")


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
    solver: str
    iterations: int

    def is_numerically_multiple(self, k: int) -> bool:
        """Whether the k-th eigenvalue (1-based) ties a neighbor numerically;
        the one above it is tested only when this result holds k + 1 pairs.
        ValueError for k outside 1..len(eigenvalues)."""
        lam = self.eigenvalues
        if not 1 <= k <= len(lam):
            raise ValueError(f"k = {k} is not in 1..{len(lam)}")
        gaps = np.diff(lam[max(k - 2, 0):k + 1])
        return bool(np.any(gaps < MULTIPLICITY_RTOL * abs(lam[k - 1])))


# symbol (prefix, suffix) of numpy's, scipy's and a system OpenBLAS build
_OPENBLAS_NAMES = (("scipy_", "64_"), ("scipy_", ""), ("", ""))


@functools.cache
def _openblas() -> dict:
    """Every OpenBLAS loaded in this process, found through /proc/self/maps,
    by path: its (get-threads, set-threads, get_corename) entry points, the
    last None where the build lacks it.  Empty where that file is missing."""
    try:
        with open("/proc/self/maps") as f:
            paths = {line.split()[-1] for line in f if "openblas" in line.lower()}
    except OSError:
        return {}
    libs = {}
    for path in sorted(p for p in paths if p.startswith("/") and ".so" in p):
        lib = ctypes.CDLL(path)
        for pre, suf in _OPENBLAS_NAMES:
            get, put, core = (getattr(lib, f"{pre}openblas_{name}{suf}", None)
                              for name in ("get_num_threads", "set_num_threads",
                                           "get_corename"))
            if get is not None and put is not None:
                if core is not None:
                    core.restype = ctypes.c_char_p
                libs[path] = (get, put, core)
                break
    return libs


def blas_kernels() -> dict:
    """The kernels each loaded OpenBLAS picked for this CPU (``"SkylakeX"``)
    by library file name; None where a build has no get_corename."""
    return {os.path.basename(path): None if core is None else core().decode()
            for path, (_, _, core) in _openblas().items()}


# the open _serial_blas scopes and the thread counts before the first of
# them: module state, as the thread counts it guards are process state
_serial_lock = threading.Lock()
_serial_depth = 0
_serial_before: list = []


@contextmanager
def _serial_blas():
    """Run the block with every loaded OpenBLAS on one thread.  The first
    scope to open sets the counts and the last to close restores them, also
    when its block raises; a scope opened inside another makes no thread
    calls.

    Every eigensolve runs this way (``dirichlet_eigs`` is wrapped in it), so
    that its bytes do not depend on the host's core count: the dense
    ``eigh`` gives different bytes on one thread than on two from about
    N=256 on.  ``anneal.minimize`` opens one scope for its whole chain, so
    the thousand small solves of a chain make no thread calls of their own.
    What one thread costs: for the 4 lowest pairs on an idle
    2-core host, ``eigh`` took 0.002 s on one thread or two at N=185
    (anneal's forms stay below about 300 cells), 0.015 s against 0.0125 s
    at N=512, and 0.088 s against 0.050 s at N=960, next to DENSE_LIMIT.
    With another process busy on one core, two threads wait for it instead
    (0.018 s became up to 0.098 s at N=512).  LOBPCG's products are
    N x (at most 3 blocks) and smaller, and split over threads they too wait
    for the second thread to be scheduled.  The count is process-wide: while
    any scope is open, BLAS calls on every Python thread run on one thread.
    Without OpenBLAS, or without /proc/self/maps, this does nothing and the
    BLAS in use keeps its own threading."""
    global _serial_depth, _serial_before
    with _serial_lock:
        if not _serial_depth:
            libs = _openblas().values()
            _serial_before = [get() for get, _, _ in libs]
            for _, put, _ in libs:
                put(1)
        _serial_depth += 1
    try:
        yield
    finally:
        with _serial_lock:
            _serial_depth -= 1
            if not _serial_depth:
                for (_, put, _), count in zip(_openblas().values(), _serial_before):
                    put(count)


@_serial_blas()
def dirichlet_eigs(A: MultiIndicator, kp: KernelParams, count: int,
                   F: FormMatrix | None = None) -> SpectralResult:
    """Smallest eigenpairs of the form against the cell-measure mass.

    ``F`` is the shape's assembled form, built if not given; it goes unread
    when the solve is matrix-free (above DENSE_LIMIT cells, and a count
    small enough for LOBPCG's block).
    """
    N = A.cell_count()
    if count < 1 or count > N:
        raise ValueError(f"'count' must be in 1..{N}, the shape's cell count, "
                         f"got {count}")
    block = max(2 * count, 8)
    # LOBPCG's [X, W, P] basis holds up to 3 blocks of columns; on fewer
    # than 5 blocks' worth of cells the dense solve is the cheaper one
    if N <= DENSE_LIMIT or N < 5 * block:
        if F is None:
            F = assemble_form(A, kp)
        Q = F.quadratic_matrix
        vals, vecs = _dense_pairs(Q, count)
        matvec, solver, iterations = Q.__matmul__, "eigh", 0
    else:
        op = form_operator(A, kp)
        vals, vecs, iterations, history = _lobpcg(op, count, block)
        matvec, solver = op.apply, "lobpcg"
    mass = A.grid.cell_volume
    lam = vals / mass
    if not lam[0] > 0:
        raise RuntimeError(f"form lost definiteness: bottom eigenvalue {lam[0]:.2e}")

    vecs = vecs / math.sqrt(mass)      # orthonormal in the h^n-weighted norm
    # sign: the first entry above 1e-12 of its column's largest is positive
    size = np.abs(vecs)
    anchor = (size > 1e-12 * size.max(axis=0)).argmax(axis=0)
    vecs *= np.where(vecs[anchor, np.arange(count)] < 0, -1.0, 1.0)
    residuals = np.zeros(count)
    for j in range(count):
        # one product per column: a matrix product would round differently
        v = vecs[:, j]
        r = matvec(v) / mass - lam[j] * v
        residuals[j] = math.sqrt(mass * float(r @ r)) / abs(lam[j])
        if not residuals[j] <= RESIDUAL_RTOL:
            message = (f"eigenpair {j + 1} residual {residuals[j]:.2e} exceeds "
                       f"the solver contract ({solver}, {iterations} iterations)")
            if solver == "lobpcg":
                raise _lobpcg_failure(message, op, vals[0], history)
            raise RuntimeError(message)
    return SpectralResult(eigenvalues=lam, vectors=vecs, residuals=residuals,
                          solver=solver, iterations=iterations)


@functools.cache
def _dsyevr_work(N: int) -> tuple:
    """LAPACK's (lwork, liwork) for ``dsyevr`` on an N x N matrix."""
    work, iwork, info = _flapack.dsyevr_lwork(N, lower=1)
    if info != 0:
        raise RuntimeError(f"dsyevr work-size query failed (info {info})")
    return int(work), int(iwork)


def _dense_pairs(Q: np.ndarray, count: int):
    """The ``count`` lowest eigenpairs of the symmetric Q, as
    ``scipy.linalg.eigh(Q, subset_by_index=[0, count - 1])`` gives them:
    LAPACK ``dsyevr`` (MRRR; Dhillon, Parlett and Voemel, ACM TOMS 32, 2006)
    with eigh's arguments and work sizes.  Q is not overwritten.  eigh's
    finiteness check is left out: ``_box_stencil`` refuses non-finite
    entries once per (grid, kernel)."""
    lwork, liwork = _dsyevr_work(len(Q))
    vals, vecs, found, _, info = _flapack.dsyevr(Q, compute_v=1, range="I",
                                                 lower=1, il=1, iu=count,
                                                 lwork=lwork, liwork=liwork)
    if info != 0 or found != count:
        raise RuntimeError(f"dsyevr failed (info {info}, {found} of {count} "
                           "pairs found)")
    return vals[:count], vecs


def _lobpcg_failure(message: str, op: FormOperator, theta1: float,
                    history: list) -> RuntimeError:
    """The error of a LOBPCG solve that missed the residual contract.  Its
    message adds the condition estimate of Q, the Gershgorin bound
    2 max(d) / theta1 with theta1 Q's lowest Ritz value, and, where eps
    times it passes a quarter of the contract, that the contract lies below
    float64's floor (a backward-stable solve's residual is a few eps kappa).
    ``residual_history`` holds ``_lobpcg``'s record of the residuals."""
    kappa = 2.0 * float(op.diagonal.max()) / float(theta1)
    floor = np.finfo(float).eps * kappa
    message += f"; condition estimate {kappa:.2e}"
    if floor > RESIDUAL_RTOL / 4:
        message += (f", and eps times it, {floor:.1e}, puts the contract below "
                    "float64's floor for this grid and s")
    err = RuntimeError(message)
    err.residual_history = history
    return err


def _lobpcg(op: FormOperator, count: int, block: int):
    """The ``count`` lowest eigenpairs of the matrix ``op`` applies, the
    iterations taken and the requested pairs' relative residuals at every
    tenth iteration and the last, by block LOBPCG on ``block`` columns.

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
    history = []
    for iterations in range(LOBPCG_MAXITER + 1):
        R = AX - X * theta
        res = np.linalg.norm(R, axis=0) / np.abs(theta)
        done = np.all(res[:count] <= tol) or iterations == LOBPCG_MAXITER
        if done or iterations % 10 == 0:
            history.append({"iteration": iterations,
                            "residuals": res[:count].tolist()})
        if done:
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
        # the next basis is built with this one's blocks and images freed
        del S, AS, W, Z
    return theta[:count], X[:, :count], iterations, history


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
    present = np.flatnonzero(np.bincount(copy))
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


def cg(matvec, b, psolve, rtol: float, maxiter: int):
    """CG for ``matvec(x) = b`` from x = 0, preconditioned by ``psolve``:
    ``scipy.sparse.linalg.cg``'s loop at ``atol=0`` op for op, so its bits
    for any b != 0.  ``(x, 0)`` once ``|r| < rtol |b|``, else ``(x, maxiter)``."""
    x, r = np.zeros_like(b), b.copy()
    atol = rtol * float(np.linalg.norm(b))
    for iteration in range(maxiter):
        if np.linalg.norm(r) < atol:
            return x, 0
        z = psolve(r)
        rho = np.dot(r, z)
        p = p * (rho / rho_prev) + z if iteration else z
        q = matvec(p)
        alpha = rho / np.dot(p, q)
        x += alpha * p
        r -= alpha * q
        rho_prev = rho
    return x, maxiter


def torsion_solve(A: MultiIndicator, kp: KernelParams) -> TorsionResult:
    """Solve the unit-load problem on the shape and report its energy.

    The system is (c/2) Q u = h^n on active cells, with c the classical
    operator constant, so u matches the closed-form ball solution and the
    energy at the minimizer reduces to -(1/2) h^n sum u.  CG runs on the FFT
    operator, preconditioned by its circulant; no N x N array is built.
    """
    half_c = 0.5 * kernel_operator_constant(kp.n, kp.s)
    op = form_operator(A, kp)
    rhs = np.full(op.size, A.grid.cell_volume)
    M = lambda u: half_c * op.apply(u)
    u, info = cg(M, rhs, lambda r: op.precondition(r) / half_c,
                 rtol=1e-10, maxiter=CG_MAXITER)
    if info != 0:
        raise RuntimeError(f"torsion solve failed to converge (cg info {info})")
    resid = np.linalg.norm(M(u) - rhs) / np.linalg.norm(rhs)
    if not resid <= 1e-8:
        raise RuntimeError(f"torsion residual {resid:.2e} out of contract")
    if not u.min() >= -1e-9 * max(u.max(), 1.0):
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
