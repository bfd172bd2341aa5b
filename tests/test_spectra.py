import ast
import math
import os
import platform
import subprocess
import sys
import warnings

import numpy as np
import pytest

import fracdrum.spectra as spectra
from fracdrum import (GridSpec, KernelParams, LatticeField, MultiIndicator,
                      assemble_form, dirichlet_eigs, form_operator,
                      gamma_distance, kernel_operator_constant, objective,
                      rayleigh, torsion_solve)
from test_extension import traced_peak


def interval(h, lo=-1.0, hi=1.0, L=2.0, copies=1, copy=0):
    g = GridSpec(n=1, h=h, L=L, copies=copies)
    return MultiIndicator.from_interval(g, lo, hi, copy=copy)


KP = KernelParams(n=1, s=0.5)


def test_operator_constant_known_values():
    assert kernel_operator_constant(1, 0.5) == pytest.approx(1 / math.pi, rel=1e-13)
    assert kernel_operator_constant(2, 0.5) == pytest.approx(1 / (2 * math.pi), rel=1e-13)


def test_interval_spectrum_regression():
    res = dirichlet_eigs(interval(0.125), KP, 3)
    frozen = [7.6188407292594515, 18.85445209587267, 30.70715987397519]
    assert res.eigenvalues == pytest.approx(frozen, rel=1e-10)
    assert np.all(np.diff(res.eigenvalues) >= 0)
    assert res.eigenvalues[0] > 0


def test_orthonormality_residuals_and_sign():
    A = interval(0.0625, -1.5, 0.75)
    res = dirichlet_eigs(A, KP, 5)
    V = res.vectors
    gram = A.grid.cell_volume * (V.T @ V)
    assert np.max(np.abs(gram - np.eye(5))) <= 1e-10
    assert np.all(res.residuals <= spectra.RESIDUAL_RTOL)
    for j in range(5):
        v = V[:, j]
        nz = np.flatnonzero(np.abs(v) > 1e-12 * np.abs(v).max())
        assert v[nz[0]] > 0


def test_first_eigenfield_positive_on_connected_shape():
    A = interval(0.0625)
    res = dirichlet_eigs(A, KP, 1)
    v = res.vectors[:, 0]
    assert np.all(v > 0)


def test_block_diagonal_union_of_copies():
    one = interval(0.125)
    res1 = dirichlet_eigs(one, KP, 4)
    g2 = GridSpec(n=1, h=0.125, L=2.0, copies=2)
    both = MultiIndicator(g2, [one.masks[0], one.masks[0]])
    res2 = dirichlet_eigs(both, KP, 8)
    expected = np.sort(np.concatenate([res1.eigenvalues, res1.eigenvalues]))
    assert res2.eigenvalues == pytest.approx(expected, rel=1e-10)
    assert res2.is_numerically_multiple(1)
    assert not res1.is_numerically_multiple(1)
    assert not res1.is_numerically_multiple(4)
    for k in (0, -1, 5):
        with pytest.raises(ValueError, match="not in 1..4"):
            res1.is_numerically_multiple(k)


def test_nested_monotonicity_is_exact():
    g = GridSpec(n=1, h=0.125, L=2.0)
    rng = np.random.default_rng(3)
    for _ in range(10):
        big = np.zeros(g.shape, dtype=bool)
        big[4:28] = rng.random(24) < 0.8
        if big.sum() < 4:
            continue
        small = big.copy()
        on = np.flatnonzero(small)
        small[rng.choice(on, size=len(on) // 3, replace=False)] = False
        if small.sum() < 2:
            continue
        lam_b = dirichlet_eigs(MultiIndicator(g, [big]), KP, 1).eigenvalues[0]
        lam_s = dirichlet_eigs(MultiIndicator(g, [small]), KP, 1).eigenvalues[0]
        assert lam_s >= lam_b


def test_first_eigenvalue_refinement_convergence():
    coarse = dirichlet_eigs(interval(2 / 128), KP, 1).eigenvalues[0]
    fine = dirichlet_eigs(interval(2 / 512), KP, 1).eigenvalues[0]
    assert abs(coarse - fine) / fine <= 0.02


def test_count_validation():
    A = interval(0.25)
    N = A.cell_count()
    for count in (0, -1, N + 1):
        with pytest.raises(ValueError, match=rf"^'count' must be in 1\.\.{N}, "):
            dirichlet_eigs(A, KP, count)


def test_iterative_solver_matches_dense(monkeypatch):
    A = interval(0.0625, -1.5, 1.0)
    dense = dirichlet_eigs(A, KP, 3).eigenvalues
    monkeypatch.setattr(spectra, "DENSE_LIMIT", 4)
    iterative = dirichlet_eigs(A, KP, 3).eigenvalues
    assert iterative == pytest.approx(dense, rel=1e-8)


def test_solvers_return_id_ordered_vectors_and_build_no_shapes(monkeypatch):
    import fracdrum.grid as grid
    A = interval(0.0625, -1.5, 1.0)
    F = assemble_form(A, KP)
    built = []

    def counted(init):
        def wrapper(self, *args, **kwargs):
            built.append(type(self).__name__)
            init(self, *args, **kwargs)
        return wrapper

    for cls in (grid.LatticeField, grid.MultiIndicator):
        monkeypatch.setattr(cls, "__init__", counted(cls.__init__))
    dense = dirichlet_eigs(A, KP, 3, F=F)
    monkeypatch.setattr(spectra, "DENSE_LIMIT", 4)
    iterative = dirichlet_eigs(A, KP, 3, F=F)
    torsion = torsion_solve(A, KP)
    assert built == []
    assert dense.vectors.shape == iterative.vectors.shape == (F.size, 3)
    assert torsion.vector.shape == (F.size,)
    # rows follow the cell ids: the Rayleigh quotient on the form's rows
    Q, vol = F.quadratic_matrix, A.grid.cell_volume
    for res in (dense, iterative):
        for lam, v in zip(res.eigenvalues, res.vectors.T):
            assert v @ Q @ v / (vol * v @ v) == pytest.approx(lam, rel=1e-9)


def test_iterative_solver_is_bit_reproducible(monkeypatch):
    A = interval(0.0625, -1.5, 1.0)
    monkeypatch.setattr(spectra, "DENSE_LIMIT", 4)
    runs = {dirichlet_eigs(A, KP, 3).eigenvalues.tobytes() for _ in range(6)}
    assert len(runs) == 1


def two_rects(h=0.125):
    g = GridSpec(n=2, h=h, L=1.0, copies=2)
    x, y = g.cell_centers().T.reshape(2, *g.shape)
    return MultiIndicator(g, [(np.abs(x) < 0.6) & (np.abs(y) < 0.4),
                              (np.abs(x - 0.1) < 0.4) & (np.abs(y) < 0.7)])


def two_copy_intervals(h=1 / 64):
    g = GridSpec(n=1, h=h, L=2.0, copies=2)
    c = g.axis_centers()
    return MultiIndicator(g, [(np.abs(c) < 0.5) | ((c > 0.8) & (c < 1.5)),
                              (c > -1.7) & (c < -0.2)])


@pytest.mark.parametrize("A, kp", [
    (two_copy_intervals(), KP),
    (two_rects(), KernelParams(n=2, s=0.5)),
])
def test_form_operator_matches_dense_form(A, kp):
    Q = assemble_form(A, kp).quadratic_matrix
    op = form_operator(A, kp)
    assert np.array_equal(op.ids, np.flatnonzero(A.masks))
    X = np.random.default_rng(2).normal(size=(op.size, 5))
    ref = Q @ X
    for got, want in ((op.apply(X), ref), (op.apply(X[:, 0]), ref[:, 0])):
        assert got.shape == want.shape
        assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))
    # the preconditioner P C^-1 P^T is symmetric positive definite
    assert op.symbol.min() > 0
    C_inv = op.precondition(np.eye(op.size))
    assert np.allclose(C_inv, C_inv.T, rtol=0, atol=1e-13 * np.abs(C_inv).max())
    assert np.linalg.eigvalsh(C_inv).min() > 0


def test_form_operator_refuses_a_nonpositive_symbol(monkeypatch):
    import fracdrum.form as form
    stencil = form._box_stencil

    def weak_diagonal(grid, kp):
        w, diag = stencil(grid, kp)
        return w, 0.1 * diag
    monkeypatch.setattr(form, "_box_stencil", weak_diagonal)
    with pytest.raises(RuntimeError, match="symbol"):
        form_operator(two_rects(), KernelParams(n=2, s=0.5))


@pytest.mark.parametrize("A, kp", [
    (interval(0.03125, -1.5, 1.0), KP),
    (two_rects(), KernelParams(n=2, s=0.5)),
])
def test_lobpcg_branch_matches_eigh(monkeypatch, A, kp):
    dense = dirichlet_eigs(A, kp, 4)
    monkeypatch.setattr(spectra, "DENSE_LIMIT", 4)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        iterative = dirichlet_eigs(A, kp, 4)
    assert iterative.eigenvalues == pytest.approx(dense.eigenvalues, rel=1e-12)
    assert np.all(iterative.residuals <= spectra.RESIDUAL_RTOL)
    assert (dense.solver, dense.iterations) == ("eigh", 0)
    assert iterative.solver == "lobpcg"
    assert 0 < iterative.iterations < spectra.LOBPCG_MAXITER


def two_copy_interval_1d(h):
    g = GridSpec(n=1, h=h, L=2.0, copies=2)
    c = g.axis_centers()
    return MultiIndicator(g, [(c > -1.0) & (c < 1.5), (c > -1.5) & (c < 1.05)])


@pytest.mark.parametrize("A, s", [
    *[pytest.param(interval(1 / 1024), s, id=f"interval-h1024-s{s}")
      for s in (0.05, 0.3, 0.7, 0.9, 0.95)],
    *[pytest.param(two_copy_interval_1d(1 / 256), s, id=f"two-copies-h256-s{s}")
      for s in (0.9, 0.95)],
])
def test_lobpcg_branch_matches_dense_eigh_across_s(A, s):
    # above the real DENSE_LIMIT; large s makes the form ill-conditioned
    assert A.cell_count() > spectra.DENSE_LIMIT
    kp = KernelParams(n=1, s=s)
    res = dirichlet_eigs(A, kp, 4)
    Q = assemble_form(A, kp).quadratic_matrix
    want = np.linalg.eigvalsh(Q)[:4] / A.grid.cell_volume
    assert res.solver == "lobpcg"
    assert res.eigenvalues == pytest.approx(want, rel=1e-10)
    assert np.all(res.residuals <= spectra.RESIDUAL_RTOL)


def test_lobpcg_branch_count_equal_to_size_uses_eigh(monkeypatch):
    A = interval(0.25, -1.0, 0.5)      # 6 cells
    N = A.cell_count()
    dense = dirichlet_eigs(A, KP, N)
    monkeypatch.setattr(spectra, "DENSE_LIMIT", 4)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        full = dirichlet_eigs(A, KP, N)
    assert np.array_equal(full.eigenvalues, dense.eigenvalues)


def test_lobpcg_branch_count_that_overfills_the_block_uses_eigh(monkeypatch):
    A = interval(0.0625, -1.5, 1.0)    # 40 cells: a block of 10 needs 50
    dense = dirichlet_eigs(A, KP, 5)

    def refuse(*args, **kwargs):
        raise AssertionError("lobpcg called")
    monkeypatch.setattr(spectra, "DENSE_LIMIT", 4)
    monkeypatch.setattr(spectra, "_lobpcg", refuse)
    assert np.array_equal(dirichlet_eigs(A, KP, 5).eigenvalues, dense.eigenvalues)
    with pytest.raises(AssertionError, match="lobpcg called"):
        dirichlet_eigs(A, KP, 4)


def test_lobpcg_branch_keeps_residual_contract(monkeypatch):
    A = interval(0.0625, -1.5, 1.0)
    lobpcg = spectra._lobpcg

    def perturbed(*args, **kwargs):
        vals, vecs, *rest = lobpcg(*args, **kwargs)
        noise = 1e-6 * np.random.default_rng(0).normal(size=vecs.shape)
        return vals, vecs + noise, *rest
    monkeypatch.setattr(spectra, "DENSE_LIMIT", 4)
    monkeypatch.setattr(spectra, "_lobpcg", perturbed)
    with pytest.raises(RuntimeError, match="residual"):
        dirichlet_eigs(A, KP, 3)


def test_lobpcg_branch_out_of_iterations_raises(monkeypatch):
    A = interval(0.0625, -1.5, 1.0)
    monkeypatch.setattr(spectra, "DENSE_LIMIT", 4)
    monkeypatch.setattr(spectra, "LOBPCG_MAXITER", 1)
    with pytest.raises(RuntimeError,
                       match=r"residual .* contract \(lobpcg, 1 iterations\); "
                             r"condition estimate \d\.\d\de\+\d\d$"):
        dirichlet_eigs(A, KP, 3)


def test_lobpcg_failure_below_the_float64_floor_says_so(monkeypatch):
    # a contract below eps times the condition estimate cannot be met; the
    # error says so and carries the residuals of the requested pairs at
    # every tenth iteration and the last
    A = interval(0.0625, -1.5, 1.0)
    monkeypatch.setattr(spectra, "DENSE_LIMIT", 4)
    monkeypatch.setattr(spectra, "LOBPCG_MAXITER", 12)
    monkeypatch.setattr(spectra, "RESIDUAL_RTOL", 1e-20)
    with pytest.raises(RuntimeError, match=r"condition estimate \d.*below "
                       "float64's floor for this grid and s$") as err:
        dirichlet_eigs(A, KP, 3)
    history = err.value.residual_history
    assert [row["iteration"] for row in history] == [0, 10, 12]
    assert all(len(row["residuals"]) == 3 for row in history)
    assert history[-1]["residuals"][0] < history[0]["residuals"][0]


def test_lobpcg_peak_memory():
    # the refine workload's largest LOBPCG solve, N = 4096 with a block of 8.
    # One solve measured a peak of 14.0 arrays of N x block floats (19.2 when
    # each iteration's basis [X, W, P] and its image stayed alive while the
    # next was built, and the FFT's scatter box through its inverse)
    op = form_operator(interval(1 / 2048), KP)
    count, block = 4, 8
    assert op.size == 4096
    spectra._lobpcg(op, count, block)          # pocketfft's plans
    peak = traced_peak(lambda: spectra._lobpcg(op, count, block))
    assert peak < 17.5 * op.size * block * 8


def test_lobpcg_branch_runs_on_one_blas_thread(monkeypatch):
    controls = [(get, put) for get, put, _ in spectra._openblas().values()]
    if not controls:
        pytest.skip("no OpenBLAS loaded")
    before = [get() for get, _ in controls]
    lobpcg, seen = spectra._lobpcg, []

    def counting(*args, **kwargs):
        seen.append([get() for get, _ in controls])
        return lobpcg(*args, **kwargs)
    monkeypatch.setattr(spectra, "DENSE_LIMIT", 4)
    monkeypatch.setattr(spectra, "_lobpcg", counting)
    res = dirichlet_eigs(interval(0.03125, -1.5, 1.0), KP, 4)
    assert res.solver == "lobpcg"
    assert seen == [[1] * len(controls)]
    assert [get() for get, _ in controls] == before

    def failing(*args, **kwargs):
        raise FloatingPointError("solver failed")
    monkeypatch.setattr(spectra, "_lobpcg", failing)
    with pytest.raises(FloatingPointError):
        dirichlet_eigs(interval(0.03125, -1.5, 1.0), KP, 4)
    assert [get() for get, _ in controls] == before

    # the dense branch, with its residual check, runs on one thread as well
    monkeypatch.undo()
    dense, seen, noise = spectra._dense_pairs, [], 0.0

    def counting_dense(*args, **kwargs):
        seen.append([get() for get, _ in controls])
        vals, vecs = dense(*args, **kwargs)
        return vals, vecs + noise
    monkeypatch.setattr(spectra, "_dense_pairs", counting_dense)
    res = dirichlet_eigs(interval(0.03125, -1.5, 1.0), KP, 4)
    assert res.solver == "eigh"
    assert seen == [[1] * len(controls)]
    assert [get() for get, _ in controls] == before
    noise = 1e-6
    with pytest.raises(RuntimeError, match="residual"):
        dirichlet_eigs(interval(0.03125, -1.5, 1.0), KP, 4)
    assert len(seen) == 2 and seen[1] == [1] * len(controls)
    assert [get() for get, _ in controls] == before


@pytest.mark.skipif(platform.machine().lower() not in ("x86_64", "amd64"),
                    reason="OPENBLAS_CORETYPE=Nehalem names an x86-64 kernel")
def test_blas_kernels_name_the_kernels_each_openblas_picked():
    # Nehalem needs only SSE4.2, so every x86-64 host can be made to pick it
    src = os.path.dirname(os.path.dirname(spectra.__file__))
    env = dict(os.environ, OPENBLAS_CORETYPE="Nehalem", PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run(
        [sys.executable, "-c",
         "from fracdrum.spectra import blas_kernels; print(blas_kernels())"],
        capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    kernels = ast.literal_eval(proc.stdout)
    if not kernels:
        pytest.skip("no OpenBLAS loaded")
    assert kernels == dict.fromkeys(kernels, "Nehalem")


def test_serial_scope_holds_the_openblas_lapack_links():
    # _openblas() reads the process's OpenBLAS builds once, at the first
    # eigensolve's _serial_blas scope; scipy's LAPACK module must be loaded
    # by then, or the dense dsyevr would run on the default thread count
    src = os.path.dirname(os.path.dirname(spectra.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    code = (
        "from fracdrum import GridSpec, KernelParams, MultiIndicator, spectra\n"
        "g = GridSpec(n=1, h=0.25, L=2.0)\n"
        "A = MultiIndicator.from_interval(g, -1.0, 1.0)\n"
        "assert spectra.dirichlet_eigs(A, KernelParams(n=1, s=0.5), 2).solver == 'eigh'\n"
        "with open('/proc/self/maps') as f:\n"
        "    maps = {l.split()[-1] for l in f if 'openblas' in l.lower()}\n"
        "maps = {p for p in maps if p.startswith('/') and '.so' in p}\n"
        "print(len(maps), *sorted(maps - set(spectra._openblas())))")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    loaded, *missing = proc.stdout.split()
    if loaded == "0":
        pytest.skip("no OpenBLAS loaded, or no /proc/self/maps")
    assert missing == []


def test_matrix_free_solvers_never_assemble(monkeypatch):
    import fracdrum.form as form
    A = two_rects()

    def refuse(*args, **kwargs):
        raise AssertionError("assemble_form called")
    kp = KernelParams(n=2, s=0.5)
    dense = dirichlet_eigs(A, kp, 2)
    monkeypatch.setattr(spectra, "assemble_form", refuse)
    monkeypatch.setattr(form, "assemble_form", refuse)
    # torsion is matrix-free at any size, the limit left as it is
    assert A.cell_count() <= spectra.DENSE_LIMIT
    assert torsion_solve(A, kp).energy < 0
    monkeypatch.setattr(spectra, "DENSE_LIMIT", 4)
    assert dirichlet_eigs(A, kp, 2).eigenvalues == pytest.approx(
        dense.eigenvalues, rel=1e-12)


def dense_torsion(A, kp):
    """Torsion by a direct dense solve of (c/2) Q u = h^n."""
    Q = assemble_form(A, kp).quadratic_matrix
    half_c = 0.5 * kernel_operator_constant(kp.n, kp.s)
    return np.linalg.solve(half_c * Q, np.full(len(Q), A.grid.cell_volume))


def one_cell_per_copy(n, copies):
    g = GridSpec(n=n, h=0.25, L=1.0, copies=copies)
    masks = np.zeros((copies, *g.shape), dtype=bool)
    for c in range(copies):
        masks[(c, *[2 + 3 * c] * n)] = True
    return MultiIndicator(g, masks)


def full_interior(n, h, copies):
    g = GridSpec(n=n, h=h, L=1.0, copies=copies)
    return MultiIndicator(g, [g.interior()] * copies)


@pytest.mark.parametrize("A, kp", [
    (interval(0.03125, -1.5, 1.0), KP),
    (two_copy_intervals(), KernelParams(n=1, s=0.3)),
    (two_rects(), KernelParams(n=2, s=0.7)),
    *[pytest.param(one_cell_per_copy(n, copies), KernelParams(n=n, s=0.5),
                   id=f"{n}d-one-cell-{copies}-copies")
      for n in (1, 2) for copies in (1, 2)],
    *[pytest.param(full_interior(n, h, copies), KernelParams(n=n, s=s),
                   id=f"{n}d-interior-h{round(1 / h)}-{copies}-copies-s{s}")
      for n, h, copies in ((1, 1 / 64, 2), (2, 1 / 4, 1), (2, 1 / 16, 2))
      for s in (0.01, 0.99)],
])
def test_matrix_free_torsion_matches_dense(A, kp):
    want = dense_torsion(A, kp)
    got = torsion_solve(A, kp)
    assert np.max(np.abs(got.vector - want)) <= 1e-10 * np.max(np.abs(want))
    energy = -0.5 * A.grid.cell_volume * want.sum()
    assert got.energy == pytest.approx(energy, rel=1e-10)


def test_torsion_raises_when_cg_does_not_converge(monkeypatch):
    cg = spectra.cg

    def stalled(*args, **kwargs):
        u, _ = cg(*args, **kwargs)
        return u, 1
    monkeypatch.setattr(spectra, "cg", stalled)
    with pytest.raises(RuntimeError, match="failed to converge"):
        torsion_solve(interval(0.0625), KP)


def test_torsion_raises_on_a_residual_out_of_contract(monkeypatch):
    cg = spectra.cg

    def perturbed(*args, **kwargs):
        u, info = cg(*args, **kwargs)
        return u * (1 + 1e-6 * np.random.default_rng(0).normal(size=u.shape)), info
    monkeypatch.setattr(spectra, "cg", perturbed)
    with pytest.raises(RuntimeError, match="residual"):
        torsion_solve(interval(0.0625), KP)


def test_torsion_raises_when_the_field_turns_negative(monkeypatch):
    cg = spectra.cg
    solved = []

    def recorded(*args, **kwargs):
        u, info = cg(*args, **kwargs)
        solved.append(u)
        return u, info
    # a negated operator constant makes the exact solution negative, so the
    # convergence and residual checks pass and only positivity can fire
    constant = spectra.kernel_operator_constant
    monkeypatch.setattr(spectra, "kernel_operator_constant",
                        lambda n, s: -constant(n, s))
    monkeypatch.setattr(spectra, "cg", recorded)
    with pytest.raises(RuntimeError, match="positivity"):
        torsion_solve(interval(0.0625), KP)
    assert solved[0].max() < 0


def test_min_max_ritz_consistency():
    A = interval(0.125, -1.0, 0.5)   # 12 cells
    F = assemble_form(A, KP)
    res = dirichlet_eigs(A, KP, 3)
    Q = F.quadratic_matrix / A.grid.cell_volume
    rng = np.random.default_rng(5)
    for j in (1, 2, 3):
        # any j-dimensional trial subspace has Ritz max >= lambda_j
        for _ in range(40):
            S = rng.normal(size=(F.size, j))
            ritz = np.linalg.eigvalsh(
                np.linalg.solve(S.T @ S, S.T @ Q @ S))
            assert ritz[-1] >= res.eigenvalues[j - 1] - 1e-9
        # the eigenvector span attains it
        V = res.vectors[:, :j]
        ritz = np.linalg.eigvalsh(np.linalg.solve(V.T @ V, V.T @ Q @ V))
        assert ritz[-1] == pytest.approx(res.eigenvalues[j - 1], rel=1e-9)


def test_rayleigh_dominates_lowest_eigenvalue():
    A = interval(0.125, -0.75, 1.25)
    F = assemble_form(A, KP)
    lam1 = dirichlet_eigs(A, KP, 1, F=F).eigenvalues[0]
    rng = np.random.default_rng(8)
    for _ in range(20):
        vals = np.where(A.masks[0], rng.normal(size=A.grid.shape), 0.0)
        u = LatticeField(A.grid, [vals])
        assert rayleigh(F, u) >= lam1 - 1e-9 * lam1


def test_linf_scaling_diagnostic_recorded():
    power = 1 / (4 * KP.s)   # n / 4s
    ratios = []
    for h in (0.125, 0.0625, 0.03125):
        A = interval(h)
        res = dirichlet_eigs(A, KP, 1)
        u = A.field(res.vectors[:, 0])
        sup = max(float(np.abs(v).max()) for v in u.values)
        ratios.append(sup / (res.eigenvalues[0] ** power
                             * math.sqrt(u.norm_sq())))
    print("sup-norm scaling ratios:", [f"{r:.4f}" for r in ratios])
    for a, b in zip(ratios, ratios[1:]):
        assert b <= 2.0 * a


def test_objective_is_eigenvalue_plus_volume():
    A = interval(0.125, -1.0, 0.75)
    res = dirichlet_eigs(A, KP, 2)
    assert objective(A, KP, 2) == res.eigenvalues[1] + A.volume()
    g = A.grid
    wider = MultiIndicator(g, [A.masks[0] | interval(0.125, 1.0, 1.25).masks[0]])
    # adding cells far from the spectral mass still pays full volume price
    assert objective(wider, KP, 1) - dirichlet_eigs(wider, KP, 1).eigenvalues[0] \
        == pytest.approx(wider.cell_count() * g.cell_volume, rel=1e-14)


def test_objective_interval_scan_unimodal():
    # radii chosen as exact cell multiples so the family is truly nested
    g = GridSpec(n=1, h=0.05, L=4.0)
    radii = np.round(np.arange(0.2, 2.001, 0.1), 10)
    vals = []
    for r in radii:
        A = MultiIndicator.from_interval(g, -r, r)
        vals.append(objective(A, KP, 1))
    diffs = np.sign(np.diff(vals))
    flips = int(np.sum(diffs[:-1] != diffs[1:]))
    best = radii[int(np.argmin(vals))]
    print(f"interval objective minimized at r* = {best:.2f}")
    assert flips == 1                  # decreasing then increasing
    assert 0.2 < best < 2.0
    assert best == pytest.approx(1.9)


def test_torsion_interval_profile_and_energy():
    A = interval(2 / 128)
    res = torsion_solve(A, KP)
    x = A.grid.cell_centers()[:, 0]
    on = A.masks[0]
    exact = np.sqrt(np.maximum(1 - x[on] ** 2, 0.0))
    err = np.max(np.abs(res.vector - exact))
    assert err <= 0.05 * exact.max()
    assert res.energy == pytest.approx(-math.pi / 4, rel=0.05)
    assert res.energy <= 0
    assert np.all(res.vector >= 0)


def test_torsion_energy_regression():
    res = torsion_solve(interval(0.125), KP)
    assert res.energy == pytest.approx(-0.7603632053568732, rel=1e-10)


def test_torsion_positive_on_random_shapes():
    g = GridSpec(n=1, h=0.125, L=2.0)
    rng = np.random.default_rng(12)
    for _ in range(5):
        m = np.zeros(g.shape, dtype=bool)
        m[2:30] = rng.random(28) < 0.6
        if m.sum() < 2:
            continue
        res = torsion_solve(MultiIndicator(g, [m]), KP)
        assert np.all(res.vector >= 0)
        assert res.energy <= 0


def test_torsion_scaling_on_ball_family():
    h = 1 / 32
    g = GridSpec(n=1, h=h, L=2.0)
    power = (1 + 2 * KP.s) / 1
    ratios = []
    for r in (0.4, 0.6, 0.8, 1.0, 1.2):
        A = MultiIndicator.from_interval(g, -r, r)
        E = torsion_solve(A, KP).energy
        ratios.append(abs(E) / A.volume() ** power)
    print("torsion ball ratios:", [f"{v:.5f}" for v in ratios])
    assert max(ratios) / min(ratios) <= 1.10
    assert ratios[-1] == pytest.approx(math.pi / 16, rel=0.05)


def test_gamma_distance_properties():
    A = interval(0.125, -1.0, 1.0)
    B = interval(0.125, -0.5, 0.75)
    assert gamma_distance(A, A, KP) == 0.0
    d_ab = gamma_distance(A, B, KP)
    assert d_ab == gamma_distance(B, A, KP)
    assert d_ab > 0
    # B inside A: comparison makes the absolute sum collapse to a plain sum
    ua = A.field(torsion_solve(A, KP).vector).values[0]
    ub = B.field(torsion_solve(B, KP).vector).values[0]
    assert np.all(ua - ub >= -1e-9)
    assert d_ab == pytest.approx(A.grid.cell_volume * float((ua - ub).sum()),
                                 rel=1e-9)


@pytest.mark.parametrize("N", [1, 2, 12, 40, 150, 193, 600])
def test_direct_dsyevr_gives_the_bits_of_eigh(N):
    from scipy.linalg import eigh
    rng = np.random.default_rng(N)
    B = rng.standard_normal((N, N))
    Q = B @ B.T + N * np.eye(N)
    before = Q.copy()
    for count in range(1, min(N, 4) + 1):
        vals, vecs = spectra._dense_pairs(Q, count)
        want_vals, want_vecs = eigh(Q, subset_by_index=[0, count - 1])
        assert np.array_equal(vals, want_vals)
        assert np.array_equal(vecs, want_vecs)
    assert np.array_equal(Q, before)


def test_dense_branch_refuses_nan_pairs(monkeypatch):
    dense, spoil = spectra._dense_pairs, None

    def spoiled(Q, count):
        vals, vecs = dense(Q, count)
        spoil(vals, vecs)
        return vals, vecs
    monkeypatch.setattr(spectra, "_dense_pairs", spoiled)
    for spoil, contract in ((lambda vals, vecs: vals.fill(np.nan), "definiteness"),
                            (lambda vals, vecs: vecs.fill(np.nan), "residual")):
        with pytest.raises(RuntimeError, match=contract):
            dirichlet_eigs(interval(0.125), KP, 2)


def test_lobpcg_branch_refuses_nan_pairs(monkeypatch):
    lobpcg = spectra._lobpcg

    def nan_theta(*args, **kwargs):
        theta, X, *rest = lobpcg(*args, **kwargs)
        return np.full_like(theta, np.nan), X, *rest
    monkeypatch.setattr(spectra, "DENSE_LIMIT", 4)
    monkeypatch.setattr(spectra, "_lobpcg", nan_theta)
    with pytest.raises(RuntimeError, match="definiteness"):
        dirichlet_eigs(interval(0.03125, -1.5, 1.0), KP, 4)

    def nan_second(*args, **kwargs):
        theta, X, *rest = lobpcg(*args, **kwargs)
        theta[1] = np.nan
        return theta, X, *rest
    monkeypatch.setattr(spectra, "_lobpcg", nan_second)
    with pytest.raises(RuntimeError, match="residual"):
        dirichlet_eigs(interval(0.03125, -1.5, 1.0), KP, 4)


def test_torsion_refuses_a_nan_field(monkeypatch):
    cg = spectra.cg

    def one_nan(*args, **kwargs):
        u, info = cg(*args, **kwargs)
        u[len(u) // 2] = np.nan
        return u, info
    monkeypatch.setattr(spectra, "cg", one_nan)
    with pytest.raises(RuntimeError, match="residual"):
        torsion_solve(interval(0.0625), KP)


def test_form_refuses_a_grid_out_of_floating_point_range():
    # h^2 underflows to 0 and the far weight's distance power overflows, so
    # the weights are 0 * inf = nan
    g = GridSpec(n=1, h=1e-200, L=4e-200)
    A = MultiIndicator.from_interval(g, -2e-200, 2e-200)
    for solve in (lambda: assemble_form(A, KP), lambda: dirichlet_eigs(A, KP, 1),
                  lambda: torsion_solve(A, KP)):
        with np.errstate(over="ignore", invalid="ignore"), \
                pytest.raises(RuntimeError, match="non-finite"):
            solve()
