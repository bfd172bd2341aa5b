import math
import tracemalloc

import numpy as np
import pytest
from scipy import integrate

from fracdrum import (ExtensionGrid, ExtensionSolution, GridSpec, KernelParams,
                      LatticeField, MultiIndicator, WeissCurve, assemble_form,
                      bilinear, equivalence_constant, harmonic_extension,
                      homogeneous_profile, monotonicity_report,
                      trace_support_intervals, weiss_functional)


def bump(t):
    """Smooth compactly supported test trace, peak value 1 at the origin."""
    t = np.asarray(t, dtype=float)
    out = np.zeros_like(t)
    inside = np.abs(t) < 1
    out[inside] = np.exp(1.0 - 1.0 / (1.0 - t[inside] ** 2))
    return out


def test_grid_validation_and_geometry():
    with pytest.raises(ValueError):
        ExtensionGrid(hx=0.0, hy=0.1, L=1.0, H=1.0)
    with pytest.raises(ValueError, match="2L/hx"):
        ExtensionGrid(hx=0.3, hy=0.1, L=1.0, H=1.0)
    with pytest.raises(ValueError, match="H/hy"):
        ExtensionGrid(hx=0.1, hy=0.3, L=1.0, H=1.0)
    g = ExtensionGrid(hx=0.25, hy=0.5, L=1.0, H=2.0)
    assert (g.nx, g.ny) == (8, 4)
    assert g.x_nodes()[0] == pytest.approx(-0.875)
    assert g.y_rows()[0] == pytest.approx(0.25)
    assert g.y_rows()[-1] == pytest.approx(1.75)


def test_equivalence_constant():
    assert equivalence_constant(1, 0.5) == pytest.approx(1 / math.pi, rel=1e-14)
    with pytest.raises(ValueError):
        equivalence_constant(1, 1.0)


def test_zero_trace_gives_zero_everything():
    g = ExtensionGrid(hx=0.125, hy=0.125, L=1.0, H=1.0)
    sol = harmonic_extension(np.zeros(g.nx), g, 0.5)
    assert np.all(sol.values == 0.0)
    assert sol.energy == 0.0
    curve = weiss_functional(sol, 0.0, np.array([0.1, 0.2, 0.3]))
    assert np.all(curve.values == 0.0)
    assert np.all(curve.bulk == 0.0)
    assert np.all(curve.thin == 0.0)
    assert np.all(curve.sphere == 0.0)


def test_trace_validation():
    g = ExtensionGrid(hx=0.125, hy=0.125, L=1.0, H=1.0)
    with pytest.raises(ValueError, match="cell values"):
        harmonic_extension(np.zeros(g.nx + 1), g, 0.5)
    touching = np.ones(g.nx)
    with pytest.raises(ValueError, match="strictly inside"):
        harmonic_extension(touching, g, 0.5)
    with pytest.raises(ValueError):
        harmonic_extension(np.zeros(g.nx), g, 1.5)
    for bad in (np.nan, np.inf):
        spoiled = np.zeros(g.nx)
        spoiled[4] = bad
        with pytest.raises(ValueError, match="finite"):
            harmonic_extension(spoiled, g, 0.5)


@pytest.mark.parametrize("L,H", [(1e308, 1.0), (1.0, 1e308), (1.0, np.inf)])
def test_grid_rejects_non_finite_cell_counts(L, H):
    with pytest.raises(ValueError, match="must be a positive integer"):
        ExtensionGrid(hx=0.125, hy=0.125, L=L, H=H)


def test_extension_residual_contract(monkeypatch):
    import fracdrum.extension as extension
    solve = extension._solve_tridiagonal
    monkeypatch.setattr(extension, "_solve_tridiagonal",
                        lambda ab, b: solve(ab, b) * (1 + 1e-6))
    g = ExtensionGrid(hx=1 / 16, hy=1 / 16, L=2.0, H=2.0)
    tr = np.where(np.abs(g.x_nodes()) < 1.0, bump(g.x_nodes()), 0.0)
    with pytest.raises(RuntimeError, match="residual"):
        harmonic_extension(tr, g, 0.5)


def test_tiny_smoothness_is_refused_by_name():
    # y^(1-a) differences cancel to 0 near s = 1e-20, and the conductances
    # they divide are not finite
    g = ExtensionGrid(hx=0.25, hy=0.25, L=2.0, H=2.0)
    tr = np.where(np.abs(g.x_nodes()) < 1.0, bump(g.x_nodes()), 0.0)
    with pytest.raises(ValueError, match="s = 1e-20"):
        harmonic_extension(tr, g, 1e-20)
    assert np.isfinite(harmonic_extension(tr, g, 1e-10).energy)


def scipy_extension(trace, g, s):
    """The extension solve through scipy's public API: ``scipy.fft.dst`` and
    ``idst``, and ``scipy.linalg.solve_banded``."""
    from scipy.fft import dst, idst
    from scipy.linalg import solve_banded
    from fracdrum.extension import _conductances, _residual_and_energy
    nx, ny = g.nx, g.ny
    cond = ch, cv, ct, ctop = _conductances(g, s)
    lam = 4.0 * np.sin(np.pi * np.arange(1, nx + 1) / (2 * nx)) ** 2
    v = np.zeros((nx, ny))
    v[:, 0] = dst(ct * trace, type=2, norm="ortho")
    for m in np.array_split(np.arange(nx), 4):
        ab = np.zeros((3, len(m), ny))
        ab[0, :, 1:] = ab[2, :, :-1] = -cv
        ab[1] = lam[m, None] * ch + np.append(ct, cv) + np.append(cv, ctop)
        v[m] = solve_banded((1, 1), ab.reshape(3, -1), v[m].ravel()).reshape(-1, ny)
    v = idst(v, type=2, norm="ortho", axis=0)
    return v, _residual_and_energy(v, trace, cond)[1]


@pytest.mark.parametrize("s", [0.1, 0.5, 0.9])
def test_extension_keeps_the_bits_of_scipys_public_path(s):
    # the probe workload's bump grid; pocketfft and dgtsv are called with
    # the arguments scipy's public functions pass them
    g = ExtensionGrid(hx=1 / 128, hy=1 / 128, L=2.0, H=2.0)
    tr = np.where(np.abs(g.x_nodes()) < 1.0, bump(g.x_nodes()), 0.0)
    sol = harmonic_extension(tr, g, s)
    values, energy = scipy_extension(tr, g, s)
    assert np.array_equal(sol.values, values)
    assert sol.energy == energy


@pytest.mark.parametrize("s", [0.3, 0.7])
def test_maximum_principle(s):
    g = ExtensionGrid(hx=1 / 16, hy=1 / 16, L=2.0, H=2.0)
    tr = np.where(np.abs(g.x_nodes()) < 1.0, bump(g.x_nodes()), 0.0)
    sol = harmonic_extension(tr, g, s)
    assert sol.values.min() >= -1e-12
    assert sol.values.max() <= tr.max() + 1e-12


@pytest.mark.parametrize("s", [0.3, 0.7])
def test_interior_equation_residual(s):
    # conductances re-derived here by direct quadrature of the weight, so a
    # closed-form slip in the solver would show up as a nonzero residual;
    # the boundary rows and columns see the trace below, the zero top and
    # the zero side walls through their own conductances
    g = ExtensionGrid(hx=1 / 32, hy=1 / 32, L=2.0, H=2.0)
    tr = np.where(np.abs(g.x_nodes()) < 1.0, bump(g.x_nodes()), 0.0)
    sol = harmonic_extension(tr, g, s)
    a = 1.0 - 2.0 * s

    def quad(f, lo, hi):
        return integrate.quad(f, lo, hi, epsabs=1e-14, epsrel=1e-13)[0]

    yr = g.y_rows()
    band = np.array([quad(lambda y: y ** a, j * g.hy, (j + 1) * g.hy)
                     for j in range(g.ny)])
    ch = band / g.hx
    cside = band / (g.hx / 2)
    cv = np.array([g.hx / quad(lambda y: y ** (-a), yr[j], yr[j + 1])
                   for j in range(g.ny - 1)])
    ct = g.hx / quad(lambda y: y ** (-a), 0.0, g.hy / 2)
    ctop = g.hx / quad(lambda y: y ** (-a), yr[-1], g.H)
    v = sol.values
    res = np.zeros_like(v)
    res[1:-1] += ch * (2 * v[1:-1] - v[:-2] - v[2:])
    res[0] += ch * (v[0] - v[1]) + cside * v[0]
    res[-1] += ch * (v[-1] - v[-2]) + cside * v[-1]
    res[:, 1:-1] += (cv[1:] * (v[:, 1:-1] - v[:, 2:])
                     + cv[:-1] * (v[:, 1:-1] - v[:, :-2]))
    res[:, 0] += cv[0] * (v[:, 0] - v[:, 1]) + ct * (v[:, 0] - tr)
    res[:, -1] += cv[-1] * (v[:, -1] - v[:, -2]) + ctop * v[:, -1]
    scale = np.abs(ct * tr).max()
    for where, rows in [("interior", res[1:-1, 1:-1]), ("bottom", res[:, 0]),
                        ("top", res[:, -1]), ("left", res[0]),
                        ("right", res[-1])]:
        assert np.abs(rows).max() / scale < 1e-8, where


def test_homogeneous_profile_values():
    assert homogeneous_profile(1.0, 0.0, 0.37) == pytest.approx(1.0, rel=1e-14)
    assert homogeneous_profile(-1.0, 0.0, 0.37) == 0.0
    for s in (0.3, 0.5, 0.7):
        assert homogeneous_profile(0.0, 1.0, s) == pytest.approx(2.0 ** (-s),
                                                                 rel=1e-12)
    # even in the vertical coordinate
    assert homogeneous_profile(0.3, -0.4, 0.5) \
        == pytest.approx(homogeneous_profile(0.3, 0.4, 0.5), rel=1e-14)


def test_probe_points_match_poisson_kernel():
    # at s = 1/2 the weight is constant and the continuum solution is the
    # classical half-plane Poisson convolution of the trace
    g = ExtensionGrid(hx=1 / 64, hy=1 / 64, L=4.0, H=4.0)
    tr = bump(g.x_nodes())
    sol = harmonic_extension(tr, g, 0.5)

    def poisson(x, y):
        val, _ = integrate.quad(
            lambda t: y / ((x - t) ** 2 + y ** 2) * float(bump(t)),
            -1, 1, epsabs=1e-12, epsrel=1e-12, limit=200)
        return val / math.pi

    for (px, py), frozen in [((0.0, 0.25), 0.7151353434920358),
                             ((0.5, 0.5), 0.41068664785377146)]:
        exact = poisson(px, py)
        got = float(sol.sample(px, py))
        assert abs(got - exact) / abs(exact) < 0.03
        assert got == pytest.approx(frozen, rel=1e-9)


@pytest.mark.parametrize("s,frozen_ratio", [(0.3, 1.028231927894869),
                                            (0.5, 1.0072361580754416),
                                            (0.7, 0.9519905679007721)])
def test_energy_equivalence_with_pairwise_form(s, frozen_ratio):
    g1 = GridSpec(n=1, h=1 / 64, L=4.0)
    A = MultiIndicator.from_interval(g1, -1.0, 1.0)
    xs = -g1.L + (np.arange(g1.cells_per_side) + 0.5) * g1.h
    u = LatticeField(g1, [np.where(A.masks[0], bump(xs), 0.0)])
    B = bilinear(assemble_form(A, KernelParams(n=1, s=s)), u, u)

    ge = ExtensionGrid(hx=1 / 64, hy=1 / 64, L=4.0, H=4.0)
    tre = np.where(np.abs(ge.x_nodes()) < 1.0, bump(ge.x_nodes()), 0.0)
    sol = harmonic_extension(tre, ge, s)
    ratio = 2.0 * sol.energy / (equivalence_constant(1, s) * B)
    assert abs(ratio - 1.0) < 0.05
    assert ratio == pytest.approx(frozen_ratio, rel=1e-9)


def profile_solution(s, h=1 / 256, L=1.0):
    g = ExtensionGrid(hx=h, hy=h, L=L, H=L)
    X, Y = np.meshgrid(g.x_nodes(), g.y_rows(), indexing="ij")
    return ExtensionSolution(grid=g, s=s,
                             trace=homogeneous_profile(g.x_nodes(), 0.0, s),
                             values=homogeneous_profile(X, Y, s),
                             energy=float("nan"))


@pytest.mark.parametrize("s,frozen_spread,limit", [(0.3, 0.00418004, 0.02),
                                                   (0.5, 0.01203245, 0.02),
                                                   (0.7, 0.04257228, 0.05)])
def test_weiss_constant_on_homogeneous_profile(s, frozen_spread, limit):
    # the s = 0.7 spread sits above 2% because the bottom boundary layer
    # carries most of the weight at a = -0.4 and the fixed subcell rule
    # resolves it less sharply; recorded at its measured level instead
    sol = profile_solution(s)
    radii = np.linspace(0.1, 0.4, 13)
    curve = weiss_functional(sol, 0.0, radii,
                             support_intervals=[(0.0, sol.grid.L)])
    W = curve.values
    spread = (W.max() - W.min()) / abs(W.mean())
    assert spread < limit
    assert spread == pytest.approx(frozen_spread, abs=1e-6)


def test_weiss_rescaling_identity():
    s = 0.5
    gf = ExtensionGrid(hx=1 / 128, hy=1 / 128, L=2.0, H=2.0)
    trf = np.where(np.abs(gf.x_nodes()) < 1.0, bump(gf.x_nodes()), 0.0)
    uf = harmonic_extension(trf, gf, s)
    w_half = weiss_functional(uf, 0.0, np.array([0.5])).values[0]

    # the half-scale dilation lands exactly on the nodes of a grid twice as
    # coarse over a box twice as large, so no interpolation enters
    r = 0.5
    gc = ExtensionGrid(hx=1 / 64, hy=1 / 64, L=4.0, H=4.0)
    ur = ExtensionSolution(grid=gc, s=s, trace=uf.trace * r ** (-s),
                           values=uf.values * r ** (-s), energy=float("nan"))
    iv = [(lo / r, hi / r) for lo, hi in trace_support_intervals(trf, gf)]
    w_one = weiss_functional(ur, 0.0, np.array([1.0]),
                             support_intervals=iv).values[0]
    assert w_one == pytest.approx(w_half, rel=0.02)      # stated contract
    assert w_one == pytest.approx(w_half, rel=1e-12)     # exact by design
    assert w_half == pytest.approx(2.033971513305131, rel=1e-9)


def test_weiss_radius_validation():
    sol = profile_solution(0.5, h=1 / 32)
    with pytest.raises(ValueError, match="radii"):
        weiss_functional(sol, 0.0, np.array([0.5]))
    with pytest.raises(ValueError, match="radii"):
        weiss_functional(sol, 0.0, np.array([-0.1, 0.2]))
    with pytest.raises(ValueError, match="leaves the grid"):
        weiss_functional(sol, 0.7, np.array([0.4]))
    # below one quadrature subcell (hx/4): r ** 2 underflows at 1e-300, and
    # at 1e-3 the half ball holds no bulk subpoint
    for radii in ([1e-300], [1e-3, 0.2]):
        with pytest.raises(ValueError, match="radii"):
            weiss_functional(sol, 0.0, np.array(radii))


@pytest.mark.parametrize("center, radii, match", [
    (float("nan"), [0.25], "leaves the grid"),
    (0.0, [float("nan")], "radii"),
    (0.0, [0.1, float("nan")], "radii"),
])
def test_weiss_refuses_a_nan_center_or_radius(center, radii, match):
    # a NaN must not come back as values == [nan]
    with pytest.raises(ValueError, match=match):
        weiss_functional(profile_solution(0.5, h=1 / 32), center, np.array(radii))


def test_trace_support_intervals():
    g = ExtensionGrid(hx=0.25, hy=0.25, L=1.0, H=1.0)
    tr = np.array([0.0, 1.0, 1.0, 0.0, 0.0, 2.0, 0.0, 0.0])
    got = trace_support_intervals(tr, g)
    assert len(got) == 2
    assert got[0] == (pytest.approx(-0.75), pytest.approx(-0.25))
    assert got[1] == (pytest.approx(0.25), pytest.approx(0.5))


def test_monotonicity_report():
    sol = profile_solution(0.5, h=1 / 64)
    radii = np.linspace(0.1, 0.4, 7)
    curve = weiss_functional(sol, 0.0, radii,
                             support_intervals=[(0.0, sol.grid.L)])
    rep = monotonicity_report(curve)
    assert len(rep["increments"]) == 6
    assert rep["fitted_negativity_constant"] >= 0.0
    if rep["monotone"]:
        assert rep["fitted_negativity_constant"] == 0.0
        assert rep["min_increment"] >= 0.0

    # a deliberate dip must be priced against the drift budget
    dipped = WeissCurve(s=0.5, radii=np.array([0.1, 0.2, 0.3]),
                        values=np.array([1.0, 0.9, 1.1]),
                        bulk=np.zeros(3), thin=np.zeros(3), sphere=np.zeros(3))
    rep2 = monotonicity_report(dipped)
    assert not rep2["monotone"]
    assert rep2["fitted_negativity_constant"] == pytest.approx(0.5, rel=1e-12)


def traced_peak(fn) -> int:
    """Peak bytes allocated while ``fn()`` runs, above those held before."""
    tracemalloc.start()
    try:
        held = tracemalloc.get_traced_memory()[0]
        fn()
        return tracemalloc.get_traced_memory()[1] - held
    finally:
        tracemalloc.stop()


def test_weiss_quadrature_peak_memory():
    # the probe workload's profile op.  One (I, J, 4, 4) float array holds a
    # value per bulk subpoint of the cells within rmax + 2h of the center;
    # the quadrature measured 2.2 of them at its peak (7.4 when it built
    # every subpoint factor at full size)
    sol = profile_solution(0.5)
    g, radii = sol.grid, [0.1 + 0.025 * i for i in range(13)]
    reach = max(radii) + 2 * g.hx
    cells = (np.sum(np.abs(g.x_nodes()[:-1]) <= reach)
             * np.sum(g.y_rows()[:-1] <= reach))
    peak = traced_peak(lambda: weiss_functional(
        sol, 0.0, radii, support_intervals=[(0.0, g.L)]))
    assert peak < 2.75 * cells * 4 * 4 * 8


def test_harmonic_extension_peak_memory():
    # the probe workload's bump op.  The residual check sets the peak, 5.0
    # arrays of nx * ny floats, field included (13.0 when the band of every
    # mode was solved in one call and kept through the check)
    g = ExtensionGrid(hx=1 / 128, hy=1 / 128, L=2.0, H=2.0)
    trace = np.where(np.abs(g.x_nodes()) < 1.0, bump(g.x_nodes()), 0.0)
    harmonic_extension(trace, g, 0.5)         # loads pocketfft and its plans
    peak = traced_peak(lambda: harmonic_extension(trace, g, 0.5))
    assert peak < 6.25 * g.nx * g.ny * 8
