import hashlib
import math

import numpy as np
import pytest
from scipy import integrate

from fracdrum import (GridSpec, KernelParams, LatticeField, MultiIndicator,
                      assemble_form, bilinear, energy_decomposition,
                      form_operator, interaction_energy, rayleigh,
                      translation_gradient)
from fracdrum.form import _box_tail

NSUB = 4
SUB = [(i + 0.5) / NSUB - 0.5 for i in range(NSUB)]


# --------------------------------------------------------------------------
# plain-loop oracle, kept deliberately dumb

def oracle_pair_weight(xa, xb, h, kp):
    p = kp.n + 2 * kp.s
    d = math.dist(xa, xb)
    if d > 3 * h * (1 + 1e-12):
        return h ** (2 * kp.n) * d ** (-p)
    total = 0.0
    if kp.n == 1:
        for oa in SUB:
            for ob in SUB:
                total += abs((xa[0] + oa * h) - (xb[0] + ob * h)) ** (-p)
        return (h / NSUB) ** 2 * total
    for oax in SUB:
        for oay in SUB:
            for obx in SUB:
                for oby in SUB:
                    dx = (xa[0] + oax * h) - (xb[0] + obx * h)
                    dy = (xa[1] + oay * h) - (xb[1] + oby * h)
                    total += (dx * dx + dy * dy) ** (-p / 2)
    return (h / NSUB) ** 4 * total


def oracle_tail_1d(x, L, s):
    return ((L - x) ** (-2 * s) + (L + x) ** (-2 * s)) / (2 * s)


def quad_tail_1d(x, L, s):
    f = lambda y: abs(x - y) ** (-(1 + 2 * s))
    left, _ = integrate.quad(f, -np.inf, -L)
    right, _ = integrate.quad(f, L, np.inf)
    return left + right


def quad_tail_2d(x0, x1, L, s):
    """Beyond-box integral as four disjoint strips, nested 1d quadratures."""
    f = lambda x, y: ((x - x0) ** 2 + (y - x1) ** 2) ** (-(1 + s))
    opts = dict(epsabs=1e-11, epsrel=1e-9, limit=200)

    def strip(outer_lo, outer_hi, inner_lo, inner_hi, vertical):
        def profile(t):
            if vertical:
                g = lambda y: f(t, y)
            else:
                g = lambda x: f(x, t)
            v, _ = integrate.quad(g, inner_lo, inner_hi, **opts)
            return v
        v, _ = integrate.quad(profile, outer_lo, outer_hi, **opts)
        return v

    total = strip(L, np.inf, -np.inf, np.inf, True)
    total += strip(-np.inf, -L, -np.inf, np.inf, True)
    total += strip(L, np.inf, -L, L, False)
    total += strip(-np.inf, -L, -L, L, False)
    return total


def oracle_energy(A, kp, u, tails=None):
    """Independent double lattice sum: pairs, box complement, beyond-box tail."""
    g = A.grid
    centers = g.cell_centers()
    cells = [divmod(int(i), g.box_size) for i in np.flatnonzero(A.masks)]
    vals = [u.values[c].ravel()[f] for c, f in cells]
    total = 0.0
    for i, (ci, fi) in enumerate(cells):
        for j, (cj, fj) in enumerate(cells):
            if i == j or ci != cj:
                continue
            w = oracle_pair_weight(centers[fi], centers[fj], g.h, kp)
            total += w * (vals[i] - vals[j]) ** 2
    for i, (ci, fi) in enumerate(cells):
        e = 0.0
        mask = A.masks[ci].ravel()
        for f2 in range(mask.size):
            if not mask[f2]:
                e += oracle_pair_weight(centers[fi], centers[f2], g.h, kp)
        if tails is None:
            tail = oracle_tail_1d(centers[fi][0], g.L, kp.s)
        else:
            tail = tails[i]
        total += 2.0 * (e + g.cell_volume * tail) * vals[i] ** 2
    return total


def random_shape_and_field(seed, g, count):
    rng = np.random.default_rng(seed)
    masks = [np.zeros(g.shape, dtype=bool) for _ in range(g.copies)]
    interior = []
    for copy in range(g.copies):
        it = np.ndindex(*g.shape)
        for idx in it:
            if all(0 < k < n - 1 for k, n in zip(idx, g.shape)):
                interior.append((copy, idx))
    picks = rng.choice(len(interior), size=count, replace=False)
    for p in picks:
        copy, idx = interior[p]
        masks[copy][idx] = True
    A = MultiIndicator(g, masks)
    vals = [np.where(m, rng.normal(size=g.shape), 0.0) for m in masks]
    return A, LatticeField(g, vals)


# --------------------------------------------------------------------------

def test_far_pair_weight_example():
    g = GridSpec(n=1, h=1.0, L=4.0)
    kp = KernelParams(n=1, s=0.5)
    m = np.zeros(g.shape, dtype=bool)
    m[1] = True   # center -2.5
    m[6] = True   # center  2.5, distance 5 > 3h
    F = assemble_form(MultiIndicator(g, [m]), kp)
    assert F.weights[0, 1] == pytest.approx(0.04, rel=1e-14)


@pytest.mark.parametrize("n,s", [(1, 0.3), (1, 0.5), (2, 0.5), (2, 0.7)])
def test_near_weights_match_plain_loops(n, s):
    h = 0.25
    g = GridSpec(n=n, h=h, L=1.0)
    kp = KernelParams(n=n, s=s)
    m = np.zeros(g.shape, dtype=bool)
    if n == 1:
        m[1:7] = True
    else:
        m[1:5, 1:4] = True
    F = assemble_form(MultiIndicator(g, [m]), kp)
    for i in range(F.size):
        for j in range(F.size):
            if i == j:
                continue
            w = oracle_pair_weight(F.positions[i], F.positions[j], h, kp)
            assert F.weights[i, j] == pytest.approx(w, rel=1e-12)


def box_tail_at(g, s, pts):
    """The cell centers nearest ``pts`` and ``_box_tail`` at them."""
    centers = g.cell_centers()
    rows = [int(np.argmin(np.sum((centers - p) ** 2, axis=1))) for p in pts]
    return centers[rows], _box_tail(g, s)[rows]


def test_tail_1d_matches_quadrature():
    g = GridSpec(n=1, h=0.25, L=2.0)
    for s in (0.3, 0.5, 0.8):
        centers, lib = box_tail_at(g, s, [(-1.375,), (0.125,), (0.375,), (1.625,)])
        for (x,), tail in zip(centers, lib):
            assert tail == pytest.approx(quad_tail_1d(x, g.L, s), rel=1e-8)


@pytest.mark.filterwarnings("ignore::scipy.integrate.IntegrationWarning")
def test_tail_2d_matches_quadrature():
    # non-dyadic h: the mirrored corner table is not exact here
    g = GridSpec(n=2, h=0.1, L=1.0)
    pts = [(0.05, 0.05), (0.65, -0.35), (-0.85, 0.85)]
    for s in (0.4, 0.6):
        centers, lib = box_tail_at(g, s, pts)
        for (x0, x1), tail in zip(centers, lib):
            # the adaptive strips themselves limit agreement near the corner
            assert tail == pytest.approx(quad_tail_2d(x0, x1, g.L, s), rel=2e-6)


@pytest.mark.parametrize("seed,count,h", [(0, 10, 0.125), (1, 40, 0.125),
                                          (2, 120, 0.0625)])
def test_bilinear_matches_brute_force_1d(seed, count, h):
    g = GridSpec(n=1, h=h, L=2.0, copies=2)
    kp = KernelParams(n=1, s=0.5)
    A, u = random_shape_and_field(seed, g, count)
    F = assemble_form(A, kp)
    ours = bilinear(F, u, u)
    ref = oracle_energy(A, kp, u)
    assert ours == pytest.approx(ref, rel=1e-10)


@pytest.mark.filterwarnings("ignore::scipy.integrate.IntegrationWarning")
def test_bilinear_matches_brute_force_2d():
    g = GridSpec(n=2, h=0.25, L=1.0)
    kp = KernelParams(n=2, s=0.6)
    A, u = random_shape_and_field(3, g, 12)
    F = assemble_form(A, kp)
    tails = [quad_tail_2d(p[0], p[1], g.L, kp.s) for p in F.positions]
    ref = oracle_energy(A, kp, u, tails=tails)
    assert bilinear(F, u, u) == pytest.approx(ref, rel=1e-7)


def test_bilinear_symmetry_and_zero():
    g = GridSpec(n=1, h=0.125, L=2.0)
    kp = KernelParams(n=1, s=0.4)
    A, u = random_shape_and_field(4, g, 12)
    rng = np.random.default_rng(9)
    v = LatticeField(g, [np.where(A.masks[0], rng.normal(size=g.shape), 0.0)])
    F = assemble_form(A, kp)
    assert bilinear(F, u, v) == pytest.approx(bilinear(F, v, u), rel=1e-12)
    zero = LatticeField(g, [np.zeros(g.shape)])
    assert bilinear(F, zero, zero) == 0.0


def test_form_positivity():
    g = GridSpec(n=1, h=0.125, L=2.0)
    kp = KernelParams(n=1, s=0.5)
    for seed in range(5):
        A, u = random_shape_and_field(seed, g, 15)
        F = assemble_form(A, kp)
        assert bilinear(F, u, u) > 0.0
        assert np.all(F.exterior > 0.0)


def test_matrix_invariants_and_cross_copy_block():
    g = GridSpec(n=1, h=0.25, L=2.0, copies=2)
    kp = KernelParams(n=1, s=0.5)
    A = MultiIndicator(g, [MultiIndicator.from_interval(g, -1.0, 0.0).masks[0],
                           MultiIndicator.from_interval(g, 0.0, 1.0).masks[0]])
    F = assemble_form(A, kp)
    assert np.array_equal(F.weights, F.weights.T)
    assert np.all(F.weights >= 0.0)
    assert np.all(np.diag(F.weights) == 0.0)
    c0 = F.ids < g.box_size
    assert np.all(F.weights[np.ix_(c0, ~c0)] == 0.0)
    Q = F.quadratic_matrix
    assert np.array_equal(Q, Q.T)


def random_interior_mask(rng, g, density):
    m = np.zeros(g.shape, dtype=bool)
    core = (slice(1, -1),) * g.n
    m[core] = rng.random(m[core].shape) < density
    return m


@pytest.mark.parametrize("n,h,L,s", [(1, 0.1, 1.5, 0.3), (2, 0.05, 0.5, 0.7)])
def test_subshape_matrix_is_a_principal_submatrix(n, h, L, s):
    g = GridSpec(n=n, h=h, L=L, copies=2)
    kp = KernelParams(n=n, s=s)
    rng = np.random.default_rng(13)
    big = [random_interior_mask(rng, g, 0.6) for _ in range(g.copies)]
    small = [m & (rng.random(g.shape) < 0.5) for m in big]
    FA = assemble_form(MultiIndicator(g, big), kp)
    FB = assemble_form(MultiIndicator(g, small), kp)
    rows = np.searchsorted(FA.ids, FB.ids)
    assert np.array_equal(FA.quadratic_matrix[np.ix_(rows, rows)],
                          FB.quadratic_matrix)


def test_translated_component_keeps_its_off_diagonal_block():
    g = GridSpec(n=2, h=0.05, L=0.5)
    kp = KernelParams(n=2, s=0.4)
    fixed = np.zeros(g.shape, dtype=bool)
    fixed[2:6, 3:9] = True
    blob = np.zeros(g.shape, dtype=bool)
    blob[9:13, 4:8] = True
    blob[10, 8] = True

    def own_block(shift):
        moved = np.roll(blob, shift, axis=(0, 1))
        F = assemble_form(MultiIndicator(g, [fixed | moved]), kp)
        rows = np.searchsorted(F.ids, np.flatnonzero(moved))
        blk = F.quadratic_matrix[np.ix_(rows, rows)]
        return blk[~np.eye(len(rows), dtype=bool)]

    before = own_block((0, 0))
    for shift in ((1, 0), (3, -2), (5, 7)):
        assert np.array_equal(own_block(shift), before)


def test_assembly_errors():
    g = GridSpec(n=1, h=0.25, L=1.0)
    kp = KernelParams(n=1, s=0.5)
    with pytest.raises(ValueError):
        assemble_form(MultiIndicator.empty(g), kp)
    with pytest.raises(ValueError):
        assemble_form(MultiIndicator.from_interval(g, -0.5, 0.5), KernelParams(n=2, s=0.5))


def test_field_outside_shape_rejected():
    g = GridSpec(n=1, h=0.25, L=1.0)
    kp = KernelParams(n=1, s=0.5)
    A = MultiIndicator.from_interval(g, -0.5, 0.25)
    F = assemble_form(A, kp)
    vals = np.zeros(g.shape)
    vals[5] = 1.0   # outside A
    u = LatticeField(g, [vals])
    with pytest.raises(ValueError):
        bilinear(F, u, u)


def test_rayleigh_scale_invariance_and_oracle():
    g = GridSpec(n=1, h=0.125, L=2.0)
    kp = KernelParams(n=1, s=0.5)
    A, u = random_shape_and_field(5, g, 20)
    F = assemble_form(A, kp)
    r = rayleigh(F, u)
    u7 = LatticeField(g, [7.0 * v for v in u.values])
    assert rayleigh(F, u7) == pytest.approx(r, rel=1e-12)
    ref = oracle_energy(A, kp, u) / (g.cell_volume * sum(
        float(np.sum(v * v)) for v in u.values))
    assert r == pytest.approx(ref, rel=1e-10)
    zero = LatticeField(g, [np.zeros(g.shape)])
    with pytest.raises(ValueError):
        rayleigh(F, zero)


def test_interaction_two_cell_example():
    g = GridSpec(n=1, h=1.0, L=4.0)
    kp = KernelParams(n=1, s=0.5)
    m = np.zeros(g.shape, dtype=bool)
    m[1] = True   # -2.5
    m[5] = True   #  1.5, distance 4
    A = MultiIndicator(g, [m])
    F = assemble_form(A, kp)
    vals = np.where(m, 1.0, 0.0)
    u = LatticeField(g, [vals])
    got = interaction_energy(F, u, [1], [5])
    assert got == pytest.approx(-0.25, rel=1e-14)


def test_interaction_sign_and_empty_side():
    g = GridSpec(n=1, h=0.25, L=2.0)
    kp = KernelParams(n=1, s=0.5)
    A = MultiIndicator(g, [MultiIndicator.from_interval(g, -1.5, -0.5).masks[0]
                           | MultiIndicator.from_interval(g, 0.5, 1.5).masks[0]])
    F = assemble_form(A, kp)
    left = np.flatnonzero(MultiIndicator.from_interval(g, -1.5, -0.5).masks).tolist()
    right = np.flatnonzero(MultiIndicator.from_interval(g, 0.5, 1.5).masks).tolist()
    vals = np.zeros(g.shape)
    for f in left:
        vals[f] = 1.0
    for f in right:
        vals[f] = -1.0
    u = LatticeField(g, [vals])
    assert interaction_energy(F, u, left, right) > 0.0
    assert interaction_energy(F, u, left, []) == 0.0


@pytest.mark.parametrize("h, split", [(0.125, 0.0), (0.0625, 0.2)])
def test_interaction_reads_the_weights_block(h, split):
    g = GridSpec(n=2, h=h, L=1.0, copies=2)
    kp = KernelParams(n=2, s=0.5)
    x, y = g.cell_centers().T.reshape(2, *g.shape)
    A = MultiIndicator(g, [(np.abs(x) < 0.6) & (np.abs(y) < 0.4),
                           (x * x + y * y < 0.5)])
    F = assemble_form(A, kp)
    vals = np.where(A.masks, np.cos(3 * x) + y, 0.0)
    u = LatticeField(g, vals)
    first = np.broadcast_to(x < split, A.masks.shape) & A.masks
    A1 = np.flatnonzero(first)
    A2 = np.flatnonzero(A.masks & ~first)
    r1, r2 = np.searchsorted(F.ids, A1), np.searchsorted(F.ids, A2)
    uv = F.field_vector(u)
    want = -4.0 * float(uv[r1] @ F.weights[np.ix_(r1, r2)] @ uv[r2])
    assert interaction_energy(F, u, A1, A2) == want


def two_group_instance(shift=0):
    """Two separated intervals; the right one optionally shifted by whole
    cells while its value pattern rides along rigidly."""
    g = GridSpec(n=1, h=0.25, L=3.0)
    kp = KernelParams(n=1, s=0.5)
    a1 = MultiIndicator.from_interval(g, -2.0, -1.0)
    a2 = MultiIndicator.from_interval(g, 0.5 + shift * g.h, 1.5 + shift * g.h)
    A = MultiIndicator(g, [a1.masks[0] | a2.masks[0]])
    left = np.flatnonzero(a1.masks).tolist()
    right = np.flatnonzero(a2.masks).tolist()
    rng = np.random.default_rng(11)
    vals = np.zeros(g.shape)
    for f in left:
        vals[f] = rng.normal()
    for f in right:
        vals[f] = rng.normal()
    u = LatticeField(g, [vals])
    return g, kp, u, left, right, A


def test_decomposition_keys_sum_and_exterior_zero_part():
    g, kp, u, left, right, A = two_group_instance()
    F = assemble_form(A, kp)
    dec = energy_decomposition(F, u, left, right)
    assert set(dec.parts) == {("A1", "A1"), ("A2", "A2"), ("ext", "ext"),
                              ("A1", "A2"), ("A1", "ext"), ("A2", "ext")}
    assert dec.parts[("ext", "ext")] == 0.0
    assert dec.total == pytest.approx(bilinear(F, u, u), rel=1e-10)


def test_decomposition_cross_sign_and_cross_copy():
    g = GridSpec(n=1, h=0.25, L=2.0, copies=2)
    kp = KernelParams(n=1, s=0.5)
    m = MultiIndicator.from_interval(g, -1.0, -0.25).masks[0]
    m2 = MultiIndicator.from_interval(g, 0.25, 1.0).masks[0]
    # same copy, same sign
    A = MultiIndicator(g, [m | m2, np.zeros(g.shape, dtype=bool)])
    F = assemble_form(A, kp)
    vals = np.where(m | m2, 1.0, 0.0)
    u = LatticeField(g, [vals, np.zeros(g.shape)])
    left = np.flatnonzero(m).tolist()
    right = np.flatnonzero(m2).tolist()
    dec = energy_decomposition(F, u, left, right)
    assert dec.cross_term < 0.0
    assert dec.cross_term == pytest.approx(interaction_energy(F, u, left, right), rel=1e-14)
    # across copies: interaction exactly zero
    B = MultiIndicator(g, [m, m2])
    FB = assemble_form(B, kp)
    ub = LatticeField(g, [np.where(m, 1.0, 0.0), np.where(m2, 1.0, 0.0)])
    lb = np.flatnonzero(m).tolist()
    rb = (g.box_size + np.flatnonzero(m2)).tolist()
    decb = energy_decomposition(FB, ub, lb, rb)
    assert decb.cross_term == 0.0
    assert decb.parts[("A1", "A2")] == 0.0


def test_translation_changes_only_cross_pieces():
    g, kp, u0, left0, right0, A0 = two_group_instance(0)
    _, _, u1, left1, right1, A1 = two_group_instance(1)
    F0 = assemble_form(A0, kp)
    F1 = assemble_form(A1, kp)
    d0 = energy_decomposition(F0, u0, left0, right0)
    d1 = energy_decomposition(F1, u1, left1, right1)
    for key in (("A1", "A1"), ("A2", "A2"), ("ext", "ext")):
        a, b = d0.parts[key], d1.parts[key]
        assert abs(a - b) <= 1e-10 * max(1.0, abs(a))
    # re-summation oracle: predict the total change from pairs touching A2 only
    centers = g.cell_centers()

    def cross_pieces(ucur, left, right, A):
        vals = ucur.values[0].ravel()
        pair = 0.0
        for fi in left:
            for fj in right:
                w = oracle_pair_weight(centers[fi], centers[fj], g.h, kp)
                pair += 2.0 * w * (vals[fi] - vals[fj]) ** 2
        ext = 0.0
        mask = A.masks[0].ravel()
        for group in (left, right):
            for fi in group:
                e = 0.0
                for f2 in range(mask.size):
                    if not mask[f2]:
                        e += oracle_pair_weight(centers[fi], centers[f2], g.h, kp)
                e += g.cell_volume * oracle_tail_1d(centers[fi][0], g.L, kp.s)
                ext += 2.0 * e * vals[fi] ** 2
        return pair + ext

    predicted = cross_pieces(u1, left1, right1, A1) - cross_pieces(u0, left0, right0, A0)
    actual = bilinear(F1, u1, u1) - bilinear(F0, u0, u0)
    assert actual == pytest.approx(predicted, rel=1e-9, abs=1e-12)


def test_decomposition_errors():
    g, kp, u, left, right, A = two_group_instance()
    F = assemble_form(A, kp)
    with pytest.raises(ValueError):
        energy_decomposition(F, u, left, left)
    with pytest.raises(ValueError):
        energy_decomposition(F, u, left[:-1], right)   # drops a loaded cell


@pytest.mark.parametrize("bad", [2, 5, 12], ids=["below", "between", "past"])
def test_cell_groups_refuse_an_id_outside_the_shape(bad):
    # active ids 3, 4, 7, 8: an id before the first, in the gap, and after
    # the last, which searchsorted places one past the end
    g = GridSpec(n=1, h=0.25, L=2.0)
    m = np.zeros(g.shape, dtype=bool)
    m[[3, 4, 7, 8]] = True
    F = assemble_form(MultiIndicator(g, [m]), KernelParams(n=1, s=0.5))
    u = LatticeField(g, [np.where(m, 1.0, 0.0)])
    for fn in (interaction_energy, energy_decomposition):
        with pytest.raises(ValueError,
                           match=f"^cell {bad} is not in the assembled shape$"):
            fn(F, u, [3, 4], [7, bad])


@pytest.mark.parametrize("group", [0, 1])
def test_cell_groups_refuse_a_repeated_id(group):
    # repeating a[0] used to count its pairs twice: the interaction moved
    # from -14.335 to -15.408 and the parts summed to 26.307, not B[u,u]
    g = GridSpec(n=1, h=0.25, L=2.0)
    A = MultiIndicator.from_interval(g, -1.0, 1.0)
    F = assemble_form(A, KernelParams(n=1, s=0.5))
    u = A.field(np.ones(F.size))
    groups = [F.ids[:3].tolist(), F.ids[3:].tolist()]
    cell = groups[group][0]
    groups[group].append(cell)
    match = f"^cell {cell} is listed more than once$"
    for fn in (interaction_energy, energy_decomposition):
        with pytest.raises(ValueError, match=match):
            fn(F, u, *groups)
    with pytest.raises(ValueError, match=match):
        translation_gradient(u, *groups, [1], KernelParams(n=1, s=0.5))


def test_refinement_consistency_recorded():
    kp = KernelParams(n=1, s=0.5)
    def bump_energy(h):
        g = GridSpec(n=1, h=h, L=2.0)
        A = MultiIndicator.from_interval(g, -0.5, 0.5)
        x = g.cell_centers()[:, 0]
        vals = np.where(A.masks[0], np.maximum(1 - (x / 0.5) ** 2, 0.0) ** 3, 0.0)
        F = assemble_form(A, kp)
        return bilinear(F, LatticeField(g, [vals]), LatticeField(g, [vals]))
    coarse = bump_energy(1 / 16)
    fine = bump_energy(1 / 32)
    drift = abs(fine - coarse) / abs(fine)
    print(f"refinement drift h=1/16 -> 1/32: {drift:.4%}")
    assert drift <= 0.10


@pytest.mark.parametrize("n,h,copies,seed", [(1, 0.125, 3, 0), (2, 0.25, 2, 1)])
def test_field_scatter_and_gather_match_cell_loops(n, h, copies, seed):
    g = GridSpec(n=n, h=h, L=1.0, copies=copies)
    A, u = random_shape_and_field(seed, g, 9)
    F = assemble_form(A, KernelParams(n=n, s=0.5))
    # the per-cell loops the scatter and gather replace, compared bitwise
    cells = [divmod(int(i), g.box_size) for i in F.ids]
    want = np.array([u.values[c].ravel()[f] for c, f in cells])
    assert np.array_equal(F.field_vector(u), want)
    vec = np.random.default_rng(seed).normal(size=F.size)
    ref = [np.zeros(g.shape) for _ in range(copies)]
    for (c, f), val in zip(cells, vec):
        ref[c].ravel()[f] = val
    field = A.field(vec)
    assert all(np.array_equal(a, b) for a, b in zip(field.values, ref))
    assert np.array_equal(F.field_vector(field), vec)
    # a field loaded on one cell outside the shape is refused
    interior = np.zeros(g.shape, dtype=bool)
    interior[(slice(1, -1),) * n] = True
    vals = [np.zeros(g.shape) for _ in range(copies)]
    vals[copies - 1].ravel()[np.flatnonzero(interior & ~A.masks[-1])[0]] = 1.0
    with pytest.raises(ValueError, match="leaves the assembled shape"):
        F.field_vector(LatticeField(g, vals))


# per (n, h): the copy count and the blocks of active cells, by copy; a 1-D
# shape of two copies with a gap, or a 2-D L shape
FROZEN_SHAPES = {
    (1, 1 / 16): (2, [(0, np.s_[3:9]), (0, np.s_[11:15]), (1, np.s_[5:21])]),
    (1, 0.1): (2, [(0, np.s_[2:7]), (0, np.s_[9:12]), (1, np.s_[4:17])]),
    (2, 1 / 8): (1, [(0, np.s_[2:10, 3:7]), (0, np.s_[6:9, 3:13])]),
    (2, 0.1): (1, [(0, np.s_[2:13, 3:8]), (0, np.s_[8:12, 3:17])]),
}


def frozen_shape(n, h):
    copies, blocks = FROZEN_SHAPES[n, h]
    g = GridSpec(n=n, h=h, L=1.0, copies=copies)
    masks = np.zeros((copies, *g.shape), dtype=bool)
    for copy, cells in blocks:
        masks[copy][cells] = True
    return MultiIndicator(g, masks)


# sha256 of Q, Q X and P C^-1 P^T X by (n, s, h), recorded at dyadic h before
# the form's three offset caches were folded into one, and at the
# non-dyadic h = 0.1, where the tail's mirrored corner table is not exact,
# before the per-point tail was folded into the per-box one
FORM_DIGESTS = {
    (1, 0.3, 1 / 16): ("9770c4d26675faf3d5586d33bc6c1356048bf236c48ba2c578b691e96bb04382",
                       "4dad23a9ea347e6b7dbe4981d8c08f0e0e2bd9dffec6ecbad883594f4e299fb2",
                       "278714337eab8fd69e4b3ed187de73fe53d1f538e317edb87430d0aa34a63db3"),
    (1, 0.7, 1 / 16): ("8aac2006f12f490f9f9d20daf2ea41c43d630c945059a787b102643646307cc6",
                       "7d07419f01e44283f1e335c79bc486004d833583943b83d9c8717c5ea785de1d",
                       "645f19eaee36ca45dd283198217eda0d8b8ff31d68d4583ee9fa92360d28891a"),
    (1, 0.5, 0.1): ("4bb41f1df02e9a57f5776cf881a71d36773b65468506ffa322e131c87ac99999",
                    "45f99f692d6b1f21d834efb62ffeba30150646631dae33a488138617a63c41f6",
                    "f7f55f705bccc9d8cd0280630b67097030049f23314da2529fd60f76fb37e214"),
    (2, 0.3, 1 / 8): ("ac21686cacb8980764ea72dda1931e4572f122181f9ce6da308ec752d4706329",
                      "b6d775c30be40c611b1264ab9c9bf647234dc3701da7590257599de65c200dd5",
                      "3f2af5007b4a45c0558a3e18bc664b8637144346e3cae2e027d5d95bd1dc2ef7"),
    (2, 0.7, 1 / 8): ("aa14346124aa11937dcbef2b5e80a7d45a6863bb1a512d64c56b7bea799a41d0",
                      "4229cab588e4ea111a2d9a3c1da6a26b375e8cd498c5ba527b898a507e339617",
                      "52224717e3c057637f892c02930ab5c7c171911788b28c8a42cbc73b713b1919"),
    (2, 0.5, 0.1): ("fdde63361d6e8e921aeffa3108e367f480c04baa3989aacaea39d5eaff0f89e7",
                    "ba4caf1a21922273602bdc8cb788c03dfba208f77ee7aed04e31d294a0291546",
                    "c9913c3782a68b7866b884325435c0c7d7056ad96c3caaade523062a46ca7c98"),
}


# the dyadic cases keep the ids they were first recorded under
@pytest.mark.parametrize("n,s,h", [
    pytest.param(n, s, h, id=f"{n}-{s}" if h != 0.1 else f"{n}-{s}-h{h}")
    for n, s, h in FORM_DIGESTS])
def test_form_bytes_are_frozen(n, s, h):
    A, kp = frozen_shape(n, h), KernelParams(n=n, s=s)
    op = form_operator(A, kp)
    X = np.random.default_rng(7).normal(size=(op.size, 3))
    arrays = (assemble_form(A, kp).quadratic_matrix, op.apply(X), op.precondition(X))
    digests = tuple(hashlib.sha256(np.ascontiguousarray(a).tobytes()).hexdigest()
                    for a in arrays)
    assert digests == FORM_DIGESTS[n, s, h]


def assemble_by_copy(A, kp):
    """Q gathered one copy at a time from the unpadded offset table into a
    zero matrix: the assembly that the one-take gather replaced, kept as
    reference."""
    from fracdrum.form import _box_stencil
    grid = A.grid
    table, diag = _box_stencil(grid, kp)
    table = table[1:-1]
    ids = np.flatnonzero(A.masks)
    m, flats = grid.cells_per_side, ids % grid.box_size
    keys = flats + flats // m * (m - 1)
    centre = len(table) // 2
    Q = np.zeros((len(ids), len(ids)))
    bounds = np.searchsorted(ids, grid.box_size * np.arange(grid.copies + 1))
    for lo, hi in zip(bounds[:-1].tolist(), bounds[1:].tolist()):
        k = keys[lo:hi]
        np.take(table, np.subtract.outer(k + centre, k), out=Q[lo:hi, lo:hi],
                mode="clip")
    np.fill_diagonal(Q, diag[flats])
    return Q


@pytest.mark.parametrize("n,copies", [(1, 1), (1, 2), (1, 3), (2, 1), (2, 2), (2, 3)])
def test_one_take_assembly_matches_the_per_copy_loop(n, copies):
    g = GridSpec(n=n, h=1 / 16 if n == 1 else 1 / 8, L=1.0, copies=copies)
    kp = KernelParams(n=n, s=0.4)
    rng = np.random.default_rng([5, n, copies])
    for trial in range(12):
        masks = np.stack([random_interior_mask(rng, g, rng.uniform(0.1, 0.9))
                          for _ in range(copies)])
        # now and then every copy but one is empty
        if trial % 3 == 0:
            masks[np.arange(copies) != trial % copies] = False
        if not masks.any():
            continue
        A = MultiIndicator(g, masks)
        assert np.array_equal(assemble_form(A, kp).quadratic_matrix,
                              assemble_by_copy(A, kp))
