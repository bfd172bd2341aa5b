import numpy as np
import pytest

from fracdrum import (GridSpec, KernelParams, LatticeField, MultiIndicator,
                      assemble_form, ball_energy_check, ball_indicator,
                      bilinear, center_outward_order, rearrange)


def random_field(g, seed, count, magnitude=1.0):
    rng = np.random.default_rng(seed)
    interior = [f for f in range(int(np.prod(g.shape)))
                if all(0 < k < n - 1 for k, n in
                       zip(np.unravel_index(f, g.shape), g.shape))]
    picks = rng.choice(len(interior), size=count, replace=False)
    vals = np.zeros(g.shape)
    for p in picks:
        vals.ravel()[interior[p]] = magnitude * rng.random()
    return LatticeField(g, [vals] + [np.zeros(g.shape)] * (g.copies - 1))


def test_radial_profile_is_fixed_point():
    g = GridSpec(n=1, h=0.125, L=2.0)
    order = center_outward_order(g)
    vals = np.zeros(g.shape)
    for rank, f in enumerate(order[:10]):
        vals.ravel()[f] = 10.0 - rank
    u = LatticeField(g, [vals])
    out = rearrange(u)
    assert np.array_equal(out.values[0], vals)


def test_rearranged_values_decrease_outward():
    g = GridSpec(n=2, h=0.25, L=1.0)
    u = random_field(g, 1, 9)
    out = rearrange(u)
    order = center_outward_order(g)
    seq = out.values[0].ravel()[order]
    assert np.all(np.diff(seq) <= 1e-15)


def test_support_count_and_equimeasurability():
    g = GridSpec(n=1, h=0.0625, L=2.0)
    u = random_field(g, 2, 25)
    out = rearrange(u)
    a = u.values[0]
    b = out.values[0]
    assert np.count_nonzero(b) == np.count_nonzero(a)
    for t in np.unique(a[a > 0]):
        assert np.count_nonzero(b > t) == np.count_nonzero(a > t)
        assert np.count_nonzero(b >= t) == np.count_nonzero(a >= t)


def test_idempotence_and_checksum():
    g = GridSpec(n=1, h=0.0625, L=2.0)
    u = random_field(g, 3, 20)
    once = rearrange(u)
    twice = rearrange(once)
    assert np.array_equal(once.values[0], twice.values[0])

    def multiset(v):
        return np.sort(v.values[v.values > 0])
    assert np.array_equal(multiset(once), multiset(twice))
    # the value multiset is kept, whatever the layout
    assert np.array_equal(multiset(once), multiset(u))


def test_negative_values_rejected():
    g = GridSpec(n=1, h=0.25, L=1.0)
    vals = np.zeros(g.shape)
    vals[3] = -1.0
    with pytest.raises(ValueError):
        rearrange(LatticeField(g, [vals]))


def test_polya_szego_with_slack():
    g = GridSpec(n=1, h=1 / 64, L=2.0)
    kp = KernelParams(n=1, s=0.5)
    worst = 0.0
    for seed in range(20):
        u = random_field(g, seed, 50)
        out = rearrange(u)
        Fu = assemble_form(u.support, kp)
        Fs = assemble_form(out.support, kp)
        eu = bilinear(Fu, u, u)
        es = bilinear(Fs, out, out)
        worst = max(worst, es / eu)
        assert es <= eu * 1.02
    print(f"worst rearranged/original energy ratio: {worst:.4f}")


def test_ball_indicator_small_and_counts():
    g = GridSpec(n=1, h=0.25, L=1.0)
    B = ball_indicator(g.cell_volume, g)
    assert B.cell_count() == 1
    order = center_outward_order(g)
    assert B.masks[0].ravel()[order[0]]
    for count in (2, 3, 5):
        assert ball_indicator(count * g.cell_volume, g).cell_count() == count
    # matching a given shape's volume gives matching cell count
    A = MultiIndicator.from_interval(g, -0.5, 0.25)
    assert ball_indicator(A.volume(), g).cell_count() == A.cell_count()


def test_ball_indicator_errors():
    g = GridSpec(n=1, h=0.25, L=1.0)
    with pytest.raises(ValueError):
        ball_indicator(100.0, g)
    with pytest.raises(ValueError):
        # fits in the box only by touching the boundary ring
        ball_indicator(2.0, g)
    # a copy the grid does not have is refused, not wrapped round
    for copy in (-1, 1, 0.0, True):
        with pytest.raises(ValueError, match=r"^copy must be an integer in 0\.\.0"):
            ball_indicator(g.cell_volume, g, copy=copy)


def test_ball_indicator_matches_disk():
    g = GridSpec(n=2, h=1 / 32, L=1.0)
    r = 0.5
    B = ball_indicator(np.pi * r * r, g)
    centers = g.cell_centers()
    dist = np.hypot(centers[:, 0], centers[:, 1])
    chosen = B.masks[0].ravel()
    assert np.all(dist[chosen] <= r + g.h * np.sqrt(2))
    inside = dist <= r - g.h * np.sqrt(2)
    assert np.all(chosen[inside])


def test_ball_energy_check_on_ball_and_split_shape():
    g = GridSpec(n=1, h=0.0625, L=2.0)
    kp = KernelParams(n=1, s=0.5)
    B = ball_indicator(1.0, g)
    rep = ball_energy_check(B, kp)
    assert rep.passed
    assert rep.energy_ball == pytest.approx(rep.energy_shape, rel=1e-9)

    split = MultiIndicator(g, [MultiIndicator.from_interval(g, -1.5, -1.0).masks[0]
                               | MultiIndicator.from_interval(g, 1.0, 1.5).masks[0]])
    rep2 = ball_energy_check(split, kp)
    assert rep2.passed
    assert rep2.energy_ball < rep2.energy_shape   # strictly better, no slack


def test_ball_energy_check_random_batch():
    g = GridSpec(n=1, h=0.0625, L=2.0)
    kp = KernelParams(n=1, s=0.5)
    rng = np.random.default_rng(17)
    failures = 0
    for _ in range(20):
        m = np.zeros(g.shape, dtype=bool)
        m[2:62] = rng.random(60) < 0.4
        if m.sum() < 2:
            continue
        rep = ball_energy_check(MultiIndicator(g, [m]), kp)
        failures += 0 if rep.passed else 1
    assert failures == 0
