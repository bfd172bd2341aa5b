import math

import numpy as np
import pytest

from fracdrum.charges import (ChargeConfig, Stationarity, classify,
                              conjecture_sweep, descend, energy,
                              euler_residual, gradient, hessian,
                              translation_basis, translation_complement_eigs)

RT2 = 1 / math.sqrt(2)


def pair(m2=RT2, r=1.0, p=2.0):
    return ChargeConfig(np.array([[0.0], [r]]), np.array([RT2, m2]), p)


def collinear(p=2.0):
    q = 2.0 ** (-p - 1)
    m = np.array([1.0, -q, 1.0])
    m = m / np.linalg.norm(m)
    return ChargeConfig(np.array([[-1.0], [0.0], [1.0]]), m, p)


def random_config(rng, d, n, p=None):
    pos = rng.uniform(-1.0, 1.0, size=(d, n))
    m = rng.normal(size=d)
    m = m / np.linalg.norm(m)
    return ChargeConfig(pos, m, p if p is not None else rng.uniform(0.5, 4.0))


def test_config_validation():
    with pytest.raises(ValueError):
        ChargeConfig(np.array([[0.0], [0.0]]), np.array([RT2, RT2]), 2.0)
    with pytest.raises(ValueError):
        ChargeConfig(np.array([[0.0], [1.0]]), np.array([1.0, 1.0]), 2.0)
    with pytest.raises(ValueError):
        ChargeConfig(np.array([[0.0], [1.0]]), np.array([RT2, RT2]), 0.0)
    with pytest.raises(ValueError):
        ChargeConfig.from_smoothness(np.array([[0.0], [1.0]]),
                                     np.array([RT2, RT2]), 1.5)
    c = ChargeConfig.from_smoothness(np.array([[0.0], [1.0]]),
                                     np.array([RT2, RT2]), 0.5)
    assert c.exponent == 2.0


def test_single_charge_has_zero_energy():
    c = ChargeConfig(np.array([[0.3]]), np.array([1.0]), 2.0)
    assert energy(c) == 0.0
    assert gradient(c).shape == (1, 1)
    assert float(np.linalg.norm(gradient(c))) == 0.0


def test_two_charge_energy_signs():
    assert energy(pair()) == pytest.approx(-2.0, rel=1e-14)
    assert energy(pair(m2=-RT2)) == pytest.approx(2.0, rel=1e-14)


def test_two_charge_gradient_value():
    g = gradient(pair())
    assert g[0, 0] == pytest.approx(-4.0, rel=1e-14)
    assert g[1, 0] == pytest.approx(4.0, rel=1e-14)
    assert float(np.linalg.norm(g)) == pytest.approx(4 * math.sqrt(2), rel=1e-14)


def test_gradient_sums_to_zero():
    rng = np.random.default_rng(0)
    for _ in range(10):
        c = random_config(rng, 5, 2)
        assert np.linalg.norm(gradient(c).sum(axis=0)) <= 1e-12


@pytest.mark.parametrize("d,n", [(2, 1), (3, 2), (5, 2), (4, 3)])
def test_gradient_matches_finite_differences(d, n):
    rng = np.random.default_rng(d * 10 + n)
    c = random_config(rng, d, n)
    g = gradient(c)
    step = 1e-6
    fd = np.zeros_like(g)
    for i in range(d):
        for a in range(n):
            up = c.positions.copy(); up[i, a] += step
            dn = c.positions.copy(); dn[i, a] -= step
            fd[i, a] = (energy(c.with_positions(up))
                        - energy(c.with_positions(dn))) / (2 * step)
    scale = max(1.0, float(np.abs(g).max()))
    assert np.abs(g - fd).max() / scale <= 1e-6


def test_hessian_matches_finite_differences():
    rng = np.random.default_rng(7)
    step = 1e-4
    for _ in range(20):
        c = random_config(rng, 4, 2)
        H = hessian(c)
        assert np.allclose(H, H.T, atol=1e-12)
        dn_ = c.count * c.dim
        fd = np.zeros((dn_, dn_))
        for col in range(dn_):
            i, a = divmod(col, c.dim)
            up = c.positions.copy(); up[i, a] += step
            dC = c.positions.copy(); dC[i, a] -= step
            fd[:, col] = (gradient(c.with_positions(up))
                          - gradient(c.with_positions(dC))).ravel() / (2 * step)
        scale = max(1.0, float(np.abs(H).max()))
        assert np.abs(H - fd).max() / scale <= 1e-5


def test_translation_modes_are_null():
    rng = np.random.default_rng(2)
    for d, n in ((3, 1), (4, 2)):
        c = random_config(rng, d, n)
        H = hessian(c)
        T = translation_basis(d, n)
        assert np.abs(H @ T).max() <= 1e-9
        eigs = np.sort(np.abs(np.linalg.eigvalsh(H)))
        assert np.all(eigs[:n] <= 1e-9)


def test_euler_identity():
    rng = np.random.default_rng(3)
    for _ in range(50):
        c = random_config(rng, 4, 2)
        scale = max(1.0, abs(c.exponent * energy(c)))
        assert abs(euler_residual(c)) / scale <= 1e-9


def test_rigid_motion_and_scaling_invariance():
    rng = np.random.default_rng(4)
    c = random_config(rng, 4, 2, p=3.0)
    E = energy(c)
    shifted = c.with_positions(c.positions + np.array([2.5, -1.0]))
    assert energy(shifted) == pytest.approx(E, rel=1e-12)
    th = 0.7
    R = np.array([[math.cos(th), -math.sin(th)], [math.sin(th), math.cos(th)]])
    rotated = c.with_positions(c.positions @ R.T)
    assert energy(rotated) == pytest.approx(E, rel=1e-12)
    doubled = c.with_positions(2.0 * c.positions)
    assert energy(doubled) == pytest.approx(E * 2.0 ** (-c.exponent), rel=1e-12)


@pytest.mark.parametrize("n,p,vanishes", [(3, 1.0, True), (4, 2.0, True),
                                          (3, 2.0, False), (2, 2.5, False)])
def test_pair_hessian_trace_vanishes_only_at_electrostatic_exponent(n, p, vanishes):
    rng = np.random.default_rng(n)
    pos = rng.uniform(-1.0, 1.0, size=(2, n))
    c = ChargeConfig(pos, np.array([RT2, RT2]), p)
    tr = float(np.trace(hessian(c)))
    if vanishes:
        assert abs(tr) <= 1e-12
    else:
        assert abs(tr) > 1e-6


def test_collinear_config_is_stationary_and_unstable():
    c = collinear()
    assert float(np.linalg.norm(gradient(c))) <= 1e-12
    assert abs(energy(c)) <= 1e-12
    rep = classify(c)
    assert rep.classification is Stationarity.STATIONARY_UNSTABLE
    assert rep.gradient_norm <= 1e-12
    assert abs(rep.euler_residual) <= 1e-12
    # raw Hessian spectrum: the scaling direction pins an exact zero mode,
    # so the bottom of the spectrum cannot be strictly positive
    raw = np.linalg.eigvalsh(hessian(c))
    assert raw.min() < 0
    assert raw.max() > 1.0


def test_scaling_mode_is_an_exact_zero_at_stationarity():
    c = collinear()
    H = hessian(c)
    centered = (c.positions - c.positions.mean(axis=0)).ravel()
    assert np.abs(H @ centered).max() <= 1e-11


def test_classify_two_equal_charges_non_stationary():
    rep = classify(pair())
    assert rep.classification is Stationarity.NON_STATIONARY
    assert rep.gradient_norm == pytest.approx(4 * math.sqrt(2), rel=1e-12)
    assert rep.min_hessian_eig is None


@pytest.mark.parametrize("positions, exponent", [
    ([[1e308], [1.0]], 3.0),        # finite gradient, NaN Hessian
    ([[0.0], [1.0]], 1e308),        # NaN gradient
])
def test_classify_refuses_non_finite_configurations(positions, exponent):
    with np.errstate(all="ignore"), pytest.raises(RuntimeError, match="finite"):
        classify(ChargeConfig(np.array(positions), np.array([RT2, RT2]),
                              exponent))


def test_translation_complement_dimensions():
    c = collinear()
    eigs = translation_complement_eigs(c)
    assert eigs.shape == (3 * 1 - 1,)
    assert np.all(np.diff(eigs) >= 0)


def test_descend_two_body_outcomes():
    same = descend(pair(), max_steps=20000)
    assert same.report.classification is Stationarity.COLLAPSE_DIVERGED
    opposite = descend(pair(m2=-RT2), max_steps=20000)
    assert opposite.report.classification is Stationarity.ESCAPE_DIVERGED


def test_descend_leaves_perturbed_stationary_point():
    base = collinear()
    rng = np.random.default_rng(21)
    noisy = base.with_positions(base.positions + 1e-3 * rng.normal(size=(3, 1)))
    res = descend(noisy, max_steps=10000)
    assert res.steps <= 10000
    assert res.report.classification is not Stationarity.STATIONARY_STABLE


def test_descend_never_mutates_masses():
    c = pair()
    before = c.masses.copy()
    res = descend(c, max_steps=500)
    assert np.array_equal(c.masses, before)
    assert np.array_equal(res.config.masses, before)


def test_sweep_two_charges_finds_no_stable_point():
    summary = conjecture_sweep(d=2, n=1, s=0.5, trials=50, seed=0)
    assert summary.counts.get("stationary-stable", 0) == 0
    assert summary.stable_finds == []
    assert sum(summary.counts.values()) == 50
    assert summary.exponent == 2.0


def test_sweep_is_deterministic():
    a = conjecture_sweep(d=3, n=1, s=0.5, trials=10, seed=5)
    b = conjecture_sweep(d=3, n=1, s=0.5, trials=10, seed=5)
    assert a.counts == b.counts
