import hashlib
import math
from collections import Counter

import numpy as np
import pytest

from fracdrum import charges
from fracdrum.charges import (ChargeConfig, Stationarity, classify,
                              conjecture_sweep, descend, descend_batch,
                              energy, euler_residual, gradient, hessian,
                              sweep_trials, translation_basis,
                              translation_complement_eigs)

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


@pytest.mark.parametrize("exponent", [float("nan"), float("inf")])
def test_config_refuses_a_non_finite_exponent(exponent):
    with pytest.raises(ValueError, match="positive and finite"):
        ChargeConfig(np.array([[0.0], [1.0]]), np.array([RT2, RT2]), exponent)


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


def test_descend_stops_at_a_zero_gradient():
    c = collinear()
    res = descend(c)
    assert res.steps == 0
    assert res.report.classification is Stationarity.STATIONARY_UNSTABLE
    assert res.final_gradient_norm == 0.0
    assert res.energy == energy(c)
    assert np.array_equal(res.config.positions, c.positions)


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


@pytest.mark.parametrize("run", [
    lambda c: descend(c),
    lambda c: conjecture_sweep(1, 2, 0.5, trials=3, seed=0),
    lambda c: conjecture_sweep(1, 2, 0.5, trials=0, seed=0),
])
def test_descent_refuses_a_single_charge(run):
    c = ChargeConfig(np.array([[0.3, 0.1]]), np.array([1.0]), 3.0)
    with pytest.raises(ValueError, match="at least two charges, got 1"):
        run(c)


def result_key(r):
    """Every output of one descent, floats by repr so NaN compares equal."""
    rep = r.report
    return (rep.classification, r.steps, r.config.positions.tobytes(),
            r.config.masses.tobytes(), repr(r.energy),
            repr(r.final_gradient_norm), repr(rep.gradient_norm),
            repr(rep.min_hessian_eig), repr(rep.euler_residual))


def exit_of(r, max_steps):
    kind = r.report.classification.value
    if kind.endswith("diverged"):
        return kind
    return "budget" if r.steps == max_steps else "stall"


# sha256 over each trial's (classification, steps, positions bytes, energy),
# in trial order, and the classification counts, all at seed 99.  Recorded
# from the one-trial-at-a-time descent that preceded the lockstep batch.
FROZEN_SWEEPS = {
    # (d, n, trials, max_steps): the three criterion-8 sweeps, a d=7 sweep
    # whose 21-term pair sums catch a change of summation order, a d=8
    # sweep and a budget-bound sweep
    (3, 1, 200, 5000): (
        "31093c704ce453701593cbfb16a5d73c96df83e92d7bec0def945cd000b487b5",
        {"collapse-diverged": 194, "escape-diverged": 6}),
    (4, 1, 150, 5000): (
        "4eb3ff4c6a24a13626e74bae7f07e94d9bb8b146b149a041eb2a89c2bc792ff3",
        {"collapse-diverged": 133, "escape-diverged": 17}),
    (5, 2, 150, 5000): (
        "81c8e8c328ea8a8cfe82de2890d4979ed6a7c32a2bceb8359ec785d6a4105847",
        {"collapse-diverged": 148, "escape-diverged": 2}),
    (7, 1, 60, 5000): (
        "8bbbc356483262304350b7ac4496c789a54c4dd6b5d8434be3ec2d71096b92fc",
        {"collapse-diverged": 60}),
    (8, 2, 40, 5000): (
        "dd0de113f383504f6f79676b0b3d43d863e2673313f010b829001cb0b2812270",
        {"collapse-diverged": 40}),
    (4, 2, 40, 7): (
        "7d0b45a5aa54390f217f9c02eb6f7f146b4d59cb8fa9cbd410e2da63a3ac2c44",
        {"escape-diverged": 5, "non-stationary": 34,
         "stationary-unstable": 1}),
}


@pytest.mark.parametrize("case", sorted(FROZEN_SWEEPS),
                         ids="d{0[0]}-n{0[1]}-trials{0[2]}-steps{0[3]}".format)
def test_sweep_trials_match_frozen_per_trial_digests(case):
    d, n, trials, max_steps = case
    want_digest, want_counts = FROZEN_SWEEPS[case]
    h = hashlib.sha256()
    counts = Counter()
    for r in sweep_trials(d, n, 0.5, trials, seed=99, max_steps=max_steps):
        counts[r.report.classification.value] += 1
        h.update(r.report.classification.value.encode())
        h.update(str(r.steps).encode())
        h.update(r.config.positions.tobytes())
        h.update(float(r.energy).hex().encode())
    assert dict(counts) == want_counts
    assert h.hexdigest() == want_digest


def sweep_configs(d, n, s, trials, seed):
    """The configurations sweep_trials draws, rebuilt here as its contract."""
    out = []
    for t in range(trials):
        rng = np.random.default_rng([seed, t])
        pos = rng.uniform(-0.5, 0.5, size=(d, n))
        m = rng.normal(size=d)
        m /= np.linalg.norm(m)
        out.append(ChargeConfig(pos, m, n + 2.0 * s))
    return out


def test_batched_trials_match_lone_descents_on_every_exit():
    # two charges in R^3, budget 12: this batch leaves by collapse, escape,
    # a stalled line search judged by classify, and the budget
    configs = sweep_configs(2, 3, 0.5, 16, seed=99)
    batch = descend_batch(configs, max_steps=12)
    assert {exit_of(r, 12) for r in batch} == {
        "collapse-diverged", "escape-diverged", "stall", "budget"}
    assert any(exit_of(r, 12) == "stall" and r.report.classification
               is not Stationarity.NON_STATIONARY for r in batch)
    for c, r in zip(configs, batch):
        assert result_key(r) == result_key(descend(c, max_steps=12))
    # a sub-batch in another order gives each trial the same bits
    picked = [5, 13, 0, 7]
    again = descend_batch([configs[i] for i in picked], max_steps=12)
    assert [result_key(r) for r in again] == [result_key(batch[i])
                                              for i in picked]


def test_sweep_blocks_concatenate(monkeypatch):
    whole = [result_key(r) for r in sweep_trials(4, 1, 0.5, 20, seed=2,
                                                 max_steps=20)]
    monkeypatch.setattr(charges, "SWEEP_BLOCK", 7)
    blocked = [result_key(r) for r in sweep_trials(4, 1, 0.5, 20, seed=2,
                                                   max_steps=20)]
    assert blocked == whole
    configs = sweep_configs(4, 1, 0.5, 20, seed=2)
    parts = [descend_batch(configs[i:i + 7], max_steps=20)
             for i in range(0, 20, 7)]
    assert [result_key(r) for part in parts for r in part] == whole


def test_descend_batch_refuses_mixed_configurations():
    assert descend_batch([]) == []
    with pytest.raises(ValueError, match="share"):
        descend_batch([pair(p=2.0), pair(p=3.0)])
