"""Signed point masses with an attractive power-law pair energy.

A configuration is d points in R^n carrying signed masses on the unit
sphere of mass space.  The energy sums -2 m_i m_j |x_i - x_j|^-p over
ordered pairs, so like signs attract and opposite signs repel; the
exponent p plays the role of n plus twice the smoothness index.  The
questions asked of it are purely about stationary points: do any stable
ones exist, and what does the Hessian say at candidates.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from enum import Enum
import math

import numpy as np

GRAD_TOL = 1e-9
EIG_TOL = 1e-8
COLLAPSE_DIST = 1e-6
ESCAPE_DIAMETER = 1e6


@dataclass(frozen=True)
class ChargeConfig:
    positions: np.ndarray        # (d, n)
    masses: np.ndarray           # (d,), sum of squares 1
    exponent: float

    def __post_init__(self):
        pos = np.asarray(self.positions, dtype=float)
        mas = np.asarray(self.masses, dtype=float)
        if pos.ndim != 2 or pos.shape[0] < 1:
            raise ValueError("positions must be a (d, n) array with d >= 1")
        if mas.shape != (pos.shape[0],):
            raise ValueError("masses must be a length-d vector")
        if abs(float(mas @ mas) - 1.0) > 1e-8:
            raise ValueError("masses must have unit sum of squares")
        if self.exponent <= 0:
            raise ValueError("exponent must be positive")
        if pos.shape[0] > 1:
            _, d = _pair_geometry(pos)
            if d[np.triu_indices_from(d, k=1)].min() <= 0:
                raise ValueError("positions must be pairwise distinct")
        object.__setattr__(self, "positions", pos)
        object.__setattr__(self, "masses", mas)

    @property
    def count(self) -> int:
        return self.positions.shape[0]

    @property
    def dim(self) -> int:
        return self.positions.shape[1]

    @classmethod
    def from_smoothness(cls, positions, masses, s: float) -> "ChargeConfig":
        """Exponent n + 2s for ambient dimension n taken from the positions."""
        positions = np.asarray(positions, dtype=float)
        if not 0 < s < 1:
            raise ValueError("smoothness index must lie in (0, 1)")
        return cls(positions, np.asarray(masses, dtype=float),
                   positions.shape[1] + 2.0 * s)

    def with_positions(self, positions: np.ndarray) -> "ChargeConfig":
        return replace(self, positions=np.asarray(positions, dtype=float))


def _pair_geometry(pos: np.ndarray):
    """Pair differences ``x_i - x_j`` and the pair distance matrix."""
    diff = pos[:, None, :] - pos[None, :, :]
    return diff, np.sqrt(np.sum(diff * diff, axis=-1))


def energy(c: ChargeConfig) -> float:
    _, d = _pair_geometry(c.positions)
    iu = np.triu_indices(c.count, k=1)
    mm = np.outer(c.masses, c.masses)[iu]
    return float(-4.0 * np.sum(mm * d[iu] ** (-c.exponent)))


def gradient(c: ChargeConfig) -> np.ndarray:
    return _gradient(*_pair_geometry(c.positions), c.masses, c.exponent)


def _gradient(diff, d, mas, p) -> np.ndarray:
    d = np.where(np.eye(len(d), dtype=bool), np.inf, d)
    coef = 4.0 * p * np.outer(mas, mas) * d ** (-p - 2.0)
    return np.sum(coef[:, :, None] * diff, axis=1)


def hessian(c: ChargeConfig) -> np.ndarray:
    """Second derivative of the energy in the flattened (d*n,) coordinates."""
    d_, n = c.count, c.dim
    p = c.exponent
    H = np.zeros((d_ * n, d_ * n))
    eye = np.eye(n)
    for i in range(d_):
        for j in range(i + 1, d_):
            dv = c.positions[i] - c.positions[j]
            r2 = float(dv @ dv)
            r = np.sqrt(r2)
            blk = 4.0 * p * c.masses[i] * c.masses[j] * (
                eye * r ** (-p - 2.0)
                - (p + 2.0) * r ** (-p - 4.0) * np.outer(dv, dv))
            si, sj = slice(i * n, (i + 1) * n), slice(j * n, (j + 1) * n)
            H[si, si] += blk
            H[sj, sj] += blk
            H[si, sj] -= blk
            H[sj, si] -= blk
    return H


def euler_residual(c: ChargeConfig) -> float:
    """Degree (-p) homogeneity check: <grad, x - centroid> + p * energy."""
    g = gradient(c)
    centered = c.positions - c.positions.mean(axis=0)
    return float(np.sum(g * centered) + c.exponent * energy(c))


def translation_basis(d: int, n: int) -> np.ndarray:
    """Orthonormal rigid-translation directions in the flattened coordinates."""
    basis = np.zeros((d * n, n))
    for axis in range(n):
        basis[axis::n, axis] = 1.0 / np.sqrt(d)
    return basis


def translation_complement_eigs(c: ChargeConfig) -> np.ndarray:
    """Hessian eigenvalues restricted to the complement of rigid translations.

    The complement is an explicit orthonormal basis (QR completion), so the
    returned spectrum has d*n - n entries and no projected-out padding zeros.
    Any stationary point still carries one exact zero here, the scaling
    direction: the gradient is homogeneous, so a zero-gradient configuration
    is stationary along its whole dilation ray.
    """
    d_, n = c.count, c.dim
    H = hessian(c)
    q, _ = np.linalg.qr(translation_basis(d_, n), mode="complete")
    comp = q[:, n:]
    return np.linalg.eigvalsh(comp.T @ H @ comp)


class Stationarity(Enum):
    STATIONARY_STABLE = "stationary-stable"
    STATIONARY_UNSTABLE = "stationary-unstable"
    NON_STATIONARY = "non-stationary"
    COLLAPSE_DIVERGED = "collapse-diverged"
    ESCAPE_DIVERGED = "escape-diverged"


@dataclass
class StationarityReport:
    classification: Stationarity
    gradient_norm: float
    min_hessian_eig: float | None
    euler_residual: float


def classify(c: ChargeConfig) -> StationarityReport:
    """Stationary iff the gradient norm is below GRAD_TOL; stable then
    requires every translation-complement Hessian eigenvalue above
    EIG_TOL.  The scaling direction sits at an exact zero for any
    stationary point, so a strict positive threshold is the honest test.
    A non-finite gradient norm or eigenvalue (overflow in the pair powers)
    raises RuntimeError rather than passing for stationary."""
    g = float(np.linalg.norm(gradient(c)))
    if not math.isfinite(g):
        raise RuntimeError(f"gradient norm is not finite ({g})")
    if g >= GRAD_TOL:
        return StationarityReport(Stationarity.NON_STATIONARY, g, None,
                                  euler_residual(c))
    eigs = translation_complement_eigs(c)
    if not np.all(np.isfinite(eigs)):
        raise RuntimeError("translation-complement Hessian has a non-finite "
                           "eigenvalue")
    min_eig = float(eigs[0]) if eigs.size else float("inf")
    cls = (Stationarity.STATIONARY_STABLE if min_eig > EIG_TOL
           else Stationarity.STATIONARY_UNSTABLE)
    return StationarityReport(cls, g, min_eig, euler_residual(c))


@dataclass
class DescentResult:
    config: ChargeConfig
    report: StationarityReport
    steps: int
    energy: float
    final_gradient_norm: float


def descend(c: ChargeConfig, max_steps: int = 5000) -> DescentResult:
    """Gradient descent with backtracking and greedy step expansion.

    Exits: collapse when the closest pair crosses COLLAPSE_DIST, escape
    when the diameter crosses ESCAPE_DIAMETER, stationary when the line
    search stalls at its floor (adjudicated by classify), or the step
    budget.  A raw small-gradient exit would be wrong here: a scattering
    trajectory passes through arbitrarily small gradients on its way out
    while the energy still decreases along the separation direction, so
    the stall of the line search is the test, not the gradient norm.
    """
    if c.count < 2:
        return DescentResult(c, classify(c), 0, energy(c), 0.0)
    iu = np.triu_indices(c.count, k=1)
    mm = np.outer(c.masses, c.masses)[iu]

    def trial_energy(p):
        """Energy of a bare position array; +inf for a coincident trial so
        the line search rejects it instead of stepping onto the pole."""
        dv = _pair_geometry(p)[1][iu]
        if dv.min() <= 0:
            return math.inf
        return float(np.sum(-4.0 * mm * dv ** (-c.exponent)))

    pos = c.positions.copy()
    step = 1.0
    e0 = energy(c)
    taken = 0
    divergence = None
    for it in range(max_steps):
        diff, d = _pair_geometry(pos)
        if float(d[iu].min()) < COLLAPSE_DIST:
            divergence = Stationarity.COLLAPSE_DIVERGED
            break
        diameter = float(d.max())
        if diameter > ESCAPE_DIAMETER:
            divergence = Stationarity.ESCAPE_DIVERGED
            break
        g = _gradient(diff, d, c.masses, c.exponent)
        gnorm = float(np.linalg.norm(g))
        if gnorm == 0.0:
            cur = c.with_positions(pos)
            return DescentResult(cur, classify(cur), taken, e0, 0.0)
        # the floor bounds the displacement, not the raw step: near a
        # collapsing pair the gradient blows up and a fixed step floor
        # would still force trials that leap across the pole
        floor = 1e-16 * max(1.0, diameter)
        accepted = None
        while step * gnorm > floor:
            et = trial_energy(pos - step * g)
            if math.isfinite(et) and et <= e0 - 1e-4 * step * gnorm * gnorm:
                accepted = (step, et)
                break
            step *= 0.5
        if accepted is None:
            cur = c.with_positions(pos)
            return DescentResult(cur, classify(cur), taken, e0, gnorm)
        while True:
            s2 = accepted[0] * 2.0
            et2 = trial_energy(pos - s2 * g)
            if math.isfinite(et2) and et2 < accepted[1] \
                    and et2 <= e0 - 1e-4 * s2 * gnorm * gnorm:
                accepted = (s2, et2)
            else:
                break
        step, e0 = accepted
        pos = pos - step * g
        taken = it + 1

    cur = c.with_positions(pos)
    if divergence is not None:
        rep = StationarityReport(divergence, float("nan"), None, float("nan"))
        return DescentResult(cur, rep, taken, e0, float("nan"))
    return DescentResult(cur, classify(cur), taken, e0,
                         float(np.linalg.norm(gradient(cur))))


@dataclass
class SweepSummary:
    count: int
    exponent: float
    dim: int
    charges: int
    counts: dict
    stable_finds: list


def conjecture_sweep(d: int, n: int, s: float, trials: int, seed: int = 0,
                     max_steps: int = 5000) -> SweepSummary:
    """Random restarts of descent; any stable stationary find is kept with
    full-precision coordinates.  Trial t uses rng seeded by (seed, t), so
    any single trial can be replayed in isolation.
    """
    counts: dict[str, int] = {k.value: 0 for k in Stationarity}
    finds = []
    exponent = n + 2.0 * s
    for t in range(trials):
        rng = np.random.default_rng([seed, t])
        pos = rng.uniform(-0.5, 0.5, size=(d, n))
        m = rng.normal(size=d)
        m /= np.linalg.norm(m)
        cfg = ChargeConfig(pos, m, exponent)
        res = descend(cfg, max_steps=max_steps)
        counts[res.report.classification.value] += 1
        if res.report.classification is Stationarity.STATIONARY_STABLE:
            finds.append({
                "trial": t,
                "positions": res.config.positions.tolist(),
                "masses": res.config.masses.tolist(),
                "energy": res.energy,
                "gradient_norm": res.report.gradient_norm,
                "min_hessian_eig": res.report.min_hessian_eig,
            })
    return SweepSummary(count=trials, exponent=exponent, dim=n, charges=d,
                        counts=counts, stable_finds=finds)
