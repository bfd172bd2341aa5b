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
SWEEP_BLOCK = 256    # trials descended together; memory is O(block d^2 n)


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
        if not 0 < self.exponent < math.inf:
            raise ValueError("exponent must be positive and finite")
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
    """Pair differences ``x_i - x_j`` and the pair distance matrix of a
    ``(d, n)`` position array, or of each one in a ``(trials, d, n)`` stack."""
    diff = pos[..., :, None, :] - pos[..., None, :, :]
    return diff, np.sqrt(np.sum(diff * diff, axis=-1))


def energy(c: ChargeConfig) -> float:
    _, d = _pair_geometry(c.positions)
    iu = np.triu_indices(c.count, k=1)
    mm = np.outer(c.masses, c.masses)[iu]
    return float(-4.0 * np.sum(mm * d[iu] ** (-c.exponent)))


def gradient(c: ChargeConfig) -> np.ndarray:
    return _gradient(*_pair_geometry(c.positions), c.masses, c.exponent)


def _gradient(diff, d, mas, p) -> np.ndarray:
    d = np.where(np.eye(d.shape[-1], dtype=bool), np.inf, d)
    coef = 4.0 * p * (mas[..., :, None] * mas[..., None, :]) * d ** (-p - 2.0)
    return np.sum(coef[..., None] * diff, axis=-2)


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


def _upper(a, pairs):
    """Upper-triangle pair entries of a ``(trials, d, d)`` stack, one C-ordered
    row per trial: fancy indexing would hand back a transposed layout, and a
    row sum over it adds in another order than a lone trial's sum."""
    return np.take(a.reshape(len(a), -1), pairs, axis=1)


def _require_pairs(count: int) -> None:
    if count < 2:
        raise ValueError(f"descent needs at least two charges, got {count}")


def descend(c: ChargeConfig, max_steps: int = 5000) -> DescentResult:
    """Descend one configuration: ``descend_batch`` on a batch of one."""
    return descend_batch([c], max_steps)[0]


def descend_batch(configs, max_steps: int = 5000) -> list[DescentResult]:
    """Gradient descent with backtracking and greedy step expansion, run in
    lockstep on configurations sharing charge count, dimension and exponent.

    Exits, in the order they are tested: the step budget; collapse when the
    closest pair crosses COLLAPSE_DIST; escape when the diameter crosses
    ESCAPE_DIAMETER; and stationary when the line search stalls at its
    floor (adjudicated by classify).  A zero gradient is a stall at once,
    since step times gradient norm is then below any floor.  A raw
    small-gradient exit would be wrong here: a scattering trajectory passes
    through arbitrarily small gradients on its way out while the energy
    still decreases along the separation direction, so the stall of the
    line search is the test, not the gradient norm.

    Each trial keeps its own step, energy, line-search phase and exit.
    Every round evaluates one trial energy for each trial still running, and
    a trial that exits drops out.  The arithmetic of a trial does not depend
    on the rest of the batch, so its result is bitwise that of descending it
    alone.  Results come back in the order of ``configs``.
    """
    configs = list(configs)
    if not configs:
        return []
    shape = (configs[0].count, configs[0].dim, configs[0].exponent)
    _require_pairs(shape[0])
    if any((c.count, c.dim, c.exponent) != shape for c in configs):
        raise ValueError("a descent batch must share charge count, dimension "
                         "and exponent")
    p = shape[2]
    pairs = np.ravel_multi_index(np.triu_indices(shape[0], k=1),
                                 (shape[0], shape[0]))

    results: list = [None] * len(configs)
    ids = np.arange(len(configs))
    pos = np.stack([c.positions for c in configs])
    mas = np.stack([c.masses for c in configs])
    mm = _upper(mas[:, :, None] * mas[:, None, :], pairs)
    e0 = -4.0 * np.sum(mm * _upper(_pair_geometry(pos)[1], pairs) ** (-p),
                       axis=-1)
    mm4 = -4.0 * mm     # the first product of a trial's -4.0 * mm * dv ** -p
    step = np.ones(len(ids))            # while expanding: the accepted step
    acc_e = np.full(len(ids), np.inf)   # energy at the accepted step
    taken = np.zeros(len(ids), dtype=int)
    g = np.zeros_like(pos)
    gnorm = np.zeros(len(ids))
    floor = np.zeros(len(ids))
    expanding = np.zeros(len(ids), dtype=bool)
    fresh = np.ones(len(ids), dtype=bool)   # at the top of a descent step

    # non-finite values are handled explicitly: a trial with a coincident
    # pair or an overflowing term has a non-finite energy and is rejected
    with np.errstate(all="ignore"):
        while True:
            over, diverged = set(), {}  # running indices: spent, diverged
            if fresh.any():
                top = np.flatnonzero(fresh)
                fresh[:] = False
                spent = taken[top] >= max_steps
                over, top = set(top[spent].tolist()), top[~spent]
                if top.size:
                    diverged = _start_steps(pos, mas, p, pairs, top, g, gnorm,
                                            floor)
            out = ~expanding & ~(step * gnorm > floor)   # stalled
            out[[*over, *diverged]] = True
            if out.any():
                for j in np.flatnonzero(out).tolist():
                    results[ids[j]] = _stopped(
                        configs[ids[j]], pos[j].copy(), taken[j], e0[j],
                        diverged.get(j), None if j in over else gnorm[j])
                keep = ~out
                (ids, pos, mas, mm4, e0, step, acc_e, taken, g, gnorm, floor,
                 expanding, fresh) = (
                    a[keep] for a in (ids, pos, mas, mm4, e0, step, acc_e,
                                      taken, g, gnorm, floor, expanding,
                                      fresh))
                if not ids.size:
                    break

            # one trial energy per running trial: a backtracking trial tries
            # its step, an expanding one twice its accepted step; acc_e is
            # +inf while backtracking, so one test serves both phases
            s = np.where(expanding, step * 2.0, step)
            dv = _upper(_pair_geometry(pos - s[:, None, None] * g)[1], pairs)
            et = np.sum(mm4 * dv ** (-p), axis=-1)
            better = (np.isfinite(et) & (et <= e0 - 1e-4 * s * gnorm * gnorm)
                      & (et < acc_e))
            commit = expanding & ~better
            step = np.where(better, s, step)
            step[~(better | expanding)] *= 0.5
            acc_e = np.where(better, et, acc_e)
            expanding |= better
            if commit.any():
                e0[commit] = acc_e[commit]
                acc_e[commit] = np.inf
                pos[commit] = (pos[commit]
                               - step[commit][:, None, None] * g[commit])
                taken[commit] += 1
                expanding[commit] = False
                fresh[commit] = True
    return results


def _start_steps(pos, mas, p, pairs, top, g, gnorm, floor) -> dict:
    """Geometry at the top of a descent step for the running trials ``top``:
    writes their gradient, its norm and the line-search floor into ``g``,
    ``gnorm`` and ``floor``, and maps each diverged trial to its exit."""
    diff, d = _pair_geometry(pos[top])
    collapse = _upper(d, pairs).min(axis=1) < COLLAPSE_DIST
    diameter = d.max(axis=(1, 2))
    escape = ~collapse & (diameter > ESCAPE_DIAMETER)
    gt = _gradient(diff, d, mas[top], p)
    g[top] = gt
    flat = gt.reshape(len(top), 1, -1)
    # (1, k) @ (k, 1) is the same ddot np.linalg.norm makes
    gnorm[top] = np.sqrt(flat @ flat.transpose(0, 2, 1))[:, 0, 0]
    # the floor bounds the displacement, not the raw step: near a collapsing
    # pair the gradient blows up and a fixed step floor would still force
    # trials that leap across the pole
    floor[top] = 1e-16 * np.fmax(1.0, diameter)
    diverged = dict.fromkeys(top[collapse].tolist(),
                             Stationarity.COLLAPSE_DIVERGED)
    diverged.update(dict.fromkeys(top[escape].tolist(),
                                  Stationarity.ESCAPE_DIVERGED))
    return diverged


def _stopped(c, pos, taken, e0, divergence, gnorm) -> DescentResult:
    """Result of a trial that exits at ``pos``: diverged, or judged by
    classify with final gradient norm ``gnorm`` (None: classify's own)."""
    cur = c.with_positions(pos)
    if divergence is not None:
        nan = float("nan")
        rep = StationarityReport(divergence, nan, None, nan)
        return DescentResult(cur, rep, int(taken), float(e0), nan)
    rep = classify(cur)
    return DescentResult(cur, rep, int(taken), float(e0),
                         rep.gradient_norm if gnorm is None else float(gnorm))


@dataclass
class SweepSummary:
    count: int
    exponent: float
    dim: int
    charges: int
    counts: dict
    stable_finds: list


def sweep_trials(d: int, n: int, s: float, trials: int, seed: int = 0,
                 max_steps: int = 5000):
    """Descent results of a sweep's random restarts, yielded in trial order.

    Trial t draws positions uniform in [-0.5, 0.5)^n and masses normal on
    the unit sphere from rng seeded by (seed, t).  Trials descend in
    lockstep, SWEEP_BLOCK at a time, and each result is bitwise what
    ``descend`` gives for that trial alone, so any single trial can be
    replayed in isolation.
    """
    _require_pairs(d)
    exponent = n + 2.0 * s

    def trial(t):
        rng = np.random.default_rng([seed, t])
        pos = rng.uniform(-0.5, 0.5, size=(d, n))
        m = rng.normal(size=d)
        m /= np.linalg.norm(m)
        return ChargeConfig(pos, m, exponent)

    for start in range(0, trials, SWEEP_BLOCK):
        stop = min(start + SWEEP_BLOCK, trials)
        yield from descend_batch([trial(t) for t in range(start, stop)],
                                 max_steps)


def conjecture_sweep(d: int, n: int, s: float, trials: int, seed: int = 0,
                     max_steps: int = 5000) -> SweepSummary:
    """Random restarts of descent; any stable stationary find is kept with
    full-precision coordinates.  Trial t uses rng seeded by (seed, t) (see
    ``sweep_trials``).  The trials descend in lockstep, SWEEP_BLOCK at a
    time, and a trial replayed alone through ``descend`` gives the same
    bits, so any find can be reproduced in isolation.
    """
    counts: dict[str, int] = {k.value: 0 for k in Stationarity}
    finds = []
    for t, res in enumerate(sweep_trials(d, n, s, trials, seed, max_steps)):
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
    return SweepSummary(count=trials, exponent=n + 2.0 * s, dim=n, charges=d,
                        counts=counts, stable_finds=finds)
