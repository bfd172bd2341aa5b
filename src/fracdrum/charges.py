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
            raise ValueError("'positions' must be a (d, n) array with d >= 1")
        if mas.shape != (pos.shape[0],):
            raise ValueError("'masses' must be a length-d vector")
        # Python floats: an overflowing square is inf, with no warning
        if not abs(math.fsum(m * m for m in mas.tolist()) - 1.0) <= 1e-8:
            raise ValueError("'masses' must have unit sum of squares")
        if not 0 < self.exponent < math.inf:
            raise ValueError("'exponent' must be positive and finite")
        # sorted rows, so equal ones are neighbours; no distance can overflow
        rows = pos[np.lexsort(pos.T)] if pos.size else pos
        if (rows[1:] == rows[:-1]).all(axis=1).any():
            raise ValueError("'positions' must be pairwise distinct")
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
        return cls(positions, masses, positions.shape[1] + 2.0 * s)

    def with_positions(self, positions: np.ndarray) -> "ChargeConfig":
        return replace(self, positions=np.asarray(positions, dtype=float))


def _pair_geometry(pos: np.ndarray):
    """Pair differences ``x_i - x_j`` and the pair distance matrix of a
    ``(d, n)`` position array, or of each one in a ``(trials, d, n)`` stack."""
    diff = pos[..., :, None, :] - pos[..., None, :, :]
    return diff, np.sqrt(np.sum(diff * diff, axis=-1))


def _upper(a, pairs):
    """Upper-triangle pair entries of a ``(trials, d, d)`` stack, one C-ordered
    row per trial: fancy indexing would hand back a transposed layout, and a
    row sum over it adds in another order than a lone trial's sum."""
    return np.take(a.reshape(len(a), -1), pairs, axis=1)


def _pair_factors(mas):
    """Flat pair indices i < j of a (d, d) matrix, and -4 m_i m_j per trial."""
    d = mas.shape[-1]
    pairs = np.ravel_multi_index(np.triu_indices(d, k=1), (d, d))
    return pairs, -4.0 * _upper(mas[:, :, None] * mas[:, None, :], pairs)


def _energy(mm4, d, pairs, p):
    """Energy of each trial of a ``(trials, d, d)`` distance stack."""
    return np.sum(mm4 * _upper(d, pairs) ** (-p), axis=-1)


def _finite(name: str, evaluate):
    """``evaluate()`` with warnings off, or RuntimeError if not finite."""
    with np.errstate(all="ignore"):
        value = evaluate()
    if not np.isfinite(value).all():
        raise RuntimeError(f"the {name} is not finite: {value}")
    return value


def energy(c: ChargeConfig) -> float:
    """The descent's energy on a stack of one configuration."""
    pairs, mm4 = _pair_factors(c.masses[None])
    return float(_finite("energy", lambda: _energy(
        mm4, _pair_geometry(c.positions[None])[1], pairs, c.exponent)[0]))


def gradient(c: ChargeConfig) -> np.ndarray:
    return _finite("gradient", lambda: _gradient(
        *_pair_geometry(c.positions), c.masses, c.exponent))


def _pair_coef(d, mas, p):
    """``d`` with an infinite diagonal, and 4 p m_i m_j r_ij^(-p-2)."""
    d = np.where(np.eye(d.shape[-1], dtype=bool), np.inf, d)
    return d, 4.0 * p * (mas[..., :, None] * mas[..., None, :]) * d ** (-p - 2.0)


def _gradient(diff, d, mas, p) -> np.ndarray:
    return np.sum(_pair_coef(d, mas, p)[1][..., None] * diff, axis=-2)


def hessian(c: ChargeConfig) -> np.ndarray:
    """Second derivative of the energy in the flattened (d*n,) coordinates."""
    return _finite("Hessian", lambda: _hessian(
        *_pair_geometry(c.positions), c.masses, c.exponent))


def _hessian(diff, d, mas, p) -> np.ndarray:
    """Hessian of one configuration from its pair geometry.  Pair i != j
    contributes B = 4 p m_i m_j r^(-p-2) (I - (p+2) e e^T), e the unit pair
    direction: -B to block (i, j), +B to the diagonal block (i, i)."""
    count, n = diff.shape[0], diff.shape[-1]
    d, coef = _pair_coef(d, mas, p)
    e = diff / d[..., None]
    blk = coef[..., None, None] * (np.eye(n) - (p + 2.0)
                                   * (e[..., :, None] * e[..., None, :]))
    H = -blk
    H[np.diag_indices(count)] = blk.sum(axis=1)
    return H.transpose(0, 2, 1, 3).reshape(count * n, count * n)


def translation_basis(d: int, n: int) -> np.ndarray:
    """Orthonormal rigid-translation directions in the flattened coordinates."""
    return np.tile(np.eye(n), (d, 1)) / np.sqrt(d)


def translation_complement_eigs(c: ChargeConfig) -> np.ndarray:
    """Hessian eigenvalues restricted to the complement of rigid translations.

    The complement is an explicit orthonormal basis (QR completion), so the
    returned spectrum has d*n - n entries and no projected-out padding zeros.
    Any stationary point still carries one exact zero here, the scaling
    direction: the gradient is homogeneous, so a zero-gradient configuration
    is stationary along its whole dilation ray.
    """
    return _complement_eigs(hessian(c), c.dim)


def _complement_eigs(H, n: int) -> np.ndarray:
    q, _ = np.linalg.qr(translation_basis(len(H) // n, n), mode="complete")
    return np.linalg.eigvalsh(q[:, n:].T @ H @ q[:, n:])


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
    energy: float


def classify(c: ChargeConfig) -> StationarityReport:
    """Scale-free tests on the configuration moved to its centroid and
    scaled to unit diameter D, divided by its largest coordinate first so no
    input-sized number is squared.  With S = 4 sum_{i<j} |m_i m_j| r_ij^-p,
    it is stationary iff |grad E| D <= GRAD_TOL p S, and then stable iff
    every translation-complement Hessian eigenvalue has eig D^2 / S > EIG_TOL,
    strictly, as the scaling direction is an exact zero at any stationary
    point.  Gradient norm, eigenvalue, Euler residual and energy are reported
    in the input's units; a non-finite one raises RuntimeError."""
    _require_pairs(c.count, "positions")
    p, mas = c.exponent, c.masses
    with np.errstate(all="ignore"):     # non-finite values are refused below
        top = np.abs(c.positions).max()
        x = c.positions / top
        x -= x.mean(axis=0)
        diff, d = _pair_geometry(x)
        width = d.max()
        x, diff, d, D = x / width, diff / width, d / width, width * top
        pairs, mm4 = _pair_factors(mas[None])
        e, S = (_energy(m, d[None], pairs, p)[0] for m in (mm4, np.abs(mm4)))
        g = _gradient(diff, d, mas, p)
        gnorm, min_eig = np.linalg.norm(g), None
        cls = Stationarity.NON_STATIONARY
        if gnorm <= GRAD_TOL * p * S:
            min_eig = _complement_eigs(_hessian(diff, d, mas, p), c.dim)[0]
            cls = (Stationarity.STATIONARY_STABLE if min_eig / S > EIG_TOL
                   else Stationarity.STATIONARY_UNSTABLE)
            min_eig = float(min_eig * D ** (-p - 2.0))
        rep = StationarityReport(cls, float(gnorm * D ** (-p - 1.0)), min_eig,
                                 float((np.sum(g * x) + p * e) * D ** -p),
                                 float(e * D ** -p))
    if not all(math.isfinite(v) for v in vars(rep).values()
               if isinstance(v, float)):
        raise RuntimeError(f"a value is not finite in the input's units: {rep}")
    return rep


@dataclass
class DescentResult:
    config: ChargeConfig
    report: StationarityReport
    steps: int
    energy: float
    final_gradient_norm: float


def _require_pairs(count: int, name: str) -> None:
    if count < 2:
        raise ValueError(f"'{name}' must give at least two charges, got {count}")


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
    _require_pairs(shape[0], "positions")
    if any((c.count, c.dim, c.exponent) != shape for c in configs):
        raise ValueError("a descent batch must share charge count, dimension "
                         "and exponent")
    p = shape[2]

    results: list = [None] * len(configs)
    ids = np.arange(len(configs))
    pos = np.stack([c.positions for c in configs])
    mas = np.stack([c.masses for c in configs])
    pairs, mm4 = _pair_factors(mas)
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
        e0 = _energy(mm4, _pair_geometry(pos)[1], pairs, p)
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
            et = _energy(mm4, _pair_geometry(pos - s[:, None, None] * g)[1],
                         pairs, p)
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
    gnorm[top] = np.sqrt(np.sum(gt * gt, axis=(1, 2)))
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
        rep = StationarityReport(divergence, nan, None, nan, nan)
        return DescentResult(cur, rep, int(taken), float(e0), nan)
    rep = classify(cur)
    return DescentResult(cur, rep, int(taken), float(e0),
                         rep.gradient_norm if gnorm is None else float(gnorm))


@dataclass
class SweepSummary:
    exponent: float
    counts: dict
    stable_finds: list


def sweep_trials(d: int, n: int, s: float, trials: int, seed: int = 0,
                 max_steps: int = 5000):
    """Descent results of a sweep's random restarts, yielded in trial order.

    Trial t draws positions uniform in [-0.5, 0.5)^n and masses normal on
    the unit sphere from rng seeded by (seed, t).  Trials descend through
    ``descend_batch``, SWEEP_BLOCK at a time, so any one replays alone.
    """
    _require_pairs(d, "d")
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
    """Classification counts of ``sweep_trials``; any stable stationary find
    is kept with full-precision coordinates, replayable through ``descend``."""
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
    return SweepSummary(exponent=n + 2.0 * s, counts=counts,
                        stable_finds=finds)
