"""Slow-fast dynamics, the frozen equation, the averaged equation, and errors.

The two-scale system advances a slow component X and an accelerated fast
component Y on a shared grid of step ``h_fast`` (in slow time units):

    dX = (A X + F(X, law(X), Y)) dt + dL
    dY = (1/eps) (A Y + G(X, law(X), Y)) dt + eps^{-1/alpha} dZ

Exponential Euler treats each linear part exactly on its own clock — the
fast damping factor is exp(-lambda_k h/eps) — and both noise terms are
exact convolution increments (the fast one with the window h/eps on the
unit clock, which is the same law as the accelerated integral).  The law
argument of both F and G is the *slow* ensemble's empirical statistic.

Supporting objects:

* the *frozen equation*: the fast dynamics at scale one with the slow
  arguments (x, mu_stat) held fixed.  Strong dissipativity
  (lambda_1 - L_G > 0) makes it exponentially ergodic; its invariant
  measure defines the averaged drift Fbar(x, mu) = int F(x, mu, y) d(inv).
  One loop steps it; its callers differ only in what they observe:
  ``simulate_frozen`` records the paths, ``ergodic_fbar`` time-averages F
  along one path, ``ergodicity_decay`` reads ensemble means of F at grid
  times.
* the *auxiliary process*: the fast component re-driven with slow inputs
  frozen at the starts of blocks of length delta, sharing the true fast
  component's noise increments bitwise.  It interpolates between the
  coupled system and the frozen equation and is the measurable face of
  the averaging argument (Khasminskii's time discretization).
* the *averaged equation*: the slow equation with F replaced by Fbar,
  driven by the *same* slow noise streams (synchronous coupling), so that
  sup-in-time strong errors can be measured per particle.

Every loop here is one call of :func:`mvspde.solver.advance`, the
exponential-Euler kernel, and every recorded run comes back as a
time-major :class:`~mvspde.measures.LawFlow`.  The study loops record
nothing, so their memory does not grow with T: ``strong_error_stats``
steps the coupled pair beside the averaged equation, ``increment_stats``
beside one auxiliary twin per block length, and ``ergodicity_decay``
reads its grid times as the frozen paths pass them.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .spectral import ConfigError, OperatorSpec, check_moment_order, whole_steps
from .coefficients import CoefficientSet, averaged_drift, check_bounded_drift, dissipativity_gap
from .measures import LawFlow, fit_line, p_moment, sum_squares
from .solver import (
    NonFiniteState,
    SimConfig,
    _recorder,
    advance,
    euler_weights,
)
from .noise import RngStream, StableNoiseBank, convolution_scales, CH_SLOW, CH_FAST, CH_FROZEN

__all__ = [
    "MultiscaleConfig",
    "FrozenInput",
    "SlowFastPaths",
    "simulate_slow_fast",
    "simulate_frozen",
    "ergodic_fbar",
    "DecayReport",
    "NoSignalError",
    "grid_steps",
    "ergodicity_decay",
    "simulate_averaged",
    "StrongErrorStats",
    "strong_error_stats",
    "increment_stats",
]


@dataclass(frozen=True)
class MultiscaleConfig:
    """Two-scale setup on top of a single-scale :class:`SimConfig`.

    ``h_fast`` is the shared integrator step in slow time units and must
    resolve the fast relaxation: h_fast <= epsilon / 10.  The h_fast rules
    raise ConfigError without a pointer: the key varies.
    """

    base: SimConfig
    epsilon: float
    h_fast: float
    eta: np.ndarray = 0.0

    def __post_init__(self):
        if self.epsilon <= 0:
            raise ValueError(f"epsilon must be positive, got {self.epsilon}")
        if self.h_fast > self.epsilon / 10.0 + 1e-12:
            raise ConfigError(
                f"h_fast = {self.h_fast} too coarse: need h_fast <= epsilon/10 "
                f"= {self.epsilon / 10.0}"
            )
        whole_steps(self.base.T, self.h_fast, "T")
        dissipativity_gap(self.base.coeffs, self.base.spec)
        object.__setattr__(self, "eta", self.base.spec.as_field(self.eta))

    @property
    def n_steps(self) -> int:
        return round(self.base.T / self.h_fast)

    @property
    def times(self) -> np.ndarray:
        return self.h_fast * np.arange(self.n_steps + 1)

    @property
    def delta_resolved(self) -> float:
        """The balancing block length epsilon**(1/(1+theta)), snapped to the fast grid."""
        theta = self.base.spec.theta
        raw = self.epsilon ** (1.0 / (1.0 + theta))
        steps = max(2, round(raw / self.h_fast))
        return min(steps * self.h_fast, self.base.T)


@dataclass(frozen=True)
class FrozenInput:
    """Slow arguments held fixed in the frozen equation, plus a start point."""

    x: np.ndarray
    mu_stat: float
    y0: np.ndarray

    def __post_init__(self):
        if self.mu_stat < 0:
            raise ValueError(f"mu_stat must be >= 0, got {self.mu_stat}")
        object.__setattr__(self, "x", np.asarray(self.x, dtype=float))
        object.__setattr__(self, "y0", np.asarray(self.y0, dtype=float))


@dataclass(frozen=True)
class SlowFastPaths:
    slow: LawFlow
    fast: LawFlow


def simulate_slow_fast(cfg: MultiscaleConfig, record_every: int = 1) -> SlowFastPaths:
    """Advance the coupled system; record both components every ``record_every`` steps.

    The two components share the step grid; the fast one gets the
    epsilon-rescaled exponents.  Slow and fast noise live on disjoint
    channels of the same per-particle streams (replica 0, particles
    0..M-1), so reruns (and the paired averaged run and increment gaps)
    can reproduce either component bitwise.
    """
    base, spec, coeffs = cfg.base, cfg.base.spec, cfg.base.coeffs
    J = cfg.n_steps
    shape = (base.M, spec.n_modes)
    (xs, ys), mu, observe = _recorder(J, record_every, shape, 2, spec.p)
    banks = [StableNoiseBank(base.seed, spec.alpha, base.M, spec.n_modes, channel)
             for channel in (CH_SLOW, CH_FAST)]
    advance(
        {"slow component X": np.broadcast_to(base.xi, shape),
         "fast component Y": np.broadcast_to(cfg.eta, shape)},
        [euler_weights(spec, cfg.h_fast), euler_weights(spec, cfg.h_fast, cfg.epsilon)],
        [(banks[0], convolution_scales(spec, cfg.h_fast, "slow")),
         (banks[1], convolution_scales(spec, cfg.h_fast, "fast", cfg.epsilon))],
        lambda j, f: [coeffs.F(f[0], mu[j], f[1]), coeffs.G(f[0], mu[j], f[1])],
        J, observe,
    )
    times = cfg.times[::record_every]
    return SlowFastPaths(slow=LawFlow(times, xs), fast=LawFlow(times, ys))


def _frozen_loop(frozen: FrozenInput, n_steps: int, h: float, spec: OperatorSpec,
                 coeffs: CoefficientSet, rng: RngStream, n_particles: int, observe) -> None:
    """Step the frozen equation ``n_steps`` steps of ``h`` from ``frozen.y0``.

    Particle i draws its noise on the stream (rng.seed, rng.replica,
    rng.particle + i, CH_FROZEN) with the fast amplitudes at unit clock
    rate; ``observe(j, fields)`` sees the (n_particles, n_modes) state at
    every grid time j, as in :func:`advance`.
    """
    bank = StableNoiseBank(
        rng.seed, spec.alpha, n_particles, spec.n_modes, CH_FROZEN,
        replica=rng.replica,
        particle_ids=[rng.particle + i for i in range(n_particles)],
    )
    x_row = frozen.x[None, :]
    advance(
        {"frozen-equation state": np.broadcast_to(frozen.y0, (n_particles, spec.n_modes))},
        [euler_weights(spec, h)], [(bank, convolution_scales(spec, h, "fast", 1.0))],
        lambda j, fields: [coeffs.G(x_row, frozen.mu_stat, fields[0])], n_steps, observe,
    )


def simulate_frozen(
    frozen: FrozenInput,
    T_end: float,
    h_fast: float,
    spec: OperatorSpec,
    coeffs: CoefficientSet,
    rng: RngStream,
    n_particles: int = 1,
    record_every: int = 1,
) -> LawFlow:
    """Frozen equation at scale one: fast dynamics with (x, mu_stat) pinned.

    Requires a positive dissipativity gap (the equation mixes at rate
    lambda_1 - L_G).  Noise uses the fast amplitudes gamma_k at unit clock
    rate on a dedicated channel of ``rng``'s address; particle i of the
    ensemble uses particle id rng.particle + i.
    """
    dissipativity_gap(coeffs, spec)
    J = whole_steps(T_end, h_fast, "T_end")
    (ys,), _, observe = _recorder(J, record_every, (n_particles, spec.n_modes))
    _frozen_loop(frozen, J, h_fast, spec, coeffs, rng, n_particles, observe)
    return LawFlow(h_fast * record_every * np.arange(ys.shape[0]), ys)


# relative quantum of the (x, mu_stat) that names ergodic_fbar's stream, and
# the number of batch-mean windows its standard error is taken over
PROBE_RESOLUTION = 1e-3
N_BATCHES = 16


def _probe_particle(x: np.ndarray, mu_stat: float) -> int:
    """Particle id of the probe (x, mu_stat): a crc32 of it quantized at
    ``PROBE_RESOLUTION`` relative to its size."""
    scale = max(1.0, float(np.max(np.abs(x))), abs(mu_stat))
    q = PROBE_RESOLUTION * scale
    point = tuple(np.round(np.asarray(x, dtype=float) / q).astype(np.int64)) + (
        int(round(mu_stat / q)),
    )
    return zlib.crc32(repr(point).encode()) & 0x7FFFFFFF


def ergodic_fbar(
    frozen: FrozenInput,
    spec: OperatorSpec,
    coeffs: CoefficientSet,
    rng: RngStream,
    *,
    relax_time: float | None = None,
    avg_time: float | None = None,
    h_step: float = 0.005,
) -> tuple[np.ndarray, float]:
    """Time-average F along one long frozen path; returns (field, stderr).

    This is the ergodic estimate of the averaged drift Fbar(x, mu), the
    reference the family's closed-form ``fbar_factory`` is checked against.
    Burn-in ``relax_time``, then average F(x, mu, Y_s) over ``avg_time``;
    they default to 8 and 64 relaxation times 1/(lambda_1 - L_G).  The
    standard error comes from batch means (``N_BATCHES`` equal
    sub-windows), which absorbs the path's autocorrelation.  The path's
    stream is (rng.seed, rng.replica, a hash of (x, mu_stat), CH_FROZEN),
    so an estimate does not depend on what was evaluated before it.
    """
    gap = dissipativity_gap(coeffs, spec)
    t_b = 8.0 / gap if relax_time is None else relax_time
    t_a = 64.0 / gap if avg_time is None else avg_time
    n_relax = int(np.ceil(t_b / h_step))
    n_avg = int(np.ceil(t_a / h_step))
    n_avg -= n_avg % N_BATCHES  # equal batches
    per_batch = n_avg // N_BATCHES
    x_row = frozen.x[None, :]
    sums = np.zeros((N_BATCHES, spec.n_modes))

    def observe(j, fields):
        if n_relax <= j < n_relax + n_avg:
            sums[(j - n_relax) // per_batch] += coeffs.F(x_row, frozen.mu_stat, fields[0])[0]

    probe = RngStream(rng.seed, rng.replica, _probe_particle(frozen.x, frozen.mu_stat))
    _frozen_loop(frozen, n_relax + n_avg, h_step, spec, coeffs, probe, 1, observe)
    batch_means = sums / per_batch
    est = batch_means.mean(axis=0)
    stderr_vec = batch_means.std(axis=0, ddof=1) / np.sqrt(N_BATCHES)
    return est, float(np.linalg.norm(stderr_vec))


@dataclass(frozen=True)
class DecayReport:
    """Gap |E F(x,mu,Y_t) - Fbar| against the exponential envelope."""

    t_grid: np.ndarray
    gaps: np.ndarray
    floor_levels: np.ndarray   # MC stderr of the gap at each time
    kept: np.ndarray           # mask of points above the floor, used in the fit
    fitted_rate: float
    rate_stderr: float
    theory_rate: float
    envelope_const: float      # prefactor fitted at the theoretical rate
    envelope_ok: bool          # no kept point exceeds 1.5x the fitted envelope


class NoSignalError(ValueError):
    """The decay curve never rises far enough above its Monte Carlo floor to fit."""


def grid_steps(t_grid, h_step: float) -> np.ndarray:
    """Step counts of the decay grid's times on the step ``h_step``.

    The grid must be 1-d, non-negative and increasing, with at least two
    points, and each positive time a whole number of steps (t = 0 reads
    the start); otherwise :class:`ConfigError` at /study/grid.
    """
    t_grid = np.asarray(t_grid, dtype=float)
    if t_grid.ndim != 1 or t_grid.size < 2 or t_grid[0] < 0 or np.any(np.diff(t_grid) <= 0):
        raise ConfigError("t_grid must be 1-d, nonnegative and increasing, "
                          "with at least 2 points", "/study/grid")
    return np.array([whole_steps(t, h_step, "t", "/study/grid") if t > 0 else 0
                     for t in t_grid])


def ergodicity_decay(
    frozen: FrozenInput,
    spec: OperatorSpec,
    coeffs: CoefficientSet,
    t_grid: np.ndarray,
    n_replicas: int,
    rng: RngStream,
    h_step: float = 0.01,
    fbar_ref: np.ndarray | None = None,
) -> DecayReport:
    """Measure the frozen equation's mixing rate toward the averaged drift.

    Runs ``n_replicas`` frozen paths from the same start, estimates
    E F(x, mu, Y_t) at the grid times as the paths pass them (nothing is
    recorded, so memory does not grow with the grid's end), and fits
    log|gap| ~ -rate * t on the points above 3x their Monte Carlo floor
    (nan stderr from two points), raising :class:`NoSignalError` when fewer
    than two are, and :class:`NonFiniteState` at the first grid time whose
    gap or floor is not finite.  The theoretical envelope decays at rate
    lambda_1 - L_G.
    ``fbar_ref`` defaults to the family's Fbar at the probe.

    ``rate_stderr`` is the line fit's slope stderr, which treats the grid
    points as independent; they are read off the same paths, so it
    understates the rate's spread between seeds.  On the linear oracle at
    ensemble 2500 it reads 0.010-0.031 where the rate's std over seeds 0-29
    is 0.051.
    """
    t_grid = np.asarray(t_grid, dtype=float)
    idx = grid_steps(t_grid, h_step)
    gap = dissipativity_gap(coeffs, spec)
    if fbar_ref is None:
        fbar_ref = averaged_drift(coeffs, spec)(frozen.x, frozen.mu_stat)

    gaps = np.empty(t_grid.size)
    floors = np.empty(t_grid.size)
    at_step = {int(j): i for i, j in enumerate(idx)}

    def read_gap(j, fields):
        i = at_step.get(j)
        if i is not None:
            fvals = coeffs.F(frozen.x[None, :], frozen.mu_stat, fields[0])
            gaps[i] = np.linalg.norm(fvals.mean(axis=0) - fbar_ref)
            floors[i] = np.linalg.norm(fvals.std(axis=0, ddof=1) / np.sqrt(n_replicas))
            for name, value in (("gap", gaps[i]), ("gap floor", floors[i])):
                if not np.isfinite(value):
                    raise NonFiniteState(f"{name} at t = {t_grid[i]:.6g}", j, n_steps, None)

    n_steps = int(idx.max())
    _frozen_loop(frozen, n_steps, h_step, spec, coeffs, rng, n_replicas, read_gap)

    kept = gaps > 3.0 * floors
    if kept.sum() < 2:
        raise NoSignalError("fewer than 2 points above the MC floor; shrink t_grid or add replicas")
    t_k, g_k = t_grid[kept], np.log(gaps[kept])
    fit = fit_line(t_k, g_k)

    # prefactor at the theoretical rate; envelope check with 50% headroom
    log_c = float(np.mean(g_k + gap * t_k))
    env_c = float(np.exp(log_c))
    envelope_ok = bool(np.all(gaps[kept] <= 1.5 * env_c * np.exp(-gap * t_grid[kept])))
    return DecayReport(
        t_grid=t_grid,
        gaps=gaps,
        floor_levels=floors,
        kept=kept,
        fitted_rate=-fit.slope,
        rate_stderr=fit.slope_stderr,
        theory_rate=float(gap),
        envelope_const=env_c,
        envelope_ok=envelope_ok,
    )


def simulate_averaged(cfg: MultiscaleConfig, record_every: int = 1) -> LawFlow:
    """Averaged slow equation driven by the *same* slow noise as the paired run.

    This is the single-scale solver with B replaced by the family's Fbar,
    stepped on the fast grid and fed from the slow channel of the same
    (seed, replica, particle) streams that :func:`simulate_slow_fast` uses —
    synchronous coupling by construction.
    """
    base, spec, coeffs = cfg.base, cfg.base.spec, cfg.base.coeffs
    J = cfg.n_steps
    (xs,), mu, observe = _recorder(J, record_every, (base.M, spec.n_modes), p=spec.p)
    fbar = averaged_drift(coeffs, spec)
    bank_s = StableNoiseBank(base.seed, spec.alpha, base.M, spec.n_modes, CH_SLOW)
    advance(
        {"averaged slow component": np.broadcast_to(base.xi, (base.M, spec.n_modes))},
        [euler_weights(spec, cfg.h_fast)],
        [(bank_s, convolution_scales(spec, cfg.h_fast, "slow"))],
        lambda j, fields: [fbar(fields[0], mu[j])], J, observe,
    )
    return LawFlow(cfg.times[::record_every], xs)


class StrongErrorStats(NamedTuple):
    """Moments of a per-particle sample of m-th powers of an error or a norm.

    ``mean_pow`` and ``var_pow`` describe the sample across its ``n``
    particles (sup|X - Xbar|^m for the strong error, m = 1 for the
    increment studies, |x_i|^p for the simulate curve); ``error`` is
    mean_pow**(1/m) and ``stderr`` its delta-method standard error.  As a
    tuple it leads with (mean, var, n), the row that replica moments pool by.
    """

    mean_pow: float
    var_pow: float
    n: int
    m: float

    @classmethod
    def from_sample(cls, sample: np.ndarray, m: float) -> StrongErrorStats:
        """Mean, unbiased variance and size of a 1-d sample of m-th powers."""
        return cls(mean_pow=float(sample.mean()),
                   var_pow=float(sample.var(ddof=1)) if sample.size > 1 else 0.0,
                   n=int(sample.size), m=m)

    @property
    def error(self) -> float:
        return float(self.mean_pow ** (1.0 / self.m))

    @property
    def stderr(self) -> float:
        if self.mean_pow <= 0:
            return 0.0
        se_mean = np.sqrt(self.var_pow / self.n)
        return float(se_mean / self.m * self.mean_pow ** (1.0 / self.m - 1.0))


def strong_error_stats(
    cfg: MultiscaleConfig,
    m: float | None = None,
    replicas=((0, None),),
) -> tuple[StrongErrorStats, ...]:
    """Streaming synchronous-coupling errors between slow-fast and averaged runs.

    Advances the coupled pair (X, Y) and the averaged equation Xbar in one
    loop on the fast grid, with the slow noise increments shared per
    particle, and tracks max over grid times of |X - Xbar| per particle.
    Nothing is stored along the way, so production sizes stream in O(M)
    memory.

    ``replicas`` lists independent interacting systems of ``cfg.base.M``
    particles each, as (replica, particle_ids) stream addresses
    (``particle_ids=None`` means range(M)).  They advance together as one
    (R, M, n_modes) array; each system reads its own law statistic, and
    every reduction runs along one system's particle or mode axis, so a
    system's result has the same bits whatever else shares its batch.
    Returns one :class:`StrongErrorStats` per system, in order.  A NaN or
    inf in X, Y, Xbar or the law statistic the drift reads raises
    FloatingPointError naming it, epsilon, the replica and the step.  Y
    holds only the ``coeffs.y_modes`` leading modes, the ones F reads (all
    modes when None), and the fast banks draw those modes alone.

    Requires p <= m < alpha (heavy tails: higher moments of the sup do not
    exist) and a coefficient family with bounded slow drift — with
    unbounded F the sup of the error has uncontrolled tails and the
    estimator is meaningless — whose ``fbar_factory`` gives Xbar's drift.
    """
    base, spec, coeffs = cfg.base, cfg.base.spec, cfg.base.coeffs
    if m is None:
        m = spec.p
    check_moment_order(m, spec)
    check_bounded_drift(coeffs)
    if len(replicas) == 0:
        raise ValueError("need at least one replica")
    fbar = averaged_drift(coeffs, spec)
    J = cfg.n_steps

    def source(channel, scale):
        # one bank per system, holding as many modes as the scale
        return ([StableNoiseBank(base.seed, spec.alpha, base.M, scale.size, channel,
                                 replica=rep, particle_ids=ids) for rep, ids in replicas],
                scale)

    head = slice(coeffs.y_modes)
    slow = source(CH_SLOW, convolution_scales(spec, cfg.h_fast, "slow"))
    fast = source(CH_FAST, convolution_scales(spec, cfg.h_fast, "fast", cfg.epsilon)[head])
    w_slow = euler_weights(spec, cfg.h_fast)
    w_fast = [w[head] for w in euler_weights(spec, cfg.h_fast, cfg.epsilon)]

    shape = (len(replicas), base.M, spec.n_modes)
    diff = np.empty(shape)
    sup = np.zeros(shape[:2])

    def drift_at(j, fields):
        x, y, xb = fields
        m_x, m_b = p_moment(x, spec.p)[:, None, None], p_moment(xb, spec.p)[:, None, None]
        finite = np.isfinite(m_x) & np.isfinite(m_b)
        if not finite.all():
            raise NonFiniteState("law statistic", j, J, int(np.argmin(finite)))
        return coeffs.F(x, m_x, y), coeffs.G(x, m_x, y), fbar(xb, m_b)

    def track_sup(j, fields):
        # |x - xb| per particle, as np.linalg.norm sums it
        np.subtract(fields[0], fields[2], out=diff)
        dist = sum_squares(diff)
        np.sqrt(dist, out=dist)
        np.maximum(sup, dist, out=sup)

    try:
        advance(
            {"slow component X": np.broadcast_to(base.xi, shape),
             "fast component Y": np.broadcast_to(cfg.eta[head], shape[:2] + fast[1].shape),
             "averaged slow component": np.broadcast_to(base.xi, shape)},
            [w_slow, w_fast, w_slow],
            [slow, fast, slow],
            drift_at, J, track_sup,
        )
    except NonFiniteState as exc:
        raise FloatingPointError(
            f"non-finite {exc.name} at epsilon = {cfg.epsilon:.6g}, "
            f"replica {replicas[exc.system][0]}, step {exc.step} of {J}"
        ) from exc
    return tuple(StrongErrorStats.from_sample(row, float(m)) for row in sup**m)



class _BlockGaps:
    """:func:`increment_stats`' observe hook, per distinct block length of ``steps`` steps.

    It keeps the slow state at the last block start and its law statistic,
    which that length's twin drift reads, and each particle's running sum of
    its gap at grid times j >= 1: |X_j - X_{t(j)}| (``slow`` arm; t(j) starts
    the block holding (t_{j-1}, t_j], so no block start anchors a spurious
    zero) or |Y_j - A_j| (``aux`` arm).  ``mu`` is the live slow statistic.
    """

    def __init__(self, steps, arm: str, n_steps: int, shape, p: float):
        self.steps, self.arm, self.n_steps, self.p = steps, arm, n_steps, p
        self.start = np.empty((len(steps),) + tuple(shape))
        self.mu_start = [0.0] * len(steps)
        self.mu = 0.0
        self.sums = np.zeros((len(steps), shape[0]))
        self._diff = np.empty(self.start.shape)

    def __call__(self, j, fields):
        x = fields[0]
        self.mu = p_moment(x, self.p)
        if not np.isfinite(self.mu):
            raise NonFiniteState("law statistic", j, self.n_steps, None)
        if j > 0:
            if self.arm == "slow":
                np.subtract(x, self.start, out=self._diff)
            else:
                for diff, twin in zip(self._diff, fields[2:]):
                    np.subtract(fields[1], twin, out=diff)
            dist = sum_squares(self._diff)  # |.| per particle, as np.linalg.norm sums it
            np.sqrt(dist, out=dist)
            self.sums += dist
        for k, s in enumerate(self.steps):
            if j % s == 0:
                self.start[k] = x
                self.mu_start[k] = self.mu

    def stats(self) -> list[StrongErrorStats]:
        """StrongErrorStats (m = 1) of the time-mean gaps: over the n_steps right
        endpoints (slow), or all n_steps + 1 grid times, the gap at t = 0 being 0 (aux)."""
        count = self.n_steps if self.arm == "slow" else self.n_steps + 1
        return [StrongErrorStats.from_sample(row / count, 1.0) for row in self.sums]


def increment_stats(
    cfg: MultiscaleConfig,
    deltas,
    arm: str,
    particle_ids=None,
    replica: int = 0,
) -> tuple[StrongErrorStats, ...]:
    """Per-delta moments of each particle's time-mean block-increment gap, streamed.

    One :func:`advance` call steps (X, Y) with :func:`simulate_slow_fast`'s
    bits and, for the ``aux`` arm, one auxiliary twin A per block length:
    the fast component with G reading the slow state at the last block
    start l*delta and its :func:`~mvspde.measures.p_moment`, on Y's own
    noise increments (so A is Y bitwise when G ignores its slow inputs).
    The ``slow`` arm averages |X_t - X_{t(delta)}|, the ``aux`` arm
    |Y_t - A_t|; nothing is recorded, so memory does not grow with T.  A
    NaN or inf raises FloatingPointError naming the field (a twin by its
    delta), epsilon, the replica and the step.
    """
    if arm not in ("slow", "aux"):
        raise ValueError(f"arm must be 'slow' or 'aux', got {arm!r}")
    base, spec, coeffs = cfg.base, cfg.base.spec, cfg.base.coeffs
    J = cfg.n_steps
    shape = (base.M, spec.n_modes)
    deltas = [float(d) for d in deltas]
    steps = [whole_steps(d, cfg.h_fast, "delta") for d in deltas]
    blocks = list(dict.fromkeys(steps))  # each distinct block length once
    gaps = _BlockGaps(blocks, arm, J, shape, spec.p)

    def source(channel, scale):
        return (StableNoiseBank(base.seed, spec.alpha, base.M, spec.n_modes, channel,
                                replica=replica, particle_ids=particle_ids), scale)

    slow = source(CH_SLOW, convolution_scales(spec, cfg.h_fast, "slow"))
    fast = source(CH_FAST, convolution_scales(spec, cfg.h_fast, "fast", cfg.epsilon))
    twins = [] if arm == "slow" else [
        f"auxiliary fast component (delta = {deltas[steps.index(s)]!r})" for s in blocks]
    w_fast = euler_weights(spec, cfg.h_fast, cfg.epsilon)

    def drift(j, fields):
        x, y = fields[:2]
        return [coeffs.F(x, gaps.mu, y), coeffs.G(x, gaps.mu, y)] + [
            coeffs.G(gaps.start[k], gaps.mu_start[k], a) for k, a in enumerate(fields[2:])]

    try:
        advance(
            {"slow component X": np.broadcast_to(base.xi, shape),
             "fast component Y": np.broadcast_to(cfg.eta, shape),
             **{name: np.broadcast_to(cfg.eta, shape) for name in twins}},
            [euler_weights(spec, cfg.h_fast), w_fast] + [w_fast] * len(twins),
            [slow, fast] + [fast] * len(twins),
            drift, J, gaps,
        )
    except NonFiniteState as exc:
        raise FloatingPointError(
            f"non-finite {exc.name} at epsilon = {cfg.epsilon:.6g}, "
            f"replica {replica}, step {exc.step} of {J}"
        ) from exc
    rows = dict(zip(blocks, gaps.stats()))
    return tuple(rows[s] for s in steps)
