"""Exponential Euler particle solver for the mean-field equation.

The equation evolves u in mode space:

    du = (A u + B(u, law(u))) dt + dL,      u_0 = xi,

with A diagonal (-lambda_k) and L the cylindrical alpha-stable process.  The
law enters the drift through the scalar statistic mu_stat (p-th moment); a
particle ensemble of size M replaces it by the empirical statistic, and each
particle reads that shared number while carrying independent noise.

One time step of the scheme treats the linear part exactly and the drift as
frozen on the step:

    u_{j+1,k} = e^{-lambda_k h} u_{j,k}
              + (1 - e^{-lambda_k h}) / lambda_k * drift_k(u_j, mu_j)
              + eta_{j,k},

where eta_j is an *exact* sample of the stochastic-convolution increment
over the step (see :mod:`mvspde.noise`).  There is therefore no
discretisation error in the linear or noise parts — only in holding the
drift and the law constant across a step.  :func:`advance` is the one
implementation of that step; every stepping loop of the package, here and
in :mod:`mvspde.multiscale`, is a call of it, and every recorded run comes
back as a time-major :class:`~mvspde.measures.LawFlow`.

:func:`picard_law_iteration` reproduces the fixed-point construction of the
solution law: freeze a candidate flow of laws, solve the now law-free
equation, read off the new empirical law flow, and repeat.  Successive flows
are compared in the exponentially weighted Wasserstein metric; with a weight
beating twice the drift's Lipschitz constant the map is a strict contraction
until the Monte Carlo resolution floor.  Since the iterate on [0, t] reads
its predecessor only on [0, t], every iteration is stepped in one sweep over
the time grid, which draws its noise one block at a time and records no
flow, so its memory does not grow with the horizon; distances that the
sweep's kept clouds do not settle are settled in a second such sweep.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .spectral import ConfigError, OperatorSpec, check_moment_order, validate_spec, whole_steps
from .coefficients import CoefficientSet, effective_constants
from .measures import (
    LawFlow,
    assignment_solver,
    check_bound,
    dT_metric,  # unused here, but perfbench/spans.py wraps solver.dT_metric by name
    fit_line,
    may_exceed,
    p_moment,
    slice_directions,
    weighted_distance,
)
from .noise import RngStream, StableNoiseBank, convolution_scales, CH_PROJECTION, CH_SLOW

__all__ = [
    "SimConfig",
    "euler_weights",
    "NonFiniteState",
    "advance",
    "simulate_mkv",
    "PicardReport",
    "picard_law_iteration",
    "MomentReport",
    "moment_bound_check",
]

# Steps per pre-drawn noise block; results are invariant to this number.
# The block is the one copy of its source's noise that a loop holds (its
# banks write into it step-major) and the largest array of a stepping
# study: at 64 steps a rate-study slow source of 8 systems x 125 particles
# x 8 modes is 4 MB, half of what 128 steps hold, for twice the generator
# fills per step (about 5% more noise time at 8 modes).
BLOCK_STEPS = 64


@dataclass(frozen=True)
class SimConfig:
    """Single-scale simulation setup.

    ``xi`` may be a scalar, a short vector (zero-padded), or a full field;
    it is normalised to shape (n_modes,).  ``T / h`` must be a whole
    number of steps (:func:`~mvspde.spectral.whole_steps`, at /sim/h).
    """

    spec: OperatorSpec
    coeffs: CoefficientSet
    T: float
    h: float
    M: int
    seed: int
    xi: np.ndarray = 0.0

    def __post_init__(self):
        whole_steps(self.T, self.h, "T", "/sim/h")
        if self.M < 1:
            raise ValueError(f"need at least one particle, got M={self.M}")
        if self.coeffs.p != self.spec.p:
            raise ValueError(
                f"coefficient moment order p={self.coeffs.p} does not match "
                f"spec p={self.spec.p}"
            )
        report = validate_spec(self.spec)
        if not report.ok:
            bad = report.failures()[0]
            raise ValueError(f"{bad.name}: {bad.detail}")
        object.__setattr__(self, "xi", self.spec.as_field(self.xi))

    @property
    def n_steps(self) -> int:
        return round(self.T / self.h)

    @property
    def times(self) -> np.ndarray:
        return self.h * np.arange(self.n_steps + 1)


def euler_weights(spec: OperatorSpec, h: float, epsilon: float = 1.0):
    """(decay, drift weight) of one exponential Euler step on the clock 1/epsilon.

    decay = e^{-lambda_k h/eps}, weight = (1 - e^{-lambda_k h/eps}) / lambda_k;
    dividing by epsilon = 1.0 is exact, so slow steps keep the plain bits.
    """
    if h <= 0:
        raise ValueError(f"step size must be positive: {h}")
    lam = spec.eigenvalues
    return np.exp(-lam * h / epsilon), -np.expm1(-lam * h / epsilon) / lam


class NonFiniteState(FloatingPointError):
    """A field, or the law statistic read off one, turned NaN or inf after
    ``step`` steps; ``system`` is the flat index over the field's leading
    axes (None for an (M, n_modes) field)."""

    def __init__(self, name: str, step: int, n_steps: int, system: int | None):
        where = "" if system is None else f", system {system}"
        super().__init__(f"non-finite {name} at step {step} of {n_steps}{where}")
        self.name, self.step, self.system = name, step, system


def _noise_block(source, j0: int, n: int, buf):
    """Steps j0 .. j0 + n - 1 of a noise source, time on axis 0.

    Each bank draws into the particle-major view of its slice of ``buf``,
    which its particle groups fill step-major from the cache (a
    particle's modes at one step move as one item), so that each step's
    increments are one contiguous slice and ``buf`` is the one copy of
    the source's noise; the scale multiply then runs over ``buf`` in
    place, in one flat pass.
    """
    if isinstance(source, np.ndarray):
        return np.moveaxis(source[..., j0:j0 + n, :], -2, 0)
    banks, scale = source
    lead = () if isinstance(banks, StableNoiseBank) else (len(banks),)
    banks = banks if lead else [banks]
    n_particles, n_modes = banks[0].n_particles, banks[0].n_modes
    shape = (n,) + lead + (n_particles, n_modes)
    if buf is None or buf.shape != shape:
        buf = np.empty(shape)
    steps = buf.reshape((n, -1, n_particles, n_modes))
    for r, bank in enumerate(banks):
        bank.draw(n, out=steps[:, r].swapaxes(0, 1))
    buf *= np.broadcast_to(scale, shape[1:]).copy()  # full-shape, so the multiply runs flat
    return buf


def advance(states: dict, weights, noise, drift, n_steps: int, observe) -> list:
    """Step named fields in lockstep by exponential Euler; return the final fields.

    ``states`` maps names to initial fields of shape (M, n_modes), or
    (R, M, n_modes) for R systems; each is copied into a C-ordered buffer,
    so callbacks reduce over one layout whatever array was passed.  Per
    field, ``weights`` holds an :func:`euler_weights` pair and ``noise`` a
    source: scaled increments with time on axis -2, or (banks, scale) with
    one :class:`StableNoiseBank` (or one per system), drawn ``BLOCK_STEPS``
    steps at a time and multiplied by ``scale``.
    Fields listing the same source object share it.

    At j = 0 .. n_steps - 1, ``observe(j, fields)`` runs first, then each
    field becomes decay * field + weight * drift + noise, summed in that
    order, with drifts from ``drift(j, fields)``; ``observe`` runs again at
    n_steps.  The fields passed are buffers that later steps overwrite.  A
    NaN or inf in any field after a step raises :class:`NonFiniteState`.
    """
    names = list(states)
    fields = [np.array(v, dtype=float, order="C") for v in states.values()]
    spare, scratch = [np.empty_like(f) for f in fields], [np.empty_like(f) for f in fields]
    # each (decay, weight) pair at its field's full shape: per step, every
    # product is then elementwise, with no short vector broadcast per row
    weights = [[np.broadcast_to(w, f.shape).copy() for w in pair]
               for pair, f in zip(weights, fields)]
    sources = {id(src): src for src in noise}
    blocks = dict.fromkeys(sources)
    block_steps = BLOCK_STEPS
    for j0 in range(0, n_steps, block_steps):
        n = min(block_steps, n_steps - j0)
        for key, src in sources.items():
            blocks[key] = _noise_block(src, j0, n, blocks[key])
        rows = [blocks[id(src)] for src in noise]
        for j in range(j0, j0 + n):
            observe(j, fields)
            for k, d in enumerate(drift(j, fields)):
                np.multiply(weights[k][0], fields[k], out=spare[k])
                np.multiply(weights[k][1], d, out=scratch[k])
                spare[k] += scratch[k]
                spare[k] += rows[k][j - j0]
            fields, spare = spare, fields
            for name, f in zip(names, fields):
                if not np.isfinite(f).all():
                    bad = np.argwhere(~np.isfinite(f))[0][:-2]
                    system = int(np.ravel_multi_index(bad, f.shape[:-2])) if bad.size else None
                    raise NonFiniteState(name, j + 1, n_steps, system)
    observe(n_steps, fields)
    return fields


def _recorder(n_steps: int, every: int, shape, n_fields: int = 1, p: float | None = None):
    """(clouds, mu, observe): an :func:`advance` hook recording the first
    ``n_fields`` fields (each of ``shape``) at every ``every``-th grid time,
    time-major, and, when ``p`` is given, field 0's p-moment statistic at
    every time into ``mu`` for the drift to read; a non-finite statistic
    raises :class:`NonFiniteState` at its time.  A recorded time's
    statistic is :func:`~mvspde.measures.p_moment` of its recorded cloud."""
    if n_steps % every != 0:
        raise ValueError(f"record_every = {every} does not divide {n_steps} steps")
    clouds = [np.empty((n_steps // every + 1,) + tuple(shape)) for _ in range(n_fields)]
    mu = np.empty(n_steps + 1)

    def observe(j, fields):
        if p is not None:
            mu[j] = p_moment(fields[0], p)
            if not np.isfinite(mu[j]):
                raise NonFiniteState("law statistic", j, n_steps, None)
        if j % every == 0:
            for path, f in zip(clouds, fields):
                path[j // every] = f

    return clouds, mu, observe


def simulate_mkv(config: SimConfig, law_override: np.ndarray | None = None) -> LawFlow:
    """Simulate the interacting particle system (or a frozen-law system).

    When ``law_override`` is given (an array of mu_stat values on the step
    grid, length n_steps + 1) the particles do not interact: each one solves
    the equation driven by that frozen flow of laws.  Otherwise the shared
    statistic is read from the live ensemble each step.  The result is the
    :class:`~mvspde.measures.LawFlow` of the particles at every grid time.

    Particle i draws its noise on the stream (seed, 0, i, CH_SLOW), so
    reruns reproduce trajectories bitwise.
    """
    spec, coeffs = config.spec, config.coeffs
    J = config.n_steps
    if law_override is not None:
        law_override = np.asarray(law_override, dtype=float)
        if law_override.shape != (J + 1,):
            raise ValueError(
                f"law_override must have shape ({J + 1},), got {law_override.shape}"
            )
    bank = StableNoiseBank(config.seed, spec.alpha, config.M, spec.n_modes, CH_SLOW)
    noise = (bank, convolution_scales(spec, config.h, "slow"))

    shape = (config.M, spec.n_modes)
    (clouds,), mu_track, observe = _recorder(
        J, 1, shape, p=spec.p if law_override is None else None
    )
    if law_override is not None:
        mu_track[:] = law_override
    advance(
        {"interacting particle state": np.broadcast_to(config.xi, shape)},
        [euler_weights(spec, config.h)], [noise],
        lambda j, fields: [coeffs.B(fields[0], mu_track[j])], J, observe,
    )
    return LawFlow(config.times, clouds)


@dataclass(frozen=True)
class PicardReport:
    """Distances between successive law flows in the weighted metric.

    ``distances[n]`` is d(mu^(n+1), mu^(n)); ``ratios[n]`` the consecutive
    quotient.  ``noise_floor_iter`` is the first iteration whose distance
    failed to shrink — beyond it the Monte Carlo resolution, not the
    contraction, dominates.  ``laws[n]`` is the law statistic that
    iteration n + 1 froze, on the step grid (row 0: that of delta_xi), so
    ``simulate_mkv(config, law_override=laws[n])`` is iteration n + 1's
    flow bit for bit.
    """

    distances: np.ndarray
    ratios: np.ndarray
    lambda_weight: float
    noise_floor_iter: int | None
    laws: np.ndarray

    @property
    def contracting(self) -> bool:
        """The distance shrank at least once, and every time before the floor.

        ``ratios[floor - 1]`` is the ratio that defines the floor (>= 1, or
        0/0 at an exact fixed point), so it is not part of the test.
        """
        floor = self.noise_floor_iter
        upto = len(self.ratios) if floor is None else floor - 1
        return upto >= 1 and bool(np.all(self.ratios[:upto] < 1.0))


def picard_law_iteration(
    config: SimConfig,
    n_iters: int = 8,
    lambda_weight: float | None = None,
) -> PicardReport:
    """Fixed-point iteration on the flow of laws.

    Iteration 1 simulates M non-interacting particles against the constant
    flow delta_xi; iteration n+1 against the frozen statistic of iteration
    n's empirical flow, and ``distances[n]`` compares the two flows (flow 0
    is delta_xi).  All iterations reuse identical noise (same seed, same
    particle addressing), so distances measure only the law map's
    contraction, not noise resampling; it is drawn once.  Flows of more
    than ``EXACT_ASSIGNMENT_LIMIT`` particles are compared in sliced W_p,
    with projection directions from the ``CH_PROJECTION`` stream of the
    seed.  A flow is frozen as :func:`~mvspde.measures.p_moment` of its
    clouds, the statistic the live drift reads, so past n_steps + 1
    iterations the flow is :func:`simulate_mkv`'s bit for bit, at distance 0.

    The iterations advance in lockstep, as one (n_iters, M, n_modes) field
    of one :func:`advance` call.  That is exact by causality: iterate n+1 on
    [0, t] reads iterate n only on [0, t], so at grid time t_j it reads
    iterate n's cloud at t_j, which the sweep has just made (the pipelined
    form of waveform relaxation).  Each step also bounds every distance at
    t_j by the index coupling, as :func:`~mvspde.measures.dT_metric` does,
    and keeps each pair of iterates' clouds at the pair's largest bound so
    far, the time its distance is solved at first.  Only where another
    time's bound can still beat a pair's sup (on the exact path hardly
    ever) does the same sweep run again, on the recorded statistics and
    the noise drawn afresh, and solve each such time as it comes while its
    bound beats the pair's running sup.  That is the maximum of the terms
    dT_metric's pruned loop takes, so it has its bits.  A sweep draws its
    noise ``BLOCK_STEPS`` steps at a time, as every loop does.  Held in
    memory: the iterates' fields, the kept pairs, one noise block and every
    iteration's law statistic and bounds, but no flow, so nothing of size
    n_steps x M.

    A non-finite iterate raises FloatingPointError naming its iteration and
    the step; a non-finite distance bound raises dT_metric's ValueError,
    naming the iteration.
    """
    if n_iters < 2:
        raise ValueError(f"need at least two iterations to report a ratio, got {n_iters}")
    if lambda_weight is None:
        lambda_weight = effective_constants(config.coeffs, config.spec).contraction_lambda
    if np.exp(-lambda_weight * config.h) == 0.0:
        raise ConfigError(f"weight {lambda_weight:.6g} makes exp(-lambda h) underflow to 0: "
                          "every flow distance past t = 0 would read 0", "/study/lambda_weight")

    spec, p, times = config.spec, config.spec.p, config.times
    J, S = config.n_steps, n_iters
    directions = slice_directions(config.M, spec.n_modes,
                                  RngStream(config.seed, channel=CH_PROJECTION))
    if directions is None:
        assignment_solver()  # load the LSAP kernel now, not inside the first distance
    scale = convolution_scales(spec, config.h, "slow")
    shape = (config.M, spec.n_modes)
    xi_cloud = np.tile(config.xi, (config.M, 1))  # every measure of the flow delta_xi

    # row s: iteration s + 1, and its pair with iteration s (0: delta_xi)
    weights = np.exp(-lambda_weight * times)    # dT_metric's weight of each time
    mu = np.empty((S, J + 1))                   # the statistic each iteration reads
    mu[0] = float(np.linalg.norm(config.xi))
    bound = np.empty((S, J + 1))                # dT_metric's bound of each pair
    peak = np.full(S, -np.inf)                  # each pair's largest bound so far,
    kept_at = np.zeros(S, dtype=int)            # its first time
    kept = np.empty((S, 2) + shape)             # and the pair's clouds there
    kept[0, 1] = xi_cloud
    diff = np.empty((S,) + shape)

    def sweep(observe):
        bank = StableNoiseBank(config.seed, spec.alpha, config.M, spec.n_modes, CH_SLOW)
        try:
            advance({"Picard iterate": np.broadcast_to(config.xi, (S,) + shape)},
                    [euler_weights(spec, config.h)], [(bank, scale)],
                    lambda j, fields: [config.coeffs.B(fields[0], mu[:, j, None, None])],
                    J, observe)
        except NonFiniteState as exc:
            raise FloatingPointError(
                f"non-finite particle state in Picard iteration {exc.system + 1} of {S} "
                f"at step {exc.step} of {J}") from exc

    def bound_and_keep(j, fields):
        stages = fields[0]
        mu[1:, j] = p_moment(stages[:-1], p)
        np.subtract(stages[0], xi_cloud, out=diff[0])
        np.subtract(stages[1:], stages[:-1], out=diff[1:])
        bound[:, j] = weights[j] * p_moment(diff, p)
        # strictly above: ties keep the first time, as dT_metric's stable sort
        up = np.flatnonzero(bound[:, j] > peak)
        peak[up] = bound[up, j]
        kept_at[up] = j
        kept[up, 0] = stages[up]
        later = up[up > 0]
        kept[later, 1] = stages[later - 1]

    sweep(bound_and_keep)
    for s in range(S):
        check_bound(bound[s], times, f" in Picard iteration {s + 1} of {S}")

    distances = np.zeros(S)  # each pair's running sup

    def settle(s, j, x, y):
        if may_exceed(bound[s, j], distances[s]):
            distances[s] = max(distances[s], weighted_distance(x, y, p, lambda_weight,
                                                               times[j], directions))

    for s in range(S):
        settle(s, kept_at[s], *kept[s])
    left = may_exceed(bound, distances[:, None])
    left[np.arange(S), kept_at] = False
    if left.any():
        def settle_left(j, fields):
            stages = fields[0]
            for s in np.flatnonzero(left[:, j]):
                settle(s, j, stages[s], stages[s - 1] if s else xi_cloud)

        sweep(settle_left)

    with np.errstate(divide="ignore", invalid="ignore"):
        ratios = distances[1:] / distances[:-1]
    floor = None
    for n in range(1, len(distances)):
        if distances[n] >= distances[n - 1]:
            floor = n
            break
    return PicardReport(
        distances=distances,
        ratios=ratios,
        lambda_weight=float(lambda_weight),
        noise_floor_iter=floor,
        laws=mu,
    )


@dataclass(frozen=True)
class MomentReport:
    moments: np.ndarray      # empirical m-th moment statistic per recorded time
    sup_moment: float
    trend_slope: float       # linear trend of the second half of the curve
    trend_stderr: float
    stable: bool             # no statistically significant growth trend

    def __bool__(self):
        return self.stable


def moment_bound_check(flow: LawFlow, spec: OperatorSpec, m: float) -> MomentReport:
    """Check the uniform-in-time m-th moment of a flow stepped under ``spec`` for growth.

    The moment order must sit in [p, alpha): above alpha the statistic has
    no population counterpart and the test would reject noise, not drift.
    ``stable`` means the fitted linear trend of the second half of the
    moment curve is not significantly positive (one-sided, 3 sigma).
    """
    check_moment_order(m, spec)
    moments = flow.moments(m)
    half = moments.size // 2
    slope, stderr = 0.0, 0.0
    if moments.size - half >= 3:
        fit = fit_line(flow.times[half:], moments[half:])
        slope, stderr = fit.slope, fit.slope_stderr
    stable = slope <= 3.0 * stderr + 1e-12
    return MomentReport(moments, float(moments.max()), slope, stderr, stable)
