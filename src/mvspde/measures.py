"""Particle clouds on mode space, the statistics read off them, and distances.

A cloud is an (M, n_modes) array whose rows are the atoms of a uniform
empirical measure in R^N (N = number of retained modes).  A
:class:`LawFlow` is the one record of a stepped ensemble: its clouds on a
time grid, time-major, shape (n_times, M, n_modes), so each time's cloud
is one contiguous block.  Each statistic the package reports has one
implementation here:

* ``p_moment``, the law statistic ((1/M) sum_i |x_i|^p)^(1/p): the live
  drift reads it and a frozen flow of laws carries it, so the two agree
  bit for bit;
* ``fit_line``, the weighted least-squares line behind every fitted
  slope and rate.

Distances:

* ``wasserstein_exact`` solves the optimal assignment between two
  equal-size clouds (SciPy's compiled LSAP kernel, see
  :func:`assignment_solver`, on the cost matrix |x_i - y_j|^p) and is the
  reference implementation, used up to M = 256.  Its cost matrix is built
  in fixed-size row blocks, in place in buffers that every solve of one
  size reuses, so repeated solves allocate and fault in nothing: glibc
  maps a fresh allocation past its mmap threshold (128 KiB at start, raised
  by what the process freed before) and faults it in on every call, and
  how often small temporaries return their heap pages depends on that
  history too.  ``dT_metric``'s bound is reduced in blocks of the same
  size, with the bits of one pass.
* ``wasserstein_sliced`` averages one-dimensional transport costs of random
  projections; the 1-d cost is closed-form (sorted samples matched in
  order).  It is a biased-low surrogate that scales to large M.
* ``dT_metric`` compares two time-indexed flows of measures through
  sup_j exp(-lambda * t_j) * W_p(mu_{t_j}, nu_{t_j}), the exponentially
  weighted distance under which the law map of the mean-field equation is
  a contraction.  It bounds every time by the cost of matching particle i
  to particle i and solves only the times whose bound can still beat the
  running sup.

Throughout, W_p of two uniform clouds of equal size M reduces to a minimum
over permutations of ((1/M) sum |x_i - y_pi(i)|^p)^(1/p), which is what the
assignment solver computes.
"""

from __future__ import annotations

import functools
import importlib.machinery
import importlib.util
import os
from dataclasses import dataclass

import numpy as np

from .noise import RngStream

__all__ = [
    "LawFlow",
    "p_moment",
    "sum_squares",
    "FitReport",
    "fit_line",
    "wasserstein_exact",
    "wasserstein_sliced",
    "dT_metric",
    "check_bound",
    "pruned_sup",
    "EXACT_ASSIGNMENT_LIMIT",
]

# exact assignment is O(M^3); past this size callers should slice.
EXACT_ASSIGNMENT_LIMIT = 256

# Relative slack on the index-coupling bound before dT_metric stops visiting
# times.  The bound and the assignment cost sum the same |x_i - y_i|^p terms
# in different orders, so where the identity matching is optimal the solved
# distance can exceed its bound by a few ulps.
PRUNE_MARGIN = 1e-9


@functools.cache
def assignment_solver():
    """SciPy's compiled ``linear_sum_assignment``, loaded once on first use.

    The solver is D. F. Crouse's rectangular LSAP ("On implementing 2D
    rectangular assignment algorithms", IEEE TAES 52(4), 2016), which SciPy
    ships as the extension module ``scipy/optimize/_lsap``.  That file is
    loaded on its own, in about a millisecond: importing the
    ``scipy.optimize`` package to reach it takes about half a second (it
    pulls in ``scipy.linalg``, ``scipy.sparse`` and ``scipy.fft``) and is
    skipped, so ``scipy.optimize`` stays out of ``sys.modules``.  Nothing here registers
    the module; CPython itself records a single-phase extension under its
    name, and a later ``import scipy.optimize`` reuses it, so its
    ``linear_sum_assignment`` is this same function.  Only where that file
    is missing is the package imported.
    """
    scipy = importlib.util.find_spec("scipy")
    for directory in (scipy and scipy.submodule_search_locations) or ():
        for suffix in importlib.machinery.EXTENSION_SUFFIXES:
            path = os.path.join(directory, "optimize", "_lsap" + suffix)
            if os.path.isfile(path):
                spec = importlib.util.spec_from_file_location("scipy.optimize._lsap", path)
                kernel = importlib.util.module_from_spec(spec)
                spec.loader.exec_module(kernel)
                return kernel.linear_sum_assignment
    from scipy.optimize import linear_sum_assignment

    return linear_sum_assignment


# longest axis that np.add.reduce sums in one block of eight lanes
PAIRWISE_BLOCK = 128

# Doubles in one block of the cost matrix or of dT_metric's bound: 64 KiB,
# half of glibc's starting mmap threshold.
BLOCK_ENTRIES = 8192


def _add_columns(cols, n: int) -> np.ndarray:
    """The sum of n same-shape arrays in np.add.reduce's order along an axis of n.

    For 0 < n <= ``PAIRWISE_BLOCK`` numpy adds a contiguous axis in a fixed
    order: below 8 one element after another; from 8 on in eight lanes,
    lane j summing elements j, j + 8, ..., the lanes combined as
    ((r0 + r1) + (r2 + r3)) + ((r4 + r5) + (r6 + r7)) and the remainder
    added last.  Here the elements are whole arrays, taken in turn from
    the iterable ``cols``, and each add is one pass.  None is written to,
    and each is dropped once added, so arrays made on demand are freed as
    the sum goes.  The result is a new C-ordered array.
    """
    take = iter(cols).__next__
    if n < 8:
        out = take().copy() if n == 1 else take() + take()
        for _ in range(n - 2):
            out += take()
        return out
    lanes = [take() for _ in range(8)]
    for _ in range(n // 8 - 1):
        for j in range(8):
            lanes[j] = lanes[j] + take()
    lanes.reverse()
    lane = lanes.pop
    out = lane() + lane()
    out += lane() + lane()
    out += (lane() + lane()) + (lane() + lane())
    for _ in range(n % 8):
        out += take()
    return out


def sum_squares(x) -> np.ndarray:
    """np.add.reduce(x * x, axis=-1) bit for bit, by adds of whole columns.

    The columns of x * x are added by :func:`_add_columns`, so no short
    vector is reduced per row, and neither the bits nor the C order of the
    result depend on the layout of x.  Longer (and empty) axes go to
    add.reduce on a C-ordered copy.
    """
    x = np.asarray(x, dtype=float)
    n = x.shape[-1]
    if not 0 < n <= PAIRWISE_BLOCK:
        x = np.ascontiguousarray(x)
        return np.add.reduce(x * x, axis=-1)
    sq = np.multiply(x, x, order="C")
    return _add_columns((sq[..., k] for k in range(n)), n)


def p_moment(x, p: float):
    """((1/M) sum_i |x_i|^p)^(1/p) of each cloud in x, shape (..., M, n_modes).

    One cloud gives a float, a batch an array of shape x.shape[:-2].  Each
    cloud is reduced along its own particle axis (np.mean's sum and
    divide) with its root a scalar power (numpy's array power can differ in
    the last bit), so a cloud has the same bits alone, in a batch and as a
    strided view.  At p = 1 the power and the root are the identity and
    are skipped.  Particle norms are sqrt(:func:`sum_squares`), the bits of
    np.linalg.norm on real input.
    """
    if p < 1:
        raise ValueError(f"p must be >= 1, got {p}")
    norms = sum_squares(x)
    np.sqrt(norms, out=norms)
    if p != 1:
        norms **= p
    means = np.add.reduce(norms, axis=-1)
    means /= norms.shape[-1]
    if p == 1:
        return float(means) if means.ndim == 0 else means
    roots = [float(v) ** (1.0 / p) for v in np.ravel(means)]
    return roots[0] if means.ndim == 0 else np.reshape(roots, means.shape)


@dataclass(frozen=True)
class FitReport:
    slope: float
    intercept: float
    slope_stderr: float
    r2: float


def fit_line(x, y, w=None) -> FitReport:
    """Weighted least-squares line y ~ slope * x + intercept.

    ``w`` multiplies each residual (numpy's polyfit convention, so 1/sigma);
    None means unit weights.  The slope standard error is the
    chi-square-rescaled one, which stays honest when the weights are
    misestimated; it needs at least three points, below that it is nan.
    ``r2`` is the weighted coefficient of determination.
    """
    x, y = np.asarray(x, dtype=float), np.asarray(y, dtype=float)
    w = np.ones_like(x) if w is None else np.asarray(w, dtype=float)
    if x.size < 2:
        raise ValueError(f"need at least 2 points for a line fit, have {x.size}")
    slope, intercept = np.polyfit(x, y, 1, w=w)
    slope_stderr = float("nan")
    if x.size >= 3:
        slope_stderr = float(np.sqrt(np.polyfit(x, y, 1, w=w, cov=True)[1][0, 0]))
    resid = y - (slope * x + intercept)
    ss_res = float(np.sum((w * resid) ** 2))
    ybar = float(np.sum(w**2 * y) / np.sum(w**2))
    ss_tot = float(np.sum((w * (y - ybar)) ** 2))
    r2 = 1.0 - ss_res / ss_tot if ss_tot > 0 else 1.0
    return FitReport(float(slope), float(intercept), slope_stderr, float(r2))


def _add_columns_into(out, lanes, n: int, fill) -> np.ndarray:
    """:func:`_add_columns`' sum of n columns, bit for bit, written into ``out``.

    ``lanes`` holds columns 0 .. min(n, 8) - 1 on entry and, past eight
    columns, one more scratch array, all shaped like ``out``; ``fill(k,
    buf)`` writes column k >= 8 into ``buf`` and returns it.  Every add runs
    in place, into ``out`` or the lanes, so the sum allocates nothing.
    """
    if n < 8:
        if n == 1:
            np.copyto(out, lanes[0])
        else:
            np.add(lanes[0], lanes[1], out=out)
        for k in range(2, n):
            out += lanes[k]
        return out
    tail = n - n % 8
    for k in range(8, tail):
        lanes[k % 8] += fill(k, lanes[8])
    np.add(lanes[0], lanes[1], out=out)
    lanes[2] += lanes[3]
    out += lanes[2]
    lanes[4] += lanes[5]
    lanes[6] += lanes[7]
    lanes[4] += lanes[6]
    out += lanes[4]
    for k in range(tail, n):
        out += fill(k, lanes[8])
    return out


def _new_cost_buffers(m: int, n: int, n_modes: int):
    """(cost, lanes, xt, yt): an (m, n) cost matrix, the lanes of its row
    blocks, and mode-major copies of the two clouds."""
    rows = min(m, max(1, BLOCK_ENTRIES // n))
    lanes = min(n_modes, 8) + (n_modes > 8)
    return (np.empty((m, n)), np.empty((lanes, rows, n)),
            np.empty((n_modes, m)), np.empty((n_modes, n)))


# wasserstein_exact's buffers, reused by every solve of one size: repeated
# solves then allocate nothing, whatever the heap's history.  Two threads
# must not solve at once; the package runs its parallel work in processes.
_cost_buffers = functools.lru_cache(maxsize=1)(_new_cost_buffers)


def _cost_matrix(x: np.ndarray, y: np.ndarray, p: float, buffers=None) -> np.ndarray:
    """|x_i - y_j|^p, bit for bit np.linalg.norm(x[:, None] - y[None], axis=2) ** p.

    Filled in blocks of whole rows, at most ``BLOCK_ENTRIES`` entries each.
    In a block the squared outer differences of the first eight modes are
    made in one pass over mode-major copies of the clouds, and every mode's
    is added in np.add.reduce's order by :func:`_add_columns_into`; mode
    counts past ``PAIRWISE_BLOCK`` (and zero) take np.linalg.norm of the
    block's difference tensor.  ``buffers`` are :func:`_new_cost_buffers`
    of the shapes, the cost matrix returned; None allocates them.
    """
    n = x.shape[1]
    cost, lanes, xt, yt = buffers or _new_cost_buffers(x.shape[0], y.shape[0], n)
    np.copyto(xt, x.T)
    np.copyto(yt, y.T)
    step, head = lanes.shape[1], min(n, 8)
    for start in range(0, x.shape[0], step):
        block = cost[start:start + step]
        rows, sq = xt[:, start:start + len(block)], lanes[:, :len(block)]
        if not 0 < n <= PAIRWISE_BLOCK:
            block[...] = np.linalg.norm(x[start:start + step, None, :] - y[None, :, :], axis=2)
        else:
            np.subtract(rows[:head, :, None], yt[:head, None, :], out=sq[:head])
            np.square(sq[:head], out=sq[:head])

            def fill(k, buf):
                np.subtract.outer(rows[k], yt[k], out=buf)
                return np.square(buf, out=buf)

            _add_columns_into(block, sq, n, fill)
            np.sqrt(block, out=block)
        if p != 1:
            block **= p
    return cost


def _cloud_pair(x, y, p: float):
    """x and y as float (M, n_modes) clouds of one shape, M >= 1, and p >= 1."""
    if p < 1:
        raise ValueError(f"p must be >= 1, got {p}")
    x, y = np.asarray(x, dtype=float), np.asarray(y, dtype=float)
    for c in (x, y):
        if c.ndim != 2 or c.shape[0] < 1:
            raise ValueError(f"particles must be (M, n_modes) with M >= 1, got {c.shape}")
    if x.shape[0] != y.shape[0]:
        raise ValueError(f"cloud sizes differ: {x.shape[0]} vs {y.shape[0]}")
    if x.shape[1] != y.shape[1]:
        raise ValueError(f"mode counts differ: {x.shape[1]} vs {y.shape[1]}")
    return x, y


def wasserstein_exact(x, y, p: float) -> float:
    """Exact W_p between equal-size uniform clouds via optimal assignment."""
    x, y = _cloud_pair(x, y, p)
    if x.shape[0] > EXACT_ASSIGNMENT_LIMIT:
        raise ValueError(
            f"exact assignment limited to M <= {EXACT_ASSIGNMENT_LIMIT}, got {x.shape[0]}; "
            "use wasserstein_sliced"
        )
    cost = _cost_matrix(x, y, p, _cost_buffers(x.shape[0], y.shape[0], x.shape[1]))
    rows, cols = assignment_solver()(cost)
    return float(np.mean(cost[rows, cols]) ** (1.0 / p))


def _directions(rng, n_projections: int, n_modes: int) -> np.ndarray:
    """Isotropic unit directions in R^n_modes, one per row, drawn from ``rng``."""
    gen = rng.generator() if isinstance(rng, RngStream) else rng
    directions = gen.standard_normal((n_projections, n_modes))
    directions /= np.linalg.norm(directions, axis=1, keepdims=True)
    return directions


def _wasserstein_1d(x: np.ndarray, y: np.ndarray, p: float) -> float:
    """W_p on the line for equal-size samples: sort and match in order."""
    xs = np.sort(x)
    ys = np.sort(y)
    return float(np.mean(np.abs(xs - ys) ** p) ** (1.0 / p))


def wasserstein_sliced(
    x,
    y,
    p: float,
    n_projections: int = 64,
    rng=None,
    directions: np.ndarray | None = None,
) -> float:
    """Sliced W_p: average 1-d transport cost over random unit directions.

    ((1/L) sum_l W_p(proj_l mu, proj_l nu)^p)^(1/p).  Directions are drawn
    isotropically from ``rng`` unless given explicitly.  This estimator is
    a lower bound on W_p in distribution but shares its contraction and
    convergence behaviour, which is what the flow diagnostics need.
    """
    x, y = _cloud_pair(x, y, p)
    if directions is None:
        if rng is None:
            raise ValueError("need rng or explicit directions")
        directions = _directions(rng, n_projections, x.shape[1])
    else:
        directions = np.asarray(directions, dtype=float)
    proj_mu = x @ directions.T  # (M, L)
    proj_nu = y @ directions.T
    costs = [
        _wasserstein_1d(proj_mu[:, ell], proj_nu[:, ell], p) ** p
        for ell in range(directions.shape[0])
    ]
    return float(np.mean(costs) ** (1.0 / p))


@dataclass(frozen=True)
class LawFlow:
    """A time-indexed flow of empirical measures on a shared grid.

    ``clouds`` has shape (n_times, M, n_modes); time j's measure is the
    uniform law of clouds[j].  Every stepping function of the package
    returns one; the law statistic its drift read at a recorded time is
    :func:`p_moment` of that time's cloud, bit for bit.
    """

    times: np.ndarray    # (n_times,)
    clouds: np.ndarray   # (n_times, M, n_modes)

    def __post_init__(self):
        t = np.asarray(self.times, dtype=float)
        c = np.asarray(self.clouds, dtype=float)
        if c.ndim != 3 or t.ndim != 1 or c.shape[0] != t.size:
            raise ValueError(f"shape mismatch: times {t.shape}, clouds {c.shape}")
        object.__setattr__(self, "times", t)
        object.__setattr__(self, "clouds", c)

    @property
    def n_times(self) -> int:
        return self.times.size

    @property
    def size(self) -> int:
        return self.clouds.shape[1]

    def blocks(self) -> list[slice]:
        """Slices of whole times, each at most ``BLOCK_ENTRIES`` cloud entries
        (one time where a cloud is larger)."""
        step = max(1, BLOCK_ENTRIES // max(1, self.size * self.clouds.shape[2]))
        return [slice(j, j + step) for j in range(0, self.n_times, step)]

    def moments(self, p: float) -> np.ndarray:
        """:func:`p_moment` of every time's cloud, one block of times at a
        time: the bits of one pass over the flow without its full-size
        temporaries."""
        return np.concatenate([p_moment(self.clouds[b], p) for b in self.blocks()])


def dT_metric(
    mu_flow: LawFlow,
    nu_flow: LawFlow,
    lambda_weight: float,
    p: float,
    n_projections: int = 64,
    rng=None,
) -> float:
    """sup over grid times of exp(-lambda t_j) * W_p(mu_{t_j}, nu_{t_j}).

    Uses the exact assignment distance when the clouds fit under the
    assignment limit, the sliced surrogate otherwise (then ``rng`` is
    required to draw projection directions, shared across times).

    Every time j is first bounded by the weighted cost of matching atom i
    of one cloud to atom i of the other,
    U_j = exp(-lambda t_j) * ((1/M) sum_i |x_i - y_i|^p)^(1/p).  That
    matching is a coupling, so U_j bounds W_p from above, and with it the
    sliced surrogate (unit projections shorten every |x_i - y_i|).  Times
    are then solved in decreasing order of U_j until
    U_j * (1 + PRUNE_MARGIN) <= the running sup: no time left can exceed
    it.  Each solved term is computed exactly as an exhaustive loop over
    all times would compute it, so the result is one of that loop's values
    and equals its maximum bit for bit.  Flows whose particles share their
    noise, as successive Picard stages do, are nearly index-coupled, and
    the sup then costs about one solve instead of one per time (none at
    all once the flows coincide).  A non-finite bound raises, naming its
    time index, before anything is solved.  The bound is reduced in blocks
    of at most ``BLOCK_ENTRIES`` differences, with the bits of one pass.
    """
    if lambda_weight < 0:
        raise ValueError(f"lambda_weight must be >= 0, got {lambda_weight}")
    if p < 1:
        raise ValueError(f"p must be >= 1, got {p}")
    if mu_flow.clouds.shape != nu_flow.clouds.shape:
        raise ValueError(
            f"flow cloud shapes differ: {mu_flow.clouds.shape} vs {nu_flow.clouds.shape}"
        )
    if not np.allclose(mu_flow.times, nu_flow.times):
        raise ValueError("flows must share the same time grid")

    coupled = np.concatenate([p_moment(mu_flow.clouds[b] - nu_flow.clouds[b], p)
                              for b in mu_flow.blocks()])
    bound = np.exp(-lambda_weight * mu_flow.times) * coupled
    check_bound(bound, mu_flow.times)

    directions = None
    if mu_flow.size > EXACT_ASSIGNMENT_LIMIT:
        if rng is None:
            raise ValueError(
                f"M = {mu_flow.size} > {EXACT_ASSIGNMENT_LIMIT}: sliced distance "
                "needs an rng for projection directions"
            )
        directions = _directions(rng, n_projections, mu_flow.clouds.shape[2])
    return pruned_sup(bound, mu_flow.times, lambda_weight, p,
                      lambda j: (mu_flow.clouds[j], nu_flow.clouds[j]), directions)


def check_bound(bound, times, where: str = "") -> None:
    """Raise ValueError at the first non-finite entry of a flow distance
    bound on ``times``, naming its time index; ``where`` ends the text."""
    bad = np.flatnonzero(~np.isfinite(bound))
    if bad.size:
        j = int(bad[0])
        raise ValueError(
            f"non-finite flow distance bound at time index {j} "
            f"(t = {float(times[j])!r}): {float(bound[j])!r}{where}"
        )


def pruned_sup(bound, times, lambda_weight: float, p: float, clouds, directions=None) -> float:
    """:func:`dT_metric`'s sup over times from its finite bound U_j.

    Times are solved in decreasing order of U_j (the first of equal ones
    first) until U_j * (1 + PRUNE_MARGIN) <= the running sup;
    ``clouds(j)`` gives time j's two clouds, compared by exact W_p, or by
    sliced W_p along ``directions`` where given.  Each solve goes through
    the module's ``wasserstein_exact`` (or ``wasserstein_sliced``).
    """
    best = 0.0
    for j in np.argsort(-bound, kind="stable"):
        if bound[j] * (1.0 + PRUNE_MARGIN) <= best:
            break
        mu_j, nu_j = clouds(j)
        w = (wasserstein_exact(mu_j, nu_j, p) if directions is None
             else wasserstein_sliced(mu_j, nu_j, p, directions=directions))
        best = max(best, float(np.exp(-lambda_weight * times[j])) * w)
    return best
