"""Batch studies over simulation configs, plus flat-file persistence.

The curve-producing studies live here: the strong-convergence rate scan
over the timescale ratio, the slow-path increment regularity and
auxiliary-gap scans over block lengths (one streaming pass per replica),
the frozen-equation mixing-rate scan over probe inputs, the fixed-point
contraction trace and the moment curve.  Each returns an
:class:`ExperimentResult`, built by ``_result`` alone, whose grid is a
list of (parameter, error, stderr) points and whose ``config_hash`` is
derived from its ``config``.  The three
power-law studies pool per-replica :class:`StrongErrorStats` through one
step, ``_power_law_curve``, which also flags the noise floor and fits
the weighted log-log slope.

A study reads what it simulates from the built objects it is given
(:class:`SimConfig`, :class:`MultiscaleConfig` and their
:class:`CoefficientSet`) and from nothing else.  Its workers receive the
grid point's config pickled, the coefficient set crossing as its
``BuiltinFamily`` recipe, and its ``config`` record is
:func:`~mvspde.config.describe` of those objects and of its study keys.

Determinism contract: a study is a pure function of (config, master
seed).  The Monte Carlo budget splits into ``n_replicas`` chunks; replica
r of grid point i draws from stream replica coordinate
``i * n_replicas + r`` under the single master seed, and pooling combines
replica moments by exact sum-of-squares in fixed (grid, replica) order.
The rate study advances the equal-size replicas of a grid point as one
batch, and a replica's moments do not depend on its batch, so neither
the batching nor the worker count changes a single bit of output.  Wall time
and peak memory are recorded only in the manifest, never in hashed or
persisted content.
"""

from __future__ import annotations

import hashlib
import json
import math
import resource
import time
from dataclasses import dataclass, field, fields, replace
from pathlib import Path

import numpy as np

from .coefficients import CoefficientSet, averaged_drift, check_bounded_drift, dissipativity_gap
from .config import describe
from .measures import FitReport, fit_line
from .multiscale import (
    MultiscaleConfig,
    NoSignalError,
    StrongErrorStats,
    ergodicity_decay,
    grid_steps,
    increment_stats,
    strong_error_stats,
)
from .noise import CH_FROZEN, RngStream
from .solver import (NonFiniteState, SimConfig, moment_bound_check, picard_law_iteration,
                     simulate_mkv)
from .spectral import ConfigError, OperatorSpec, check_moment_order, whole_steps

__all__ = [
    "GridPoint",
    "ExperimentResult",
    "FitReport",
    "fit_loglog",
    "config_digest",
    "rate_study",
    "hoelder_study",
    "aux_gap_study",
    "ergodicity_study",
    "picard_study",
    "simulate_study",
    "persist",
    "load_result",
]


# --------------------------------------------------------------------------
# result container and fitting


@dataclass(frozen=True)
class GridPoint:
    """One point of a study curve: abscissa, error estimate, MC stderr."""

    param: float
    error: float
    stderr: float


@dataclass(frozen=True)
class ExperimentResult:
    """A finished study: the curve, its fit, and enough to reproduce it.

    ``flags`` maps a grid index (as a string) or the literal key ``fit``
    to a diagnostic tag such as ``noise-floor`` or ``degenerate``.
    ``runtime_s`` is informational only and excluded from hashed content.
    """

    kind: str
    grid: tuple[GridPoint, ...]
    fitted_slope: float | None
    slope_stderr: float | None
    fit_r2: float | None
    config: dict
    seeds: tuple[int, ...]
    runtime_s: float
    flags: dict = field(default_factory=dict)
    meta: dict = field(default_factory=dict)

    @property
    def config_hash(self) -> str:
        """Digest naming the result's directory, derived from ``config`` alone."""
        return config_digest(self.config)


def _plain(obj, strict: bool = False):
    """Recursively convert numpy scalars/arrays so json round-trips evenly;
    ``strict`` also turns each NaN or inf into None (null in strict JSON)."""
    if isinstance(obj, dict):
        return {str(k): _plain(v, strict) for k, v in obj.items()}
    if isinstance(obj, (list, tuple, np.ndarray)):
        return [_plain(v, strict) for v in obj]
    if isinstance(obj, np.bool_):
        return bool(obj)
    if isinstance(obj, (np.floating, np.integer)):
        obj = obj.item()
    return None if strict and isinstance(obj, float) and not math.isfinite(obj) else obj


def canonical_json(obj) -> str:
    return json.dumps(_plain(obj), sort_keys=True, separators=(",", ":"))


def config_digest(config: dict) -> str:
    """Short stable digest of a config dict (sha256 of canonical JSON)."""
    return hashlib.sha256(canonical_json(config).encode("utf-8")).hexdigest()[:12]


def _result(kind, grid, config, seeds, t0, meta, flags=None, fit=None) -> ExperimentResult:
    """A study's result, timed from its ``time.perf_counter()`` start ``t0``."""
    return ExperimentResult(
        kind=kind,
        grid=tuple(grid),
        fitted_slope=None if fit is None else fit.slope,
        slope_stderr=None if fit is None else fit.slope_stderr,
        fit_r2=None if fit is None else fit.r2,
        config=_plain(config),
        seeds=tuple(seeds),
        runtime_s=time.perf_counter() - t0,
        flags={} if flags is None else flags,
        meta=_plain(meta),
    )


def fit_loglog(grid, exclude=()) -> FitReport:
    """Weighted :func:`~mvspde.measures.fit_line` of log10(error) on log10(param).

    Weights are inverse *relative* stderr (the MC stderr mapped to log
    space), floored to keep zero-stderr points finite.  Points with
    nonpositive or non-finite param or error, plus any index in
    ``exclude``, are dropped.
    """
    exclude = set(exclude)
    xs, ys, ws = [], [], []
    for i, pt in enumerate(grid):
        if i in exclude or not (pt.param > 0 and pt.error > 0):
            continue
        if not (math.isfinite(pt.param) and math.isfinite(pt.error)):
            continue
        rel = max(pt.stderr / pt.error, 1e-9)
        xs.append(math.log10(pt.param))
        ys.append(math.log10(pt.error))
        ws.append(1.0 / rel)
    if len(xs) < 2:
        raise ValueError(
            f"need at least 2 usable grid points for a log-log fit, have {len(xs)}"
        )
    return fit_line(xs, ys, ws)


# --------------------------------------------------------------------------
# replica decomposition helpers


def _split_counts(total: int, n_chunks: int, interacting: bool = False):
    """Split ``total`` particles into ``n_chunks`` near-equal (offset, count) chunks; raise
    at /study/n_replicas if one is empty or, for ``interacting`` chunks cut from two or
    more particles, holds one: a one-particle system has no interaction."""
    least = 2 if interacting and total > 1 else 1
    if total // n_chunks < least:
        raise ConfigError(f"cannot split M={total} particles into {n_chunks} systems of at "
                          f"least {least} particles", "/study/n_replicas")
    base, extra = divmod(total, n_chunks)
    out, offset = [], 0
    for r in range(n_chunks):
        count = base + (1 if r < extra else 0)
        out.append((offset, count))
        offset += count
    return out


def _pool_moments(parts):
    """Combine per-replica rows leading with (mean, var, n) by exact sums of squares."""
    n_tot = sum(n for _, _, n, *_ in parts)
    mean = sum(n * m for m, _, n, *_ in parts) / n_tot
    ss = sum(v * (n - 1) + n * m * m for m, v, n, *_ in parts)
    var = (ss - n_tot * mean * mean) / (n_tot - 1) if n_tot > 1 else 0.0
    return float(mean), float(max(var, 0.0)), int(n_tot)


def _power_law_curve(params, parts, m):
    """Pooled curve of per-replica moments, its noise-floor flags and log-log fit.

    ``parts[i]`` lists the replica :class:`StrongErrorStats` at
    ``params[i]``, pooled in that order into moments of m-th powers.  Every
    error measured here has an exact zero baseline, so a point within 3
    stderr of zero is flagged ``noise-floor`` and left out of the fit; a
    fit that fails is flagged ``degenerate`` and returned as None.
    """
    grid, flags = [], {}
    for i, (param, reps) in enumerate(zip(params, parts)):
        pooled = StrongErrorStats(*_pool_moments(reps), m)
        err, se = pooled.error, pooled.stderr
        if err <= 3.0 * se:
            flags[str(i)] = "noise-floor"
        grid.append(GridPoint(param=param, error=err, stderr=se))
    fit = None
    if len(grid) >= 3:
        try:
            fit = fit_loglog(grid, exclude={int(k) for k in flags})
        except ValueError:
            flags["fit"] = "degenerate"
    return grid, flags, fit


def _run_tasks(fn, tasks, n_workers: int):
    """``fn(*task)`` for every task, in a fork pool when ``n_workers`` > 1.

    Each task leads with its config, which reaches a worker pickled; its
    coefficient set crosses as its recipe.
    """
    if n_workers > 1 and tasks[0][0].base.coeffs.recipe is None:
        raise ValueError(
            "parallel studies need a BuiltinFamily recipe: coefficient closures "
            "cannot cross process boundaries"
        )
    if n_workers <= 1 or len(tasks) <= 1:
        return [fn(*task) for task in tasks]
    # imported here: a serial run never pays for the pool's import
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor

    try:
        ctx = multiprocessing.get_context("fork")
    except ValueError:  # pragma: no cover - non-posix fallback
        ctx = multiprocessing.get_context("spawn")
    with ProcessPoolExecutor(max_workers=n_workers, mp_context=ctx) as pool:
        return list(pool.map(fn, *zip(*tasks), chunksize=1))


# --------------------------------------------------------------------------
# rate study: strong coupling error against the timescale ratio


def _rate_task(cfg, m, replicas):
    """Per-replica StrongErrorStats of one batch of systems of cfg.base.M particles."""
    count = cfg.base.M
    return strong_error_stats(
        cfg, m=m,
        replicas=[(rep, range(offset, offset + count)) for rep, offset in replicas],
    )


def _replica_batches(chunks, n_parts: int):
    """Group replica indices into batches of equal particle count.

    One batch per distinct chunk size, each cut into up to ``n_parts``
    near-equal parts.  The grouping never changes a bit of output.
    """
    by_size = {}
    for r, (_, count) in enumerate(chunks):
        by_size.setdefault(count, []).append(r)
    batches = []
    for group in by_size.values():
        parts = np.array_split(group, min(len(group), n_parts))
        batches += [[int(r) for r in part] for part in parts]
    return batches


def rate_study(
    base: SimConfig,
    eps_grid,
    m: float = 1.0,
    *,
    eta=0.0,
    h_fast_ratio: float = 1.0 / 16,
    n_replicas: int = 8,
    n_workers: int = 1,
) -> ExperimentResult:
    """Strong error sup_t |X^eps - Xbar| in L^m against the scale ratio.

    Runs the coupled two-scale / averaged pair at every epsilon on the
    grid (fast step ``eps * h_fast_ratio``) and fits the log-log slope of
    the error curve, to be compared against the theoretical order
    theta / (2 (1 + theta)); :func:`_power_law_curve` flags the points at
    the noise floor.  The averaged drift is the family's ``fbar_factory``.
    Every config fault raises before the first worker starts.
    """
    t0 = time.perf_counter()
    eps = [float(e) for e in eps_grid]
    if len(eps) < 4 or any(e <= 0 for e in eps) or any(b <= a for a, b in zip(eps[1:], eps)):
        raise ConfigError(f"rate study needs >= 4 positive, strictly decreasing grid points, "
                          f"got {eps}", "/study/grid")
    spec, coeffs = base.spec, base.coeffs
    check_moment_order(m, spec)
    check_bounded_drift(coeffs)
    eta = spec.as_field(eta)  # a length fault is not an h_fast_ratio fault
    try:  # one config per grid point validates its steps up front
        cfgs = [MultiscaleConfig(base=base, epsilon=e, h_fast=e * h_fast_ratio, eta=eta)
                for e in eps]
    except ConfigError as exc:
        raise exc.at("/study/h_fast_ratio") from None
    chunks = _split_counts(base.M, n_replicas, interacting=True)
    averaged_drift(coeffs, spec)  # warm shared tables before any fork

    steps = [c.n_steps for c in cfgs]
    tasks = []
    for gi, cfg in enumerate(cfgs):
        # cut a grid point into as many batches as its share of the work
        # fills workers; one batch per chunk size when serial
        n_parts = max(1, math.ceil(n_workers * steps[gi] / sum(steps)))
        for batch in _replica_batches(chunks, n_parts):
            batch_cfg = replace(cfg, base=replace(base, M=chunks[batch[0]][1]))
            replicas = [(gi * n_replicas + r, chunks[r][0]) for r in batch]
            tasks.append((batch_cfg, m, replicas))
    # costliest batches first, so that workers finish together
    tasks.sort(key=lambda t: -t[0].base.M * len(t[2]) / t[0].h_fast)
    moments = {}
    for task, rows in zip(tasks, _run_tasks(_rate_task, tasks, n_workers)):
        moments.update(zip((rep for rep, _ in task[2]), rows))

    grid, flags, fit = _power_law_curve(
        eps, [[moments[gi * n_replicas + r] for r in range(n_replicas)]
              for gi in range(len(eps))], m)
    theta = spec.theta
    config = describe(spec, coeffs, base, "rate", eta=cfgs[0].eta, grid=eps, m=m,
                      h_fast_ratio=h_fast_ratio, n_replicas=n_replicas)
    seeds = (base.seed,) + tuple(range(len(eps) * n_replicas))
    return _result("rate", grid, config, seeds, t0, {
        "theory_slope": theta / (2.0 * (1.0 + theta)),
        "m": m,
        "delta": [c.delta_resolved for c in cfgs],
        "h_fast": [c.h_fast for c in cfgs],
        "error_kind": "sup-coupling",
    }, flags, fit)


# --------------------------------------------------------------------------
# slow-path increment regularity against the block length


def _increment_study(cfg, delta_grid, kind, arm, n_replicas, n_workers):
    """One :func:`increment_stats` task per replica, pooled into a curve over delta."""
    t0 = time.perf_counter()
    deltas = [float(d) for d in delta_grid]
    if len(deltas) < 2:
        raise ConfigError("delta grid needs at least 2 points", "/study/grid")
    seen = set()
    for d in deltas:
        steps = whole_steps(d, cfg.h_fast, "delta", "/study/grid")
        if steps > cfg.n_steps:
            raise ConfigError(f"delta = {d:.6g} exceeds T = {cfg.base.T:.6g}", "/study/grid")
        if steps in seen:
            raise ConfigError(f"delta = {d:.6g} repeats a grid point: a repeat would count "
                              "twice in the fitted slope", "/study/grid")
        seen.add(steps)
    base = cfg.base
    tasks = [(replace(cfg, base=replace(base, M=count)), deltas, arm,
              range(offset, offset + count), r)
             for r, (offset, count) in enumerate(
                 _split_counts(base.M, n_replicas, interacting=True))]
    raw = _run_tasks(increment_stats, tasks, n_workers)
    grid, flags, fit = _power_law_curve(deltas, list(zip(*raw)), 1.0)
    # both arms shrink at the slow path's regularity order theta / 2; the
    # rate is an upper bound, and a markedly steeper fit means another term
    # (typically the deterministic drift increment, slope 1) dominates
    theory_slope = base.spec.theta / 2.0
    if fit is not None and fit.slope > max(0.85, theory_slope + 0.2):
        flags["fit"] = "above-envelope"
    config = describe(base.spec, base.coeffs, base, kind, h_fast=cfg.h_fast, eta=cfg.eta,
                      grid=deltas, epsilon=cfg.epsilon, n_replicas=n_replicas)
    return _result(kind, grid, config, (base.seed,) + tuple(range(n_replicas)), t0,
                   {"theory_slope": theory_slope, "epsilon": cfg.epsilon,
                    "m": 1.0, "error_kind": arm}, flags, fit)


def hoelder_study(
    cfg: MultiscaleConfig,
    delta_grid,
    *,
    n_replicas: int = 4,
    n_workers: int = 1,
) -> ExperimentResult:
    """Time-averaged slow increment (1/T) int E|X_t - X_{t(delta)}| dt vs delta.

    All block lengths are measured in one pass along the same trajectories,
    so there is no fresh-noise jitter between grid points.  The fitted
    slope is compared against theta/2 from below; deterministic
    drift-dominated regimes come out near slope 1 and are flagged
    ``above-envelope``.
    """
    return _increment_study(cfg, delta_grid, kind="hoelder", arm="slow",
                            n_replicas=n_replicas, n_workers=n_workers)


def aux_gap_study(
    cfg: MultiscaleConfig,
    delta_grid,
    *,
    n_replicas: int = 4,
    n_workers: int = 1,
) -> ExperimentResult:
    """Time-averaged gap between the fast path and its block-frozen twin, vs delta.

    The auxiliary path re-reads the slow input only at block starts while
    sharing every noise increment with the true fast path, so the gap is
    driven purely by slow displacement over one block and shrinks with
    delta at the slow path's regularity order.
    """
    return _increment_study(cfg, delta_grid, kind="aux-gap", arm="aux",
                            n_replicas=n_replicas, n_workers=n_workers)


# --------------------------------------------------------------------------
# frozen-equation mixing rates over a probe grid


def ergodicity_study(
    probes,
    spec: OperatorSpec,
    coeffs: CoefficientSet,
    t_grid,
    *,
    ensemble: int = 4000,
    seed: int = 0,
    h_step: float = 0.01,
) -> ExperimentResult:
    """Fitted mixing rate of the frozen fast equation at each probe input.

    Probe i runs under stream replica coordinate i; its grid row is
    (i + 1, fitted rate, rate stderr).  Probes whose decay curve never
    rises above the Monte Carlo floor (e.g. started at the stationary
    mean) are flagged ``no-signal`` and reported as nan; a non-finite
    state, gap or floor raises FloatingPointError naming the probe.  The
    reference Fbar is the family's ``fbar_factory``.  The time grid is checked once,
    by :func:`~mvspde.multiscale.grid_steps`, before Fbar is built.
    """
    t0 = time.perf_counter()
    probes = list(probes)
    if not probes:
        raise ValueError("need at least one probe input")
    grid_steps(t_grid, h_step)  # the grid is checked before Fbar
    fbar = averaged_drift(coeffs, spec)
    gap = dissipativity_gap(coeffs, spec)
    grid, flags, reports = [], {}, []
    for i, probe in enumerate(probes):
        rng = RngStream(seed, replica=i, channel=CH_FROZEN)
        try:
            rep = ergodicity_decay(
                probe, spec, coeffs, np.asarray(t_grid, dtype=float),
                ensemble, rng, h_step=h_step, fbar_ref=fbar(probe.x, probe.mu_stat),
            )
        except NonFiniteState as exc:
            raise FloatingPointError(f"probe {i + 1}: {exc}") from exc
        except NoSignalError:
            flags[str(i)] = "no-signal"
            grid.append(GridPoint(param=float(i + 1), error=float("nan"),
                                  stderr=float("nan")))
            reports.append({"kept": 0, "envelope_ok": None})
            continue
        grid.append(GridPoint(param=float(i + 1), error=rep.fitted_rate,
                              stderr=rep.rate_stderr))
        reports.append({"kept": int(np.sum(rep.kept)),
                        "envelope_ok": bool(rep.envelope_ok)})
    config = describe(spec, coeffs, None, "ergodicity", seed=seed,
                      grid=[float(t) for t in t_grid], ensemble=ensemble, h_step=h_step)
    # a library caller's probes are its own; the CLI's derive from sim.xi and sim.eta
    config["study"]["probes"] = [{"x": p.x, "mu_stat": p.mu_stat, "y0": p.y0} for p in probes]
    return _result("ergodicity", grid, config, (seed,) + tuple(range(len(probes))), t0,
                   {"theory_rate": gap, "probes": reports,
                    "error_kind": "mixing-rate"}, flags)


# --------------------------------------------------------------------------
# contraction trace and plain moment curves (CLI-facing wrappers)


def picard_study(
    cfg: SimConfig,
    *,
    n_iters: int = 8,
    lambda_weight: float | None = None,
) -> ExperimentResult:
    """Successive-approximation distances d_n as a study curve.

    Grid rows are (iteration, flow distance to the previous iterate, 0);
    iterations at or past the Monte Carlo floor are flagged.
    """
    t0 = time.perf_counter()
    rep = picard_law_iteration(cfg, n_iters=n_iters, lambda_weight=lambda_weight)
    grid = tuple(
        GridPoint(param=float(n + 1), error=float(d), stderr=0.0)
        for n, d in enumerate(rep.distances)
    )
    flags = {}
    if rep.noise_floor_iter is not None:
        for i in range(rep.noise_floor_iter, len(grid)):
            flags[str(i)] = "noise-floor"
    config = describe(cfg.spec, cfg.coeffs, cfg, "picard", n_iters=n_iters,
                      lambda_weight=rep.lambda_weight)
    return _result("picard", grid, config, (cfg.seed,), t0, {
        "ratios": list(rep.ratios),
        "contracting": bool(rep.contracting),
        "lambda_weight": rep.lambda_weight,
        "noise_floor_iter": rep.noise_floor_iter,
        "error_kind": "flow-distance",
    }, flags)


def simulate_study(
    cfg: SimConfig,
    *,
    m: float | None = None,
) -> ExperimentResult:
    """Single interacting-system run, reported as the p-moment curve.

    Grid rows are (t_j, empirical p-moment, delta-method stderr), each the
    :class:`StrongErrorStats` of the particles' p-th norm powers at t_j; the
    meta block carries the a-priori moment stability check at order ``m``.
    """
    t0 = time.perf_counter()
    p = cfg.spec.p
    order = p if m is None else m
    check_moment_order(order, cfg.spec)
    flow = simulate_mkv(cfg)
    grid = []
    for t, cloud in zip(flow.times, flow.clouds):
        row = StrongErrorStats.from_sample(np.linalg.norm(cloud, axis=1) ** p, p)
        grid.append(GridPoint(param=float(t), error=row.error, stderr=row.stderr))
    check = moment_bound_check(flow, cfg.spec, order)
    config = describe(cfg.spec, cfg.coeffs, cfg, "simulate", m=m)
    return _result("simulate", grid, config, (cfg.seed,), t0, {
        "sup_moment": check.sup_moment,
        "trend_slope": check.trend_slope,
        "trend_stderr": check.trend_stderr,
        "stable": bool(check.stable),
        "moment_order": order,
        "error_kind": "p-moment",
    })


# --------------------------------------------------------------------------
# persistence: CSV curve, JSON metadata, gnuplot .dat, digest manifest


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _write_json(path: Path, obj) -> None:
    """Strict JSON, stable key order: a NaN or inf is written as null."""
    text = json.dumps(_plain(obj, strict=True), sort_keys=True, indent=2, allow_nan=False)
    path.write_text(text + "\n", encoding="utf-8")


def _peak_rss_mb() -> float:
    """Peak resident set size of this process or of its largest reaped worker, MB.

    ``ru_maxrss`` is in kB on Linux.
    """
    usage = (resource.getrusage(who) for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN))
    return max(u.ru_maxrss for u in usage) / 1024.0


# the fields meta.json holds: all but the curve (result.csv) and the run time (the manifest)
_META_FIELDS = [f.name for f in fields(ExperimentResult) if f.name not in ("grid", "runtime_s")]


def persist(result: ExperimentResult, out_dir) -> Path:
    """Write a result under out_dir/<kind>/<config_hash>/ and return the manifest.

    Emits result.csv (param,error,stderr rows), meta.json (config, seeds,
    fit, flags — stable key order, no timestamps), loglog.dat (log10
    columns for plotting) and manifest.json listing the files with sha256
    digests; both JSON files are strict, with null for each NaN or inf.
    Identical (config, seeds) runs produce byte-identical
    csv/json/dat; only the manifest's runtime_s and peak_rss_mb fields vary.
    """
    if not result.grid:
        raise ValueError("refusing to persist a result with an empty grid")
    root = Path(out_dir) / result.kind / result.config_hash
    try:
        root.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise OSError(f"cannot create result directory {root}: {exc}") from exc

    lines = ["param,error,stderr"]
    lines += [f"{pt.param!r},{pt.error!r},{pt.stderr!r}" for pt in result.grid]
    csv_path = root / "result.csv"
    csv_path.write_text("\n".join(lines) + "\n", encoding="utf-8")

    meta_path = root / "meta.json"
    _write_json(meta_path, {**{name: getattr(result, name) for name in _META_FIELDS},
                            "config_hash": result.config_hash})

    dat_rows = ["# log10_param log10_error dlog10_error"]
    for pt in result.grid:
        if pt.param > 0 and pt.error > 0 and math.isfinite(pt.error):
            dlog = pt.stderr / (pt.error * math.log(10.0))
            dat_rows.append(
                f"{math.log10(pt.param)!r} {math.log10(pt.error)!r} {dlog!r}"
            )
    dat_path = root / "loglog.dat"
    dat_path.write_text("\n".join(dat_rows) + "\n", encoding="utf-8")

    manifest = {
        "kind": result.kind,
        "config_hash": result.config_hash,
        "files": {p.name: _sha256(p) for p in (csv_path, meta_path, dat_path)},
        "runtime_s": result.runtime_s,
        "peak_rss_mb": _peak_rss_mb(),
    }
    manifest_path = root / "manifest.json"
    _write_json(manifest_path, manifest)
    return manifest_path


def load_result(manifest_path) -> ExperimentResult:
    """Rebuild an ExperimentResult from a persisted manifest, verifying digests."""
    manifest_path = Path(manifest_path)
    manifest = json.loads(manifest_path.read_text(encoding="utf-8"))
    root = manifest_path.parent
    for name, digest in manifest["files"].items():
        path = root / name
        if not path.exists():
            raise FileNotFoundError(f"manifest lists missing file {path}")
        actual = _sha256(path)
        if actual != digest:
            raise ValueError(f"digest mismatch for {path}: {actual} != {digest}")
    meta = json.loads((root / "meta.json").read_text(encoding="utf-8"))
    grid = []
    csv_lines = (root / "result.csv").read_text(encoding="utf-8").strip().splitlines()
    for line in csv_lines[1:]:
        param, error, stderr = (float(tok) for tok in line.split(","))
        grid.append(GridPoint(param=param, error=error, stderr=stderr))
    saved = {name: meta[name] for name in _META_FIELDS}
    saved["seeds"] = tuple(saved["seeds"])
    return ExperimentResult(grid=tuple(grid), runtime_s=manifest["runtime_s"], **saved)
