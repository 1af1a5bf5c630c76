import dataclasses
import json
import math
from pathlib import Path

import numpy as np
import pytest

from mvspde import experiments as ex
from mvspde import noise
from mvspde.coefficients import BuiltinFamily, CoefficientSet
from mvspde.config import build_coeffs, build_multiscale, build_sim, build_spec, load_config
from mvspde.experiments import (
    ExperimentResult,
    GridPoint,
    aux_gap_study,
    config_digest,
    ergodicity_study,
    fit_loglog,
    hoelder_study,
    load_result,
    persist,
    picard_study,
    rate_study,
    simulate_study,
)
from mvspde.multiscale import (
    FrozenInput,
    MultiscaleConfig,
    NoSignalError,
    _BlockGaps,
    simulate_averaged,
    strong_error_stats,
)
from mvspde.solver import SimConfig
from mvspde.spectral import ConfigError, OperatorSpec


def law_blind_f_coeffs(n):
    f = lambda x, s: 0.5 * np.tanh(x)
    return CoefficientSet(
        variant="custom",
        B=lambda x, s: f(x, s),
        F=lambda x, s, y: f(x, s),
        G=lambda x, s, y: 0.3 * np.tanh(x) + 0.2 * y,
        lip_C=0.5, lip_G_y=0.2, p=1.0, bound_const=0.5 * np.sqrt(n),
        fbar_factory=lambda spec: (lambda x, s: f(x, s)),
    )


REPO = Path(__file__).resolve().parents[1]
EPS_GRID = (2**-4, 2**-5, 2**-6, 2**-7)


def forked_M(steps_per_system: int, workers: int) -> int:
    """Fewest particles whose systems of ``steps_per_system`` steps each pay
    for ``workers`` forked workers under ``WORKER_PARTICLE_STEPS``."""
    return -(-workers * ex.WORKER_PARTICLE_STEPS // steps_per_system)


@pytest.fixture(scope="module")
def small_rate(spec4):
    fam = BuiltinFamily("bounded_smooth")
    base = SimConfig(spec=spec4, coeffs=fam.build(spec4), T=0.25, h=0.125,
                     M=16, seed=303, xi=0.3)
    return rate_study(base, EPS_GRID, n_replicas=2), base


class TestFitLoglog:
    def _grid(self, slope, stderr=0.01, n=5, c=2.0):
        return [GridPoint(param=0.5**i, error=c * (0.5**i) ** slope,
                          stderr=stderr * c * (0.5**i) ** slope)
                for i in range(n)]

    def test_recovers_exact_power_law(self):
        fit = fit_loglog(self._grid(0.7))
        assert fit.slope == pytest.approx(0.7, abs=1e-12)
        assert fit.intercept == pytest.approx(math.log10(2.0), abs=1e-12)
        assert fit.r2 == pytest.approx(1.0, abs=1e-12)
        assert fit.slope_stderr == pytest.approx(0.0, abs=1e-9)

    def test_huge_stderr_point_carries_no_weight(self):
        grid = self._grid(0.5) + [GridPoint(param=2.0, error=50.0,
                                            stderr=50.0 * 1e6)]
        fit = fit_loglog(grid)
        assert fit.slope == pytest.approx(0.5, abs=1e-3)

    def test_exclusions_honored(self):
        grid = self._grid(0.5) + [GridPoint(param=2.0, error=50.0,
                                            stderr=50.0 * 0.01)]
        polluted = fit_loglog(grid).slope
        clean = fit_loglog(grid, exclude={5}).slope
        assert abs(polluted - 0.5) > 0.1
        assert clean == pytest.approx(0.5, abs=1e-12)

    def test_two_points_have_no_slope_error_bar(self):
        fit = fit_loglog(self._grid(0.5, n=2))
        assert fit.slope == pytest.approx(0.5, abs=1e-12)
        assert math.isnan(fit.slope_stderr)

    def test_underdetermined_rejected(self):
        with pytest.raises(ValueError):
            fit_loglog(self._grid(0.5, n=1))

    @pytest.mark.parametrize("field", ["param", "error", "stderr"])
    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_non_finite_point_named_unless_excluded(self, field, value):
        grid = self._grid(0.5)
        grid[3] = dataclasses.replace(grid[3], **{field: value})
        with pytest.raises(ValueError, match="grid point 3 "):
            fit_loglog(grid)
        assert fit_loglog(grid, exclude={3}) == fit_loglog(self._grid(0.5)[:3]
                                                           + self._grid(0.5)[4:])


class TestPoolingHelpers:
    def test_split_counts_partition(self):
        for total, r in ((10, 3), (16, 4), (7, 7), (5, 2)):
            chunks = ex._split_counts(total, r)
            assert sum(c for _, c in chunks) == total
            sizes = [c for _, c in chunks]
            assert max(sizes) - min(sizes) <= 1
            offsets = [o for o, _ in chunks]
            assert offsets == sorted(offsets)
            assert offsets[0] == 0
        with pytest.raises(ValueError):
            ex._split_counts(3, 4)

    @pytest.mark.parametrize("total,n_chunks,n_parts", [
        (64, 4, 1), (67, 4, 1), (67, 4, 2), (1000, 8, 1), (1000, 8, 3), (10, 3, 8),
    ])
    def test_replica_batches_partition_by_size(self, total, n_chunks, n_parts):
        chunks = ex._split_counts(total, n_chunks)
        batches = ex._replica_batches(chunks, n_parts)
        assert sorted(r for b in batches for r in b) == list(range(n_chunks))
        for batch in batches:
            assert len({chunks[r][1] for r in batch}) == 1
            assert all(isinstance(r, int) for r in batch)
        groups = [[r for r, (_, c) in enumerate(chunks) if c == size]
                  for size in {c for _, c in chunks}]
        assert len(batches) == sum(min(len(g), n_parts) for g in groups)

    def test_pool_forks_at_most_one_worker_per_task(self, small_rate, monkeypatch):
        # a stand-in pool records its size and runs the tasks in this process,
        # so no worker starts at any --threads, and every study pays for one
        import concurrent.futures
        monkeypatch.setattr(ex, "WORKER_PARTICLE_STEPS", 1)
        sizes = []

        class InlinePool:
            def __init__(self, max_workers, mp_context=None):
                sizes.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, *iterables, chunksize=1):
                return map(fn, *iterables)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InlinePool)
        res, base = small_rate
        # 4 scale ratios x 2 systems of 8: 8 batches at most, at least 4
        assert rate_study(base, EPS_GRID, n_replicas=2, n_workers=2).grid == res.grid
        assert rate_study(base, EPS_GRID, n_replicas=2, n_workers=64).grid == res.grid
        # 4 systems of 4 particles at one block-length grid: at most 4 batches
        cfg = MultiscaleConfig(base=base, epsilon=2**-5, h_fast=2**-9, eta=0.1)
        serial = aux_gap_study(cfg, (2**-6, 2**-5), n_replicas=4)
        assert aux_gap_study(cfg, (2**-6, 2**-5), n_replicas=4, n_workers=64).grid == serial.grid
        assert sizes == [2, 8, 4]

    def test_workers_capped_by_particle_steps(self, small_rate, monkeypatch):
        import concurrent.futures
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", None)  # never started
        res, base = small_rate  # 16 particles x 3,840 fast steps pay for no worker
        capped = rate_study(base, EPS_GRID, n_replicas=2, n_workers=8)
        assert capped.grid == res.grid and capped.workers == res.workers == 1

    @pytest.mark.parametrize("name,threads,workers", [
        ("default", 8, 8), ("smoke", 2, 1), ("smoke", 8, 1), ("hoelder", 8, 2),
        ("aux_gap", 8, 2),
    ])
    def test_shipped_configs_worker_cap(self, name, threads, workers):
        # the smoke study runs faster in one process than on a fork pool, the
        # increment scans on two workers; the headline study forks one per thread
        cfg = load_config(REPO / "configs" / f"{name}.json")
        spec = build_spec(cfg)
        base = build_sim(cfg, spec, build_coeffs(cfg, spec))
        study = cfg["study"]
        cfgs = ([MultiscaleConfig(base=base, epsilon=e, h_fast=e * study["h_fast_ratio"])
                 for e in study["grid"]] if study["kind"] == "rate"
                else [build_multiscale(cfg, base)])
        assert ex._worker_cap(cfgs, threads) == workers

    def test_pool_moments_matches_concatenation(self, rng):
        arrays = [rng.normal(size=n) ** 2 for n in (5, 11, 3)]
        parts = [(float(a.mean()), float(a.var(ddof=1)), a.size)
                 for a in arrays]
        mean, var, n = ex._pool_moments(parts)
        whole = np.concatenate(arrays)
        assert n == whole.size
        assert mean == pytest.approx(whole.mean(), rel=1e-12)
        assert var == pytest.approx(whole.var(ddof=1), rel=1e-12)

    def test_power_law_curve_flags_non_finite_points(self):
        # an infinite error, an infinite stderr and a nan error: each is
        # flagged and left out of the fit, none dropped without a trace
        params = [0.5**i for i in range(6)]
        parts = [[(2.0 * q, 1e-6 * q * q, 100)] for q in params]
        parts[1] = [(math.inf, 1e-6, 100)]
        parts[3] = [(0.25, math.inf, 100)]
        parts[4] = [(math.nan, 1e-6, 100)]
        grid, flags, fit = ex._power_law_curve(params, parts, 1.0)
        assert flags == {"1": "non-finite", "3": "non-finite", "4": "non-finite"}
        assert fit == fit_loglog([grid[i] for i in (0, 2, 5)])
        assert fit.slope == pytest.approx(1.0, abs=1e-9)


class TestConfigDigest:
    def test_key_order_irrelevant(self):
        a = {"x": 1, "y": {"b": 2.5, "a": [1, 2]}}
        b = {"y": {"a": [1, 2], "b": 2.5}, "x": 1}
        assert config_digest(a) == config_digest(b)
        assert len(config_digest(a)) == 12

    def test_value_sensitivity(self):
        assert config_digest({"x": 1.0}) != config_digest({"x": 1.0000001})


class TestIncrementRows:
    def test_hand_values(self):
        # the slow-arm hook of increment_stats, fed a hand path on a unit grid
        x = np.array([[0.0, 1.0, 3.0, 6.0, 10.0]]).reshape(5, 1, 1, 1)
        gaps = _BlockGaps({1: 1.0, 2: 2.0}, "slow", 4, (1, 1, 1))
        for j, cloud in enumerate(x):
            gaps(j, [cloud], np.zeros((1, 1, 1)))
        (rows,) = gaps.stats()  # one system
        # one-step blocks: mean of |1|,|2|,|3|,|4|
        assert rows[0][0] == pytest.approx(2.5)
        # two-step blocks: |1-0|,|3-0|,|6-3|,|10-3|
        assert rows[1][0] == pytest.approx(3.5)
        assert rows[0][2] == 1


class TestRateStudy:
    def test_shape_and_metadata(self, small_rate):
        res, base = small_rate
        assert res.kind == "rate"
        assert [g.param for g in res.grid] == [pytest.approx(e) for e in EPS_GRID]
        assert all(g.error > 0 for g in res.grid)
        assert res.meta["theory_slope"] == pytest.approx(0.25)  # theta = 1
        assert res.seeds == (303,) + tuple(range(8))
        assert res.runtime_s > 0
        assert res.fitted_slope is not None

    def test_bitwise_rerun(self, small_rate, spec4):
        res, base = small_rate
        again = rate_study(base, EPS_GRID, n_replicas=2)
        assert again.grid == res.grid
        assert again.config_hash == res.config_hash
        assert again.seeds == res.seeds

    def test_worker_count_invisible_in_results(self, spec4):
        # 3,840 fast steps per system over the grid at T = 1: enough
        # particles that two workers fork
        fam = BuiltinFamily("bounded_smooth")
        base = SimConfig(spec=spec4, coeffs=fam.build(spec4), T=1.0, h=0.125,
                         M=forked_M(3840, 2), seed=303, xi=0.3)
        serial = rate_study(base, EPS_GRID, n_replicas=2)
        forked = rate_study(base, EPS_GRID, n_replicas=2, n_workers=2)
        assert forked.grid == serial.grid
        assert (serial.workers, forked.workers) == (1, 2)

    def test_unequal_chunks_invisible_to_batching(self, spec4):
        # systems of 40, 39 and 39 particles: two batch sizes per point, on
        # three forked workers
        fam = BuiltinFamily("bounded_smooth")
        base = SimConfig(spec=spec4, coeffs=fam.build(spec4), T=1.0, h=0.125,
                         M=forked_M(3840, 3), seed=8, xi=0.3)
        assert base.M % 3 == 1
        serial = rate_study(base, EPS_GRID, n_replicas=3)
        forked = rate_study(base, EPS_GRID, n_replicas=3, n_workers=3)
        assert forked.grid == serial.grid
        assert forked.workers == 3

    def test_theta_four_thirds_theory_slope(self):
        spec = OperatorSpec(n_modes=2, a=2.0, b=1.0, g=1.0, alpha=1.5,
                            theta=4.0 / 3.0, p=1.0)
        fam = BuiltinFamily("bounded_smooth", n_active=2)
        base = SimConfig(spec=spec, coeffs=fam.build(spec), T=0.25, h=0.125,
                         M=4, seed=1, xi=0.2)
        res = rate_study(base, EPS_GRID, n_replicas=1)
        assert res.meta["theory_slope"] == pytest.approx(2.0 / 7.0)

    def test_grid_validation(self, small_rate):
        _, base = small_rate
        with pytest.raises(ValueError):
            rate_study(base, EPS_GRID[:3])        # too short
        with pytest.raises(ValueError):
            rate_study(base, EPS_GRID[::-1])      # increasing
        with pytest.raises(ValueError, match="recipe"):
            # replace drops the recipe, so the set cannot reach a worker
            rate_study(dataclasses.replace(base, coeffs=dataclasses.replace(base.coeffs)),
                       EPS_GRID, n_workers=2)

    def test_config_hash_tells_coefficient_sets_apart(self, spec4):
        # two sets that differ only in a; the config must come from the set simulated
        hashes = []
        for a in (0.3, 1.0):
            coeffs = BuiltinFamily("bounded_smooth", a=a).build(spec4)
            base = SimConfig(spec=spec4, coeffs=coeffs, T=0.25, h=0.125, M=4, seed=8, xi=0.3)
            res = rate_study(base, EPS_GRID, n_replicas=1)
            assert res.config["coefficients"]["a"] == a
            hashes.append(res.config_hash)
        assert hashes[0] != hashes[1]

    def test_y_blind_drift_hits_noise_floor(self, spec4):
        base = SimConfig(spec=spec4, coeffs=law_blind_f_coeffs(4), T=0.25,
                         h=0.125, M=8, seed=5, xi=0.3)
        res = rate_study(base, EPS_GRID, n_replicas=2)
        assert all(g.error == 0.0 for g in res.grid)
        assert all(res.flags[str(i)] == "noise-floor" for i in range(4))
        assert res.flags["fit"] == "degenerate"
        assert res.fitted_slope is None


class TestIncrementStudies:
    def _cfg(self, spec, coeffs, M=8, T=0.25, h_fast=2**-9, seed=29,
             epsilon=2**-5):
        base = SimConfig(spec=spec, coeffs=coeffs, T=T, h=T / 2, M=M,
                         seed=seed, xi=0.3)
        return MultiscaleConfig(base=base, epsilon=epsilon, h_fast=h_fast,
                                eta=0.1)

    def test_hoelder_shape(self, spec4, coeffs4):
        cfg = self._cfg(spec4, coeffs4)
        deltas = (2**-6, 2**-5, 2**-4, 2**-3)
        res = hoelder_study(cfg, deltas, n_replicas=2)
        assert res.kind == "hoelder"
        assert res.meta["theory_slope"] == pytest.approx(0.5)
        assert [g.param for g in res.grid] == list(deltas)
        assert all(g.error > 0 for g in res.grid)
        assert res.fitted_slope is not None

    @pytest.mark.parametrize("study", [hoelder_study, aux_gap_study])
    def test_worker_count_invisible_in_results(self, spec4, study):
        # built sets reach forked workers pickled as their recipe; 512 fast
        # steps per system, and enough particles that two workers fork
        cfg = self._cfg(spec4, BuiltinFamily("bounded_smooth", a=0.7, c=0.25, n_active=3).build(spec4),
                        M=forked_M(512, 2), T=1.0)
        deltas = (2**-6, 2**-5, 2**-4)
        serial = study(cfg, deltas, n_replicas=2)
        forked = study(cfg, deltas, n_replicas=2, n_workers=2)
        assert forked.grid == serial.grid
        assert forked.config_hash == serial.config_hash
        assert (serial.workers, forked.workers) == (1, 2)

    def test_config_reads_back_to_its_objects(self, spec4):
        cfg = self._cfg(spec4, BuiltinFamily("bounded_smooth", c=0.25).build(spec4))
        res = hoelder_study(cfg, (2**-6, 2**-5), n_replicas=2)
        spec = build_spec(res.config)
        base = build_sim(res.config, spec, build_coeffs(res.config, spec))
        again = build_multiscale(res.config, base)
        assert spec == cfg.base.spec
        assert base.coeffs.recipe == cfg.base.coeffs.recipe
        assert (base.T, base.h, base.M, base.seed) == (cfg.base.T, cfg.base.h, cfg.base.M, cfg.base.seed)
        assert (again.epsilon, again.h_fast) == (cfg.epsilon, cfg.h_fast)
        assert again.eta.tobytes() == cfg.eta.tobytes()
        assert again.base.xi.tobytes() == cfg.base.xi.tobytes()

    def test_grid_is_postprocessing_only(self, spec4, coeffs4):
        cfg = self._cfg(spec4, coeffs4)
        fwd = hoelder_study(cfg, (2**-6, 2**-5, 2**-4), n_replicas=2)
        rev = hoelder_study(cfg, (2**-4, 2**-5, 2**-6), n_replicas=2)
        by_param = {g.param: g.error for g in rev.grid}
        for g in fwd.grid:
            assert by_param[g.param] == g.error

    def test_drift_dominated_regime_flagged(self):
        spec = OperatorSpec(n_modes=2, a=2.0, b=1.0, g=1.0, c_beta=1e-300,
                            c_gamma=1e-300, alpha=1.5, theta=1.0, p=1.0)
        lin = CoefficientSet(
            variant="custom", B=lambda x, s: 0.8 * x,
            F=lambda x, s, y: 0.8 * x, G=lambda x, s, y: np.zeros(2),
            lip_C=0.8, lip_G_y=0.0, p=1.0, bound_const=np.inf, fbar_factory=None,
        )
        cfg = self._cfg(spec, lin, M=1, T=0.5, h_fast=2**-8, epsilon=2**-4)
        res = hoelder_study(cfg, (2**-6, 2**-5, 2**-4, 2**-3), n_replicas=1)
        assert res.fitted_slope == pytest.approx(1.0, abs=0.1)
        assert res.flags.get("fit") == "above-envelope"

    def test_delta_validation(self, spec4, coeffs4):
        cfg = self._cfg(spec4, coeffs4)
        with pytest.raises(ValueError, match="multiple"):
            hoelder_study(cfg, (0.1, 0.2), n_replicas=2)
        with pytest.raises(ValueError, match="at least 2"):
            hoelder_study(cfg, (2**-5,), n_replicas=2)
        with pytest.raises(ConfigError, match="repeats") as err:
            hoelder_study(cfg, (2**-4, 2**-5, 2**-5, 2**-6), n_replicas=2)
        assert err.value.pointer == "/study/grid"

    def test_aux_gap_zero_when_g_ignores_slow(self, spec4):
        blind = CoefficientSet(
            variant="custom", B=lambda x, s: np.zeros(4),
            F=lambda x, s, y: 0.5 * np.tanh(y),
            G=lambda x, s, y: 0.4 * np.tanh(y),
            lip_C=0.5, lip_G_y=0.4, p=1.0, bound_const=1.0,
            fbar_factory=None,
        )
        cfg = self._cfg(spec4, blind)
        res = aux_gap_study(cfg, (2**-6, 2**-5, 2**-4), n_replicas=2)
        assert res.kind == "aux-gap"
        assert all(g.error == 0.0 for g in res.grid)
        assert res.flags["fit"] == "degenerate"

    def test_nonfinite_twin_names_delta_replica_and_step(self, spec4, coeffs4):
        # per step G drives Y, then the twins of 2**-6 and 2**-5, on both
        # systems of one batch; the second twin's drift at step 5 turns inf
        # on system 1, replica 1
        calls = []

        def G(x, s, y):
            calls.append(None)
            out = coeffs4.G(x, s, y)
            if len(calls) == 3 * 5 + 3:
                out[1] = np.inf
            return out

        cfg = self._cfg(spec4, dataclasses.replace(coeffs4, G=G))
        with pytest.raises(FloatingPointError, match=(
                r"non-finite auxiliary fast component \(delta = 0\.03125\) "
                r"at epsilon = 0\.03125, replica 1, step 6 of 128")):
            aux_gap_study(cfg, (2**-6, 2**-5), n_replicas=2)

    def test_aux_gap_positive_and_shrinking(self, spec4, coeffs4):
        cfg = self._cfg(spec4, coeffs4, M=16)
        res = aux_gap_study(cfg, (2**-6, 2**-4), n_replicas=2)
        errs = {g.param: g.error for g in res.grid}
        assert errs[2**-6] > 0
        assert errs[2**-6] < errs[2**-4]


class TestErgodicityStudy:
    def test_linear_rates_and_no_signal_probe(self, spec2, linear2):
        probes = [
            FrozenInput(x=np.array([2.0, 0.0]), mu_stat=2.0, y0=np.zeros(2)),
            FrozenInput(x=np.array([2.0, 0.0]), mu_stat=2.0,
                        y0=np.array([4.0, 0.0])),   # stationary mean
        ]
        res = ergodicity_study(probes, spec2, linear2,
                               np.arange(0.5, 4.01, 0.5), ensemble=2500,
                               seed=14)
        assert res.kind == "ergodicity"
        assert res.meta["theory_rate"] == pytest.approx(0.5)
        assert abs(res.grid[0].error - 0.5) < 0.075
        assert res.flags.get("1") == "no-signal"
        assert math.isnan(res.grid[1].error)
        assert res.fitted_slope is None

    @pytest.mark.parametrize("t_grid", [[0.5, 1.0005], [1.0, 0.5], [1.0], [[0.5, 1.0]]])
    def test_grid_checked_before_any_fbar_or_bank(self, spec2, linear2, monkeypatch, t_grid):
        calls = []
        real_fbar, real_bank = ex.averaged_drift, noise.StableNoiseBank.__init__

        def fbar_spy(*args, **kwargs):
            calls.append("averaged_drift")
            return real_fbar(*args, **kwargs)

        def bank_spy(self, *args, **kwargs):
            calls.append("bank")
            real_bank(self, *args, **kwargs)

        monkeypatch.setattr(ex, "averaged_drift", fbar_spy)
        monkeypatch.setattr(noise.StableNoiseBank, "__init__", bank_spy)
        probes = [FrozenInput(x=np.array([2.0, 0.0]), mu_stat=2.0, y0=np.zeros(2))] * 2
        with pytest.raises(ConfigError) as info:
            ergodicity_study(probes, spec2, linear2, t_grid, ensemble=50, h_step=0.01)
        assert info.value.pointer == "/study/grid"
        assert calls == []

    def test_stiff_gap(self):
        spec = OperatorSpec(n_modes=2, a=2.0, b=1.0, g=1.0, c_lambda=4.0,
                            alpha=1.5, theta=1.0, p=1.0)
        from mvspde.coefficients import build_family
        co = build_family("linear_test", spec, a=1.0, c=0.5)
        # start well away from the stationary mean (~0.571) so the decay
        # curve towers over the MC floor across the whole window
        probes = [FrozenInput(x=np.array([2.0, 0.0]), mu_stat=2.0,
                              y0=np.array([4.0, 0.0]))]
        res = ergodicity_study(probes, spec, co,
                               np.arange(0.1, 0.81, 0.1), ensemble=4000,
                               seed=15)
        assert res.meta["theory_rate"] == pytest.approx(3.5)
        assert abs(res.grid[0].error - 3.5) < 0.5

    def test_empty_probe_list_rejected(self, spec2, linear2):
        with pytest.raises(ValueError):
            ergodicity_study([], spec2, linear2, np.arange(0.5, 2.01, 0.5))

    def test_config_hash_tells_probes_apart(self, spec2, linear2):
        grid = np.arange(0.5, 2.01, 0.5)
        results = [
            ergodicity_study([FrozenInput(x=np.array([s, 0.0]), mu_stat=s, y0=np.zeros(2))],
                             spec2, linear2, grid, ensemble=300, seed=4)
            for s in (2.0, 3.0)
        ]
        assert results[0].config_hash != results[1].config_hash
        assert [r.config["study"]["probes"][0]["x"] for r in results] == [[2.0, 0.0], [3.0, 0.0]]

    def test_no_signal_detected_by_type_not_message(self, spec2, linear2, monkeypatch):
        probe = FrozenInput(x=np.array([2.0, 0.0]), mu_stat=2.0, y0=np.zeros(2))
        grid = np.arange(0.5, 2.01, 0.5)

        def raising(exc):
            def decay(*args, **kwargs):
                raise exc
            return decay

        monkeypatch.setattr(ex, "ergodicity_decay", raising(NoSignalError("flat curve")))
        res = ergodicity_study([probe], spec2, linear2, grid, ensemble=10)
        assert res.flags == {"0": "no-signal"}
        monkeypatch.setattr(ex, "ergodicity_decay", raising(ValueError("MC floor")))
        with pytest.raises(ValueError, match="MC floor"):
            ergodicity_study([probe], spec2, linear2, grid, ensemble=10)


class TestFamilyWithoutFbar:
    """Every averaged-drift reader takes Fbar from the family's fbar_factory."""

    @pytest.mark.parametrize("entry", ["rate_study", "strong_error_stats",
                                       "simulate_averaged", "ergodicity_study"])
    def test_refused_at_variant_before_any_bank(self, spec4, monkeypatch, entry):
        co = dataclasses.replace(law_blind_f_coeffs(4), fbar_factory=None)
        base = SimConfig(spec=spec4, coeffs=co, T=0.25, h=0.125, M=8, seed=5, xi=0.3)
        cfg = MultiscaleConfig(base=base, epsilon=2**-5, h_fast=2**-9)
        probe = FrozenInput(x=np.full(4, 0.3), mu_stat=0.6, y0=np.zeros(4))
        run = {
            "rate_study": lambda: rate_study(base, EPS_GRID, n_replicas=2),
            "strong_error_stats": lambda: strong_error_stats(cfg),
            "simulate_averaged": lambda: simulate_averaged(cfg),
            "ergodicity_study": lambda: ergodicity_study([probe], spec4, co, [0.5, 1.0],
                                                         ensemble=50),
        }[entry]

        def bank_spy(self, *args, **kwargs):
            raise AssertionError("a noise bank opened before the family was refused")

        monkeypatch.setattr(noise.StableNoiseBank, "__init__", bank_spy)
        with pytest.raises(ConfigError) as info:
            run()
        assert info.value.pointer == "/coefficients/variant"


class TestStudyWrappers:
    def test_picard_study_trace(self, spec4, coeffs4):
        cfg = SimConfig(spec=spec4, coeffs=coeffs4, T=0.5, h=1 / 16, M=32,
                        seed=23, xi=0.3)
        res = picard_study(cfg, n_iters=5)
        assert res.kind == "picard"
        assert [g.param for g in res.grid] == [1.0, 2.0, 3.0, 4.0, 5.0]
        assert res.meta["contracting"] is True
        assert res.meta["lambda_weight"] == pytest.approx(4.0 * coeffs4.lip_C)
        floor = res.meta["noise_floor_iter"]
        upto = len(res.grid) if floor is None else floor
        for i in range(1, upto):
            assert res.grid[i].error < res.grid[i - 1].error
        if floor is not None:
            assert res.flags[str(floor)] == "noise-floor"

    def test_simulate_study_curve(self, spec4, coeffs4):
        cfg = SimConfig(spec=spec4, coeffs=coeffs4, T=0.5, h=1 / 16, M=64,
                        seed=2, xi=0.4)
        res = simulate_study(cfg)
        assert res.kind == "simulate"
        assert res.grid[0].param == 0.0
        assert res.grid[0].error == pytest.approx(np.linalg.norm(cfg.xi))
        assert res.grid[0].stderr == pytest.approx(0.0, abs=1e-15)
        assert len(res.grid) == 9
        assert res.meta["stable"] in (True, False)
        assert res.meta["sup_moment"] >= max(g.error for g in res.grid) - 1e-12


class TestPersistence:
    def test_round_trip(self, small_rate, tmp_path):
        res, _ = small_rate
        manifest = persist(res, tmp_path)
        assert manifest.name == "manifest.json"
        loaded = load_result(manifest)
        assert loaded.kind == res.kind
        assert loaded.grid == res.grid
        assert loaded.fitted_slope == res.fitted_slope
        assert loaded.slope_stderr == res.slope_stderr
        assert loaded.fit_r2 == res.fit_r2
        assert loaded.config == res.config
        assert loaded.config_hash == res.config_hash
        assert loaded.seeds == res.seeds
        assert loaded.flags == res.flags
        assert loaded.meta == res.meta

    def test_reruns_byte_identical(self, small_rate, tmp_path):
        res, base = small_rate
        again = rate_study(base, EPS_GRID, n_replicas=2)
        p1 = persist(res, tmp_path / "a").parent
        p2 = persist(again, tmp_path / "b").parent
        for name in ("result.csv", "meta.json", "loglog.dat"):
            assert (p1 / name).read_bytes() == (p2 / name).read_bytes()

    def test_empty_grid_refused_before_writing(self, small_rate, tmp_path):
        res, _ = small_rate
        hollow = dataclasses.replace(res, grid=())
        out = tmp_path / "nothing"
        with pytest.raises(ValueError, match="empty"):
            persist(hollow, out)
        assert not out.exists()

    def test_digest_mismatch_detected(self, small_rate, tmp_path):
        res, _ = small_rate
        manifest = persist(res, tmp_path)
        csv = manifest.parent / "result.csv"
        csv.write_text(csv.read_text().replace("0", "1", 1))
        with pytest.raises(ValueError, match="digest"):
            load_result(manifest)

    def test_csv_and_dat_layout(self, small_rate, tmp_path):
        res, _ = small_rate
        manifest = persist(res, tmp_path)
        lines = (manifest.parent / "result.csv").read_text().splitlines()
        assert lines[0] == "param,error,stderr"
        assert len(lines) == 1 + len(res.grid)
        first = lines[1].split(",")
        assert float(first[0]) == res.grid[0].param
        assert float(first[1]) == res.grid[0].error  # repr round-trip
        dat = (manifest.parent / "loglog.dat").read_text().splitlines()
        assert dat[0].startswith("#")
        cols = dat[1].split()
        assert float(cols[0]) == pytest.approx(math.log10(res.grid[0].param))
        assert float(cols[1]) == pytest.approx(math.log10(res.grid[0].error))
        meta = json.loads((manifest.parent / "meta.json").read_text())
        assert "runtime_s" not in meta  # timings live in the manifest only
        man = json.loads(manifest.read_text())
        assert man["runtime_s"] > 0
