import dataclasses
import tracemalloc

import numpy as np
import pytest
from scipy.linalg import expm

from mvspde.coefficients import (
    CoefficientSet, averaged_drift, bounded_smooth, build_family, effective_constants,
)
from mvspde.measures import p_moment, wasserstein_exact, wasserstein_sliced
from mvspde.multiscale import (
    FrozenInput,
    MultiscaleConfig,
    ergodic_fbar,
    ergodicity_decay,
    increment_stats,
    simulate_averaged,
    simulate_frozen,
    simulate_slow_fast,
    strong_error_stats,
)
from mvspde import multiscale, solver
from mvspde.noise import CH_FAST, CH_SLOW, RngStream, sample_convolution_increment
from mvspde.solver import SimConfig, simulate_mkv
from mvspde.spectral import OperatorSpec


def quiet_spec(n_modes=1, **kw):
    """Both noise channels effectively off (amplitudes below fp resolution)."""
    kw.setdefault("c_beta", 1e-300)
    kw.setdefault("c_gamma", 1e-300)
    kw.setdefault("a", 2.0)
    return OperatorSpec(n_modes=n_modes, b=1.0, g=1.0, alpha=1.5, theta=1.0,
                        p=1.0, **kw)


def zero_coeffs(n, fbar_zero=False):
    z = lambda x, s, y: np.zeros(n)
    factory = (lambda spec: (lambda x, s: np.zeros_like(np.atleast_2d(x)))) \
        if fbar_zero else None
    return CoefficientSet(
        variant="custom", B=lambda x, s: np.zeros(n), F=z, G=z,
        lip_C=1.0, lip_G_y=0.0, p=1.0, bound_const=0.0,
        fbar_factory=factory,
    )


def y_blind_g_coeffs(n):
    """G ignores its slow arguments entirely; F bounded and y-dependent."""
    return CoefficientSet(
        variant="custom",
        B=lambda x, s: np.zeros(n),
        F=lambda x, s, y: 0.5 * np.tanh(y),
        G=lambda x, s, y: 0.4 * np.tanh(y),
        lip_C=0.5, lip_G_y=0.4, p=1.0, bound_const=0.5 * np.sqrt(n), fbar_factory=None,
    )


def law_blind_f_coeffs(n):
    """F ignores the fast component: averaging is exact with Fbar = F."""
    f = lambda x, s: 0.5 * np.tanh(x)
    return CoefficientSet(
        variant="custom",
        B=lambda x, s: f(x, s),
        F=lambda x, s, y: f(x, s),
        G=lambda x, s, y: 0.3 * np.tanh(x) + 0.2 * y,
        lip_C=0.5, lip_G_y=0.2, p=1.0, bound_const=0.5 * np.sqrt(n),
        fbar_factory=lambda spec: (lambda x, s: f(x, s)),
    )


def linear1_pair(eps, h_fast, T=0.5, c=0.5):
    spec = quiet_spec(n_modes=1)
    co = build_family("linear_test", spec, a=1.0, c=c)
    base = SimConfig(spec=spec, coeffs=co, T=T, h=T / 2, M=1, seed=0, xi=2.0)
    return spec, MultiscaleConfig(base=base, epsilon=eps, h_fast=h_fast, eta=1.0)


def spied(fn, seen):
    """``fn``, appending the law statistic it receives (its second argument) to ``seen``."""
    def spy(x, mu, *rest):
        seen.append(np.array(mu, dtype=float))
        return fn(x, mu, *rest)
    return spy


def stepped(name, p, seen):
    """(flows, law, calls) of one stepping function on a small bounded_smooth setup.

    Its spied drift appends the statistic it reads at each call to ``seen``,
    ``calls`` times per recorded interval of ``flows``; ``law`` holds what
    the first len(law[i]) calls of interval i should have read, taken off
    recorded clouds with p_moment (the frozen equation's is pinned).
    """
    spec = OperatorSpec(n_modes=4, a=2.0, b=1.0, g=1.0, alpha=1.5, theta=1.0, p=p)
    co = bounded_smooth(spec)
    base = SimConfig(spec=spec, coeffs=co, T=1 / 16, h=1 / 32, M=6, seed=5,
                     xi=[0.3, -0.2, 0.1, 0.0])
    cfg = MultiscaleConfig(base=base, epsilon=2**-5, h_fast=2**-9, eta=0.1)

    def spying(**fns):
        return dataclasses.replace(cfg, base=dataclasses.replace(
            base, coeffs=dataclasses.replace(co, **fns)))

    if name == "mkv":
        flow = simulate_mkv(spying(B=spied(co.B, seen)).base)
        return [flow], p_moment(flow.clouds, p)[:-1], 1
    if name == "slow_fast":
        sf = simulate_slow_fast(spying(F=spied(co.F, seen)), record_every=2)
        return [sf.slow, sf.fast], p_moment(sf.slow.clouds, p)[:-1], 2
    if name == "auxiliary":
        # per step, G drives Y at X_j, then one twin per block length at its
        # block start; increment_stats steps the pair as simulate_slow_fast does
        sf = simulate_slow_fast(cfg)
        increment_stats(spying(G=spied(co.G, seen)), [2 * cfg.h_fast, 4 * cfg.h_fast], "aux")
        j = np.arange(cfg.n_steps)
        law = p_moment(sf.slow.clouds, p)
        return [sf.slow, sf.fast], np.stack([law[j], law[j // 2 * 2], law[j // 4 * 4]], 1), 3
    if name == "frozen":
        frozen = FrozenInput(x=np.array([0.3, -0.2, 0.1, 0.0]), mu_stat=0.6, y0=np.zeros(4))
        flow = simulate_frozen(frozen, 1 / 16, 2**-9, spec, dataclasses.replace(
            co, G=spied(co.G, seen)), RngStream(5), n_particles=6, record_every=2)
        return [flow], np.full(flow.n_times - 1, 0.6), 2
    fbar = co.fbar_factory
    flow = simulate_averaged(spying(fbar_factory=lambda sp: spied(fbar(sp), seen)),
                             record_every=2)
    return [flow], p_moment(flow.clouds, p)[:-1], 2


class TestLawFlowRecord:
    @pytest.mark.parametrize("p", [1.0, 1.25])
    @pytest.mark.parametrize("name", ["mkv", "slow_fast", "auxiliary", "frozen", "averaged"])
    def test_time_major_clouds_carry_the_law_read(self, name, p):
        seen = []
        flows, law, calls = stepped(name, p, seen)
        for flow in flows:
            assert flow.clouds.flags.c_contiguous
            assert flow.clouds.shape == (flow.n_times, 6, 4)
        # the drift read each recorded time's statistic off that time's cloud
        assert len(seen) == calls * (flows[0].n_times - 1)
        law = law.reshape(flows[0].n_times - 1, -1)
        reads = np.asarray(seen).reshape(-1, calls)[:, :law.shape[1]]
        assert reads.tobytes() == law.tobytes()

        # the distances take such clouds as plain arrays and check them first
        cloud = flows[0].clouds[-1]
        for distance in (wasserstein_exact, lambda x, y, p: wasserstein_sliced(
                x, y, p, rng=np.random.default_rng(0))):
            for bad in (cloud[0], cloud[:0]):
                with pytest.raises(ValueError, match="M >= 1"):
                    distance(bad, bad, p)
            for other in (cloud[1:], cloud[:, 1:]):
                with pytest.raises(ValueError, match="differ"):
                    distance(cloud, other, p)


class TestMultiscaleConfig:
    def _base(self, spec4, coeffs4):
        return SimConfig(spec=spec4, coeffs=coeffs4, T=0.5, h=0.25, M=4,
                         seed=0, xi=0.1)

    def test_validation_errors(self, spec4, coeffs4):
        base = self._base(spec4, coeffs4)
        with pytest.raises(ValueError, match="epsilon"):
            MultiscaleConfig(base=base, epsilon=0.0, h_fast=1e-3)
        with pytest.raises(ValueError, match="too coarse"):
            MultiscaleConfig(base=base, epsilon=1 / 32, h_fast=1 / 64)
        with pytest.raises(ValueError, match="step count"):
            MultiscaleConfig(base=base, epsilon=0.125, h_fast=0.3 / 32)

    def test_dissipativity_gap_required(self, spec4):
        marginal = CoefficientSet(
            variant="custom", B=lambda x, s: np.zeros(4),
            F=lambda x, s, y: np.zeros(4), G=lambda x, s, y: y,
            lip_C=1.0, lip_G_y=1.0, p=1.0, bound_const=0.0,
            fbar_factory=None,
        )
        base = SimConfig(spec=spec4, coeffs=marginal, T=0.5, h=0.25, M=4,
                         seed=0)
        with pytest.raises(ValueError, match="gap"):
            MultiscaleConfig(base=base, epsilon=0.125, h_fast=1 / 128)

    def test_delta_default_balances_scales(self, spec4, coeffs4):
        base = self._base(spec4, coeffs4)
        cfg = MultiscaleConfig(base=base, epsilon=2**-6, h_fast=2**-10)
        # theta = 1: eps**(1/2) = 0.125, already on the fast grid
        assert cfg.delta_resolved == pytest.approx(0.125, abs=1e-15)
        capped = MultiscaleConfig(base=base, epsilon=0.25, h_fast=1 / 64)
        assert capped.delta_resolved == base.T  # eps**0.5 = 0.5 > T


class TestSimulateSlowFast:
    def test_decoupled_slow_matches_single_scale(self, spec4):
        co = zero_coeffs(4)
        base = SimConfig(spec=spec4, coeffs=co, T=0.5, h=0.25, M=8, seed=21,
                         xi=[0.4, -0.2, 0.1, 0.0])
        cfg = MultiscaleConfig(base=base, epsilon=0.125, h_fast=1 / 128)
        sf = simulate_slow_fast(cfg)
        single = simulate_mkv(SimConfig(spec=spec4, coeffs=co, T=0.5,
                                        h=1 / 128, M=8, seed=21, xi=base.xi))
        assert np.array_equal(sf.slow.clouds, single.clouds)
        assert np.array_equal(sf.slow.clouds[0], np.tile(base.xi, (8, 1)))
        assert np.array_equal(sf.fast.clouds[0], np.zeros((8, 4)))
        assert np.allclose(sf.slow.times, cfg.times)

    def test_nonfinite_fast_component_raises_naming_the_step(self, spec4):
        calls = []

        def G(x, s, y):
            calls.append(None)
            return np.full(4, np.nan if len(calls) == 4 else 0.0)

        co = CoefficientSet(
            variant="custom", B=lambda x, s: np.zeros(4), F=lambda x, s, y: np.zeros(4),
            G=G, lip_C=1.0, lip_G_y=0.0, p=1.0, bound_const=0.0,
            fbar_factory=None,
        )
        base = SimConfig(spec=spec4, coeffs=co, T=0.5, h=0.25, M=8, seed=21, xi=0.4)
        cfg = MultiscaleConfig(base=base, epsilon=0.125, h_fast=1 / 128)
        with pytest.raises(FloatingPointError,
                           match=r"non-finite fast component Y at epsilon = 0\.125, "
                                 r"replica 0, step 4 of 64"):
            simulate_slow_fast(cfg)

    def test_fast_moment_uniform_in_epsilon(self, spec4):
        co = zero_coeffs(4)
        base = SimConfig(spec=spec4, coeffs=co, T=0.3, h=0.15, M=384, seed=5)
        sups, ses = [], []
        for eps in (1e-1, 1e-2, 1e-3):
            cfg = MultiscaleConfig(base=base, epsilon=eps, h_fast=1e-4)
            fast = simulate_slow_fast(cfg, record_every=30).fast
            norms = np.linalg.norm(fast.clouds, axis=2)      # (n_rec, M)
            curve = norms.mean(axis=1)
            j = int(np.argmax(curve))
            sups.append(curve[j])
            ses.append(norms[j].std(ddof=1) / np.sqrt(base.M))
        for i in range(3):
            for k in range(i + 1, 3):
                tol = 3.0 * np.hypot(ses[i], ses[k])
                assert abs(sups[i] - sups[k]) < tol, (sups, ses)

    def test_stiff_linear_pair_matches_matrix_exponential(self):
        eps, T, a, c = 0.05, 0.5, 1.0, 0.5
        gen = np.array([[-1.0, 1.0], [a / eps, (c - 1.0) / eps]])
        ref = expm(gen * T) @ np.array([2.0, 1.0])
        errs = []
        for h in (0.005, 0.0025):
            _, cfg = linear1_pair(eps, h, T=T, c=c)
            sf = simulate_slow_fast(cfg)
            got = np.array([sf.slow.clouds[-1, 0, 0], sf.fast.clouds[-1, 0, 0]])
            errs.append(np.linalg.norm(got - ref))
        assert errs[0] < 0.1
        assert 1.6 < errs[0] / errs[1] < 2.6  # first order in h_fast


class TestAuxiliaryProcess:
    """The block-frozen twins and the increment gaps of :func:`increment_stats`."""

    def _cfg(self, coeffs, M=32, seed=13, T=0.25, h_fast=2**-9, epsilon=2**-5):
        spec = OperatorSpec(n_modes=4, a=2.0, b=1.0, g=1.0, alpha=1.5,
                            theta=1.0, p=1.0)
        base = SimConfig(spec=spec, coeffs=coeffs, T=T, h=T / 2, M=M,
                         seed=seed, xi=0.3)
        return MultiscaleConfig(base=base, epsilon=epsilon, h_fast=h_fast,
                                eta=0.1)

    def test_overflowing_gap_sum_names_delta_and_replica(self, coeffs4):
        # mode 3 (lambda = 16) of X runs from -1e154 toward +1e154: X and its
        # law statistic stay finite, but in the one block of length T the
        # gap to the block start overflows
        c = 16 * 1e154
        co = dataclasses.replace(coeffs4, F=lambda x, s, y: np.zeros_like(x) + c * np.eye(4)[3])
        cfg = self._cfg(co, M=4)
        cfg = dataclasses.replace(cfg, base=dataclasses.replace(cfg.base, xi=[0, 0, 0, -1e154]))
        with np.errstate(over="ignore"), pytest.raises(FloatingPointError, match=(
                r"non-finite gap sum \(delta = 0\.25\) at epsilon = 0\.03125, "
                r"replica 2, step 128 of 128")):
            increment_stats(cfg, [2**-6, 0.25], "slow", replicas=[(2, None)])

    def test_single_step_blocks_degenerate(self, coeffs4):
        # delta = h_fast: each twin reads X_j at step j, as Y does
        cfg = self._cfg(coeffs4)
        ((row,),) = increment_stats(cfg, [cfg.h_fast], "aux")
        assert (row.mean_pow, row.var_pow, row.n) == (0.0, 0.0, 32)

    def test_freezing_noop_when_g_ignores_slow(self):
        cfg = self._cfg(y_blind_g_coeffs(4))
        (rows,) = increment_stats(cfg, [2**-6, 0.125], "aux")
        assert [(r.mean_pow, r.var_pow) for r in rows] == [(0.0, 0.0)] * 2

    def test_frozen_inputs_actually_freeze(self, coeffs4):
        # with a slow-sensitive G the auxiliary path must differ
        cfg = self._cfg(coeffs4)
        ((row,),) = increment_stats(cfg, [0.125], "aux")
        assert row.mean_pow > 0.0

    def test_misaligned_delta_rejected(self, coeffs4):
        cfg = self._cfg(coeffs4)
        with pytest.raises(ValueError, match="aligned"):
            increment_stats(cfg, [0.1], "aux")
        with pytest.raises(ValueError, match="arm"):
            increment_stats(cfg, [0.125], "fast")

    def test_slow_arm_is_the_recorded_flows_time_mean(self, coeffs4):
        # right-endpoint gaps |X_j - X_(block start of (t_{j-1}, t_j])|,
        # added time after time, as a recorded flow's axis-0 mean adds them
        cfg = self._cfg(coeffs4)
        x = simulate_slow_fast(cfg).slow.clouds
        j = np.arange(1, x.shape[0])
        deltas = [2**-8, 2**-5, 2**-5, 0.125]
        (rows,) = increment_stats(cfg, deltas, "slow")
        for d, row in zip(deltas, rows):
            s = round(d / cfg.h_fast)
            gap = np.linalg.norm(x[j] - x[(j - 1) // s * s], axis=2)
            assert row == multiscale.StrongErrorStats.from_sample(gap.mean(axis=0), 1.0)

    @pytest.mark.parametrize("arm", ["slow", "aux"])
    def test_memory_does_not_grow_with_T(self, coeffs4, arm):
        peaks = []
        for T in (1.0, 8.0):
            cfg = self._cfg(coeffs4, M=16, T=T, h_fast=2**-8, epsilon=2**-4)
            tracemalloc.start()
            try:
                increment_stats(cfg, [2**-6, 2**-4, 2**-2], arm)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] <= 1.25 * peaks[0], peaks


class TestFrozenEquation:
    def test_linear_mean_oracle(self, spec2, linear2):
        frozen = FrozenInput(x=np.array([2.0, 0.0]), mu_stat=2.0,
                             y0=np.zeros(2))
        ens = simulate_frozen(frozen, 2.0, 0.01, spec2, linear2,
                              RngStream(11), n_particles=4000)
        first = ens.clouds[-1, :, 0]
        se = first.std(ddof=1) / np.sqrt(first.size)
        # mean ODE: m(2) = 4 (1 - e^{-1}) = 2.5285
        assert abs(first.mean() - 2.5285) < 3 * se

    def test_equilibrium_is_constant_without_noise(self):
        spec = quiet_spec(n_modes=2, a=2.0)
        co = build_family("linear_test", spec, a=1.0, c=0.5)
        frozen = FrozenInput(x=np.array([2.0, 0.0]), mu_stat=2.0,
                             y0=np.array([4.0, 0.0]))
        ens = simulate_frozen(frozen, 1.0, 0.01, spec, co, RngStream(0))
        assert np.allclose(ens.clouds, np.array([4.0, 0.0]), atol=1e-12)

    def test_g_zero_stationary_matches_convolution_family(self, spec2):
        # with G = 0 the frozen path at T has exactly the law of a single
        # convolution increment over [0, T] (spec2 has beta_k = gamma_k)
        frozen = FrozenInput(x=np.zeros(2), mu_stat=0.0, y0=np.zeros(2))
        ens = simulate_frozen(frozen, 2.0, 0.02, spec2, zero_coeffs(2),
                              RngStream(3), n_particles=3000)
        mine = np.linalg.norm(ens.clouds[-1], axis=1)
        inc = sample_convolution_increment(spec2, 2.0, RngStream(77), size=3000)
        ref = np.linalg.norm(inc, axis=1)
        tol = 3.0 * np.hypot(mine.std(ddof=1) / np.sqrt(mine.size),
                             ref.std(ddof=1) / np.sqrt(ref.size))
        assert abs(mine.mean() - ref.mean()) < tol

    def test_loop_holds_one_noise_block(self, spec2, linear2):
        # 4,000 particles on 2 modes: past what a one-step loop holds, a loop
        # of one full block holds that block and one particle group's scratch
        frozen = FrozenInput(x=np.array([2.0, 0.0]), mu_stat=2.0, y0=np.zeros(2))
        peaks = []
        for n_steps in (1, solver.BLOCK_STEPS):
            tracemalloc.start()
            try:
                multiscale._frozen_loop(frozen, n_steps, 0.01, spec2, linear2, RngStream(3),
                                        4000, lambda j, fields: None)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        block = solver.BLOCK_STEPS * 4000 * 2 * 8
        assert peaks[1] - peaks[0] < 1.25 * block, (peaks, block)

    def test_zero_gap_fatal(self, spec4):
        marginal = CoefficientSet(
            variant="custom", B=lambda x, s: np.zeros(4),
            F=lambda x, s, y: np.zeros(4), G=lambda x, s, y: y,
            lip_C=1.0, lip_G_y=1.0, p=1.0, bound_const=0.0,
            fbar_factory=None,
        )
        frozen = FrozenInput(x=np.zeros(4), mu_stat=0.0, y0=np.zeros(4))
        with pytest.raises(ValueError, match="gap"):
            simulate_frozen(frozen, 1.0, 0.01, spec4, marginal, RngStream(0))


class TestAveragedDriftEstimation:
    def test_analytic_linear_value(self, spec2, linear2):
        frozen = FrozenInput(x=np.array([2.0, 0.0]), mu_stat=2.0,
                             y0=np.zeros(2))
        fbar = averaged_drift(linear2, spec2)(frozen.x, frozen.mu_stat)
        assert fbar[0] == pytest.approx(4.0, abs=1e-12)
        assert fbar[1] == pytest.approx(0.0, abs=1e-12)

    def test_ergodic_matches_analytic(self, spec2, linear2):
        frozen = FrozenInput(x=np.array([2.0, 0.0]), mu_stat=2.0,
                             y0=np.zeros(2))
        est, se = ergodic_fbar(frozen, spec2, linear2, RngStream(41))
        assert np.linalg.norm(est - np.array([4.0, 0.0])) < 3 * se + 1e-3

    def test_y_blind_integrand_exact_in_ergodic_mode(self):
        co = law_blind_f_coeffs(2)
        spec = OperatorSpec(n_modes=2, a=2.0, b=1.0, g=1.0, alpha=1.5,
                            theta=1.0, p=1.0)
        frozen = FrozenInput(x=np.array([0.7, -0.4]), mu_stat=1.0,
                             y0=np.zeros(2))
        est = ergodic_fbar(frozen, spec, co, RngStream(2**20), relax_time=2.0, avg_time=8.0)[0]
        assert np.allclose(est, 0.5 * np.tanh(frozen.x), rtol=1e-12)

    def test_odd_symmetry_vanishes_at_origin(self, spec2, linear2):
        frozen = FrozenInput(x=np.zeros(2), mu_stat=0.0, y0=np.zeros(2))
        assert np.allclose(averaged_drift(linear2, spec2)(frozen.x, frozen.mu_stat), 0.0)
        est, se = ergodic_fbar(frozen, spec2, linear2, RngStream(9))
        assert np.linalg.norm(est) < 3 * se + 1e-3

    def test_same_stream_reproduces_and_other_streams_differ(self, spec2, linear2):
        # the path's stream is (seed, replica, probe hash): a repeat on one
        # stream gives the same bits, whatever ran between, and a change of
        # seed or replica gives another path
        frozen = FrozenInput(x=np.array([1.0, 0.5]), mu_stat=1.0, y0=np.zeros(2))
        times = dict(relax_time=2.0, avg_time=8.0)
        first = ergodic_fbar(frozen, spec2, linear2, RngStream(7), **times)
        for rng in (RngStream(7, replica=3), RngStream(8)):
            other = ergodic_fbar(frozen, spec2, linear2, rng, **times)
            assert not np.array_equal(other[0], first[0])
        again = ergodic_fbar(frozen, spec2, linear2, RngStream(7, particle=5), **times)
        assert np.array_equal(again[0], first[0]) and again[1] == first[1]

    def test_overflowing_batch_sum_names_probe_replica_and_step(self, spec2):
        # F = 1e308 is finite, but the first batch's sum overflows; the batch
        # of 20 steps after a burn-in of 20 ends at step 39
        co = CoefficientSet(
            variant="custom", B=lambda x, s: np.zeros(2),
            F=lambda x, s, y: np.full_like(y, 1e308), G=lambda x, s, y: np.zeros_like(y),
            lip_C=1.0, lip_G_y=0.0, p=1.0, bound_const=1e308, fbar_factory=None,
        )
        frozen = FrozenInput(x=np.array([0.5, -0.25]), mu_stat=1.0, y0=np.zeros(2))
        with np.errstate(over="ignore"), pytest.raises(FloatingPointError, match=(
                r"non-finite batch sum 1 of 16 of F at probe x = \[0\.5, -0\.25\], "
                r"mu_stat = 1, replica 3, step 39 of 340$")):
            ergodic_fbar(frozen, spec2, co, RngStream(5, replica=3),
                         relax_time=0.1, avg_time=1.6)

    def test_averaging_window_shorter_than_the_batches_refused(self, spec2, linear2):
        # avg_time = 0.05 is 10 steps of 0.005: fewer than one step per batch
        frozen = FrozenInput(x=np.array([2.0, 0.0]), mu_stat=2.0, y0=np.zeros(2))
        with pytest.raises(ValueError, match=r"avg_time = 0\.05 is 10 steps of "
                                             r"h_step = 0\.005: need at least 16 steps"):
            ergodic_fbar(frozen, spec2, linear2, RngStream(3), relax_time=0.1, avg_time=0.05)

    def test_fbar_lipschitz_and_envelope_probes(self, spec4, coeffs4, rng):
        eff = effective_constants(coeffs4, spec4)
        fbar = coeffs4.fbar_factory(spec4)
        for _ in range(20):
            x1, x2 = rng.normal(size=(2, 4))
            s1, s2 = rng.uniform(0.0, 2.0, size=2)
            gap = np.linalg.norm(fbar(x1, s1) - fbar(x2, s2))
            bound = eff.fbar_lip * (np.linalg.norm(x1 - x2) + abs(s1 - s2))
            assert gap <= bound + 1e-9
            assert np.linalg.norm(fbar(x1, s1)) <= \
                coeffs4.bound_const * (1.0 + s1) + 1e-9


class TestErgodicityDecay:
    def test_linear_rate_and_gap_doubling(self, spec2):
        rates = {}
        for c, t_max, seed in ((0.5, 4.0, 3), (0.0, 2.0, 4)):
            co = build_family("linear_test", spec2, a=1.0, c=c)
            frozen = FrozenInput(x=np.array([2.0, 0.0]), mu_stat=2.0,
                                 y0=np.zeros(2))
            grid = np.arange(0.25, t_max + 1e-9, 0.25)
            rep = ergodicity_decay(frozen, spec2, co, grid, 3000,
                                   RngStream(seed))
            assert rep.theory_rate == pytest.approx(1.0 - c)
            assert abs(rep.fitted_rate - rep.theory_rate) < 0.15 * rep.theory_rate
            assert rep.envelope_ok
            rates[c] = rep.fitted_rate
        assert 1.6 < rates[0.0] / rates[0.5] < 2.4

    def test_equilibrium_start_has_no_signal(self, spec2, linear2):
        frozen = FrozenInput(x=np.array([2.0, 0.0]), mu_stat=2.0,
                             y0=np.array([4.0, 0.0]))
        grid = np.arange(0.5, 4.01, 0.5)
        with pytest.raises(ValueError, match="MC floor"):
            ergodicity_decay(frozen, spec2, linear2, grid, 400, RngStream(8))

    def test_off_grid_times_rejected(self, spec2, linear2):
        frozen = FrozenInput(x=np.array([2.0, 0.0]), mu_stat=2.0,
                             y0=np.zeros(2))
        with pytest.raises(ValueError, match="grid"):
            ergodicity_decay(frozen, spec2, linear2, np.array([0.505, 1.0]),
                             100, RngStream(0))

    def test_repeated_times_rejected(self, spec2, linear2):
        # the rate is a line fit in t, which needs distinct times
        frozen = FrozenInput(x=np.array([2.0, 0.0]), mu_stat=2.0, y0=np.zeros(2))
        with pytest.raises(ValueError, match="increasing"):
            ergodicity_decay(frozen, spec2, linear2, np.array([0.5, 0.5]),
                             100, RngStream(0))

    def test_traced_peak_independent_of_grid_end(self, spec2, linear2):
        # 256 and 2,048 steps of 1/64, both past one noise block: the grid
        # times are read as the paths pass them, so nothing grows with the end
        frozen = FrozenInput(x=np.array([2.0, 0.0]), mu_stat=2.0, y0=np.zeros(2))
        peaks = []
        for t_end in (4.0, 32.0):
            tracemalloc.start()
            try:
                ergodicity_decay(frozen, spec2, linear2, np.array([0.5, 1.0, 2.0, t_end]),
                                 400, RngStream(0), h_step=1 / 64)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] <= 1.25 * peaks[0], peaks


class TestAveragedEquationAndStrongError:
    def _cfg(self, coeffs, spec, M=64, seed=31, T=0.25):
        base = SimConfig(spec=spec, coeffs=coeffs, T=T, h=T / 2, M=M,
                         seed=seed, xi=0.3)
        return MultiscaleConfig(base=base, epsilon=2**-5, h_fast=2**-9,
                                eta=0.1)

    def test_zero_fbar_couples_exactly(self, spec4):
        co = zero_coeffs(4, fbar_zero=True)
        cfg = self._cfg(co, spec4)
        avg = simulate_averaged(cfg)
        sf = simulate_slow_fast(cfg)
        assert np.array_equal(avg.clouds, sf.slow.clouds)

    def test_seed_moves_paths_not_law(self, spec4, coeffs4):
        moms, ses, paths = [], [], []
        for seed in (31, 32):
            cfg = self._cfg(coeffs4, spec4, M=384, seed=seed)
            ens = simulate_averaged(cfg)
            term = np.linalg.norm(ens.clouds[-1], axis=1)
            moms.append(term.mean())
            ses.append(term.std(ddof=1) / np.sqrt(term.size))
            paths.append(ens.clouds)
        assert not np.array_equal(paths[0], paths[1])
        assert abs(moms[0] - moms[1]) < 3.0 * np.hypot(*ses)

    def test_synchronous_zero_error(self, spec4):
        co = law_blind_f_coeffs(4)
        cfg = self._cfg(co, spec4)
        (stats,) = strong_error_stats(cfg)
        assert stats.error == 0.0
        assert stats.stderr == 0.0

    def test_unbounded_family_refused(self, spec2, linear2):
        base = SimConfig(spec=spec2, coeffs=linear2, T=0.25, h=0.125, M=8,
                         seed=0, xi=0.3)
        cfg = MultiscaleConfig(base=base, epsilon=2**-5, h_fast=2**-9)
        with pytest.raises(ValueError, match="unbounded"):
            strong_error_stats(cfg)

    def test_moment_order_bounds(self, spec4, coeffs4):
        cfg = self._cfg(coeffs4, spec4, M=8)
        for bad_m in (1.5, 0.5):
            with pytest.raises(ValueError, match="moment order"):
                strong_error_stats(cfg, m=bad_m)

    def test_error_positive_and_replayable(self, spec8, coeffs8):
        base = SimConfig(spec=spec8, coeffs=coeffs8, T=0.25, h=0.125, M=32,
                         seed=17, xi=0.3)
        cfg = MultiscaleConfig(base=base, epsilon=2**-5, h_fast=2**-9)
        (s1,) = strong_error_stats(cfg)
        (s2,) = strong_error_stats(cfg)
        assert s1.error > 0.0
        assert s1.mean_pow == s2.mean_pow and s1.var_pow == s2.var_pow


def blowup_coeffs(n, after_calls, row, value=np.inf):
    """Bounded-looking F that turns to ``value`` on one system after some calls."""
    calls = []

    def F(x, s, y):
        calls.append(None)
        out = 0.5 * np.tanh(y) + np.zeros_like(x)
        if len(calls) > after_calls:
            out[row] = value
        return out

    return CoefficientSet(
        variant="custom", B=lambda x, s: np.zeros(n), F=F,
        G=lambda x, s, y: 0.4 * np.tanh(y),
        lip_C=0.5, lip_G_y=0.4, p=1.0, bound_const=1.0,
        fbar_factory=lambda spec: (lambda x, s: np.zeros_like(x)),
    )


class TestReplicaBatch:
    """A system's errors have the same bits alone as in a batch."""

    def _cfg(self, spec, coeffs, M=12, T=0.25):
        base = SimConfig(spec=spec, coeffs=coeffs, T=T, h=T / 2, M=M, seed=41,
                         xi=[0.5, -0.3, 0.2])
        return MultiscaleConfig(base=base, epsilon=2**-5, h_fast=2**-9, eta=0.1)

    @pytest.mark.parametrize("rows_of", [
        lambda cfg, replicas: [(s,) for s in strong_error_stats(cfg, 1.0, replicas)],
        lambda cfg, replicas: [(s,) for s in strong_error_stats(cfg, 1.25, replicas)],
        lambda cfg, replicas: increment_stats(cfg, [2**-8, 2**-6, 2**-5], "slow", replicas),
        lambda cfg, replicas: increment_stats(cfg, [2**-8, 2**-6, 2**-5], "aux", replicas),
    ], ids=["1.0", "1.25", "increment-slow", "increment-aux"])
    def test_batch_rows_equal_single_systems(self, spec8, coeffs8, rows_of, monkeypatch):
        # rows_of gives each system's rows: one strong error, or one per delta
        cfg = self._cfg(spec8, coeffs8)
        replicas = [(3, range(0, 12)), (4, range(12, 24)), (9, range(24, 36))]
        # 24-step blocks leave a short last block of the 128 steps
        with monkeypatch.context() as patch:
            patch.setattr(solver, "BLOCK_STEPS", 24)
            batch = rows_of(cfg, replicas)
        assert len(batch) == 3
        moments = lambda rows: [(r.mean_pow, r.var_pow, r.n) for r in rows]
        # the same systems each alone, and split unequally: the first alone,
        # the other two batched
        for parts in ([replicas[:1], replicas[1:2], replicas[2:]], [replicas[:1], replicas[1:]]):
            split = [rows for part in parts for rows in rows_of(cfg, part)]
            assert [moments(rows) for rows in split] == [moments(rows) for rows in batch]
        assert all(r.mean_pow > 0.0 for rows in batch for r in rows)
        assert moments(batch[0]) != moments(batch[1])

    @pytest.mark.parametrize("y_modes, n_fast", [(4, 4), (None, 8)])
    def test_fast_banks_open_with_the_modes_f_reads(self, spec8, coeffs8, monkeypatch,
                                                    y_modes, n_fast):
        # two systems on 8 modes: the fast banks hold y_modes modes (all 8
        # when None) and draw exactly those words per step
        opened, drawn = [], []

        class SpyBank(multiscale.StableNoiseBank):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                self.channel = args[4]
                opened.append((self.channel, self.n_modes))

            def draw(self, n_steps, out=None):
                block = super().draw(n_steps, out=out)
                drawn.append((self.channel, block.shape, block.strides))
                return block

        monkeypatch.setattr(multiscale, "StableNoiseBank", SpyBank)
        co = dataclasses.replace(coeffs8, y_modes=y_modes)
        strong_error_stats(self._cfg(spec8, co), replicas=[(3, None), (5, range(12, 24))])
        assert opened == [(CH_SLOW, 8)] * 2 + [(CH_FAST, n_fast)] * 2
        # per noise block of the 128 steps, the slow banks and then the fast
        # write step-major into one block of both systems: a particle's next
        # step is 2 x 12 rows on
        blocks = [min(solver.BLOCK_STEPS, 128 - j0) for j0 in range(0, 128, solver.BLOCK_STEPS)]
        assert drawn == [
            (channel, (12, n, k), (8 * k, 8 * 24 * k, 8))
            for n in blocks for channel, k in [(CH_SLOW, 8)] * 2 + [(CH_FAST, n_fast)] * 2]

    def test_nonfinite_head_only_y_names_epsilon_replica_and_step(self, spec4):
        # F reads y on its two leading modes; G turns NaN on the third system
        calls = []

        def F(x, s, y):
            out = np.zeros_like(x)
            out[..., :2] = 0.5 * np.tanh(y[..., :2])
            return out

        def G(x, s, y):
            calls.append(None)
            out = 0.4 * np.tanh(y)
            if len(calls) > 3:
                out[2] = np.nan
            return out

        co = dataclasses.replace(blowup_coeffs(4, after_calls=0, row=0), F=F, G=G, y_modes=2)
        replicas = [(10, None), (11, range(4, 8)), (12, range(8, 12))]
        with pytest.raises(FloatingPointError,
                           match=r"epsilon = 0\.03125, replica 12, step 4 of 128"):
            strong_error_stats(self._cfg(spec4, co, M=4), replicas=replicas)

    def test_needs_a_replica(self, spec4, coeffs4):
        cfg = self._cfg(spec4, coeffs4)
        with pytest.raises(ValueError, match="at least one replica"):
            strong_error_stats(cfg, replicas=[])
        for arm in ("slow", "aux"):
            with pytest.raises(ValueError, match="at least one replica"):
                increment_stats(cfg, [2**-6], arm, replicas=[])

    def test_overflowing_law_statistic_names_replica_and_step(self, spec4):
        # a finite drift of 1e300 keeps the fields finite, but |x|^2 overflows
        cfg = self._cfg(spec4, blowup_coeffs(4, after_calls=5, row=1, value=1e300), M=4)
        replicas = [(10, None), (11, range(4, 8)), (12, range(8, 12))]
        with np.errstate(over="ignore"), pytest.raises(
                FloatingPointError,
                match=r"law statistic at epsilon = 0\.03125, replica 11, step 6 of 128"):
            strong_error_stats(cfg, replicas=replicas)

    def test_overflowing_sup_names_epsilon_and_replica(self, spec4):
        # mode 3 (lambda = 16) of X runs to +1e154 on the second system and
        # that of Xbar to -1e154 on all three: every field and law statistic
        # stays finite, but |X - Xbar|^2 overflows on the second system alone
        c = 16 * 1e154

        def F(x, s, y):
            out = np.zeros_like(x)
            out[1, :, 3] = c
            return out

        co = dataclasses.replace(
            blowup_coeffs(4, after_calls=0, row=0), F=F,
            fbar_factory=lambda spec: (lambda x, s: np.zeros_like(x) - c * np.eye(4)[3]))
        replicas = [(10, None), (11, range(4, 8)), (12, range(8, 12))]
        with np.errstate(over="ignore"), pytest.raises(FloatingPointError, match=(
                r"non-finite sup \|X - Xbar\| at epsilon = 0\.03125, replica 11, "
                r"step 128 of 128")):
            strong_error_stats(self._cfg(spec4, co, M=4), replicas=replicas)

    def test_nonfinite_error_names_epsilon_replica_and_step(self, spec4):
        cfg = self._cfg(spec4, blowup_coeffs(4, after_calls=5, row=1), M=4)
        replicas = [(10, None), (11, range(4, 8)), (12, range(8, 12))]
        with pytest.raises(FloatingPointError,
                           match=r"epsilon = 0\.03125, replica 11, step 6 of 128"):
            strong_error_stats(cfg, replicas=replicas)
