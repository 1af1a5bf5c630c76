import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from mvspde import measures
from mvspde.coefficients import CoefficientSet, bounded_smooth, effective_constants
from mvspde.measures import (
    EXACT_ASSIGNMENT_LIMIT,
    LawFlow,
    dT_metric,
    p_moment,
    wasserstein_exact,
)
from mvspde.noise import (
    CH_PROJECTION,
    CH_SLOW,
    GROUP_WORDS,
    RngStream,
    StableNoiseBank,
    convolution_scales,
    sample_convolution_increment,
)
from mvspde import solver
from mvspde.solver import (
    PicardReport,
    SimConfig,
    advance,
    euler_weights,
    moment_bound_check,
    picard_law_iteration,
    simulate_mkv,
)
from mvspde.spectral import OperatorSpec, apply_semigroup


def quiet_spec(n_modes=4, **kw):
    """Spectrum with vanishing slow-noise amplitude: drift-only dynamics."""
    kw.setdefault("c_beta", 1e-300)
    return OperatorSpec(n_modes=n_modes, a=2.0, b=1.0, g=1.0, alpha=1.5,
                        theta=1.0, p=1.0, **kw)


def zero_coeffs(n):
    z = lambda *args: np.zeros(n)
    return CoefficientSet(
        variant="custom", B=lambda x, s: np.zeros(n), F=z, G=z,
        lip_C=1.0, lip_G_y=0.5, p=1.0, bound_const=0.0,
        fbar_factory=None,
    )


def linear_drift_coeffs(n, a):
    lin = lambda x, s: a * np.asarray(x, dtype=float)
    return CoefficientSet(
        variant="custom", B=lin, F=lambda x, s, y: lin(x, s),
        G=lambda x, s, y: np.zeros(n),
        lip_C=abs(a), lip_G_y=0.0, p=1.0, bound_const=np.inf, fbar_factory=None,
    )


def euler_run(u0, drift, h, spec, n_steps=1):
    """Final field of n_steps noise-free kernel steps under a constant drift."""
    u0 = np.asarray(u0, dtype=float)[None, :]
    (u,) = advance({"u": u0}, [euler_weights(spec, h)],
                   [np.zeros((1, n_steps, u0.shape[1]))],
                   lambda j, fields: [drift], n_steps, lambda j, fields: None)
    return u[0]


class TestStepExponentialEuler:
    """Exponential Euler steps through euler_weights and the advance kernel."""

    def test_pure_decay(self, spec4):
        u = np.array([1.0, -0.5, 2.0, 0.25])
        out = euler_run(u, np.zeros(4), 0.3, spec4)
        assert np.allclose(out, apply_semigroup(u, 0.3, spec4), rtol=1e-15)

    def test_constant_drift_reaches_stationary_point(self, spec4):
        d = np.array([1.0, 2.0, -1.0, 0.5])
        u = euler_run(np.zeros(4), d, 0.5, spec4, n_steps=200)
        assert np.allclose(u, d / spec4.eigenvalues, rtol=1e-9)

    def test_hand_fixed_point(self):
        spec = OperatorSpec(n_modes=1, a=2.0, b=1.0, g=1.0, alpha=1.5,
                            theta=1.0, p=1.0)
        out = euler_run([1.0], np.array([1.0]), math.log(2.0), spec)
        assert out[0] == pytest.approx(1.0, abs=1e-15)

    def test_nonpositive_step_rejected(self, spec4):
        for h in (0.0, -0.1):
            with pytest.raises(ValueError, match="step size"):
                euler_weights(spec4, h)

    def test_fields_listing_one_source_share_its_increments(self, spec4):
        bank = StableNoiseBank(3, spec4.alpha, 5, 4, CH_SLOW)
        source = (bank, convolution_scales(spec4, 0.1, "slow"))
        a, b = advance({"a": np.zeros((5, 4)), "b": np.zeros((5, 4))},
                       [euler_weights(spec4, 0.1)] * 2, [source, source],
                       lambda j, fields: [0.0, 0.0], 9, lambda j, fields: None)
        assert np.array_equal(a, b) and np.all(a != 0.0)

    @pytest.mark.parametrize("n_banks", [1, 3])
    @pytest.mark.parametrize("n_steps", [1, 7, 64, 128])
    @pytest.mark.parametrize("groups", [1, 2])
    def test_noise_blocks_are_the_transposed_draws(self, n_banks, n_steps, groups):
        # 8 modes; one particle group, or one past a full group of GROUP_WORDS words
        per_group = GROUP_WORDS // (2 * n_steps * 8)
        n_particles = 3 if groups == 1 else per_group + 1

        def banks():
            return [StableNoiseBank(7, 1.5, n_particles, 8, CH_SLOW, replica=r)
                    for r in range(n_banks)]

        source = (banks() if n_banks > 1 else banks()[0], np.ones(8))
        block = solver._noise_block(source, 0, n_steps, None)
        assert block.shape == (n_steps,) + (n_banks,) * (n_banks > 1) + (n_particles, 8)
        block = block.reshape(n_steps, n_banks, n_particles, 8)
        for r, bank in enumerate(banks()):
            assert np.array_equal(block[:, r], bank.draw(n_steps).swapaxes(0, 1))

    def test_observe_sees_every_grid_time_before_its_step(self, spec4):
        seen = []
        advance({"u": np.ones((2, 4))}, [euler_weights(spec4, 0.1)],
                [np.zeros((2, 3, 4))], lambda j, fields: [0.0],
                3, lambda j, fields: seen.append((j, fields[0][0, 0])))
        decay = euler_weights(spec4, 0.1)[0][0]
        assert [j for j, _ in seen] == [0, 1, 2, 3]
        assert [v for _, v in seen] == pytest.approx([1.0, decay, decay**2, decay**3],
                                                     rel=1e-15)

    def test_nonfinite_field_names_step_and_system(self, spec4):
        def drift(j, fields):
            d = np.zeros((3, 2, 4))
            if j == 4:
                d[2, 1, 0] = np.nan
            return [d]

        with pytest.raises(FloatingPointError,
                           match=r"non-finite u at step 5 of 8, system 2"):
            advance({"u": np.zeros((3, 2, 4))}, [euler_weights(spec4, 0.1)],
                    [np.zeros((3, 2, 8, 4))], drift, 8, lambda j, fields: None)


class TestSimConfig:
    def test_step_must_divide_horizon(self, spec4, coeffs4):
        with pytest.raises(ValueError):
            SimConfig(spec=spec4, coeffs=coeffs4, T=1.0, h=0.3, M=4, seed=0)

    def test_moment_order_mismatch_rejected(self, spec4):
        co = bounded_smooth(spec4)
        object.__setattr__(co, "p", 1.2)
        with pytest.raises(ValueError, match="p"):
            SimConfig(spec=spec4, coeffs=co, T=1.0, h=0.25, M=4, seed=0)

    def test_invalid_spectrum_rejected(self):
        # A3 fails: alpha*b + a = 0.65 < 1
        bad = OperatorSpec(n_modes=2, a=0.5, b=0.1, g=2.0, alpha=1.5,
                           theta=1.0, p=1.0)
        with pytest.raises(ValueError, match="A3"):
            SimConfig(spec=bad, coeffs=zero_coeffs(2), T=1.0, h=0.25, M=2, seed=0)


class TestSimulateMkv:
    def test_linear_part_exact(self):
        spec = quiet_spec()
        cfg = SimConfig(spec=spec, coeffs=zero_coeffs(4), T=1.0, h=0.125,
                        M=3, seed=1, xi=[1.0, -0.5, 0.25, 2.0])
        flow = simulate_mkv(cfg)
        for j, t in enumerate(flow.times):
            ref = apply_semigroup(cfg.xi, t, spec)
            assert np.allclose(flow.clouds[j], ref, atol=1e-12)

    def test_pure_convolution_cross_module(self, spec4):
        # multi-step solver at T vs a single exact increment over [0, T]:
        # both sample the same stationary-integrand law
        cfg = SimConfig(spec=spec4, coeffs=zero_coeffs(4), T=1.0, h=0.25,
                        M=2000, seed=3, xi=0.0)
        flow = simulate_mkv(cfg)
        solver_mom = float(np.linalg.norm(flow.clouds[-1], axis=1).mean())
        inc = sample_convolution_increment(spec4, 1.0, RngStream(99), size=2000)
        direct = np.linalg.norm(inc, axis=1)
        se = direct.std(ddof=1) / np.sqrt(direct.size)
        assert abs(solver_mom - direct.mean()) < 3 * se + 3 * se  # both sides MC

    def test_zero_fixed_point_single_particle(self):
        spec = quiet_spec()
        mean_pull = CoefficientSet(
            variant="custom",
            B=lambda x, s: s * np.eye(4)[0],
            F=lambda x, s, y: s * np.eye(4)[0],
            G=lambda x, s, y: np.zeros(4),
            lip_C=1.0, lip_G_y=0.0, p=1.0, bound_const=np.inf, fbar_factory=None,
        )
        cfg = SimConfig(spec=spec, coeffs=mean_pull, T=1.0, h=0.125, M=1,
                        seed=0, xi=0.0)
        flow = simulate_mkv(cfg)
        assert np.allclose(flow.clouds, 0.0, atol=1e-200)

    def test_drift_order_one_in_h(self):
        # noise off, B = 0.8 x: exponential-Euler error vs the exact linear
        # flow shrinks like h (slope 1 +- 0.15 on a log-log fit)
        spec = quiet_spec()
        a = 0.8
        exact = np.exp((a - spec.eigenvalues) * 1.0) * np.array([1.0, 1.0, 1.0, 1.0])
        errs, hs = [], []
        for k in range(6, 11):
            h = 1.0 / 2**k
            cfg = SimConfig(spec=spec, coeffs=linear_drift_coeffs(4, a), T=1.0,
                            h=h, M=1, seed=0, xi=[1.0, 1.0, 1.0, 1.0])
            flow = simulate_mkv(cfg)
            errs.append(np.linalg.norm(flow.clouds[-1, 0] - exact))
            hs.append(h)
        slope = np.polyfit(np.log(hs), np.log(errs), 1)[0]
        assert slope == pytest.approx(1.0, abs=0.15)

    def test_deterministic_replay(self, spec4, coeffs4):
        cfg = SimConfig(spec=spec4, coeffs=coeffs4, T=0.5, h=0.125, M=8,
                        seed=11, xi=0.2)
        a, b = simulate_mkv(cfg), simulate_mkv(cfg)
        assert np.array_equal(a.clouds, b.clouds)

    def test_particle_exchangeability(self, spec4, coeffs4):
        cfg = SimConfig(spec=spec4, coeffs=coeffs4, T=0.5, h=0.125, M=3,
                        seed=11, xi=0.2)
        plain = simulate_mkv(cfg).clouds
        # the same interacting system, particle i on particle [2, 0, 1][i]'s stream
        bank = StableNoiseBank(cfg.seed, spec4.alpha, cfg.M, 4, CH_SLOW, particle_ids=[2, 0, 1])
        mu, perm = [], []

        def observe(j, fields):
            mu.append(p_moment(fields[0], spec4.p))
            perm.append(fields[0].copy())

        advance({"u": np.broadcast_to(cfg.xi, (cfg.M, 4))}, [euler_weights(spec4, cfg.h)],
                [(bank, convolution_scales(spec4, cfg.h, "slow"))],
                lambda j, fields: [coeffs4.B(fields[0], mu[j])], cfg.n_steps, observe)
        perm = np.array(perm)
        # the shared law statistic is a reordered fp sum, so equality is up
        # to roundoff, not bitwise
        assert np.allclose(perm[:, 0], plain[:, 2], rtol=1e-10, atol=1e-13)
        assert np.allclose(perm[:, 1], plain[:, 0], rtol=1e-10, atol=1e-13)
        for j in range(len(plain)):
            d = wasserstein_exact(plain[j], perm[j], 1.0)
            assert d == pytest.approx(0.0, abs=1e-10)

    def test_translation_coupling_bound(self):
        spec = quiet_spec()
        xi = np.array([0.8, -0.6, 0.0, 0.0])
        runs = []
        for start in (np.zeros(4), xi):
            cfg = SimConfig(spec=spec, coeffs=zero_coeffs(4), T=1.0, h=0.25,
                            M=16, seed=7, xi=start)
            runs.append(simulate_mkv(cfg))
        for j, t in enumerate(runs[0].times):
            gap = wasserstein_exact(runs[0].clouds[j], runs[1].clouds[j], 1.0)
            ref = np.linalg.norm(apply_semigroup(xi, t, spec))
            assert gap == pytest.approx(ref, abs=1e-12)
            assert gap <= math.exp(-spec.lambda_1 * t) * np.linalg.norm(xi) + 1e-12

    def test_block_size_leaves_the_bits(self, spec4, coeffs4, monkeypatch):
        cfg = SimConfig(spec=spec4, coeffs=coeffs4, T=0.5, h=1 / 40, M=6,
                        seed=13, xi=0.2)
        # 7-step blocks leave a short last block of the 20 steps
        with monkeypatch.context() as patch:
            patch.setattr(solver, "BLOCK_STEPS", 7)
            short = simulate_mkv(cfg)
        assert np.array_equal(short.clouds, simulate_mkv(cfg).clouds)

    def test_nonfinite_drift_raises_naming_the_step(self, spec4):
        calls = []

        def B(x, s):
            calls.append(None)
            return np.full(4, np.inf if len(calls) == 3 else 0.0)

        co = CoefficientSet(
            variant="custom", B=B, F=lambda x, s, y: np.zeros(4),
            G=lambda x, s, y: np.zeros(4), lip_C=1.0, lip_G_y=0.5, p=1.0,
            bound_const=0.0, fbar_factory=None,
        )
        cfg = SimConfig(spec=spec4, coeffs=co, T=0.5, h=0.125, M=3, seed=1, xi=0.2)
        with pytest.raises(FloatingPointError,
                           match=r"non-finite interacting particle state at step 3 of 4"):
            simulate_mkv(cfg)


class TestEmpiricalMuStat:
    @settings(max_examples=30)
    @given(
        n_systems=st.integers(1, 5),
        n_particles=st.integers(1, 40),
        n_modes=st.integers(1, 8),
        p=st.sampled_from([1.0, 1.25, 1.4, 1.49]),
        seed=st.integers(0, 2**16),
    )
    def test_batched_rows_equal_single_system_calls(self, n_systems, n_particles,
                                                    n_modes, p, seed):
        x = np.random.default_rng(seed).standard_cauchy((n_systems, n_particles, n_modes))
        batched = p_moment(x, p)
        assert batched.shape == (n_systems,)
        for r in range(n_systems):
            single = p_moment(x[r].copy(), p)
            assert isinstance(single, float)
            assert batched[r] == single

    @pytest.mark.parametrize("p", [1.0, 1.25])
    def test_strided_view_has_the_bits_of_its_copy(self, p):
        # a swapped view of particle-major (M, n_times, n_modes) paths
        paths = np.random.default_rng(3).standard_cauchy((32, 33, 8))
        view = paths.swapaxes(0, 1)
        assert not view.flags.c_contiguous
        assert p_moment(view, p).tobytes() == p_moment(view.copy(), p).tobytes()

    def test_single_system_value(self):
        x = np.array([[3.0, 4.0], [0.0, 1.0]])
        assert p_moment(x, 1.0) == 3.0
        assert p_moment(x, 1.25) == pytest.approx(
            ((5.0**1.25 + 1.0) / 2.0) ** 0.8, rel=1e-15)


class TestPicardIteration:
    def test_law_independent_drift_converges_in_one_step(self, spec4):
        cfg = SimConfig(spec=spec4, coeffs=zero_coeffs(4), T=0.5, h=0.125,
                        M=12, seed=2, xi=0.5)
        rep = picard_law_iteration(cfg, n_iters=3)
        assert rep.distances[0] > 0.0
        assert rep.distances[1] == 0.0
        assert rep.distances[2] == 0.0
        assert rep.contracting

    def test_floor_at_first_ratio_is_not_contracting(self):
        report = PicardReport(
            distances=np.array([1.0, 1.5, 0.5]), ratios=np.array([1.5, 1 / 3]),
            lambda_weight=1.0, noise_floor_iter=1, laws=np.zeros((3, 2)),
        )
        assert not report.contracting

    def test_sliced_distance_past_exact_limit(self, spec4, coeffs4):
        cfg = SimConfig(spec=spec4, coeffs=coeffs4, T=0.125, h=1 / 32,
                        M=EXACT_ASSIGNMENT_LIMIT + 1, seed=6, xi=0.4)
        rep = picard_law_iteration(cfg, n_iters=3)
        assert np.all(np.isfinite(rep.distances))
        assert rep.contracting
        again = picard_law_iteration(cfg, n_iters=3)
        assert rep.distances.tobytes() == again.distances.tobytes()

    def test_contraction_before_floor(self, spec8, coeffs8):
        cfg = SimConfig(spec=spec8, coeffs=coeffs8, T=0.5, h=1 / 32, M=64,
                        seed=4, xi=0.4)
        rep = picard_law_iteration(cfg, n_iters=5)
        floor = rep.noise_floor_iter
        upto = len(rep.ratios) if floor is None else floor - 1
        assert upto >= 1
        assert all(r < 1.0 for r in rep.ratios[:upto])
        assert rep.contracting

    def test_default_weight_is_four_lipschitz(self, spec4, coeffs4):
        cfg = SimConfig(spec=spec4, coeffs=coeffs4, T=0.25, h=0.125, M=8,
                        seed=0, xi=0.1)
        rep = picard_law_iteration(cfg, n_iters=2)
        assert rep.lambda_weight == pytest.approx(4.0 * coeffs4.lip_C)

    def test_bitwise_replay(self, spec4, coeffs4):
        cfg = SimConfig(spec=spec4, coeffs=coeffs4, T=0.5, h=0.125, M=16,
                        seed=9, xi=0.3)
        d1 = picard_law_iteration(cfg, n_iters=4).distances
        d2 = picard_law_iteration(cfg, n_iters=4).distances
        assert np.array_equal(d1, d2)

    @pytest.mark.parametrize("M", [8, 67])
    @pytest.mark.parametrize("p", [1.0, 1.25])
    def test_fixed_point_is_the_interacting_system(self, p, M):
        # stage n freezes the statistic the live drift reads at times
        # 0 .. n - 1, so past J + 1 stages the flow is simulate_mkv's, bit
        # for bit; |xi| < 1 keeps the drift's min(1, mu) law-dependent
        spec = OperatorSpec(n_modes=4, a=2.0, b=1.0, g=1.0, alpha=1.5, theta=1.0, p=p)
        J = 16
        cfg = SimConfig(spec=spec, coeffs=bounded_smooth(spec), T=J / 32, h=1 / 32,
                        M=M, seed=13, xi=[0.3, -0.2, 0.1, 0.0])
        rep = picard_law_iteration(cfg, n_iters=J + 3)
        live = simulate_mkv(cfg).clouds
        last = simulate_mkv(cfg, law_override=rep.laws[-1]).clouds
        assert last.shape == live.shape
        assert last.tobytes() == live.tobytes()
        assert rep.distances[-1] == 0.0

    def test_needs_two_iterations(self, spec4, coeffs4):
        cfg = SimConfig(spec=spec4, coeffs=coeffs4, T=0.25, h=0.125, M=4,
                        seed=0, xi=0.0)
        with pytest.raises(ValueError):
            picard_law_iteration(cfg, n_iters=1)


def stage_by_stage(config, n_iters):
    """The Picard iteration one stage at a time: each stage its own
    simulate_mkv run against the previous flow's p-moments, on the same
    self-drawn noise, compared with the previous flow by dT_metric."""
    spec, J = config.spec, config.n_steps
    lam = effective_constants(config.coeffs, spec).contraction_lambda
    projections = RngStream(config.seed, channel=CH_PROJECTION)
    prev = LawFlow(config.times, np.tile(config.xi, (J + 1, config.M, 1)))
    stat = np.full(J + 1, float(np.linalg.norm(config.xi)))
    distances = []
    for _ in range(n_iters):
        flow = simulate_mkv(config, law_override=stat)
        distances.append(dT_metric(flow, prev, lam, spec.p, rng=projections))
        prev, stat = flow, flow.moments(spec.p)
    return np.asarray(distances), prev


def perfbench_shaped(M=256, T=1.0):
    """The benchmark's picard config: 8 modes, tanh drifts on 4, 64 steps a unit of T."""
    spec = OperatorSpec(n_modes=8, a=2.0, b=1.0, g=1.0, c_lambda=1.0, c_beta=1.0,
                        c_gamma=1.0, alpha=1.5, theta=4 / 3, p=1.0)
    return SimConfig(spec=spec, coeffs=bounded_smooth(spec, a=1.0, b_mu=0.5, c=0.5,
                                                      n_active=4),
                     T=T, h=1 / 64, M=M, seed=1729, xi=[0.5, -0.3, 0.2])


def replayed(config, report):
    """The clouds of a Picard report's last iteration, stepped again from its law."""
    return simulate_mkv(config, law_override=report.laws[-1]).clouds


def counting(monkeypatch, owner, name):
    """Calls of owner.name from here on, by their arguments."""
    calls, real = [], getattr(owner, name)

    def counted(*args, **kwargs):
        calls.append((args, kwargs))
        return real(*args, **kwargs)

    monkeypatch.setattr(owner, name, counted)
    return calls


class TestPicardLockstep:
    """One sweep over time steps every iteration with the stage-by-stage bits."""

    J = 16

    def config(self, M, p=1.0, seed=13):
        spec = OperatorSpec(n_modes=4, a=2.0, b=1.0, g=1.0, alpha=1.5, theta=1.0, p=p)
        return SimConfig(spec=spec, coeffs=bounded_smooth(spec), T=self.J / 32, h=1 / 32,
                         M=M, seed=seed, xi=[0.3, -0.2, 0.1, 0.0])

    @pytest.mark.parametrize("n_iters", [2, 8, J + 3])
    @pytest.mark.parametrize("p", [1.0, 1.25])
    @pytest.mark.parametrize("M", [8, 67, EXACT_ASSIGNMENT_LIMIT])
    def test_bits_of_the_stage_by_stage_loop(self, M, p, n_iters):
        cfg = self.config(M, p)
        rep = picard_law_iteration(cfg, n_iters=n_iters)
        distances, last = stage_by_stage(cfg, n_iters)
        assert rep.distances.tobytes() == distances.tobytes()
        assert replayed(cfg, rep).tobytes() == last.clouds.tobytes()

    @staticmethod
    def assert_two_sweeps(monkeypatch, cfg, n_iters):
        """Picard settles its distances in a second sweep over time, stepping
        every iteration once more and none through simulate_mkv, with the
        stage-by-stage bits."""
        distances, last = stage_by_stage(cfg, n_iters)
        banks = counting(monkeypatch, StableNoiseBank, "__init__")
        mkv = counting(monkeypatch, solver, "simulate_mkv")
        rep = picard_law_iteration(cfg, n_iters=n_iters)
        assert len(banks) == 2 and mkv == []
        assert rep.distances.tobytes() == distances.tobytes()
        assert replayed(cfg, rep).tobytes() == last.clouds.tobytes()

    def test_sliced_pairs_replay_each_stage_once(self, monkeypatch):
        # sliced W_p reads far under its index-coupling bound, so every pair
        # has times past its kept one left to solve
        self.assert_two_sweeps(monkeypatch, self.config(EXACT_ASSIGNMENT_LIMIT + 1, seed=6), 5)

    @pytest.mark.parametrize("p", [1.0, 1.25])
    def test_exact_pairs_replay_with_the_bits(self, monkeypatch, p):
        # a wide margin makes every pruned loop visit a second time
        monkeypatch.setattr(measures, "PRUNE_MARGIN", 1.0)
        self.assert_two_sweeps(monkeypatch, self.config(16, p), 4)

    def test_exact_path_steps_once_and_solves_as_before(self, monkeypatch):
        cfg = perfbench_shaped()
        solves = counting(monkeypatch, measures, "wasserstein_exact")
        distances, _ = stage_by_stage(cfg, 8)
        before = len(solves)
        solves.clear()
        mkv = counting(monkeypatch, solver, "simulate_mkv")
        rep = picard_law_iteration(cfg, n_iters=8)
        assert rep.distances.tobytes() == distances.tobytes()
        assert mkv == []
        assert len(solves) == before == np.count_nonzero(rep.distances)

    # exact W_p, and sliced W_p (every pair settled in a second sweep) on a
    # shorter pair of horizons
    @pytest.mark.parametrize("M, horizons", [(EXACT_ASSIGNMENT_LIMIT, (1.0, 10.0)),
                                             (EXACT_ASSIGNMENT_LIMIT + 1, (1.0, 4.0))],
                             ids=["256", "257"])
    def test_memory_does_not_grow_with_the_horizon(self, M, horizons):
        # the sweeps hold one noise block and no flow, so the longer horizon
        # adds less than a tenth of one of its (n_steps, M, n_modes) arrays
        picard_law_iteration(perfbench_shaped(M), n_iters=8)  # one-time loads
        peaks = []
        for T in horizons:
            cfg = perfbench_shaped(M, T=T)
            tracemalloc.start()
            try:
                picard_law_iteration(cfg, n_iters=8)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        flow_bytes = cfg.n_steps * cfg.M * cfg.spec.n_modes * 8
        assert abs(peaks[1] - peaks[0]) < 0.1 * flow_bytes, peaks

    def test_nonfinite_iterate_names_iteration_and_step(self, spec4):
        # xi = 0: iteration 1 reads |xi| = 0 and stays finite; iteration 2
        # reads a positive statistic from time 1 on and its drift is inf
        co = CoefficientSet(
            variant="custom", B=lambda x, s: np.where(s > 0.0, np.inf, 0.0) * np.ones(4),
            F=lambda x, s, y: np.zeros(4), G=lambda x, s, y: np.zeros(4), lip_C=1.0,
            lip_G_y=0.5, p=1.0, bound_const=0.0, fbar_factory=None,
        )
        cfg = SimConfig(spec=spec4, coeffs=co, T=0.5, h=0.125, M=3, seed=1, xi=0.0)
        with pytest.raises(FloatingPointError,
                           match=r"Picard iteration 2 of 3 at step 2 of 4$"):
            picard_law_iteration(cfg, n_iters=3)

    def test_nonfinite_bound_names_iteration(self, spec4):
        # the fields stay finite, but |x_i - y_i|^2 overflows from time 1 on
        cfg = SimConfig(spec=spec4, coeffs=bounded_smooth(spec4, a=1e300), T=0.5, h=0.125,
                        M=4, seed=1, xi=0.1)
        with np.errstate(over="ignore", invalid="ignore"), pytest.raises(
                ValueError, match=r"bound at time index 1 \(t = 0.125\): inf "
                                  r"in Picard iteration 1 of 2$"):
            picard_law_iteration(cfg, n_iters=2, lambda_weight=1.0)


class TestMomentBoundCheck:
    def test_pure_decay_sup_at_origin(self):
        spec = quiet_spec()
        xi = [1.5, 0.0, 0.0, 0.0]
        cfg = SimConfig(spec=spec, coeffs=zero_coeffs(4), T=1.0, h=0.25, M=4,
                        seed=0, xi=xi)
        rep = moment_bound_check(simulate_mkv(cfg), spec, m=1.0)
        assert rep.sup_moment == pytest.approx(1.5, abs=1e-12)
        assert rep.stable

    def test_order_boundaries_rejected(self, spec4, coeffs4):
        cfg = SimConfig(spec=spec4, coeffs=coeffs4, T=0.5, h=0.25, M=8,
                        seed=1, xi=0.1)
        flow = simulate_mkv(cfg)
        with pytest.raises(ValueError):
            moment_bound_check(flow, spec4, m=spec4.alpha)  # m = alpha boundary
        with pytest.raises(ValueError):
            moment_bound_check(flow, spec4, m=0.5)  # below p

    def test_sup_stable_under_particle_doubling(self, spec8, coeffs8):
        sups = []
        for m_particles in (1500, 3000):
            cfg = SimConfig(spec=spec8, coeffs=coeffs8, T=1.0, h=1 / 16,
                            M=m_particles, seed=6, xi=0.4)
            sups.append(moment_bound_check(simulate_mkv(cfg), spec8, m=1.0).sup_moment)
        assert abs(sups[1] - sups[0]) / sups[0] < 0.10
