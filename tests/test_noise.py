import tracemalloc

import numpy as np
import pytest
import scipy.stats
from hypothesis import given, settings, strategies as st

from mvspde import noise
from mvspde.measures import fit_line
from mvspde.noise import (
    CH_FAST,
    CH_SLOW,
    GROUP_WORDS,
    RngStream,
    StableNoiseBank,
    chf_estimate,
    convolution_scales,
    sample_convolution_increment,
    sample_standard_stable,
    stable_quadrature_rule,
    standard_stable_pdf,
    tail_slope,
    weighted_row_sums,
    _cms,
    _cms_closed_form,
)
from mvspde.spectral import OperatorSpec

ALPHA = 1.5


class TestRngStream:
    def test_pair_first_is_generator(self):
        a = RngStream(7, replica=1, particle=3, channel=2)
        g = a.generator().random(8)
        u, _ = a.pair()
        assert np.array_equal(u.random(8), g)

    @pytest.mark.parametrize("coords", [{"seed": -1}, {"seed": 1.5}, {"replica": -1}])
    def test_coordinates_are_non_negative_integers(self, coords):
        with pytest.raises(ValueError, match=next(iter(coords))):
            RngStream(**{"seed": 0, **coords})

    def test_deterministic_replay(self):
        s1 = RngStream(42, replica=2, particle=9, channel=CH_SLOW)
        s2 = RngStream(42, replica=2, particle=9, channel=CH_SLOW)
        assert np.array_equal(s1.generator().random(16), s2.generator().random(16))

    @given(
        seed=st.integers(0, 2**32 - 1),
        replica=st.integers(0, 100),
        particle=st.integers(0, 100),
        channel=st.integers(0, 5),
    )
    @settings(max_examples=20)
    def test_replay_property(self, seed, replica, particle, channel):
        draws = [
            RngStream(seed, replica=replica, particle=particle, channel=channel)
            .generator().random(4)
            for _ in range(2)
        ]
        assert np.array_equal(draws[0], draws[1])

    def test_distinct_channels_distinct_draws(self):
        base = RngStream(0, replica=0, particle=0, channel=CH_SLOW)
        other = RngStream(0, replica=0, particle=0, channel=CH_FAST)
        assert not np.array_equal(base.generator().random(8),
                                  other.generator().random(8))

    def test_stream_independence_correlation(self):
        n = 100_000
        a = RngStream(3, particle=0).generator().standard_normal(n)
        b = RngStream(3, particle=1).generator().standard_normal(n)
        assert abs(np.corrcoef(a, b)[0, 1]) < 4 / np.sqrt(n)


class TestStandardStable:
    def test_alpha_range_rejected(self):
        rng = RngStream(0)
        for bad in (0.9, 1.0, 2.0, 2.3):
            with pytest.raises(ValueError):
                sample_standard_stable(rng, bad, size=4)

    def test_bare_generator_refused(self):
        # its draws would match no bank: both CMS inputs from one generator
        with pytest.raises(TypeError, match="RngStream"):
            sample_standard_stable(np.random.default_rng(0), ALPHA, size=4)

    def test_chf_matches_exponent(self):
        s = sample_standard_stable(RngStream(1), ALPHA, size=200_000)
        assert abs(chf_estimate(s, 1.0) - np.exp(-1.0)) < 4 / np.sqrt(s.size)

    def test_median_symmetric(self):
        s = sample_standard_stable(RngStream(2), ALPHA, size=200_000)
        assert abs(np.median(s)) < 0.01

    def test_tail_index(self):
        s = sample_standard_stable(RngStream(42), ALPHA, size=200_000)
        assert tail_slope(s) == pytest.approx(-ALPHA, abs=0.15)

    def test_scaling_self_similarity(self):
        # c^{1/alpha} * unit draws should match fresh draws scaled inside
        n = 100_000
        c = 2.7
        a = c ** (1.0 / ALPHA) * sample_standard_stable(RngStream(5), ALPHA, size=n)
        b = c ** (1.0 / ALPHA) * sample_standard_stable(RngStream(6), ALPHA, size=n)
        stat = scipy.stats.ks_2samp(a, b)
        assert stat.pvalue > 1e-3


class TestChfEstimate:
    def test_zero_samples_give_one(self):
        assert chf_estimate(np.zeros(10), 3.0) == 1.0

    def test_h_zero_gives_one(self):
        assert chf_estimate(np.array([1.0, -4.0, 2.5]), 0.0) == 1.0

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            chf_estimate(np.array([]), 1.0)


class TestConvolutionIncrements:
    def test_sigma_closed_form(self, spec2):
        sig = convolution_scales(spec2, 1.0, process="slow")
        assert sig[0] == pytest.approx(0.6449182519666063, abs=1e-12)
        assert sig[0] == pytest.approx(0.6449, abs=1e-4)

    def test_sigma_long_time_limit(self, spec2):
        sig = convolution_scales(spec2, 1e6, process="slow")
        assert sig[0] == pytest.approx((1 / ALPHA) ** (1 / ALPHA), rel=1e-9)
        assert sig[0] == pytest.approx(0.7631428283688879, abs=1e-12)

    def test_sigma_short_time_expansion(self, spec2):
        h = 1e-8
        sig = convolution_scales(spec2, h, process="slow")
        beta = spec2.slow_amplitudes
        assert np.allclose(sig / (beta * h ** (1 / ALPHA)), 1.0, rtol=1e-6)

    def test_fast_scales_are_time_dilated(self, spec2):
        eps = 0.125
        fast = convolution_scales(spec2, 0.25, process="fast", epsilon=eps)
        gam = spec2.fast_amplitudes
        beta = spec2.slow_amplitudes
        slow_dilated = convolution_scales(spec2, 0.25 / eps, process="slow")
        assert np.allclose(fast, slow_dilated * gam / beta, rtol=1e-12)

    def test_nonpositive_step_rejected(self, spec2):
        with pytest.raises(ValueError):
            convolution_scales(spec2, 0.0, process="slow")
        with pytest.raises(ValueError):
            convolution_scales(spec2, 0.5, process="fast", epsilon=0.0)

    def test_increment_distribution_ks(self, spec2):
        n = 20_000
        inc = sample_convolution_increment(spec2, 0.5, RngStream(9), size=n)
        sig = convolution_scales(spec2, 0.5, process="slow")
        ref = sig[0] * sample_standard_stable(RngStream(10), ALPHA, size=n)
        stat = scipy.stats.ks_2samp(inc[:, 0], ref)
        assert stat.pvalue > 1e-3

    def test_moment_envelope_nonexploding(self, spec4):
        # run the pure stochastic convolution for a long horizon, with fresh
        # noise at every step from one bank; its mean modulus must stay under
        # a fixed multiple of (sum beta^a/lambda)^{1/a}
        h, n_steps, m = 0.25, 40, 2000
        decay = np.exp(-spec4.eigenvalues * h)
        sig = convolution_scales(spec4, h, process="slow")
        s = StableNoiseBank(77, spec4.alpha, m, spec4.n_modes, CH_SLOW).draw(n_steps)
        x = np.zeros((m, spec4.n_modes))
        curve = []
        for j in range(n_steps):
            x = decay * x + sig * s[:, j]
            curve.append(np.linalg.norm(x, axis=1).mean())
        curve = np.array(curve)
        scale = float(np.sum(spec4.slow_amplitudes**spec4.alpha
                             / spec4.eigenvalues)) ** (1 / spec4.alpha)
        # envelope constant frozen with headroom: over bank seeds 77-81 the
        # curve's maximum came out at 1.37-1.79x the series scale and its
        # second half averaged 1.24-1.40x
        assert curve.max() < 4.0 * scale
        # stationarity: second-half trend consistent with zero slope
        half = curve[n_steps // 2:]
        fit = fit_line(np.arange(half.size, dtype=float), half)
        assert abs(fit.slope) < 3 * fit.slope_stderr + 1e-3


class TestNoiseBank:
    def test_shape_and_determinism(self, spec4):
        b1 = StableNoiseBank(11, ALPHA, n_particles=3, n_modes=4, channel=CH_SLOW)
        b2 = StableNoiseBank(11, ALPHA, n_particles=3, n_modes=4, channel=CH_SLOW)
        d1, d2 = b1.draw(5), b2.draw(5)
        assert d1.shape == (3, 5, 4)
        assert np.array_equal(d1, d2)

    def test_chunk_size_invariance(self, spec4):
        whole = StableNoiseBank(11, ALPHA, 2, 4, channel=CH_SLOW).draw(6)
        bank = StableNoiseBank(11, ALPHA, 2, 4, channel=CH_SLOW)
        parts = np.concatenate([bank.draw(2), bank.draw(3), bank.draw(1)], axis=1)
        assert np.array_equal(whole, parts)

    def test_matches_stream_draws(self):
        # a bank row is exactly what the particle's own stream would produce
        bank = StableNoiseBank(3, ALPHA, n_particles=2, n_modes=3,
                               channel=CH_FAST, replica=1)
        row = bank.draw(4)[1]
        stream = RngStream(3, replica=1, particle=1, channel=CH_FAST)
        direct = sample_standard_stable(stream, ALPHA, size=(4, 3))
        assert np.array_equal(row, direct)

    @pytest.mark.parametrize("group_words", [1, 40, 100, 1 << 15])
    def test_group_size_never_enters_the_bits(self, monkeypatch, group_words):
        # 7 particles of 4 steps x 2 modes, 16 words each, in groups of 1, 2, 6 and 7
        whole = StableNoiseBank(5, ALPHA, 7, 2, CH_SLOW, replica=3).draw(4)
        monkeypatch.setattr(noise, "GROUP_WORDS", group_words)
        assert np.array_equal(StableNoiseBank(5, ALPHA, 7, 2, CH_SLOW, replica=3).draw(4), whole)
        steps = np.empty((4, 7, 2))  # step-major: the groups are copied out
        StableNoiseBank(5, ALPHA, 7, 2, CH_SLOW, replica=3).draw(4, out=steps.swapaxes(0, 1))
        assert np.array_equal(steps, whole.swapaxes(0, 1))
        for i in range(7):
            stream = RngStream(5, replica=3, particle=i, channel=CH_SLOW)
            assert np.array_equal(sample_standard_stable(stream, ALPHA, size=(4, 2)), whole[i])

    def test_draw_memory_is_output_plus_one_group(self):
        # words and transform scratch for one particle group, never a copy
        # of the whole block: a rate-study slow bank, 1 MB of output, drawn
        # particle-major and into the particle-major view of a step-major block
        bank = StableNoiseBank(1, ALPHA, 125, 8, CH_SLOW)
        for step_major in (False, True):
            tracemalloc.start()
            try:
                out = bank.draw(128, out=np.empty((128, 125, 8)).swapaxes(0, 1)
                                if step_major else None)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < out.nbytes + 2**20, step_major

    def test_particle_ids_relabel_streams(self):
        bank = StableNoiseBank(3, ALPHA, n_particles=2, n_modes=3,
                               channel=CH_SLOW, particle_ids=[5, 0])
        plain = StableNoiseBank(3, ALPHA, n_particles=1, n_modes=3,
                                channel=CH_SLOW, particle_ids=[5])
        assert np.array_equal(bank.draw(3)[0], plain.draw(3)[0])


KEY_SEEDS = [0, 2**32 - 1, 2**32, 2**64 - 1]
KEY_COORDS = [0, 2**31, 2**32, 2**40]


def seed_sequence_philox(seed, replica, particle, slot):
    ss = np.random.SeedSequence(seed, spawn_key=(replica, particle, slot))
    return np.random.Generator(np.random.Philox(ss))


class TestKeySchedule:
    """Philox keys from the vectorised hash are numpy SeedSequence's."""

    @pytest.mark.parametrize("seed", KEY_SEEDS)
    @pytest.mark.parametrize("replica", KEY_COORDS)
    def test_keys_equal_seed_sequence(self, seed, replica):
        slots = list(range(10))       # channels 0-4, both halves
        keys = noise.philox_keys(seed, replica, KEY_COORDS, slots)
        assert keys.shape == (len(KEY_COORDS), len(slots), 2) and keys.dtype == np.uint64
        for i, pid in enumerate(KEY_COORDS):
            for j, slot in enumerate(slots):
                ss = np.random.SeedSequence(seed, spawn_key=(replica, pid, slot))
                assert np.array_equal(keys[i, j], ss.generate_state(2, np.uint64))
                # a lone address, hashed in Python ints
                lone = noise.philox_keys(seed, replica, [pid], [slot])
                assert lone.shape == (1, 1, 2) and np.array_equal(lone[0, 0], keys[i, j])

    @pytest.mark.parametrize("seed", KEY_SEEDS)
    @pytest.mark.parametrize("channel", range(5))
    def test_bank_draws_equal_seed_sequence_streams(self, seed, channel):
        pids = [2**40, 7, 2**32, 0, 2**31]   # non-contiguous, mixed word counts
        bank = StableNoiseBank(seed, ALPHA, len(pids), 3, channel, replica=2**32,
                               particle_ids=pids)
        block = bank.draw(4)
        for i, pid in enumerate(pids):
            gen_u = seed_sequence_philox(seed, 2**32, pid, 2 * channel)
            gen_w = seed_sequence_philox(seed, 2**32, pid, 2 * channel + 1)
            want = _cms(gen_u.random((4, 3)), gen_w.standard_exponential((4, 3)), ALPHA)
            assert np.array_equal(block[i], want)
            u, w = RngStream(seed, replica=2**32, particle=pid, channel=channel).pair()
            assert np.array_equal(u.random(8), seed_sequence_philox(
                seed, 2**32, pid, 2 * channel).random(8))
            assert np.array_equal(w.random(8), seed_sequence_philox(
                seed, 2**32, pid, 2 * channel + 1).random(8))

    def test_bank_opens_no_seed_sequence(self, monkeypatch):
        made = []

        class Spy(np.random.SeedSequence):
            def __init__(self, *args, **kwargs):
                made.append(args)
                super().__init__(*args, **kwargs)

        monkeypatch.setattr(np.random, "SeedSequence", Spy)
        bank = StableNoiseBank(3, ALPHA, 4, 2, CH_SLOW, replica=1)
        assert made == []
        for pair in bank._pairs:
            for gen in pair:
                assert not isinstance(gen.bit_generator.seed_seq, np.random.bit_generator.SeedSequence)

    @pytest.mark.parametrize("bad", [-1, 1.5])
    def test_bad_particle_id_named(self, bad):
        with pytest.raises(ValueError, match="particle"):
            StableNoiseBank(3, ALPHA, 2, 2, CH_SLOW, particle_ids=[0, bad])


def _cms_sincos(d, w, alpha):
    """The Chambers-Mallows-Stuck transform in its sin/cos form at angle v = pi d.

    cos(v) is taken as sin(pi (1/2 - |d|)), the sine of the distance to the
    nearer pole, so the reference keeps its relative accuracy there.
    """
    v = np.pi * d
    return (np.sin(alpha * v) / np.sin(np.pi * (0.5 - np.abs(d))) ** (1.0 / alpha)
            * (np.cos((1.0 - alpha) * v) / w) ** ((1.0 - alpha) / alpha))


class TestChunkedCms:
    """The pass-by-pass transform has the bits of the one-expression closed form."""

    @settings(max_examples=10)
    @given(
        size=st.sampled_from([1, 7, GROUP_WORDS // 2 - 1, GROUP_WORDS // 2, GROUP_WORDS + 1]),
        alpha=st.floats(1.05, 1.95),
        seed=st.integers(0, 2**16),
    )
    def test_matches_closed_form(self, size, alpha, seed):
        gen = np.random.default_rng(seed)
        u = gen.random(size)
        w = gen.standard_exponential(size)
        ref = _cms_closed_form(u, w, alpha)
        assert np.array_equal(_cms(u, w, alpha), ref)
        out = np.empty(size)
        assert _cms(u, w, alpha, out=out) is out
        assert np.array_equal(out, ref)

    def test_keeps_shape_and_scalars(self):
        gen = np.random.default_rng(1)
        u = gen.random((3, 5, 2))
        w = gen.standard_exponential((3, 5, 2))
        assert np.array_equal(_cms(u, w, ALPHA), _cms_closed_form(u, w, ALPHA))
        assert _cms(0.3, 1.2, ALPHA) == _cms_closed_form(0.3, 1.2, ALPHA)

    def test_out_must_fit(self):
        u = np.full((4, 3), 0.1)
        with pytest.raises(ValueError, match="C-contiguous"):
            _cms(u, u, ALPHA, out=np.empty((3, 4)))
        with pytest.raises(ValueError, match="C-contiguous"):
            _cms(u, u, ALPHA, out=np.empty((3, 4)).T)


class TestTangentForm:
    """The tangent-form transform against the sin/cos form it replaces."""

    @pytest.mark.parametrize("alpha", [1.1, 1.5, 1.9])
    def test_matches_sincos_form(self, alpha):
        gen = np.random.default_rng(17)
        # raw uniforms: random ones, and geometric runs into the middle and
        # the two ends of [0, 1)
        gaps = np.geomspace(2.0**-52, 0.25, 400)
        u = np.concatenate([gen.random(1 << 16), gaps, 1.0 - gaps, 0.5 - gaps, 0.5 + gaps])
        w = gen.standard_exponential(u.size)
        d = u - (0.5 - 2.0**-54)   # the transform's angle is pi d
        keep = np.abs(np.pi * d) <= np.pi / 2.0 - 1e-6
        assert keep.sum() > (1 << 16)
        ref = _cms_sincos(d[keep], w[keep], alpha)
        rel = np.abs(_cms(u, w, alpha)[keep] - ref) / np.abs(ref)
        assert rel.max() <= 1e-10

    @pytest.mark.parametrize("alpha", [1.1, 1.5, 1.9])
    def test_end_uniforms_give_finite_variates(self, alpha):
        ends = np.array([0.0, 1.0 - 2.0**-53])
        s = _cms(ends, np.ones(2), alpha)
        assert np.all(np.isfinite(s))
        assert s[0] == -s[1] < 0.0
        for u in ends:
            assert np.isfinite(_cms(u, 1.0, alpha))

    def test_zero_exponential_gives_zero(self):
        s = _cms(np.array([0.2, 0.8]), np.zeros(2), ALPHA)
        assert np.array_equal(s, [0.0, 0.0])


class TestDrawInto:
    @settings(max_examples=10)
    @given(
        n_particles=st.integers(1, 6),
        n_steps=st.integers(1, 40),
        n_modes=st.integers(1, 5),
        seed=st.integers(0, 2**16),
    )
    def test_out_rows_equal_plain_draws(self, n_particles, n_steps, n_modes, seed):
        # two banks fill the rows of one buffer, twice, as a replica batch does
        args = (seed, ALPHA, n_particles, n_modes, CH_FAST)
        plain = [StableNoiseBank(*args, replica=r) for r in range(2)]
        into = [StableNoiseBank(*args, replica=r) for r in range(2)]
        into_steps = [StableNoiseBank(*args, replica=r) for r in range(2)]
        buf = np.empty((2, n_particles, n_steps, n_modes))
        steps = np.empty((n_steps, 2, n_particles, n_modes))  # step-major, as a loop holds them
        for _ in range(2):
            for bank, row in zip(into, buf):
                assert bank.draw(n_steps, out=row) is row
            for r, bank in enumerate(into_steps):
                bank.draw(n_steps, out=steps[:, r].swapaxes(0, 1))
            assert np.array_equal(buf, np.stack([b.draw(n_steps) for b in plain]))
            assert np.array_equal(steps, np.moveaxis(buf, 2, 0))

    def test_out_shape_checked(self):
        # out holds the whole block: every particle, step and mode of the bank
        bank = StableNoiseBank(1, ALPHA, 2, 3, CH_SLOW)
        for shape in [(2, 5, 3), (2, 4, 4), (2, 4, 2), (1, 4, 3)]:
            with pytest.raises(ValueError, match="shape"):
                bank.draw(4, out=np.empty(shape))
        # any layout whose modes are contiguous, in float64
        for out in (np.empty((2, 4, 3), dtype=np.float32), np.empty((2, 4, 6))[..., ::2]):
            with pytest.raises(ValueError, match="contiguous last axis"):
                bank.draw(4, out=out)

    @pytest.mark.parametrize("k", [1, 3, 5])
    def test_k_mode_bank_is_block_size_independent(self, k):
        whole = StableNoiseBank(8, ALPHA, 3, k, CH_FAST, replica=2).draw(17)
        bank = StableNoiseBank(8, ALPHA, 3, k, CH_FAST, replica=2)
        outs = [np.empty((3, n, k)) for n in (7, 4, 6)]
        for out in outs:
            assert bank.draw(out.shape[1], out=out) is out
        assert np.array_equal(np.concatenate(outs, axis=1), whole)


class TestDensityAndQuadrature:
    def test_blocked_row_sums_match_full_matrix_gemv(self, monkeypatch):
        # the two quadrature matrices of the package: the stable density's
        # cosine inversion and the averaged drift's tanh table
        gen = np.random.default_rng(2)
        x = gen.uniform(-40.0, 40.0, 600)
        t, w = np.linspace(0.0, 12.0, 4096), gen.uniform(0.0, 1e-3, 4096)
        s, v = gen.uniform(-60.0, 60.0, 2400), gen.dirichlet(np.ones(2400))
        for combine, kernel, cols, weights in ((np.multiply, np.cos, t, w),
                                               (np.add, np.tanh, s, v)):
            blocked = weighted_row_sums(combine, kernel, x, cols, weights)
            gemv = kernel(combine.outer(x, cols)) @ weights
            assert np.max(np.abs(blocked - gemv)) <= 8 * np.finfo(float).eps
            # the block height never enters the bits
            monkeypatch.setattr(noise, "QUADRATURE_BLOCK_ROWS", 7)
            assert np.array_equal(weighted_row_sums(combine, kernel, x, cols, weights), blocked)
            monkeypatch.undo()

    def test_pdf_matches_full_matrix_gemv(self):
        xs = np.linspace(-60.0, 60.0, 301)
        t = np.linspace(0.0, 46.0 ** (1.0 / ALPHA), 4096)
        wt = np.full(t.size, t[1])
        wt[0] = wt[-1] = t[1] / 2.0
        gemv = np.cos(np.outer(xs, t)) @ (np.exp(-(t**ALPHA)) * wt) / np.pi
        assert np.max(np.abs(standard_stable_pdf(xs, ALPHA) - gemv)) <= 8 * np.finfo(float).eps

    def test_pdf_against_scipy(self):
        xs = np.array([0.0, 0.5, 1.0, 3.0, 10.0, 40.0])
        ours = standard_stable_pdf(xs, ALPHA)
        ref = scipy.stats.levy_stable.pdf(xs, ALPHA, 0.0)
        rel = np.abs(ours - ref) / ref
        assert np.all(rel[:4] < 1e-6)
        assert rel[4] < 2e-5
        assert rel[5] < 5e-4

    def test_quadrature_normalised_and_symmetric(self):
        nodes, weights = stable_quadrature_rule(ALPHA)
        assert weights.sum() == pytest.approx(1.0, abs=1e-12)
        assert abs(np.sum(weights * nodes)) < 1e-12

    def test_quadrature_vs_monte_carlo(self):
        nodes, weights = stable_quadrature_rule(ALPHA)
        quad = float(np.sum(weights * np.tanh(2.0 + nodes)))
        s = sample_standard_stable(RngStream(123), ALPHA, size=400_000)
        mc = np.tanh(2.0 + s)
        assert quad == pytest.approx(mc.mean(), abs=3 * mc.std() / np.sqrt(mc.size))
