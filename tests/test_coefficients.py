import dataclasses
import pickle
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from mvspde import coefficients, noise
from mvspde.coefficients import (
    BuiltinFamily,
    CoefficientSet,
    StackedInterp,
    assumption_report,
    bounded_smooth,
    build_family,
    effective_constants,
    linear_test,
    probe_lipschitz,
)
from mvspde.noise import CH_PROBE, RngStream, stable_quadrature_rule, weighted_row_sums
from mvspde.spectral import OperatorSpec

field4 = st.lists(st.floats(-3, 3, allow_nan=False, width=32), min_size=4, max_size=4)


class TestBoundedSmoothFamily:
    def test_declared_constants(self, spec4, coeffs4):
        assert coeffs4.variant == "bounded_smooth"
        assert coeffs4.lip_C == 1.0
        assert coeffs4.lip_G_y == 0.5
        assert coeffs4.p == spec4.p
        assert coeffs4.F_bounded

    @given(x=field4, y=field4, mu=st.floats(0, 5))
    def test_slow_drift_envelope(self, coeffs4, x, y, mu):
        # |F| <= a*sqrt(K) + b_mu uniformly, the B3 boundedness constant
        val = np.linalg.norm(coeffs4.F(np.array(x), mu, np.array(y)))
        assert val <= coeffs4.bound_const + 1e-12
        assert coeffs4.bound_const == pytest.approx(np.sqrt(4.0) + 0.5)

    def test_b_matches_f_at_zero_fast(self, coeffs4):
        x = np.array([0.3, -0.2, 1.0, 0.0])
        assert np.array_equal(coeffs4.B(x, 0.7),
                              coeffs4.F(x, 0.7, np.zeros(4)))

    def test_probe_lipschitz_passes(self, spec4, coeffs4):
        report = probe_lipschitz(coeffs4, spec4, n_probes=150)
        assert report.passed
        assert all(v <= 1.0 + 1e-9 for v in report.worst_ratio.values())

    def test_active_mode_truncation(self, spec8):
        co = bounded_smooth(spec8, n_active=2)
        x = np.linspace(0.5, 1.2, 8)
        out = co.F(x, 0.0, np.zeros(8))
        assert np.all(out[2:] == 0.0)
        assert np.any(out[:2] != 0.0)

    @given(x=st.lists(st.sampled_from([0.0, -0.0, 0.5, -2.0, 1e-310, -1e-310]),
                      min_size=8, max_size=8),
           y=st.lists(st.sampled_from([0.0, -0.0, 0.25, -0.5, -1e-310]),
                      min_size=8, max_size=8),
           mu=st.sampled_from([0.0, 0.3, 2.0]))
    def test_head_only_fast_field(self, spec8, x, y, mu):
        # F and G on the K leading fast modes give the full-width bits, signs
        # of zero included; F keeps a*tanh(x + y)*active + b_mu*min(1, mu)*e1
        co = bounded_smooth(spec8, n_active=3)
        x, y = np.array(x), np.array(y)
        active = (np.arange(8) < 3).astype(float)
        f = co.F(x, mu, y)
        assert co.y_modes == 3
        assert f.tobytes() == co.F(x, mu, y[:3]).tobytes()
        assert f.tobytes() == (np.tanh(x + y) * active + 0.5 * min(1.0, mu) * np.eye(8)[0]).tobytes()
        assert co.G(x, mu, y[:3]).tobytes() == co.G(x, mu, y)[:3].tobytes()
        assert co.G(x, mu, y).tobytes() == (np.tanh(x) * active + 0.5 * y).tobytes()
        assert linear_test(spec8).y_modes is None

    def test_batched_maps_keep_one_expression_bits(self, spec8):
        # a batch of systems on Cauchy fields with signed zeros and infinities,
        # against the one-expression forms of F, G and B
        co = bounded_smooth(spec8, a=0.7, b_mu=0.5, c=0.5, n_active=4)
        gen = np.random.default_rng(6)
        x, y = gen.standard_cauchy((3, 9, 8)), gen.standard_cauchy((3, 9, 8))
        x[0, :3, :3] = [[0.0, -0.0, np.inf], [-np.inf, -0.0, 0.0], [-0.0, -0.0, -0.0]]
        y[0, :3, :3] = [[-0.0, -0.0, 1.0], [2.0, 0.0, -0.0], [-0.0, 0.0, -0.0]]
        mu = np.array([0.0, 0.4, 3.0])[:, None, None]
        active, e1 = (np.arange(8) < 4).astype(float), np.eye(8)[0]
        law = (0.5 * np.minimum(1.0, mu)) * e1
        assert co.F(x, mu, y[..., :4]).tobytes() == (
            0.7 * np.tanh(x + y) * active + law).tobytes()
        assert co.B(x, mu).tobytes() == (0.7 * np.tanh(x + 0.0) * active + law).tobytes()
        assert co.G(x, mu, y[..., :4]).tobytes() == (
            0.7 * np.tanh(x[..., :4]) + 0.5 * y[..., :4]).tobytes()
        assert co.G(x, mu, y).tobytes() == (0.7 * np.tanh(x) * active + 0.5 * y).tobytes()

    def test_law_dependence_saturates(self, coeffs4):
        x = np.zeros(4)
        small = coeffs4.F(x, 0.25, x)
        big = coeffs4.F(x, 40.0, x)
        assert small[0] == pytest.approx(0.5 * 0.25)
        assert big[0] == pytest.approx(0.5 * 1.0)  # min(1, mu) clamps


class TestLinearFamily:
    def test_scale_equivariance(self, spec2, linear2):
        # linear maps commute with scaling; Lipschitz ratios are scale-free
        x = np.array([1.0, -2.0])
        y = np.array([0.5, 0.25])
        for s in (0.1, 10.0):
            assert np.allclose(linear2.G(s * x, 0.0, s * y),
                               s * linear2.G(x, 0.0, y))

    def test_unbounded_flagged(self, linear2):
        assert not linear2.F_bounded
        assert linear2.bound_const == np.inf

    def test_analytic_fbar(self, spec2, linear2):
        # frozen fixed point: y* = a x / (lambda - c)
        fbar = linear2.fbar_factory(spec2)
        x = np.array([2.0, 0.0])
        expect = 1.0 * x / (spec2.eigenvalues - 0.5)
        assert np.allclose(fbar(x, 0.0), expect)
        assert fbar(x, 0.0)[0] == pytest.approx(4.0)

    def test_fbar_needs_positive_relaxation(self, spec2):
        co = linear_test(spec2, a=1.0, c=1.5)  # lambda_1 - c = -0.5
        with pytest.raises(ValueError):
            co.fbar_factory(spec2)

    def test_probe_lipschitz_passes(self, spec2, linear2):
        assert probe_lipschitz(linear2, spec2, n_probes=150).passed


class TestZeroCoefficients:
    def test_all_ratios_zero(self, spec4):
        zero = lambda *args: np.zeros(4)
        co = CoefficientSet(
            variant="custom", B=lambda x, s: np.zeros(4), F=zero, G=zero,
            lip_C=1.0, lip_G_y=0.5, p=1.0, bound_const=0.0,
            fbar_factory=None,
        )
        report = probe_lipschitz(co, spec4, n_probes=50)
        assert report.passed
        assert all(v == 0.0 for v in report.worst_ratio.values())


class TestQuadratureFbar:
    def test_zero_input_maps_to_zero(self, spec4, coeffs4):
        fbar = coeffs4.fbar_factory(spec4)
        assert np.allclose(fbar(np.zeros(4), 0.0), 0.0, atol=1e-12)

    def test_odd_in_x_at_zero_law(self, spec4, coeffs4):
        fbar = coeffs4.fbar_factory(spec4)
        x = np.array([0.8, -0.4, 0.2, 0.1])
        assert np.allclose(fbar(-x, 0.0), -fbar(x, 0.0), atol=1e-10)

    def test_lipschitz_under_effective_bound(self, spec4, coeffs4):
        fbar = coeffs4.fbar_factory(spec4)
        eff = effective_constants(coeffs4, spec4)
        rng = RngStream(0, channel=CH_PROBE).generator()
        worst = 0.0
        for _ in range(200):
            x1, x2 = rng.normal(size=(2, 4)) * 2.0
            m1, m2 = rng.uniform(0, 3, size=2)
            num = np.linalg.norm(fbar(x1, m1) - fbar(x2, m2))
            den = eff.fbar_lip * (np.linalg.norm(x1 - x2) + abs(m1 - m2))
            worst = max(worst, num / den)
        assert worst <= 1.0 + 1e-9

    def test_tables_cached(self, spec4):
        f1 = bounded_smooth(spec4).fbar_factory(spec4)
        f2 = bounded_smooth(spec4).fbar_factory(spec4)
        assert f1 is f2

    def test_blocked_tables_match_full_matrix_gemv(self, spec8):
        # the Phi tables of the 8-mode averaged drift, K = 4, c = 0.5; the two
        # summation orders differ by up to 5 ulp of 1 (1.1e-15, fourth table)
        nodes, weights = stable_quadrature_rule(spec8.alpha)
        u = np.arange(-40.0, 40.0 + 1e-12, 0.02)
        kappa = spec8.eigenvalues[:4] - 0.5
        zeta = spec8.fast_amplitudes[:4] / (spec8.alpha * kappa) ** (1.0 / spec8.alpha)
        for z in zeta:
            table = weighted_row_sums(np.add, np.tanh, u, z * nodes, weights)
            for i in range(0, u.size, 1000):  # the reference matrix in slices
                gemv = np.tanh(u[i:i + 1000, None] + z * nodes[None, :]) @ weights
                assert np.max(np.abs(table[i:i + 1000] - gemv)) <= 8 * np.finfo(float).eps

    def test_table_build_memory_bounded(self, spec8, monkeypatch, tmp_path):
        monkeypatch.setattr(coefficients, "_FBAR_TABLE_CACHE", {})
        monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path))  # an empty cache: a build
        tracemalloc.start()
        try:
            bounded_smooth(spec8).fbar_factory(spec8)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 16 * 2**20


class TestTableCache:
    """The averaged-drift tables' disk cache: a hit has the bits of a build."""

    X = np.random.default_rng(5).standard_normal((6, 8)) * 3.0
    MU = np.linspace(0.0, 2.0, 6)[:, None]

    @pytest.fixture()
    def cache(self, monkeypatch, tmp_path):
        """An empty cache directory, and a spy counting the rows each
        weighted_row_sums call builds, per calling module."""
        monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "xdg"))
        rows = {"coefficients": [], "noise": []}
        for module, name in ((coefficients, "coefficients"), (noise, "noise")):
            def spy(combine, kernel, x, t, weights, _seen=rows[name]):
                _seen.append(np.size(x))
                return weighted_row_sums(combine, kernel, x, t, weights)
            monkeypatch.setattr(module, "weighted_row_sums", spy)
        return tmp_path / "xdg" / "mvspde", rows

    def _fbar(self, spec8, monkeypatch, rows):
        """A fresh process's Fbar of the 8-mode default family (K = 4, four
        distinct zeta), with the rows its tables cost."""
        for seen in rows.values():
            seen.clear()
        monkeypatch.setattr(coefficients, "_FBAR_TABLE_CACHE", {})
        fbar = bounded_smooth(spec8).fbar_factory(spec8)
        return fbar(self.X, self.MU).tobytes(), {k: sum(v) for k, v in rows.items()}

    def test_warm_build_makes_only_the_spot_rows(self, spec8, monkeypatch, cache):
        root, rows = cache
        cold, cold_rows = self._fbar(spec8, monkeypatch, rows)
        assert cold_rows == {"coefficients": 4 * 4001, "noise": 1200}
        (entry,) = root.iterdir()
        assert entry.suffix == ".npz"
        warm, warm_rows = self._fbar(spec8, monkeypatch, rows)
        assert warm == cold
        assert warm_rows == {"coefficients": 4 * coefficients.SPOT_ROWS,
                             "noise": coefficients.SPOT_WEIGHTS}
        assert list(root.iterdir()) == [entry]

    def _rewrite(self, entry, tables=None, digest=None):
        with np.load(entry) as f:
            arrays = {k: f[k] for k in f.files}
        if tables is not None:
            arrays["tables"] = tables
            arrays["digest"] = coefficients._arrays_digest(
                arrays["nodes"], arrays["weights"], tables)
        if digest is not None:
            arrays["digest"] = digest
        with open(entry, "wb") as f:
            np.savez(f, **arrays)

    @pytest.mark.parametrize("tamper", ["changed-row", "truncated", "wrong-digest"])
    def test_tampered_entry_is_rebuilt(self, spec8, monkeypatch, cache, tamper):
        root, rows = cache
        cold, cold_rows = self._fbar(spec8, monkeypatch, rows)
        (entry,) = root.iterdir()
        if tamper == "changed-row":
            # one spot-checked row moved by an ulp, under a digest that matches it
            with np.load(entry) as f:
                tables = f["tables"].copy()
            row = np.linspace(0, tables.shape[1] - 1, coefficients.SPOT_ROWS).round().astype(int)[3]
            tables[2, row] = np.nextafter(tables[2, row], 2.0)
            self._rewrite(entry, tables=tables)
        elif tamper == "truncated":
            entry.write_bytes(entry.read_bytes()[:-1000])
        else:
            self._rewrite(entry, digest="0" * 64)
        rebuilt, rebuilt_rows = self._fbar(spec8, monkeypatch, rows)
        # a full build, after the spot rows that caught a changed row
        spot = {"coefficients": 3 * coefficients.SPOT_ROWS, "noise": coefficients.SPOT_WEIGHTS}
        assert rebuilt == cold
        assert rebuilt_rows == {k: cold_rows[k] + (spot[k] if tamper == "changed-row" else 0)
                                for k in cold_rows}
        # the rebuild replaced the entry, and the next run reads it
        warm, warm_rows = self._fbar(spec8, monkeypatch, rows)
        assert warm == cold and warm_rows["coefficients"] == 4 * coefficients.SPOT_ROWS
        assert list(root.iterdir()) == [entry]

    def test_unusable_directory_builds_and_leaves_nothing(self, spec8, monkeypatch, tmp_path):
        monkeypatch.setattr(coefficients, "_FBAR_TABLE_CACHE", {})
        reference = bounded_smooth(spec8).fbar_factory(spec8)(self.X, self.MU).tobytes()
        # XDG_CACHE_HOME names a file: the cache directory cannot be made
        blocker = tmp_path / "file"
        blocker.write_text("x")
        monkeypatch.setenv("XDG_CACHE_HOME", str(blocker))
        monkeypatch.setattr(coefficients, "_FBAR_TABLE_CACHE", {})
        assert bounded_smooth(spec8).fbar_factory(spec8)(self.X, self.MU).tobytes() == reference
        # a directory whose entries cannot be put in place
        monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "xdg"))

        def refuse(src, dst):
            raise PermissionError(f"cannot replace {dst}")

        monkeypatch.setattr(coefficients.os, "replace", refuse)
        monkeypatch.setattr(coefficients, "_FBAR_TABLE_CACHE", {})
        assert bounded_smooth(spec8).fbar_factory(spec8)(self.X, self.MU).tobytes() == reference
        assert blocker.read_text() == "x"
        assert [p.name for p in (tmp_path / "xdg" / "mvspde").iterdir()] == []
        assert sorted(p.name for p in tmp_path.iterdir()) == ["file", "xdg"]

    def test_key_names_kernels_and_sources(self, monkeypatch, tmp_path):
        key = coefficients._table_key(1.5, [0.25, 0.5])
        assert key is not None and len(key) == 64
        assert coefficients._table_key(1.5, [0.25, 0.5]) == key
        assert coefficients._table_key(1.5, [0.25, 0.75]) != key
        assert coefficients._table_key(1.25, [0.25, 0.5]) != key
        kernels = coefficients.numpy_kernels(coefficients.TABLE_UFUNCS)
        other = dict(kernels, cos="X86_V3")
        monkeypatch.setattr(coefficients, "numpy_kernels", lambda names: other)
        assert coefficients._table_key(1.5, [0.25, 0.5]) != key
        monkeypatch.undo()
        for i, source in enumerate(coefficients.TABLE_SOURCES):
            edited = tmp_path / source.name
            edited.write_bytes(source.read_bytes() + b"\n")
            sources = list(coefficients.TABLE_SOURCES)
            sources[i] = edited
            monkeypatch.setattr(coefficients, "TABLE_SOURCES", tuple(sources))
            assert coefficients._table_key(1.5, [0.25, 0.5]) != key
            monkeypatch.undo()
        assert coefficients._table_key(1.5, [0.25, 0.5]) == key

    def test_source_edit_replaces_the_entry(self, spec8, monkeypatch, cache, tmp_path):
        # an entry is named by its inputs alone: a build under an edited
        # source rewrites it in place, and one file is left
        root, rows = cache
        cold, cold_rows = self._fbar(spec8, monkeypatch, rows)
        (entry,) = root.iterdir()
        with np.load(entry) as f:
            fresh = {k: f[k].tobytes() for k in ("nodes", "weights", "tables")}
            cold_key = str(f["key"])
        source = coefficients.TABLE_SOURCES[1]
        edited = tmp_path / source.name
        edited.write_bytes(source.read_bytes() + b"\n")
        monkeypatch.setattr(coefficients, "TABLE_SOURCES",
                            (coefficients.TABLE_SOURCES[0], edited))
        rebuilt, rebuilt_rows = self._fbar(spec8, monkeypatch, rows)
        assert rebuilt == cold and rebuilt_rows == cold_rows  # a full build
        assert list(root.iterdir()) == [entry]
        with np.load(entry) as f:
            assert {k: f[k].tobytes() for k in fresh} == fresh
            assert str(f["key"]) != cold_key
        warm, warm_rows = self._fbar(spec8, monkeypatch, rows)
        assert warm == cold and warm_rows["coefficients"] == 4 * coefficients.SPOT_ROWS
        assert list(root.iterdir()) == [entry]

    def test_numpy_without_kernel_names_builds_every_time(self, spec8, monkeypatch, cache):
        root, rows = cache
        monkeypatch.setattr(coefficients, "numpy_kernels", lambda names: None)
        first, first_rows = self._fbar(spec8, monkeypatch, rows)
        again, again_rows = self._fbar(spec8, monkeypatch, rows)
        assert first == again and first_rows == again_rows
        assert not root.exists()


# the averaged drift's interpolation grid and two tables on it, the second
# flat at -0.0 on the negative half
INTERP_GRID = np.arange(-40.0, 40.0 + 1e-12, 0.02)
INTERP_TABLES = np.stack([
    np.tanh(INTERP_GRID),
    np.where(INTERP_GRID < 0.0, -0.0, np.tanh(0.5 * INTERP_GRID) ** 3),
])
SPECIAL_U = [-1e300, -np.inf, -40.5, INTERP_GRID[0], INTERP_GRID[-1], 40.5, np.inf,
             1e300, np.nan, 0.0, -0.0]
# node values, values just off nodes, and points inside cells
u_values = st.one_of(
    st.sampled_from(SPECIAL_U),
    st.integers(0, INTERP_GRID.size - 1).map(lambda i: float(INTERP_GRID[i])),
    st.tuples(st.integers(0, INTERP_GRID.size - 1), st.sampled_from([-1, 1])).map(
        lambda t: float(np.nextafter(INTERP_GRID[t[0]], t[1] * np.inf))),
    st.floats(-41.0, 41.0),
    st.floats(allow_nan=True, allow_infinity=True),
)
# the intercept form slope * u + icept rounds apart from np.interp's
# slope * (u - x_j) + f_j by at most this much on tables bounded by 1
INTERP_TOL = 2.2e-16


def assert_interp_close(got, u, table):
    ref = np.interp(u, INTERP_GRID, table)
    assert np.array_equal(np.isnan(got), np.isnan(ref))
    finite = ~np.isnan(ref)
    assert np.all(np.abs(got[finite] - ref[finite]) <= INTERP_TOL)
    outside = finite & ((u < INTERP_GRID[0]) | (u > INTERP_GRID[-1]))
    assert np.array_equal(got[outside], ref[outside])


class TestStackedInterp:
    @settings(max_examples=60)
    @given(st.lists(st.tuples(u_values, u_values), min_size=1, max_size=24))
    def test_within_rounding_of_np_interp(self, rows):
        u = np.array(rows)
        got = StackedInterp(INTERP_GRID, INTERP_TABLES)(u)
        for k in range(2):
            assert_interp_close(got[:, k], u[:, k], INTERP_TABLES[k])

    def test_every_node_and_midpoint(self):
        u = np.concatenate([INTERP_GRID, 0.5 * (INTERP_GRID[1:] + INTERP_GRID[:-1])])
        u = np.stack([u, u[::-1]], axis=-1)
        got = StackedInterp(INTERP_GRID, INTERP_TABLES)(u)
        for k in range(2):
            assert_interp_close(got[:, k], u[:, k], INTERP_TABLES[k])

    def test_special_values(self):
        u = np.array(SPECIAL_U)
        got = StackedInterp(INTERP_GRID, INTERP_TABLES[:1])(u[:, None])[:, 0]
        assert_interp_close(got, u, INTERP_TABLES[0])
        assert got[0] == got[1] == got[2] == INTERP_TABLES[0, 0]
        assert got[4] == got[5] == got[6] == got[7] == INTERP_TABLES[0, -1]
        assert np.isnan(got[8])

    def test_large_sample_within_rounding(self):
        # uniform on the grid and past it, and Cauchy, in both tables
        gen = np.random.default_rng(8)
        u = np.concatenate([gen.uniform(-45.0, 45.0, (50_000, 2)),
                            5.0 * gen.standard_cauchy((50_000, 2))])
        got = StackedInterp(INTERP_GRID, INTERP_TABLES)(u)
        for k in range(2):
            assert_interp_close(got[:, k], u[:, k], INTERP_TABLES[k])

    def test_batched_fbar_rows_equal_single_system_calls(self, spec8, coeffs8):
        # a batch of systems, each with its own law statistic, against one
        # call per system with a float statistic
        fbar = coeffs8.fbar_factory(spec8)
        gen = np.random.default_rng(4)
        x = gen.standard_normal((3, 7, 8)) * np.array([1.0, 9.0, 40.0, 80.0, 1, 1, 1, 1])
        mu = np.array([0.3, 1.0, 2.5])
        batched = fbar(x, mu[:, None, None])
        slow = coeffs8.F(x, mu[:, None, None], x)
        for r in range(3):
            assert np.array_equal(batched[r], fbar(x[r].copy(), float(mu[r])))
            assert np.array_equal(slow[r], coeffs8.F(x[r], float(mu[r]), x[r]))


class TestEffectiveConstants:
    def test_standard_gap(self, spec4, coeffs4):
        eff = effective_constants(coeffs4, spec4)
        assert eff.gap == pytest.approx(0.5)
        assert eff.strongly_dissipative
        assert eff.fbar_lip == pytest.approx(1.0 * (1.0 + 1.0 / 0.5))
        assert eff.contraction_lambda == pytest.approx(4.0)

    def test_stiff_gap(self):
        spec = OperatorSpec(n_modes=2, a=2.0, b=1.0, g=1.0, c_lambda=4.0,
                            alpha=1.5, theta=1.0, p=1.0)
        eff = effective_constants(bounded_smooth(spec), spec)
        assert eff.gap == pytest.approx(3.5)

    def test_fatal_gap(self, spec4):
        co = bounded_smooth(spec4, c=1.2)
        eff = effective_constants(co, spec4)
        assert eff.gap == pytest.approx(-0.2)
        assert not eff.strongly_dissipative
        assert eff.fbar_lip == np.inf


class TestAssumptionReport:
    def test_check_order_and_pass(self, spec4, coeffs4):
        report = assumption_report(spec4, coeffs4)
        assert [c.name for c in report.checks] == [
            "A1", "A3", "B1", "B2-slow", "B2-fast", "B3",
        ]
        assert report.ok

    def test_b3_detail_quotes_gap(self, spec4):
        report = assumption_report(spec4, bounded_smooth(spec4, c=1.0))
        b3 = report.checks[-1]
        assert not b3.passed
        assert "lambda_1 - L_G = 1 - 1 = 0 <= 0" in b3.detail

    def test_unbounded_family_noted(self, spec2, linear2):
        b3 = assumption_report(spec2, linear2).checks[-1]
        assert "F unbounded" in b3.detail


class TestFamilyRegistry:
    def test_unknown_variant_rejected(self, spec4):
        with pytest.raises(ValueError, match="unknown coefficient variant"):
            build_family("mystery", spec4)

    def test_recipe_pickles(self, spec4):
        fam = BuiltinFamily(variant="bounded_smooth", a=0.7, b_mu=0.2, c=0.3)
        clone = pickle.loads(pickle.dumps(fam))
        x = np.array([0.4, -0.1, 0.9, 0.0])
        a = fam.build(spec4).F(x, 0.5, x)
        b = clone.build(spec4).F(x, 0.5, x)
        assert np.array_equal(a, b)

    def test_built_set_pickles_as_its_recipe(self, spec8, monkeypatch):
        fam = BuiltinFamily(variant="bounded_smooth", a=0.7, b_mu=0.2, c=0.3, n_active=4)
        co = fam.build(spec8)
        gen = np.random.default_rng(3)
        x, y = gen.standard_normal((2, 5, 8))
        mu = np.array([0.2, 0.6, 1.4, 0.9, 3.0])[:, None]
        fbar = co.fbar_factory(spec8)
        # the clone rebuilds its averaged-drift tables, as a fresh worker does
        monkeypatch.setattr(coefficients, "_FBAR_TABLE_CACHE", {})
        clone = pickle.loads(pickle.dumps(co))
        assert clone.recipe == (fam, spec8)
        for name in ("F", "G"):
            assert getattr(clone, name)(x, mu, y).tobytes() == getattr(co, name)(x, mu, y).tobytes()
        clone_fbar = clone.fbar_factory(spec8)
        assert clone_fbar is not fbar
        assert clone_fbar(x, mu).tobytes() == fbar(x, mu).tobytes()

    def test_replace_drops_recipe(self, spec4):
        co = BuiltinFamily(variant="bounded_smooth").build(spec4)
        derived = dataclasses.replace(co)
        assert co.recipe is not None and derived.recipe is None
        assert derived == co  # the recipe takes no part in equality
        with pytest.raises(TypeError, match="cannot cross process boundaries"):
            pickle.dumps(derived)

    def test_linear_recipe_ignores_mu_params(self, spec2):
        fam = BuiltinFamily(variant="linear_test", a=2.0, c=0.25)
        co = fam.build(spec2)
        assert co.variant == "linear_test"
        assert co.lip_G_y == 0.25
