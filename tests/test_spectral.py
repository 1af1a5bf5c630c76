import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from mvspde.spectral import (
    ConfigError,
    OperatorSpec,
    apply_semigroup,
    check_moment_order,
    validate_spec,
    whole_steps,
)

finite_coeff = st.floats(-10, 10, allow_nan=False, allow_infinity=False)


def make_spec(n_modes=2, a=2.0, b=1.0, g=1.0, **kw):
    return OperatorSpec(n_modes=n_modes, a=a, b=b, g=g, **kw)


class TestOperatorSpec:
    def test_eigenvalues_power_law(self):
        spec = make_spec(n_modes=3, a=2.0)
        assert np.allclose(spec.eigenvalues, [1.0, 4.0, 9.0])
        assert spec.lambda_1 == 1.0

    def test_eigenvalues_read_only(self):
        spec = make_spec()
        with pytest.raises(ValueError):
            spec.eigenvalues[0] = 7.0

    def test_alpha_boundary_rejected(self):
        with pytest.raises(ValueError, match="alpha out of range"):
            make_spec(alpha=2.0)
        with pytest.raises(ValueError, match="alpha out of range"):
            make_spec(alpha=1.0)

    def test_theta_range_tied_to_alpha(self):
        # upper end 2/alpha is inclusive
        make_spec(alpha=1.5, theta=2.0 / 1.5)
        with pytest.raises(ValueError, match="theta"):
            make_spec(alpha=1.5, theta=2.0 / 1.5 + 1e-9)
        with pytest.raises(ValueError, match="theta"):
            make_spec(theta=0.0)

    def test_p_range(self):
        with pytest.raises(ValueError, match="p"):
            make_spec(alpha=1.5, p=1.5)
        with pytest.raises(ValueError, match="p"):
            make_spec(p=0.5)

    def test_as_field_zero_pads(self):
        # scalars load the first mode; short vectors are right-padded
        spec = make_spec(n_modes=4)
        assert np.array_equal(spec.as_field(0.5), [0.5, 0.0, 0.0, 0.0])
        assert np.array_equal(spec.as_field([1.0, 2.0]), [1.0, 2.0, 0.0, 0.0])
        with pytest.raises(ValueError):
            spec.as_field(np.zeros(5))


class TestValidateSpec:
    def test_a3_exponent_rule(self):
        # alpha*b + a = 1.5 + 2 = 3.5 > 1
        report = validate_spec(make_spec(a=2.0, b=1.0, alpha=1.5))
        assert report.ok
        a3 = {c.name: c for c in report.checks}["A3"]
        assert a3.passed

    def test_b2_slow_at_theta_max(self):
        # alpha*b + a*(1 - alpha*theta/2) = 1.5 + 0 = 1.5 > 1
        spec = make_spec(a=2.0, b=1.0, alpha=1.5, theta=4.0 / 3.0)
        checks = {c.name: c for c in validate_spec(spec).checks}
        assert checks["B2-slow"].passed

    def test_b2_slow_failure_detected(self):
        # alpha*b + a*(1 - alpha*theta/2) = 0.15 + 1*(1 - 0.75) = 0.4 < 1
        spec = make_spec(a=1.0, b=0.1, g=2.0, alpha=1.5, theta=1.0)
        report = validate_spec(spec)
        assert not report.ok
        assert any(c.name == "B2-slow" for c in report.failures())

    def test_a3_failure_detected(self):
        # alpha*b + a = 0.15 + 0.5 = 0.65 < 1
        spec = make_spec(a=0.5, b=0.1, g=2.0, alpha=1.5)
        assert any(c.name == "A3" for c in validate_spec(spec).failures())

    def test_report_lines_name_each_check(self):
        lines = validate_spec(make_spec()).lines()
        names = [ln.split(":")[0] for ln in lines]
        assert names == ["A1", "A3", "B2-slow", "B2-fast"]


class TestSemigroup:
    def test_closed_form_at_half(self):
        spec = make_spec(n_modes=2, a=2.0)  # lambda = (1, 4)
        out = apply_semigroup(np.array([1.0, 1.0]), 0.5, spec)
        assert np.allclose(out, [0.60653066, 0.13533528], atol=5e-9)

    def test_identity_at_zero(self):
        spec = make_spec(n_modes=3)
        u = np.array([1.0, -2.0, 0.5])
        assert np.array_equal(apply_semigroup(u, 0.0, spec), u)

    def test_zero_field_fixed(self):
        spec = make_spec(n_modes=3)
        assert np.array_equal(apply_semigroup(np.zeros(3), 2.0, spec), np.zeros(3))

    def test_negative_time_rejected(self):
        spec = make_spec()
        with pytest.raises(ValueError):
            apply_semigroup(np.zeros(2), -0.1, spec)

    @given(
        u=st.lists(finite_coeff, min_size=3, max_size=3),
        s=st.floats(0, 5),
        t=st.floats(0, 5),
    )
    def test_composition(self, u, s, t):
        spec = make_spec(n_modes=3)
        u = np.array(u)
        once = apply_semigroup(u, s + t, spec)
        twice = apply_semigroup(apply_semigroup(u, s, spec), t, spec)
        assert np.allclose(once, twice, rtol=1e-12, atol=1e-300)

    @given(u=st.lists(finite_coeff, min_size=4, max_size=4), t=st.floats(0, 10))
    def test_contraction(self, u, t):
        spec = make_spec(n_modes=4)
        u = np.array(u)
        lhs = np.linalg.norm(apply_semigroup(u, t, spec))
        rhs = math.exp(-spec.lambda_1 * t) * np.linalg.norm(u)
        assert lhs <= rhs * (1 + 1e-12)


class TestGuards:
    def test_whole_steps_returns_the_count(self):
        assert whole_steps(1.0, 2**-6, "T") == 64
        assert whole_steps(0.3, 0.1, "T") == 3  # 2.9999999999999996 steps

    def test_whole_steps_tolerance_scales_with_the_count(self):
        # 1e-9 relative at 1e6 steps, where an absolute 1e-9 would reject
        assert whole_steps(1e6 * (1 + 5e-10), 1.0, "T") == 10**6
        with pytest.raises(ConfigError, match="step count"):
            whole_steps(1e6 * (1 + 2e-9), 1.0, "T")

    @pytest.mark.parametrize("span, h", [(0.0, 0.5), (-0.5, 0.5), (0.25, 1.0),
                                         (1.2, 0.5), (math.inf, 0.5)])
    def test_whole_steps_rejects_at_pointer(self, span, h):
        with pytest.raises(ConfigError, match="not aligned") as exc:
            whole_steps(span, h, "delta", "/study/grid")
        assert exc.value.pointer == "/study/grid"
        assert str(exc.value).startswith("/study/grid: delta = ")

    def test_moment_order_window(self):
        spec = make_spec(alpha=1.5, p=1.2)
        for m in (1.2, 1.49):
            check_moment_order(m, spec)
        for m in (1.1, 1.5):
            with pytest.raises(ConfigError, match="moment order") as exc:
                check_moment_order(m, spec)
            assert exc.value.pointer == "/study/m"

    def test_pointer_attached_only_where_missing(self):
        bare, placed = ConfigError("too coarse"), ConfigError("gap", "/coefficients/c")
        assert str(bare.at("/sim/h_fast")) == "/sim/h_fast: too coarse"
        assert placed.at("/sim/h_fast") is placed
