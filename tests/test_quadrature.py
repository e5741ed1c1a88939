import math

import numpy as np
import pytest

from hypflats import (
    DomainError,
    QuadResult,
    QuadratureError,
    Tolerance,
    integrate_adaptive,
)
from hypflats._backend import log_kernel_theta
from hypflats.quadrature import (_WG, _WK, _XK, _gk_panel, _gk_panels, _panel_scales,
                                 integrate_iterated_2d)

TOL = Tolerance()


class TestTolerance:
    def test_defaults(self):
        assert TOL.rel_tol == 1e-9
        assert TOL.abs_tol == 1e-12
        assert TOL.max_subdivisions == 2000

    def test_target(self):
        assert TOL.target(2.0) == pytest.approx(2e-9)
        assert TOL.target(0.0) == 1e-12

    def test_validation(self):
        with pytest.raises(DomainError):
            Tolerance(rel_tol=0.0)
        with pytest.raises(DomainError):
            Tolerance(max_subdivisions=0)

    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_non_finite_tolerances_rejected(self, value):
        with pytest.raises(DomainError):
            Tolerance(rel_tol=value)
        with pytest.raises(DomainError):
            Tolerance(abs_tol=value)


class TestIntegrateAdaptive:
    def test_polynomial_exact(self):
        res = integrate_adaptive(lambda x: x**3, 0.0, 2.0, TOL)
        assert res.converged
        assert res.value == pytest.approx(4.0, rel=1e-13)

    def test_sine(self):
        res = integrate_adaptive(np.sin, 0.0, math.pi, TOL)
        assert res.value == pytest.approx(2.0, rel=1e-12)

    def test_oscillatory(self):
        res = integrate_adaptive(lambda x: np.sin(50 * x), 0.0, math.pi, TOL)
        exact = (1 - math.cos(50 * math.pi)) / 50
        assert res.value == pytest.approx(exact, rel=1e-9, abs=1e-12)

    def test_endpoint_singularity(self):
        # (1 - z^2)^(-1/2) at z = 1: plain bisection stops where the doubles
        # next to 1 run out, some 1e-8 of mass short, and raises with that
        # partial sum rather than returning it
        with pytest.raises(QuadratureError) as info:
            integrate_adaptive(lambda z: 1.0 / np.sqrt(1 - z * z), 0.0, 1.0, TOL)
        assert not info.value.partial.converged
        assert info.value.partial.value == pytest.approx(math.pi / 2, rel=0.0, abs=1e-7)

    @pytest.mark.parametrize("power, exact", [(-0.5, 2.0), (-0.9, 10.0)])
    def test_power_singularity_at_zero(self, power, exact):
        # the doubles near 0 reach the mass of x^power to rel_tol
        res = integrate_adaptive(lambda x: power * np.log(x), 0.0, 1.0, TOL, log_form=True)
        assert res.converged
        assert res.value == pytest.approx(exact, rel=2e-9, abs=0.0)

    def test_power_singularity_beyond_the_doubles_raises(self):
        # x^-0.99 holds 100 x^0.01 below x, 0.06 of its 100 below the
        # smallest double: no bisection reaches it
        with pytest.raises(QuadratureError) as info:
            integrate_adaptive(lambda x: -0.99 * np.log(x), 0.0, 1.0, TOL, log_form=True)
        assert info.value.partial.value < 100.0 - 1e-3

    def test_never_evaluates_an_end(self):
        # (1 - x)^-2 is not integrable: bisection toward 1 stops before a
        # node rounds onto 1, and the integral raises with its partial sum
        largest = []

        def f(x):
            largest.append(x.max())
            return (1.0 - x) ** -2

        with pytest.raises(QuadratureError) as info:
            integrate_adaptive(f, 0.0, 1.0, TOL)
        assert info.value.partial is not None and not info.value.partial.converged
        assert max(largest) < 1.0

    def test_log_form_matches_direct(self):
        f = lambda x: np.exp(-(x**2))
        res_d = integrate_adaptive(f, 0.0, 3.0, TOL)
        res_l = integrate_adaptive(lambda x: -(x**2), 0.0, 3.0, TOL, log_form=True)
        assert res_l.value == pytest.approx(res_d.value, rel=1e-10)

    def test_log_form_underflow(self):
        # pointwise values ~ exp(-5000): direct form would be identically 0
        res = integrate_adaptive(
            lambda x: -5000.0 + np.log(np.maximum(x, 1e-300)),
            0.0, 1.0, TOL, log_form=True, log_offset=5000.0,
        )
        assert res.value == pytest.approx(0.5, rel=1e-9)

    def test_log_offset_scales(self):
        res = integrate_adaptive(
            lambda x: np.zeros_like(x), 0.0, 1.0, TOL,
            log_form=True, log_offset=math.log(7.0),
        )
        assert res.value == pytest.approx(7.0, rel=1e-12)

    def test_break_points_kink(self):
        res = integrate_adaptive(np.abs, -1.0, 1.0, TOL, break_points=(0.0,))
        assert res.value == pytest.approx(1.0, rel=1e-13)

    def test_error_estimate_honest(self):
        res = integrate_adaptive(lambda x: np.exp(x) * np.cos(3 * x), 0.0, 2.0, TOL)
        exact = (math.exp(2) * (math.cos(6) + 3 * math.sin(6)) - 1) / 10
        assert abs(res.value - exact) <= max(res.error_estimate, 1e-12)

    def test_budget_exhaustion_carries_partial(self):
        tight = Tolerance(rel_tol=1e-15, abs_tol=1e-300, max_subdivisions=8)
        with pytest.raises(QuadratureError) as exc:
            integrate_adaptive(
                lambda x: np.sqrt(np.abs(np.sin(40 * x))), 0.0, 3.0, tight
            )
        assert exc.value.partial is not None
        assert exc.value.partial.converged is False

    def test_a_panel_one_subnormal_wide_raises(self):
        # its half-width rounds to 0, so every node lies on an end
        with pytest.raises(QuadratureError, match="too narrow for its nodes"):
            integrate_adaptive(lambda x: np.zeros_like(x), 0.0, 5e-324, log_form=True)

    def test_invalid_interval(self):
        with pytest.raises(DomainError):
            integrate_adaptive(np.sin, 1.0, 0.0, TOL)

    def test_nonfinite_integrand_raises(self):
        with pytest.raises(QuadratureError):
            integrate_adaptive(lambda x: np.full(x.shape, np.nan), 0.0, 1.0, TOL)

    def test_overflowing_log_integrand_raises(self):
        # e^800 is not a double: raise rather than return a capped value
        with pytest.raises(QuadratureError):
            integrate_adaptive(lambda x: np.full(x.shape, 800.0), 0.0, 1.0, TOL,
                               log_form=True)
        with pytest.raises(QuadratureError):
            integrate_adaptive(lambda x: np.zeros_like(x), 0.0, 1.0, TOL,
                               log_form=True, log_offset=800.0)


class TestLogForm:
    """A log-form integral keeps its scale in log space and converges on rel_tol alone."""

    @staticmethod
    def peak(x):
        # a Gaussian of width 0.01 at 0.3, mass 0.01 sqrt(pi); no node of a
        # first panel on [0, 2] lies within 2 widths of it
        return -(((x - 0.3) / 0.01) ** 2)

    def test_log_value_where_value_underflows(self):
        res = integrate_adaptive(lambda x: -x, 0.0, 1.0, TOL, log_form=True,
                                 log_offset=-1000.0)
        assert res.value == 0.0 and res.converged
        assert res.log_value == pytest.approx(-1000.0 + math.log(1.0 - math.exp(-1.0)),
                                              rel=1e-15)

    def test_log_value_defaults_to_the_log_of_value(self):
        assert integrate_adaptive(np.exp, 0.0, 1.0, TOL).log_value == pytest.approx(
            math.log(math.e - 1.0), rel=1e-13)
        assert QuadResult(0.0, 0.0, 15, True).log_value == -math.inf
        assert math.isnan(QuadResult(-1.0, 0.0, 15, True).log_value)

    def test_a_large_abs_tol_does_not_stop_it_early(self):
        loose = Tolerance(abs_tol=1.0)
        exact = 0.01 * math.sqrt(math.pi)
        direct = integrate_adaptive(lambda x: np.exp(self.peak(x)), 0.0, 2.0, loose)
        assert direct.evaluations == 15  # the direct form stops at the first panel
        res = integrate_adaptive(self.peak, 0.0, 2.0, loose, log_form=True)
        assert res.value == pytest.approx(exact, rel=1e-9)

    def test_a_result_beyond_the_largest_double_raises(self):
        # every node is e^709, a double; the integral over [0, 1] is one, over [0, 4] not
        assert integrate_adaptive(lambda x: np.full(x.shape, 709.0), 0.0, 1.0, TOL,
                                  log_form=True).value == pytest.approx(math.exp(709.0))
        with pytest.raises(QuadratureError, match="beyond the largest double"):
            integrate_adaptive(lambda x: np.full(x.shape, 709.0), 0.0, 4.0, TOL, log_form=True)


class TestKronrodConstants:
    def test_weights_sum_to_two(self):
        assert math.fsum(_WK) == 2.0
        assert math.fsum(_WG) == 2.0

    @pytest.mark.parametrize("k", range(23))
    def test_monomials_to_degree_22_exact(self, k):
        exact = 2.0 / (k + 1) if k % 2 == 0 else 0.0
        assert abs(float(_WK @ _XK**k) - exact) <= 5e-16

    def test_gauss_nodes_and_weights(self):
        x, w = np.polynomial.legendre.leggauss(7)
        assert np.abs(_XK[1::2] - x).max() <= 1.2e-16
        assert np.abs(_WG[1::2] - w).max() <= 2.3e-16
        assert not _WG[::2].any()


class TestGkPanels:
    A = np.array([0.0, 0.5, 2.0, -3.0])
    B = np.array([0.5, 2.0, 2.25, 4.0])

    @pytest.mark.parametrize("f, log_form", [(np.cos, False), (lambda x: -x * x, True),
                                             (lambda x: np.full(x.shape, 1.5), False)])
    def test_matches_the_scalar_rule(self, f, log_form):
        calls = []

        def counted(x):
            calls.append(x.size)
            return f(x)

        vals, errs, _, log_scale = _gk_panels(counted, self.A, self.B, log_form)
        assert calls == [15 * len(self.A)]
        # the same units: values and errors relative to exp(log_scale)
        for a, b, v, e, s in zip(self.A, self.B, vals, errs, log_scale):
            rv, re, rs = _gk_panel(f, a, b, log_form)
            assert s == pytest.approx(rs, rel=1e-15, abs=1e-15)
            assert v == pytest.approx(rv, rel=1e-14, abs=0.0)
            # below about 1e-14 |v| the estimate is the rounding of the sums
            assert e == pytest.approx(re, rel=1e-6, abs=1e-14 * abs(rv))

    def test_empty_panel_is_zero(self):
        vals, errs, _, log_scale = _gk_panels(lambda x: np.where(x < 1.0, -np.inf, -x),
                                              np.array([0.0, 1.0]), np.array([1.0, 2.0]), True)
        assert (vals[0], errs[0], log_scale[0]) == (0.0, 0.0, -math.inf)
        assert vals[1] * math.exp(log_scale[1]) == pytest.approx(
            math.exp(-1.0) - math.exp(-2.0), rel=1e-12)

    @pytest.mark.parametrize("bad, log_form", [
        (np.nan, True), (np.inf, True), (800.0, True), (np.nan, False), (np.inf, False)])
    def test_a_bad_panel_raises_and_is_named(self, bad, log_form):
        def f(x):
            return np.where(x > 2.0, bad, -700.0)

        a, b = np.array([0.0, 1.0, 2.0]), np.array([1.0, 2.0, 3.0])
        # a non-finite node raises in the rule, a scale beyond the largest
        # double where the scales are applied
        with pytest.raises(QuadratureError, match=r"\[2\.0, 3\.0\]"):
            _panel_scales(_gk_panels(f, a, b, log_form)[3], a, b)

    def test_relative_units_do_not_overflow(self):
        # the adaptive loop's first round keeps every panel relative to its own scale
        res = integrate_adaptive(lambda x: 800.0 - x, 0.0, 2.0, TOL, log_form=True,
                                 log_offset=-800.0, break_points=(0.5, 1.0))
        assert res.value == pytest.approx(1.0 - math.exp(-2.0), rel=1e-13)

    def test_no_panels(self):
        vals, errs, _, _ = _gk_panels(np.cos, np.array([]), np.array([]), False)
        assert vals.shape == errs.shape == (0,)


class TestKnownIntegrals:
    def test_polynomials_degree_10_exact(self):
        rng = np.random.default_rng(9)
        coeffs = rng.uniform(-2, 2, 11)
        exact = sum(c / (k + 1) for k, c in enumerate(coeffs))
        res = integrate_adaptive(
            lambda x: sum(c * x**k for k, c in enumerate(coeffs)), 0.0, 1.0, TOL
        )
        assert res.value == pytest.approx(exact, rel=1e-13)

    def test_cosh_sinh_antiderivative(self):
        u = 1.3
        res = integrate_adaptive(lambda s: np.cosh(s) * np.sinh(s), 0.0, u, TOL)
        assert res.value == pytest.approx(math.sinh(u) ** 2 / 2, rel=1e-12)

    def test_splitting_invariance_on_kernel(self):
        # the radial-angular kernel at (d, q, K) = (5, 3, -1), r = 0.5
        f = lambda t: np.exp(log_kernel_theta(5, 3, -1.0, 0.5, t))
        top, cut = math.asin(0.9), math.asin(0.37)
        whole = integrate_adaptive(f, 0.0, top, TOL)
        left = integrate_adaptive(f, 0.0, cut, TOL)
        right = integrate_adaptive(f, cut, top, TOL)
        combined_err = whole.error_estimate + left.error_estimate + right.error_estimate
        assert abs(whole.value - (left.value + right.value)) <= combined_err + 1e-14

    def test_error_estimate_honesty_on_kernel(self):
        tight = Tolerance(rel_tol=1e-10, abs_tol=1e-13)
        top = math.asin(0.95)
        for r in (0.2, 0.5, 0.8):
            f = lambda t: np.exp(log_kernel_theta(5, 3, -1.0, r, t))
            res = integrate_adaptive(f, 0.0, top, TOL)
            ref = integrate_adaptive(f, 0.0, top, tight)
            assert abs(res.value - ref.value) <= 10 * res.error_estimate + 1e-14


class TestIterated2D:
    def test_rectangle(self):
        # int_0^1 int_0^1 (r + z) dz dr = 1
        res = integrate_iterated_2d(
            lambda r, z: r + z, 0.0, 1.0, lambda r: 1.0, TOL
        )
        assert res.value == pytest.approx(1.0, rel=1e-10)

    def test_triangle(self):
        # int_0^1 int_0^r 1 dz dr = 1/2
        res = integrate_iterated_2d(
            lambda r, z: np.ones_like(z), 0.0, 1.0, lambda r: r, TOL
        )
        assert res.value == pytest.approx(0.5, rel=1e-10)

    def test_log_form(self):
        # int_0^1 int_0^1 e^(-r-z) dz dr = (1 - 1/e)^2
        res = integrate_iterated_2d(
            lambda r, z: -r - z, 0.0, 1.0, lambda r: 1.0, TOL, log_form=True
        )
        assert res.value == pytest.approx((1 - math.exp(-1)) ** 2, rel=1e-10)

    def test_kinked_inner_limit(self):
        # g = 1 with inner limit min(1, 0.5/r): 0.5 + 0.5 log 2
        res = integrate_iterated_2d(
            lambda r, z: np.ones_like(z), 0.0, 1.0,
            lambda r: min(1.0, 0.5 / r) if r > 0 else 1.0, TOL,
            outer_break_points=(0.5,),
        )
        assert res.value == pytest.approx(0.5 + 0.5 * math.log(2), rel=1e-9)

    def test_vanishing_inner_range(self):
        res = integrate_iterated_2d(
            lambda r, z: np.ones_like(z), 0.0, 1.0,
            lambda r: max(0.0, r - 0.5), TOL,
        )
        assert res.value == pytest.approx(0.125, rel=1e-9)


def z_form(d, q, K, r, z):
    """Log of the kernel z^q (1-z^2)^((d-q)/2-1) (1+K r^2 z^2)^(-(d+1)/2)
    times dz/dtheta = sqrt(1-z^2), the Jacobian of z = sin(theta)."""
    return (q * np.log(z) + ((d - q) / 2 - 0.5) * np.log1p(-z * z)
            - (d + 1) / 2 * np.log1p(K * r * r * z * z))


class TestLogKernelOp:
    """log_kernel_theta at z = sin(theta)."""

    def test_matches_direct_formula(self):
        z = np.array([0.1, 0.5, 0.9])
        d, q, r = 5, 3, 0.7
        got = log_kernel_theta(d, q, -1.0, r, np.arcsin(z))
        np.testing.assert_allclose(got, z_form(d, q, -1.0, r, z), rtol=1e-13)

    def test_hand_computed_point(self):
        # (d=3, q=2, K=-1, r=0.5, z=0.5): z^2 (1 - z^2)^(-1/2) (1 - z^2/4)^(-2)
        # times the Jacobian cos(pi/6) = (1 - z^2)^(1/2)
        expect = math.log(0.25) - 2 * math.log(0.9375)
        got = log_kernel_theta(3, 2, -1.0, 0.5, np.array([math.pi / 6]))
        assert got[0] == pytest.approx(expect, rel=1e-13)

    def test_exp_matches_direct_small_d(self):
        K = -0.5
        rng = np.random.default_rng(13)
        for _ in range(50):
            d = int(rng.integers(3, 31))
            q = int(rng.integers(1, d))
            r = float(rng.uniform(0.0, 1.0))
            z = float(rng.uniform(0.01, 0.99))
            direct = (z**q * (1 - z * z) ** ((d - q) / 2 - 1)
                      * (1 + K * r * r * z * z) ** (-(d + 1) / 2) * math.sqrt(1 - z * z))
            got = log_kernel_theta(d, q, K, r, np.array([math.asin(z)]))
            assert math.exp(got[0]) == pytest.approx(direct, rel=1e-12)

    def test_zero_maps_to_neg_inf(self):
        got = log_kernel_theta(4, 2, -1.0, 0.5, np.array([0.0, math.pi / 4]))
        assert got[0] == -math.inf and math.isfinite(got[1])

    def test_large_dimension_finite(self):
        v = log_kernel_theta(5000, 3, -1.0, 0.9, np.array([math.pi / 6]))
        assert math.isfinite(v[0])
