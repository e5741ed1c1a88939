import math

import numpy as np
import pytest

from hypflats import (
    Curvature,
    CurvatureModeError,
    DomainError,
    FlatConfig,
    PhaseMode,
    Tolerance,
    atom_mass,
    critical_constant_rho,
    crofton_constant,
    distance_cdf,
    distance_cdf_grid,
    distance_density,
    estimate_intersection_probability,
    euclidean_distance_cdf,
    euclidean_intersection_probability,
    intersection_probability,
    moment,
    phase_limit,
    reduce_to_unit_curvature,
)
import hypflats._backend as backend
import hypflats.analytic as analytic
from hypflats import ProbabilityRangeError, QuadratureError
from hypflats.analytic import log_crofton_constant, log_radial_mass
from hypflats.quadrature import integrate_adaptive
from hypflats.special import log_constant_D, log_sphere_surface
from oracles import (ATOM_MPMATH, COND_MEAN_MPMATH, EUCLID_CDF_MPMATH, P_STAR_3_2_1,
                     P_STAR_3_2_1_MPMATH,
                     P_STAR_10_9_8_V8_MPMATH, P_STAR_30_2_1_V4_MPMATH,
                     P_STAR_40_39_38_V6_MPMATH, P_STAR_200_199_1_V8_MPMATH,
                     P_STAR_820_104_75_MPMATH,
                     P_STAR_1000_999_998_V12_MPMATH, RHO_MPMATH, atom_mass_mp_oracle,
                     conditional_mean_mp_oracle, euclidean_cdf_mp_oracle, log_density_oracle, log_radial_mass_oracle,
                     probability_closed_form_oracle, probability_oracle, rho_mp_oracle,
                     rho_riemann_oracle)

TOL = Tolerance()
CFG = FlatConfig(3, 2, 1, 1.0)
K1 = Curvature(-1.0)


class TestCroftonConstant:
    def test_flat_space_closed_form(self):
        # omega_{d-k} u^{d-k} / (d-k)
        val = crofton_constant(3, 1, 2.0, Curvature(0.0))
        assert val == pytest.approx(2 * math.pi * 4.0 / 2.0, rel=1e-12)

    def test_hyperbolic_plane_lines(self):
        # d=2, k=1, K=-1: 2 sinh(u)
        val = crofton_constant(2, 1, 1.0, K1)
        assert val == pytest.approx(2 * math.sinh(1.0), rel=1e-10)

    def test_points_k0(self):
        # k=0: volume-type integral of sinh^(d-1)
        val = crofton_constant(2, 0, 1.0, K1)
        assert val == pytest.approx(2 * math.pi * (math.cosh(1.0) - 1), rel=1e-10)

    def test_large_dimension_log_safe(self):
        import hypflats

        lv = hypflats.analytic.log_crofton_constant(400, 200, 1.0, K1)
        assert math.isfinite(lv)

    def test_domain(self):
        with pytest.raises(DomainError):
            crofton_constant(3, 3, 1.0, K1)
        with pytest.raises(DomainError):
            crofton_constant(3, 1, 0.0, K1)


def log_omega(n):
    return math.log(2.0) + 0.5 * n * math.log(math.pi) - math.lgamma(0.5 * n)


class TestRadialMass:
    def test_matches_mpmath(self):
        for d in (3, 4, 10, 40, 150, 600, 1000):
            for m in sorted({1, 2, 3, d // 2, d - 1}):
                for rho in (0.05, 0.3, 1.0, 4.0, 8.0, 12.0):
                    ref = log_radial_mass_oracle(d, m, rho)
                    got = log_radial_mass(d, m, rho)
                    assert abs(got - ref) <= 1e-12 * max(1.0, abs(ref)), (d, m, rho)

    def test_tiny_radius(self):
        # sinh^(m-1) t cosh^(d-m) t ~ t^(m-1) as t -> 0
        for d, m in ((3, 1), (10, 4), (1000, 999)):
            assert log_radial_mass(d, m, 1e-200) == pytest.approx(
                m * math.log(1e-200) - math.log(m), rel=1e-12)

    def test_crofton_constant_in_thin_layer(self):
        # (d - 1) v >= 7000: the mass sits in a layer of width ~1/d below v
        for d, v in ((600, 12.0), (800, 8.0), (1000, 7.0)):
            for k in (0, 1, d // 2, d - 1):
                ref = log_omega(d - k) + log_radial_mass_oracle(d, d - k, v)
                got = log_crofton_constant(d, k, v, K1)
                assert abs(got - ref) <= 1e-12 * max(1.0, abs(ref)), (d, k, v)

    def test_crofton_constant_curvature_scaling(self):
        # C_K(u) = (-K)^((k-d)/2) C_{-1}(sqrt(-K) u); lines in the plane: 2 sinh(s u) / s
        assert crofton_constant(2, 1, 1.0, Curvature(-4.0)) == pytest.approx(
            math.sinh(2.0), rel=1e-12)
        got = log_crofton_constant(40, 10, 1.5, Curvature(-4.0))
        ref = log_omega(30) - 30 * math.log(2.0) + log_radial_mass_oracle(40, 30, 3.0)
        assert got == pytest.approx(ref, rel=1e-12)

    def test_domain(self):
        for d, m, rho in ((3, 0, 1.0), (3, 4, 1.0), (1, 1, 1.0), (3, 1, 0.0),
                          (3, 1, math.inf)):
            with pytest.raises(DomainError):
                log_radial_mass(d, m, rho)

    def test_underflow_raises(self):
        # every node lies far below the layer about 1/1000 wide under rho = 300
        with pytest.raises(QuadratureError, match="underflows"):
            log_radial_mass(1000, 1, 300.0)


class TestReduction:
    def test_rescale(self):
        cfg1, K = reduce_to_unit_curvature(FlatConfig(3, 2, 1, 2.0), Curvature(-4.0))
        assert K.K == -1.0
        assert cfg1.u == pytest.approx(4.0)

    def test_requires_hyperbolic(self):
        with pytest.raises(CurvatureModeError):
            reduce_to_unit_curvature(CFG, Curvature(0.0))


class TestIntersectionProbability:
    def test_matches_independent_oracle(self):
        p = intersection_probability(CFG, K1, TOL)
        assert p == pytest.approx(P_STAR_3_2_1, abs=2e-9)

    def test_matches_mpmath_closed_form(self):
        p = intersection_probability(CFG, K1, TOL)
        assert p == pytest.approx(P_STAR_3_2_1_MPMATH, rel=1e-11, abs=0.0)

    def test_matches_frozen_monte_carlo(self):
        # a Monte Carlo run at a frozen seed: 10^6 trials, standard error 3.7e-4
        est = estimate_intersection_probability(CFG, K1, 1_000_000, 271828)
        p = intersection_probability(CFG, K1, TOL)
        assert abs(p - est.p_hat) <= 4 * math.sqrt(p * (1 - p) / est.trials)

    def test_oracle_second_config(self):
        cfg = FlatConfig(4, 2, 0, 0.8)
        p = intersection_probability(cfg, K1, TOL)
        assert p == pytest.approx(probability_oracle(4, 2, 0, 0.8), abs=2e-8)

    def test_in_unit_interval(self):
        for cfg in (CFG, FlatConfig(6, 4, 2, 0.3), FlatConfig(10, 2, 1, 2.0)):
            p = intersection_probability(cfg, K1, TOL)
            assert 0.0 <= p <= 1.0

    def test_monotone_decreasing_in_u(self):
        # a larger hitting ball admits flats passing farther from the center
        ps = [intersection_probability(FlatConfig(3, 2, 1, u), K1, TOL)
              for u in (0.25, 0.5, 1.0, 2.0, 4.0)]
        assert all(b < a for a, b in zip(ps, ps[1:]))

    def test_euclidean_baseline(self):
        assert euclidean_intersection_probability(CFG) == 1.0

    def test_atom_mass_complement(self):
        # two integrals, each to rel_tol
        for cfg in (CFG, FlatConfig(10, 9, 8, 8.0), FlatConfig(200, 199, 1, 8.0),
                    FlatConfig(20, 5, 2, 1e-4)):
            total = intersection_probability(cfg, K1, TOL) + atom_mass(cfg, K1, TOL)
            assert abs(total - 1.0) <= 2 * TOL.rel_tol, cfg

    @pytest.mark.parametrize("key", sorted(ATOM_MPMATH))
    def test_atom_mass_matches_mpmath(self, key):
        # the atom is 8.1e-12 at (20, 5, 2, 1e-4), where 1 - p keeps 4 digits
        d, q, g, v = key
        assert atom_mass(FlatConfig(d, q, g, v), K1, TOL) == pytest.approx(
            ATOM_MPMATH[key], rel=1e-11, abs=0.0)

    def test_atom_oracle_reproduces_its_frozen_value(self):
        key = (20, 5, 2, 1e-4)
        assert atom_mass_mp_oracle(*key) == pytest.approx(ATOM_MPMATH[key], rel=1e-15, abs=0.0)

    @pytest.mark.parametrize("cfg, p", [
        (FlatConfig(10, 9, 8, 8.0), P_STAR_10_9_8_V8_MPMATH),
        (FlatConfig(40, 39, 38, 6.0), P_STAR_40_39_38_V6_MPMATH),
        (FlatConfig(30, 2, 1, 4.0), P_STAR_30_2_1_V4_MPMATH),
        (FlatConfig(200, 199, 1, 8.0), P_STAR_200_199_1_V8_MPMATH),
    ])
    def test_matches_mpmath_where_the_mass_is_thin(self, cfg, p):
        assert intersection_probability(cfg, K1, TOL) == pytest.approx(p, rel=1e-11, abs=0.0)

    def test_deep_in_the_incomplete_beta_tail(self):
        cfg, K = FlatConfig(820, 104, 75, 4.452080227058008), Curvature(-0.15301159143465998)
        assert intersection_probability(cfg, K, TOL) == pytest.approx(
            P_STAR_820_104_75_MPMATH, rel=1e-11, abs=0.0)

    def test_finds_the_layer_below_v(self):
        # 4% of the mass lies within about 1/1000 below v = 12
        cfg = FlatConfig(1000, 999, 998, 12.0)
        assert intersection_probability(cfg, K1, TOL) == pytest.approx(
            P_STAR_1000_999_998_V12_MPMATH, rel=1e-9, abs=0.0)

    @pytest.mark.parametrize("u", [1e-8, 1e-9])
    def test_one_at_tiny_radius(self, u):
        # 1 - p is about u^2 / 6 here
        assert abs(intersection_probability(FlatConfig(3, 2, 1, u), K1, TOL) - 1.0) <= 1e-12

    def test_is_one_1d_integral(self, monkeypatch):
        def fail(*args, **kwargs):
            raise AssertionError("2-d quadrature called")

        monkeypatch.setattr(analytic, "integrate_iterated_2d", fail)
        monkeypatch.setattr(backend, "log_kernel_theta", fail)
        for cfg in (CFG, FlatConfig(10, 9, 8, 8.0)):
            intersection_probability(cfg, K1, TOL)
            atom_mass(cfg, K1, TOL)


class TestDistanceCdf:
    def test_zero_at_origin(self):
        assert distance_cdf(CFG, K1, 0.0, TOL) == 0.0

    def test_monotone(self):
        ds = [0.1, 0.3, 0.7, 1.5, 3.0, 8.0]
        vals = [distance_cdf(CFG, K1, d, TOL) for d in ds]
        assert all(b >= a for a, b in zip(vals, vals[1:]))

    def test_limit_is_probability(self):
        p = intersection_probability(CFG, K1, TOL)
        assert distance_cdf(CFG, K1, 40.0, TOL) == pytest.approx(p, abs=1e-8)

    def test_grid_matches_pointwise(self):
        ds = np.array([0.2, 0.5, 1.0, 2.5])
        grid = distance_cdf_grid(CFG, K1, ds, TOL)
        for d, g in zip(ds, grid):
            assert g == pytest.approx(distance_cdf(CFG, K1, float(d), TOL), abs=1e-9)

    def test_rejects_negative(self):
        with pytest.raises(DomainError):
            distance_cdf(CFG, K1, -0.1, TOL)

    def test_curvature_scaling_of_distances(self):
        # F_{K,u}(delta) = F_{-1, sqrt(-K) u}(sqrt(-K) delta)
        K = Curvature(-4.0)
        a = distance_cdf(FlatConfig(3, 2, 1, 0.5), K, 0.3, TOL)
        b = distance_cdf(FlatConfig(3, 2, 1, 1.0), K1, 0.6, TOL)
        assert a == pytest.approx(b, abs=1e-10)


class TestDistanceDensity:
    def test_cdf_derivative(self):
        # central difference of the CDF against the density
        for delta in (0.3, 0.8, 1.7):
            h = 1e-5
            num = (distance_cdf(CFG, K1, delta + h, TOL)
                   - distance_cdf(CFG, K1, delta - h, TOL)) / (2 * h)
            assert distance_density(CFG, K1, delta, TOL) == pytest.approx(
                num, rel=1e-5
            )

    def test_density_scaling(self):
        # f_{K,u}(delta) = sqrt(-K) f_{-1, sqrt(-K) u}(sqrt(-K) delta)
        K = Curvature(-4.0)
        a = distance_density(FlatConfig(3, 2, 1, 0.5), K, 0.3, TOL)
        b = 2.0 * distance_density(FlatConfig(3, 2, 1, 1.0), K1, 0.6, TOL)
        assert a == pytest.approx(b, rel=1e-9)

    def test_rejects_nonpositive(self):
        with pytest.raises(DomainError):
            distance_density(CFG, K1, 0.0, TOL)
        with pytest.raises(DomainError):
            distance_density(CFG, K1, np.array([0.5, 0.0]), TOL)

    @pytest.mark.parametrize("cfg, K", [(CFG, K1), (FlatConfig(30, 3, 1, 3.0), Curvature(-1 / 30)),
                                        (FlatConfig(1000, 999, 1, 1.0), K1)])
    def test_array_is_the_scalar_calls(self, cfg, K):
        deltas = np.linspace(0.01, 4.0 * cfg.u, 24).reshape(4, 6)
        f = distance_density(cfg, K, deltas, TOL)
        assert f.shape == deltas.shape
        np.testing.assert_array_equal(
            f, [[distance_density(cfg, K, float(x), TOL) for x in row] for row in deltas])
        assert type(distance_density(cfg, K, 0.5, TOL)) is float


class TestMoment:
    def test_zeroth_is_one(self):
        assert moment(CFG, K1, 0.0, False, TOL).value == 1.0
        assert moment(CFG, K1, 0.0, True, TOL).value == 1.0

    def test_unconditional_positive_diverges(self):
        assert moment(CFG, K1, 1.0, False, TOL).divergent

    def test_boundary_diverges(self):
        # alpha = gamma - q = -1 for (3,2,1)
        assert moment(CFG, K1, -1.0, True, TOL).divergent
        assert moment(CFG, K1, -1.5, True, TOL).divergent

    def test_conditional_mean_matches_density_integral(self):
        from scipy.integrate import quad

        p = intersection_probability(CFG, K1, TOL)
        ref = quad(
            lambda x: x * distance_density(CFG, K1, x, Tolerance(rel_tol=1e-8)),
            0, 30, limit=200,
        )[0] / p
        got = moment(CFG, K1, 1.0, True, Tolerance(rel_tol=1e-8)).value
        assert got == pytest.approx(ref, rel=1e-6)

    def test_negative_unconditional_finite(self):
        res = moment(CFG, K1, -0.5, False, TOL)
        assert not res.divergent and res.value > 0

    @pytest.mark.parametrize("alpha", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("conditional", [False, True])
    def test_non_finite_alpha_raises(self, alpha, conditional):
        with pytest.raises(DomainError, match="alpha"):
            moment(CFG, K1, alpha, conditional, TOL)

    @pytest.mark.parametrize("key", sorted(COND_MEAN_MPMATH))
    def test_conditional_mean_matches_mpmath(self, key):
        d, q, g, v = key
        got = moment(FlatConfig(d, q, g, v), K1, 1.0, True, TOL).value
        assert got == pytest.approx(COND_MEAN_MPMATH[key], rel=1e-10, abs=0.0)

    def test_conditional_mean_oracle_reproduces_its_frozen_value(self):
        key = (3, 2, 1, 1.0)
        assert conditional_mean_mp_oracle(*key) == pytest.approx(
            COND_MEAN_MPMATH[key], rel=1e-15, abs=0.0)

    def test_is_one_integral_to_infinity(self, monkeypatch):
        calls = []

        def spy(cfg1, pref, lo, hi, tol, alpha=0.0):
            calls.append((lo, hi))
            return density_integral(cfg1, pref, lo, hi, tol, alpha)

        density_integral = analytic._density_integral
        monkeypatch.setattr(analytic, "_density_integral", spy)
        moment(CFG, K1, 1.0, True, TOL)
        moment(CFG, K1, -0.5, False, TOL)
        assert calls == [(0.0, math.inf)] * 2

    def test_conditional_raises_where_p_underflows(self):
        # p is 1.19e-432 here: 0.0 in double precision
        with pytest.raises(QuadratureError, match="underflows"):
            moment(FlatConfig(600, 300, 0, 4.0), K1, 1.0, True, TOL)

    def test_unconditional_where_p_underflows(self):
        # the moment is below p times 100, far below the smallest double
        res = moment(FlatConfig(600, 300, 0, 4.0), K1, -0.5, False, TOL)
        assert res.value == 0.0


# the benchmark's law configurations and its mc-validate ones, (3,2,1,1) in both
BENCH_CONFIGS = [
    (FlatConfig(3, 2, 1, 1.0), K1),
    (FlatConfig(5, 3, 0, 1.5), Curvature(-0.5)),
    (FlatConfig(4, 2, 0, 0.8), K1),
    (FlatConfig(30, 3, 1, 3.0), Curvature(-1.0 / 30.0)),
    (FlatConfig(50, 2, 1, 2.0), Curvature(-0.02)),
]


def _peak_break_points(r, theta_max):
    """Panel seeds resolving the (1 + K r^2 sin^2)^(-(d+1)/2) boundary layer.

    For r near the ball boundary the kernel peaks at theta_max over an
    angular scale sqrt(1 - r^2); pre-splitting there saves the adaptive
    rule thousands of bisections.
    """
    if r < 0.99:
        return ()
    w = math.sqrt(max(1.0 - r * r, 0.0))
    if w <= 0.0 or w >= 0.1:
        return ()
    return tuple(
        p for p in (theta_max - k * w for k in (300.0, 30.0, 3.0, 1.0))
        if 0.0 < p < theta_max
    )


def density_2d(cfg, K, delta):
    """The density as the angular integral of the 2-d path at r = tanh(t)."""
    cfg1, _ = reduce_to_unit_curvature(cfg, K)
    t = K.scale * delta
    r = math.tanh(t)
    theta_max = math.asin(min(1.0, math.tanh(cfg1.u) / r))
    offset = (analytic._log_prefactor(cfg1) - 2.0 * math.log(math.cosh(t))
              + (cfg.q - cfg.gamma - 1) * math.log(r))
    res = integrate_adaptive(
        lambda theta: backend.log_kernel_theta(cfg.d, cfg.q, -1.0, r, theta), 0.0, theta_max,
        TOL, log_form=True, log_offset=offset, break_points=_peak_break_points(r, theta_max))
    return K.scale * res.value


def cdf_offset_radius(cfg, K, delta):
    """The distance CDF as an integral over the offset radius, by scipy's QAGS.

    At unit curvature the offset radius rho in [0, v] has density
    sinh^(m-1) rho cosh^(d-m) rho / R, and given rho the intersection lies
    within delta iff X / (X + Y) <= 1 - tanh^2 rho / tanh^2 delta, with
    X ~ chi^2(d-q) and Y ~ chi^2(gamma+1) independent, so that
    X / (X + Y) ~ Beta((d-q)/2, (gamma+1)/2).
    """
    from scipy.integrate import quad
    from scipy.special import betainc

    cfg1, _ = reduce_to_unit_curvature(cfg, K)
    d, q, g, v = cfg1.d, cfg1.q, cfg1.gamma, cfg1.u
    t = K.scale * delta
    b, a1 = 0.5 * (d - q), 0.5 * (g + 1)

    def law(rho):
        return math.sinh(rho) ** (q - g - 1) * math.cosh(rho) ** (d - q + g)

    def hit(rho):
        return law(rho) * betainc(b, a1, 1.0 - (math.tanh(rho) / math.tanh(t)) ** 2)

    opts = dict(epsabs=0.0, epsrel=1e-13, limit=200)
    return quad(hit, 0.0, min(t, v), **opts)[0] / quad(law, 0.0, v, **opts)[0]


class TestClosedForm:
    """The 1-d closed-form density against the 2-d paths and against mpmath.

    The 2-d paths are the radial-angular integral of density_2d and the
    (offset radius, Beta ratio) integral of cdf_offset_radius, whose inner
    integral is an incomplete beta function; intersection_probability is
    the second at delta = infinity.
    """

    @pytest.mark.parametrize("cfg, K", BENCH_CONFIGS)
    def test_density_matches_2d_path(self, cfg, K):
        for x in (0.3, 0.9, 1.1, 2.0, 4.0):
            delta = x * cfg.u
            assert distance_density(cfg, K, delta, TOL) == pytest.approx(
                density_2d(cfg, K, delta), rel=1e-12, abs=0.0)

    @pytest.mark.parametrize("cfg, K", BENCH_CONFIGS)
    def test_cdf_grid_matches_2d_path(self, cfg, K):
        deltas = np.linspace(0.0, 4.0 * cfg.u, 129)[1:]
        grid = distance_cdf_grid(cfg, K, deltas, TOL)
        for i in (15, 41, 127):   # 0.5 u, 1.3 u and 4 u
            assert grid[i] == pytest.approx(cdf_offset_radius(cfg, K, deltas[i]),
                                            rel=1e-12, abs=0.0)

    @pytest.mark.parametrize("cfg, K", BENCH_CONFIGS + [
        (FlatConfig(10, 9, 8, 8.0), K1), (FlatConfig(40, 39, 38, 6.0), K1),
        (FlatConfig(30, 2, 1, 4.0), K1), (FlatConfig(200, 199, 1, 8.0), K1),
        (FlatConfig(1000, 999, 998, 12.0), K1), (FlatConfig(20, 5, 2, 1e-4), K1)])
    def test_cdf_limit_is_the_2d_probability(self, cfg, K):
        # the paper's density and the offset-radius law, two derivations of p
        tol = Tolerance(rel_tol=1e-12)
        p = intersection_probability(cfg, K, tol)
        far = distance_cdf(cfg, K, (K.scale * cfg.u + 50.0) / K.scale, tol)
        assert far == pytest.approx(p, rel=1e-11, abs=0.0)

    @pytest.mark.parametrize("cfg, K", BENCH_CONFIGS + [
        (FlatConfig(10, 9, 8, 8.0), K1), (FlatConfig(40, 39, 38, 6.0), K1),
        (FlatConfig(200, 199, 1, 8.0), K1), (FlatConfig(1000, 999, 998, 12.0), K1)])
    def test_density_integral_to_infinity_is_p(self, cfg, K):
        # the density's mass and p's offset-radius integral, one normaliser apart
        tol = Tolerance(rel_tol=1e-12)
        cfg1, _ = reduce_to_unit_curvature(cfg, K)
        res = analytic._density_integral(cfg1, analytic._log_prefactor(cfg1), 0.0, math.inf,
                                         tol)
        assert res.value == pytest.approx(intersection_probability(cfg, K, tol), rel=1e-11,
                                          abs=0.0)

    @pytest.mark.parametrize("cfg, p", [
        (FlatConfig(10, 9, 8, 8.0), P_STAR_10_9_8_V8_MPMATH),
        (FlatConfig(40, 39, 38, 6.0), P_STAR_40_39_38_V6_MPMATH),
    ])
    def test_cdf_limit_matches_mpmath(self, cfg, p):
        assert distance_cdf(cfg, K1, cfg.u + 40.0, TOL) == pytest.approx(p, rel=1e-11, abs=0.0)

    def test_probability_oracle_at_a_tiny_probability(self):
        # p is about 1.76e-39 here; a coarser split of the oracle was 4e-7 off
        cfg = FlatConfig(30, 2, 1, 4.0)
        got = distance_cdf(cfg, K1, 100.0, Tolerance(rel_tol=1e-13))
        assert probability_closed_form_oracle(30, 2, 1, 4.0) == pytest.approx(
            got, rel=1e-10, abs=0.0)

    def test_cdf_finds_the_layer_below_v(self):
        # 4% of the mass lies within about 1/1000 below v = 12, far from
        # every node of a first Gauss-Kronrod panel on [0, 12]
        cfg = FlatConfig(1000, 999, 998, 12.0)
        assert distance_cdf(cfg, K1, 72.0, TOL) == pytest.approx(
            P_STAR_1000_999_998_V12_MPMATH, rel=1e-9, abs=0.0)

    def test_cdf_at_huge_distance(self):
        # the peak at v is a vanishing part of a panel reaching 10^6
        far = distance_cdf(CFG, K1, 1e6, TOL)
        assert far == pytest.approx(P_STAR_3_2_1_MPMATH, rel=1e-11, abs=0.0)
        np.testing.assert_allclose(
            distance_cdf_grid(CFG, K1, [40.0, 1e3, 1e6], TOL), far, rtol=1e-12)

    def test_log_density_where_betainc_underflows(self):
        from scipy.special import betainc

        cfg1 = FlatConfig(1000, 999, 1, 1.0)
        pref = analytic._log_prefactor(cfg1)
        for t in (1.5, 3.0, 6.0):
            ref = log_density_oracle(1000, 999, 1, 1.0, t)
            got = float(analytic._log_density(cfg1, pref, t))
            assert abs(got - ref) <= 1e-12, t
        # I_x(500, 1/2) underflows at t = 3 and 6
        x = (math.sinh(1.0) / np.sinh([3.0, 6.0])) ** 2
        assert np.all(betainc(500.0, 0.5, x) == 0.0)

    def test_incomplete_beta_tail_where_scipy_loses_digits(self):
        # scipy's betainc is 5% off at the first point, its hyp2f1 53% at the third
        import mpmath as mp

        for a, b, x in ((200.0, 38.0, 0.0243), (358.0, 38.0, 0.13), (499.5, 499.5, 0.0616),
                        (1000.0, 499.5, 0.2209)):
            with mp.workdps(30):
                ref = float(mp.log(mp.betainc(a, b, 0, x)) - a * mp.log(x))
            got = analytic._log_incomplete_beta_tail(a, b, np.array([x]), np.log([x]))[0]
            assert got == pytest.approx(ref, rel=1e-14, abs=0.0), (a, b, x)

    def test_log_density_far_out(self):
        # no overflow past t = 710; the tail decays like e^(-2t)
        cfg1 = FlatConfig(40, 39, 38, 6.0)
        pref = analytic._log_prefactor(cfg1)
        lf = analytic._log_density(cfg1, pref, np.array([400.0, 800.0, 1600.0]))
        assert np.all(np.isfinite(lf))
        np.testing.assert_allclose(np.diff(lf), [-800.0, -1600.0], rtol=1e-12)


class TestPrefactor:
    @pytest.fixture
    def crofton_calls(self, monkeypatch):
        calls = []

        def spy(*args):
            calls.append(args)
            return log_crofton_constant(*args)

        monkeypatch.setattr(analytic, "log_crofton_constant", spy)
        return calls

    def test_moment_computes_the_crofton_constant_once(self, crofton_calls):
        # the second call is conditional=True's intersection probability
        moment(CFG, K1, 1.0, True, TOL)
        assert len(crofton_calls) <= 2

    @pytest.mark.parametrize("key", [(3, 2, 1, 1.0), (10, 9, 8, 8.0), (50, 2, 1, 0.28),
                                     (600, 300, 0, 4.0), (1000, 999, 998, 12.0)])
    def test_is_D_omega_over_the_crofton_constant(self, key):
        # 2 / (B((gamma+1)/2, (d-q)/2) R) is the paper's D omega_(d-gamma) / C
        cfg1 = FlatConfig(*key)
        d, g, v = cfg1.d, cfg1.gamma, cfg1.u
        ref = (log_constant_D(cfg1) + log_sphere_surface(d - g)
               - log_crofton_constant(d, cfg1.k, v, K1))
        assert analytic._log_prefactor(cfg1) == pytest.approx(ref, rel=0.0, abs=1e-12)

    def test_density_path_calls_no_crofton_constant(self, crofton_calls):
        distance_density(CFG, K1, 0.5, TOL)
        distance_cdf(CFG, K1, 0.5, TOL)
        moment(CFG, K1, 1.0, True, TOL)
        assert crofton_calls == []

    def test_cdf_grid_computes_the_crofton_constant_once(self):
        # the density's normaliser is the radial mass, the Crofton constant's quadrature
        distance_cdf_grid(CFG, K1, np.linspace(0.05, 4.0, 128), TOL)
        assert log_radial_mass.cache_info().misses == 1


class TestCdfGrid:
    @pytest.mark.parametrize("cfg, K", BENCH_CONFIGS + [
        (FlatConfig(10, 9, 8, 8.0), K1), (FlatConfig(40, 39, 38, 6.0), K1),
        (FlatConfig(1000, 999, 998, 12.0), K1)])
    def test_matches_pointwise(self, cfg, K):
        deltas = np.linspace(0.0, 4.0 * cfg.u, 129)[1:]
        np.testing.assert_allclose(
            distance_cdf_grid(cfg, K, deltas, TOL),
            [distance_cdf(cfg, K, float(x), TOL) for x in deltas], rtol=1e-12, atol=0.0)

    @pytest.mark.parametrize("deltas", [
        [0.0, 0.0, 0.3],            # zeros
        [0.3, 0.3, 0.7, 0.7, 2.0],  # duplicates
        [1.0],                      # exactly v
        [0.2, 0.5, 0.9],            # only below v
        [1.5, 2.0, 2.0, 3.0],       # only past v
        [],
    ])
    def test_grid_shapes(self, deltas):
        grid = distance_cdf_grid(CFG, K1, deltas, TOL)
        assert grid.shape == (len(deltas),)
        np.testing.assert_allclose(
            grid, [distance_cdf(CFG, K1, x, TOL) for x in deltas], rtol=1e-12, atol=0.0)

    def test_a_wide_segment_is_refined(self, monkeypatch):
        # one panel on [0, 12] misses the layer about 1/1000 wide below v = 12
        cfg = FlatConfig(1000, 999, 998, 12.0)
        refined = []

        def spy(cfg1, pref, lo, hi, tol):
            refined.append((lo, hi))
            return density_integral(cfg1, pref, lo, hi, tol)

        density_integral = analytic._density_integral
        monkeypatch.setattr(analytic, "_density_integral", spy)
        grid = distance_cdf_grid(cfg, K1, [12.0, 72.0], TOL)
        assert (0.0, 12.0) in refined
        monkeypatch.undo()
        np.testing.assert_allclose(
            grid, [distance_cdf(cfg, K1, 12.0, TOL), distance_cdf(cfg, K1, 72.0, TOL)],
            rtol=1e-12, atol=0.0)
        assert grid[1] == pytest.approx(P_STAR_1000_999_998_V12_MPMATH, rel=1e-9, abs=0.0)

    def test_makes_no_adaptive_call(self, monkeypatch):
        def fail(*args, **kwargs):
            raise AssertionError("integrate_adaptive called")

        log_radial_mass(3, 1, 1.0)  # the Crofton constant's quadrature, memoised
        monkeypatch.setattr(analytic, "integrate_adaptive", fail)
        assert distance_cdf_grid(CFG, K1, np.linspace(0.05, 4.0, 128), TOL).shape == (128,)


class TestGuards:
    def test_moment_tail_is_bounded(self, monkeypatch):
        # a density that never decays: the integral to infinity diverges, and
        # the quadrature gives up and says so
        monkeypatch.setattr(analytic, "_log_density",
                            lambda cfg1, pref, t: np.zeros(np.shape(t)))
        with pytest.raises(QuadratureError) as info:
            moment(CFG, K1, 0.5, True, TOL)
        assert info.value.partial is not None
        assert not info.value.partial.converged
        assert info.value.partial.value > 0

    def test_cdf_grid_checks_its_range(self, monkeypatch):
        # every segment of the grid gets the same value and error estimate
        def segments(value, err):
            return lambda cfg1, pref, lo, hi, tol: (np.full(lo.shape, value),
                                                    np.full(lo.shape, err))

        monkeypatch.setattr(analytic, "_segment_integrals", segments(0.6, 1e-13))
        with pytest.raises(ProbabilityRangeError):
            distance_cdf_grid(CFG, K1, [0.5, 1.0], TOL)
        monkeypatch.setattr(analytic, "_segment_integrals", segments(-1e-3, 1e-13))
        with pytest.raises(ProbabilityRangeError):
            distance_cdf_grid(CFG, K1, [0.5], TOL)
        # an overshoot within the summed error estimates is clamped
        monkeypatch.setattr(analytic, "_segment_integrals", segments(0.5 + 1e-10, 1e-9))
        np.testing.assert_array_equal(
            distance_cdf_grid(CFG, K1, [0.5, 1.0], TOL), [0.5 + 1e-10, 1.0])

    @pytest.mark.parametrize("value", [math.nan, np.array([0.5, math.nan])])
    def test_nan_is_not_a_probability(self, value):
        with pytest.raises(ProbabilityRangeError):
            analytic._as_probability(value, 0.0)

    @pytest.mark.parametrize("deltas", [[math.nan], [0.5, math.nan, 1.0], [0.5, math.inf]])
    def test_cdf_grid_rejects_non_finite_distances(self, deltas):
        with pytest.raises(DomainError):
            distance_cdf_grid(CFG, K1, deltas, TOL)

    def test_cdf_grid_rejects_a_scalar(self):
        with pytest.raises(DomainError):
            distance_cdf_grid(CFG, K1, 0.5, TOL)

    @pytest.mark.parametrize("delta", [math.inf, math.nan, np.array([0.5, math.inf])])
    def test_density_rejects_non_finite_distances(self, delta):
        with pytest.raises(DomainError):
            distance_density(CFG, K1, delta, TOL)

    @pytest.mark.parametrize("delta", [math.nan, math.inf])
    def test_cdfs_reject_non_finite_distances(self, delta):
        with pytest.raises(DomainError):
            distance_cdf(CFG, K1, delta, TOL)
        with pytest.raises(DomainError):
            euclidean_distance_cdf(CFG, delta, TOL)


class TestEuclideanCdf:
    def test_d2_lines_closed_form(self):
        # d=2, q=1, gamma=0, u=1, flat space: a line with uniform offset
        # p in [0,1] and uniform normal angle meets the x-axis at distance
        # p / |cos angle|, so F(delta) = E[min(1, delta |cos|)] = 2 delta / pi
        # for delta <= 1
        cfg = FlatConfig(2, 1, 0, 1.0)
        for delta in (0.25, 0.5, 0.75):
            assert euclidean_distance_cdf(cfg, delta, TOL) == pytest.approx(
                2 * delta / math.pi, rel=1e-9
            )
        # delta > 1: F(delta) = (2/pi)(arccos(1/delta) + delta(1 - sin arccos(1/delta)))
        t = math.acos(1.0 / 5.0)
        expect = (2 / math.pi) * (t + 5.0 * (1.0 - math.sin(t)))
        assert euclidean_distance_cdf(cfg, 5.0, TOL) == pytest.approx(
            expect, rel=1e-8
        )

    def test_small_curvature_limit(self):
        v = distance_cdf(CFG, Curvature(-1e-8), 1.0, TOL)
        assert euclidean_distance_cdf(CFG, 1.0, TOL) == pytest.approx(v, abs=1e-3)

    @pytest.mark.parametrize("key", sorted(EUCLID_CDF_MPMATH))
    def test_matches_mpmath(self, key):
        d, q, g, u, delta = key
        got = euclidean_distance_cdf(FlatConfig(d, q, g, u), delta, TOL)
        assert got == pytest.approx(EUCLID_CDF_MPMATH[key], rel=1e-13, abs=0.0)

    def test_oracle_reproduces_its_frozen_value(self):
        key = (3, 2, 1, 1.0, 2.0)
        assert euclidean_cdf_mp_oracle(*key) == pytest.approx(
            EUCLID_CDF_MPMATH[key], rel=1e-15, abs=0.0)

    def test_far_out_is_one(self):
        # the 2-d path returned 0.98726 here
        assert abs(euclidean_distance_cdf(FlatConfig(40, 39, 38, 1.0), 1e6, TOL) - 1.0) <= 1e-15

    def test_continuous_at_u(self):
        cfg = FlatConfig(10, 6, 2, 1.5)
        below, at, above = (euclidean_distance_cdf(cfg, x, TOL)
                            for x in (1.5 * (1 - 1e-12), 1.5, 1.5 * (1 + 1e-12)))
        assert below <= at <= above and above - below <= 1e-10

    def test_uses_no_quadrature(self, monkeypatch):
        def fail(*args, **kwargs):
            raise AssertionError("quadrature called")

        monkeypatch.setattr(analytic, "integrate_adaptive", fail)
        monkeypatch.setattr(analytic, "integrate_iterated_2d", fail)
        for delta in (0.3, 1.0, 4.0):
            euclidean_distance_cdf(CFG, delta, TOL)


class TestPhase:
    def test_mode_validation(self):
        with pytest.raises(DomainError):
            PhaseMode("critical")
        with pytest.raises(DomainError):
            PhaseMode("subcritical", kappa=1.0)
        with pytest.raises(DomainError):
            PhaseMode("weird")

    def test_limits(self):
        assert phase_limit(PhaseMode.subcritical(), 1.0, 2, 1, TOL) == 1.0
        assert phase_limit(PhaseMode.supercritical(), 1.0, 2, 1, TOL) == 0.0

    def test_rho_in_unit_interval(self):
        rho = critical_constant_rho(1.0, 2, 1, 1.0, TOL)
        assert 0.0 < rho < 1.0

    def test_rho_decreasing_in_kappa(self):
        # stronger curvature in the limit means fewer hits
        rhos = [critical_constant_rho(1.0, 2, 1, k, TOL) for k in (0.5, 1.0, 2.0, 4.0)]
        assert all(b < a for a, b in zip(rhos, rhos[1:]))

    def test_rho_domain(self):
        with pytest.raises(DomainError):
            critical_constant_rho(1.0, 2, 1, -1.0, TOL)
        with pytest.raises(DomainError):
            critical_constant_rho(0.0, 2, 1, 1.0, TOL)

    @pytest.mark.parametrize("key", sorted(RHO_MPMATH))
    def test_rho_matches_mpmath(self, key):
        assert critical_constant_rho(*key, TOL) == pytest.approx(RHO_MPMATH[key], rel=1e-10,
                                                                 abs=0.0)

    def test_rho_oracle_reproduces_its_frozen_value(self):
        key = (2.0, 4, 2, 4.0)
        assert rho_mp_oracle(*key) == pytest.approx(RHO_MPMATH[key], rel=1e-15, abs=0.0)

    @pytest.mark.parametrize("key", [(1.0, 2, 1, 1.0), (1.5, 3, 0, 2.0), (0.8, 1, 0, 0.5)])
    def test_rho_matches_riemann_oracle(self, key):
        # the benchmark's law configurations, against its reference
        assert critical_constant_rho(*key, TOL) == pytest.approx(
            rho_riemann_oracle(*key), rel=0.0, abs=1e-5)

    def test_rho_makes_one_adaptive_call(self, monkeypatch):
        calls = []

        def spy(*args, **kwargs):
            calls.append(args)
            return integrate_adaptive(*args, **kwargs)

        monkeypatch.setattr(analytic, "integrate_adaptive", spy)
        critical_constant_rho(12.0, 200, 199, 12.0, TOL)
        assert len(calls) == 1

    def test_rho_is_one_1d_integral(self, monkeypatch):
        def fail(*args, **kwargs):
            raise AssertionError("integrate_iterated_2d called")

        monkeypatch.setattr(analytic, "integrate_iterated_2d", fail)
        critical_constant_rho(2.0, 20, 19, 3.0, TOL)
