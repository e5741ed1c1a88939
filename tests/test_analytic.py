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
    simulate_distance_distribution,
)
import hypflats._backend as backend
import hypflats.analytic as analytic
from hypflats import ProbabilityRangeError, QuadratureError
from hypflats.analytic import log_crofton_constant, log_radial_mass
from hypflats.quadrature import integrate_adaptive
from hypflats.special import log_constant_D, log_sphere_surface
from oracles import (AT_THE_LOG_FLOOR_MPMATH, ATOM_MPMATH, ATOM_NEAR_ONE_MPMATH, COND_MEAN_MPMATH,
                     EUCLID_CDF_MPMATH, LOG_RADIAL_MASS_1000_V300_MPMATH,
                     MOMENT_NEAR_DIVERGENCE_MPMATH, P_1E5_V12_MPMATH,
                     P_GAMMA_0_SMALL_V_MPMATH, P_PAST_THE_DOMAIN_MPMATH, P_STAR_3_2_1,
                     P_STAR_3_2_1_MPMATH,
                     P_STAR_10_9_8_V8_MPMATH, P_STAR_30_2_1_V4_MPMATH,
                     P_STAR_40_39_38_V6_MPMATH, P_STAR_200_199_1_V8_MPMATH,
                     P_STAR_820_104_75_MPMATH,
                     P_STAR_1000_999_998_V12_MPMATH, P_600_300_0_V3_1_MPMATH, RHO_MPMATH,
                     RHO_SUBNORMAL_MPMATH, atom_mass_mp_oracle,
                     conditional_mean_mp_oracle, euclidean_cdf_mp_oracle, log_density_oracle, log_radial_mass_oracle,
                     moment_mp_oracle, probability_closed_form_oracle, probability_offset_mp_oracle,
                     probability_oracle, rho_mp_oracle, rho_riemann_oracle)

TOL = Tolerance()
CFG = FlatConfig(3, 2, 1, 1.0)
K1 = Curvature(-1.0)


@pytest.fixture
def integrand_calls(monkeypatch):
    # the node count of each call of an integrand of integrate_adaptive in analytic
    calls = []

    def spy(f, *args, **kwargs):
        def counted(x):
            calls.append(x.size)
            return f(x)

        return integrate_adaptive(counted, *args, **kwargs)

    monkeypatch.setattr(analytic, "integrate_adaptive", spy)
    return calls


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
        for d in (2, 3, 4, 5, 7, 10, 11, 40, 41, 150, 151, 600, 601, 999, 1000):
            for m in sorted({m for m in (1, 2, 3, 4, 5, d // 2, d // 2 + 1, d - 2, d - 1, d)
                             if 1 <= m <= d}):
                for rho in (1e-200, 1e-8, 0.05, 0.3, 0.5, 0.51, 1.0, 2.0, 4.0, 8.0, 12.0):
                    ref = log_radial_mass_oracle(d, m, rho)
                    got = log_radial_mass(d, m, rho)
                    assert abs(got - ref) <= 1e-13 * max(1.0, abs(ref)), (d, m, rho)

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

    def test_log_beyond_the_largest_double_raises(self):
        # log R is about (d - 1) rho here
        assert log_radial_mass(10, 3, 1e305) == pytest.approx(9e305, rel=1e-15)
        with pytest.raises(QuadratureError, match="overflows"):
            log_radial_mass(10, 3, 1e308)

    def test_far_past_the_domain(self):
        # the mass sits in a layer about 1/1000 wide under rho = 300
        for m in (1, 999):
            ref = log_radial_mass_oracle(1000, m, 300.0, dps=300)
            assert ref == pytest.approx(LOG_RADIAL_MASS_1000_V300_MPMATH, rel=1e-15)
            assert abs(log_radial_mass(1000, m, 300.0) - ref) <= 1e-12 * abs(ref), m

    # I(a, b; v), the integral of sinh^a cosh^b over [0, v], a = m - 1, b = d - m
    @pytest.mark.parametrize("d, m", [
        pytest.param(10, 3, id="b odd"),
        pytest.param(1000, 1, id="b odd, a = 0"),
        pytest.param(11, 1, id="a = 0, b even"),
        pytest.param(601, 1, id="a = 0, b even, large"),
        pytest.param(12, 2, id="a odd, b even"),
        pytest.param(1000, 4, id="a odd, b even, large"),
        pytest.param(13, 3, id="a even, b even: halving"),
        pytest.param(1001, 999, id="a even, b even: halving, large"),
        pytest.param(7, 7, id="b = 0: halving"),
        pytest.param(600, 600, id="b = 0, a odd"),
    ])
    def test_every_branch_of_the_closed_form(self, d, m):
        # the series for the integral of sinh^a takes over at v = 1/2
        for rho in (1e-8, 0.05, 0.49, 0.5, 0.51, 1.0, 3.0, 12.0, 40.0):
            ref = log_radial_mass_oracle(d, m, rho)
            got = log_radial_mass(d, m, rho)
            assert abs(got - ref) <= 1e-13 * max(1.0, abs(ref)), rho

    @pytest.mark.parametrize("d", [10**4, 10**5])
    def test_past_the_documented_dimension(self, d):
        for m in (1, 2, d // 2, d - 1, d):
            for rho in (12.0, 20.0):
                ref = log_radial_mass_oracle(d, m, rho)
                assert abs(log_radial_mass(d, m, rho) - ref) <= 1e-13 * abs(ref), (m, rho)

    def test_runs_no_quadrature(self, monkeypatch):
        calls = []

        def spy(*args, **kwargs):
            calls.append(args)
            return integrate_adaptive(*args, **kwargs)

        monkeypatch.setattr(analytic, "integrate_adaptive", spy)
        for d, m, rho in ((3, 1, 1.0), (1000, 999, 12.0), (1001, 3, 8.0), (10**4, 2, 20.0)):
            log_radial_mass(d, m, rho)
        assert calls == []
        # p on a new configuration: its own integral and nothing else
        intersection_probability(FlatConfig(40, 20, 5, 3.0), K1, TOL)
        assert len(calls) == 1


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

    @pytest.mark.parametrize("key", sorted(ATOM_NEAR_ONE_MPMATH))
    def test_atom_near_one_matches_mpmath(self, key):
        # 1 - tanh^2 rho keeps only part of the digits of sech^2 rho
        d, q, g, v = key
        assert atom_mass(FlatConfig(d, q, g, v), K1, Tolerance(rel_tol=1e-12)) == pytest.approx(
            ATOM_NEAR_ONE_MPMATH[key], rel=1e-11, abs=0.0)

    @staticmethod
    def add_to_one(tol, ds=(3, 10, 40, 150, 600, 1000), qs=lambda d: {1, d // 2, d - 1},
                   gs=lambda q: {0, q - 1}, vs=(0.05, 1.0, 4.0, 12.0)):
        for d in ds:
            for q in sorted(qs(d)):
                for g in sorted(gs(q)):
                    for v in vs:
                        cfg = FlatConfig(d, q, g, v)
                        total = intersection_probability(cfg, K1, tol) + atom_mass(cfg, K1, tol)
                        assert abs(total - 1.0) <= 2 * tol.rel_tol, cfg

    def test_atom_and_p_add_to_one(self):
        self.add_to_one(Tolerance(rel_tol=1e-12))

    def test_atom_and_p_add_to_one_at_1e_13(self):
        # every node's log is taken relative to its value at v, so no term
        # near d v = 12000 rounds in it
        self.add_to_one(Tolerance(rel_tol=1e-13))

    def test_atom_and_p_add_to_one_at_small_v(self):
        # nor a term near (m - 1) log v: at v = 1e-6 that is 13 (m - 1)
        self.add_to_one(Tolerance(rel_tol=1e-13), ds=(150, 600, 1000),
                        qs=lambda d: {d // 2, d - 1}, gs=lambda q: {0, q // 2, q - 1},
                        vs=(1e-6, 1e-4, 1e-2))

    @pytest.mark.parametrize("key", sorted(AT_THE_LOG_FLOOR_MPMATH))
    def test_below_the_log_rounding_floor(self, key):
        kind, d, q, g, v = key
        fn = intersection_probability if kind == "p" else atom_mass
        assert fn(FlatConfig(d, q, g, v), K1, Tolerance(rel_tol=1e-13)) == pytest.approx(
            AT_THE_LOG_FLOOR_MPMATH[key], rel=1e-13, abs=0.0)

    @pytest.mark.parametrize("key", sorted(P_PAST_THE_DOMAIN_MPMATH))
    def test_past_the_documented_dimension(self, key):
        # the radial mass is closed form, and p's integrand is taken relative
        # to its value at v, so no log near d v rounds in it
        d, q, g, v = key
        tol = Tolerance(rel_tol=1e-12)
        assert intersection_probability(FlatConfig(d, q, g, v), K1, tol) == pytest.approx(
            P_PAST_THE_DOMAIN_MPMATH[key], rel=1e-12, abs=0.0)

    def test_at_a_hundred_thousand_dimensions(self):
        cfg, tol = FlatConfig(10**5, 99999, 99998, 12.0), Tolerance(rel_tol=1e-12)
        assert intersection_probability(cfg, K1, tol) == pytest.approx(
            P_1E5_V12_MPMATH, rel=1e-12, abs=0.0)
        # the miss integrand's series for B_y(a', 1/2) / y^a', a' = 49999.5,
        # at y = tanh^2 rho past 1/2, where betaincc underflows
        with pytest.raises(QuadratureError, match="2F1.*more than 1000 terms"):
            atom_mass(cfg, K1, tol)

    @pytest.mark.parametrize("key", sorted(P_GAMMA_0_SMALL_V_MPMATH))
    def test_keeps_its_digits_near_rho_0(self, key):
        # I_x(b, 1/2) at x = sech^2 rho near 1 is taken as 1 - I_y(1/2, b), y = tanh^2 rho
        cfg, tol = FlatConfig(*key), Tolerance(rel_tol=1e-12)
        p = intersection_probability(cfg, K1, tol)
        assert p == pytest.approx(P_GAMMA_0_SMALL_V_MPMATH[key], rel=1e-12, abs=0.0)
        assert abs(p + atom_mass(cfg, K1, tol) - 1.0) <= 2e-12

    @pytest.mark.parametrize("oracle, key", [(atom_mass_mp_oracle, (30, 4, 0, 2e-6)),
                                             (probability_offset_mp_oracle, (1000, 999, 0, 1e-6))])
    def test_offset_radius_oracles_keep_their_digits_at_small_v(self, oracle, key):
        # their integrands, near v^(m-1), are taken relative to their value at v;
        # below quad's absolute epsilon they were 1.3e-10 and 1.2% off here
        value = oracle(*key)
        assert value == pytest.approx(oracle(*key, dps=50), rel=1e-13, abs=0.0)
        fn = atom_mass if oracle is atom_mass_mp_oracle else intersection_probability
        assert fn(FlatConfig(*key), K1, Tolerance(rel_tol=1e-13)) == pytest.approx(
            value, rel=1e-13, abs=0.0)

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

    @pytest.mark.parametrize("cfg", [FlatConfig(1000, 999, 998, 12.0),
                                     FlatConfig(10**4, 9999, 9998, 20.0),
                                     FlatConfig(600, 300, 0, 4.0)])
    @pytest.mark.parametrize("fn", [intersection_probability, atom_mass])
    def test_one_integrand_call_through_the_layer(self, cfg, fn, integrand_calls):
        # the first panels, graded toward the layer below v, converge together
        fn(cfg, K1, TOL)
        assert len(integrand_calls) == 1

    @pytest.mark.parametrize("cfg, K", [(CFG, K1), (FlatConfig(30, 3, 1, 3.0), Curvature(-1 / 30)),
                                        (FlatConfig(50, 2, 1, 2.0), Curvature(-0.02))])
    def test_one_panel_where_the_layer_is_wide(self, cfg, K, integrand_calls):
        intersection_probability(cfg, K, TOL)
        assert integrand_calls == [15]

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
        for delta in (0.0, -0.0, -1.0):
            with pytest.raises(DomainError):
                distance_density(CFG, K1, delta, TOL)
        with pytest.raises(DomainError):
            distance_density(CFG, K1, np.array([0.5, 0.0]), TOL)

    # gamma = 0 at (5,3,0); m = 1, no power of sinh t, at (4,3,2); the series
    # below betainc's floor at (1000,999,998, v=12), where delta = 30 has
    # I_x(500, 1/2) < 1e-200; at (4,2,0, v=0.3) log x is exactly 0 at t = v,
    # where the two sides' forms differ in the last bit
    @pytest.mark.parametrize("cfg, K", [(CFG, K1), (FlatConfig(30, 3, 1, 3.0), Curvature(-1 / 30)),
                                        (FlatConfig(1000, 999, 1, 1.0), K1),
                                        (FlatConfig(5, 3, 0, 1.5), Curvature(-0.5)),
                                        (FlatConfig(4, 3, 2, 0.8), K1),
                                        (FlatConfig(1000, 999, 998, 12.0), K1),
                                        (FlatConfig(4, 2, 0, 0.3), K1)])
    def test_array_is_the_scalar_calls(self, cfg, K):
        # delta = u is t = v exactly; odd entries go in as np.float64
        deltas = np.append(np.linspace(0.01, 4.0 * cfg.u, 22), [cfg.u, 30.0]).reshape(4, 6)
        f = distance_density(cfg, K, deltas, TOL)
        assert f.shape == deltas.shape
        np.testing.assert_array_equal(
            f, [[distance_density(cfg, K, x if j % 2 else float(x), TOL)
                 for j, x in enumerate(row)] for row in deltas])
        assert type(distance_density(cfg, K, 0.5, TOL)) is float
        assert type(distance_density(cfg, K, np.float64(0.5), TOL)) is float

    def test_float_takes_betainc_only_past_v(self, monkeypatch):
        calls = []

        def spy(a, b, x):
            calls.append(np.ndim(x))
            return betainc(a, b, x)

        betainc = analytic.betainc
        distance_density(CFG, K1, 0.5, TOL)  # the law is built before the spy
        monkeypatch.setattr(analytic, "betainc", spy)
        distance_density(CFG, K1, 0.5, TOL)
        assert calls == []
        distance_density(CFG, K1, 1.5, TOL)
        assert calls == [0]


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

        def spy(law, lo, hi, tol, alpha=0.0):
            calls.append((lo, hi))
            return density_integral(law, lo, hi, tol, alpha)

        density_integral = analytic._density_integral
        monkeypatch.setattr(analytic, "_density_integral", spy)
        moment(CFG, K1, 1.0, True, TOL)
        moment(CFG, K1, -0.5, False, TOL)
        assert calls == [(0.0, math.inf)] * 2

    def test_conditional_beyond_the_largest_double_raises(self):
        # the integral of t^300 f(t) is a double; divided by p = e^-994.5 it is not
        with pytest.raises(QuadratureError, match="conditional moment .* beyond the largest"):
            moment(FlatConfig(600, 300, 0, 4.0), K1, 300.0, True, TOL)

    @pytest.mark.parametrize("d, q, g", [(10, 9, 8), (40, 39, 38), (150, 149, 148), (100, 50, 25),
                                         (600, 599, 598), (533, 512, 509), (1000, 999, 998)])
    @pytest.mark.parametrize("v", [1e-8, 1e-10])
    def test_flat_limit_at_small_v(self, d, q, g, v):
        # E[t^alpha] / v^alpha tends to flat_moment as v -> 0, at rate v^2
        # here; past v the mass lies within about v (d-q) / (2 (d+1)) of v
        for alpha in (1.0, -0.5):
            got = moment(FlatConfig(d, q, g, v), K1, alpha, True, TOL).value / v**alpha
            assert got == pytest.approx(flat_moment(d, q, g, alpha), rel=1e-9, abs=0.0), alpha

    def test_unconditional_where_p_underflows(self):
        # the moment is below p times 100, far below the smallest double
        res = moment(FlatConfig(600, 300, 0, 4.0), K1, -0.5, False, TOL)
        assert res.value == 0.0


def flat_moment(d, q, g, alpha):
    """E[t^alpha] / u^alpha in flat space, m/(alpha+m) B(a' - alpha/2, b) / B(a', b),
    finite for gamma - q < alpha < gamma + 1."""
    m, a1, b = q - g, 0.5 * (g + 1), 0.5 * (d - q)
    return m / (alpha + m) * math.exp(math.lgamma(a1 - alpha / 2) - math.lgamma(a1 - alpha / 2 + b)
                                      - math.lgamma(a1) + math.lgamma(a1 + b))


class TestNearTheDivergence:
    """Below v a moment runs in y = (t/v)^k, where its t^(m-1+alpha) at t = 0 is smooth."""

    @pytest.mark.parametrize("key", sorted(MOMENT_NEAR_DIVERGENCE_MPMATH))
    def test_matches_mpmath(self, key):
        d, q, g, v, alpha = key
        got = moment(FlatConfig(d, q, g, v), K1, alpha, False, TOL).value
        assert got == pytest.approx(MOMENT_NEAR_DIVERGENCE_MPMATH[key], rel=1e-9, abs=0.0)

    def test_oracle_reproduces_its_frozen_value(self):
        key = (3, 2, 1, 1.0, -0.99)
        assert moment_mp_oracle(*key) == pytest.approx(
            MOMENT_NEAR_DIVERGENCE_MPMATH[key], rel=1e-15, abs=0.0)

    @pytest.mark.parametrize("d, q, g", [(3, 2, 1), (12, 8, 1), (30, 3, 1)])
    @pytest.mark.parametrize("eps", [0.01, 0.001])
    def test_flat_limit(self, d, q, g, eps):
        # at alpha = gamma - q + 0.001, t = v y^1000 underflows for y below
        # about 0.5; the error falls 100-fold from v = 1e-3 to 1e-4: O(v^2)
        alpha = g - q + eps
        errs = [moment(FlatConfig(d, q, g, v), K1, alpha, False, TOL).value / v**alpha
                / flat_moment(d, q, g, alpha) - 1.0 for v in (1e-3, 1e-4)]
        assert abs(errs[1]) <= 1e-7
        assert errs[0] / errs[1] == pytest.approx(100.0, rel=0.01)

    @pytest.mark.parametrize("cfg", [FlatConfig(3, 2, 1, 1.0), FlatConfig(10, 9, 8, 1e-4)])
    def test_negative_order_takes_few_calls(self, cfg, integrand_calls):
        # bisection toward t = 0 took 29 and 31
        moment(cfg, K1, -0.5, False, TOL)
        assert len(integrand_calls) <= 4

    def test_where_the_flat_moment_diverges(self):
        # alpha = gamma + 1 at (7,4,0): the flat mean is infinite, the hyperbolic
        # conditional one finite, and E[t] / v grows by a constant per two
        # decades of v (4.6898, then 4.6908), as log(1/v)
        ratios = [moment(FlatConfig(7, 4, 0, v), K1, 1.0, True, TOL).value / v
                  for v in (1e-4, 1e-6, 1e-8)]
        steps = np.diff(ratios)
        assert steps[0] > 4.0
        assert steps[1] == pytest.approx(steps[0], rel=0.0, abs=1e-3)


# the benchmark's law configurations and its mc-validate ones, (3,2,1,1) in both
BENCH_CONFIGS = [
    (FlatConfig(3, 2, 1, 1.0), K1),
    (FlatConfig(5, 3, 0, 1.5), Curvature(-0.5)),
    (FlatConfig(4, 2, 0, 0.8), K1),
    (FlatConfig(30, 3, 1, 3.0), Curvature(-1.0 / 30.0)),
    (FlatConfig(50, 2, 1, 2.0), Curvature(-0.02)),
]


# the critical constants the benchmark's law workload asks for, (u, q, gamma, kappa)
BENCH_RHO = [(1.0, 2, 1, 1.0), (1.5, 3, 0, 2.0), (0.8, 1, 0, 0.5)]
# integrand calls when the density integrals and rho bisected from one first
# panel (the offset-radius integral already had its graded panels), at
# K = -1: (conditional moment of order 1 with its p, unconditional moment of
# order -1/2, distance_cdf at v/2, 3v/2 and 3v) per (d, q, gamma, v), and
# the calls of rho per (u, q, gamma, kappa)
ONE_PANEL_CALLS = {
    (3, 2, 1, 1.0): (13, 37, 1, 2, 6),
    (12, 8, 1, 1.0): (15, 14, 1, 6, 8),
    (40, 39, 38, 6.0): (25, 24, 11, 18, 20),
    (600, 300, 0, 4.0): (37, 34, 15, 28, 32),
    (100, 50, 25, 1.0): (23, 22, 7, 12, 18),
    (10, 9, 8, 8.0): (21, 20, 7, 14, 16),
    (7, 4, 0, 2.0): (15, 18, 1, 4, 6),
    (30, 3, 1, 0.548): (17, 41, 1, 4, 6),
    (1000, 999, 998, 12.0): (39, 38, 21, 32, 36),
    (200, 199, 1, 8.0): (31, 30, 15, 24, 26),
    (1000, 500, 0, 0.01): (33, 34, 15, 28, 24),
    (10, 9, 8, 1e-4): (21, 47, 1, 4, 6),
    (3, 2, 1, 1e-4): (19, 43, 1, 2, 4),
    (533, 512, 509, 3.04e-5): (33, 46, 1, 16, 18),
}
ONE_PANEL_RHO_CALLS = {
    (1.0, 2, 1, 1.0): 7, (1.5, 3, 0, 2.0): 5, (0.8, 1, 0, 0.5): 7, (0.1, 2, 0, 0.1): 17,
    (2.0, 4, 2, 4.0): 5, (2.0, 20, 19, 3.0): 9, (1.0, 200, 1, 1.0): 9, (0.5, 200, 1, 1.0): 9,
    (3.0, 200, 199, 50.0): 13, (4.0, 3, 0, 40.0): 15, (12.0, 200, 199, 12.0): 17,
    (6.0, 400, 1, 40.0): 17, (10.0, 150, 10, 15.0): 17, (0.01, 3, 1, 0.01): 29,
    (5.0, 1, 0, 0.1): 5, (0.3, 50, 0, 3.0): 9, (1.0, 1000, 500, 2.0): 27, (20.0, 4, 3, 0.05): 5,
}


class TestFirstPanelsFromTheLaw:
    """The density integrals and rho start from panels the law places: equal
    in w past v, graded toward v below it, graded around r* for rho."""

    # the benchmark's law configurations, and two whose layer below v is about 1/d wide
    @pytest.mark.parametrize("cfg, K", BENCH_CONFIGS[:3] + [(FlatConfig(40, 39, 38, 6.0), K1),
                                                            (FlatConfig(1000, 999, 998, 12.0), K1)])
    def test_conditional_mean_takes_three_calls(self, cfg, K, integrand_calls):
        # below v, past v, and p
        moment(cfg, K, 1.0, True, TOL)
        assert len(integrand_calls) <= 3

    @pytest.mark.parametrize("key", BENCH_RHO)
    def test_law_rho_takes_one_call(self, key, integrand_calls):
        critical_constant_rho(*key, TOL)
        assert len(integrand_calls) == 1

    @pytest.mark.parametrize("key", sorted(ONE_PANEL_CALLS))
    def test_no_more_calls_than_from_one_panel(self, key, integrand_calls):
        cfg, v = FlatConfig(*key), key[3]
        calls = []
        for f in (lambda: moment(cfg, K1, 1.0, True, TOL),
                  lambda: moment(cfg, K1, -0.5, False, TOL),
                  *(lambda x=x: distance_cdf(cfg, K1, x * v, TOL) for x in (0.5, 1.5, 3.0))):
            integrand_calls.clear()
            f()
            calls.append(len(integrand_calls))
        assert all(n <= ceiling for n, ceiling in zip(calls, ONE_PANEL_CALLS[key])), calls

    def test_rho_takes_no_more_calls_than_from_one_panel(self, integrand_calls):
        calls = {}
        for key in ONE_PANEL_RHO_CALLS:
            integrand_calls.clear()
            critical_constant_rho(*key, TOL)
            calls[key] = len(integrand_calls)
        assert all(calls[key] <= n for key, n in ONE_PANEL_RHO_CALLS.items()), calls
        # one call everywhere but at (1, 1000, 500, 2), whose peak lies at
        # 1.4 r*, away from the knots graded around r*
        assert sum(n > 1 for n in calls.values()) <= 1, calls

    def test_p_keeps_its_knots(self, monkeypatch):
        # the offset-radius integral's first panels are those of _layer_knots
        knots = []

        def spy(f, a, b, tol, **kwargs):
            knots.append(list(kwargs["break_points"]))
            return integrate_adaptive(f, a, b, tol, **kwargs)

        monkeypatch.setattr(analytic, "integrate_adaptive", spy)
        intersection_probability(FlatConfig(1000, 999, 998, 12.0), K1, TOL)
        # lambda = (m - 1) coth v + (gamma + a') tanh v at m = 1, gamma = 998, a' = 499.5
        h, expected = 2.0 / (1497.5 * math.tanh(12.0)), []
        while h < 12.0:
            expected.append(h)
            h *= 2.0
        assert knots == [expected]


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
    offset = (analytic._unit_law(cfg, K).log_pref - 2.0 * math.log(math.cosh(t))
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
        res = analytic._density_integral(analytic._unit_law(cfg, K), 0.0, math.inf, tol)
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

        law = analytic._unit_law(FlatConfig(1000, 999, 1, 1.0), K1)
        for t in (1.5, 3.0, 6.0):
            ref = log_density_oracle(1000, 999, 1, 1.0, t)
            got = float(analytic._log_density(law, t))
            assert abs(got - ref) <= 1e-12, t
        # I_x(500, 1/2) underflows at t = 3 and 6
        x = (math.sinh(1.0) / np.sinh([3.0, 6.0])) ** 2
        assert np.all(betainc(500.0, 0.5, x) == 0.0)

    def test_incomplete_beta_tail_where_scipy_loses_digits(self):
        # scipy's betainc is 5% off at the first point, its hyp2f1 53% at the third
        import mpmath as mp
        from scipy.special import betaln

        for a, b, x in ((200.0, 38.0, 0.0243), (358.0, 38.0, 0.13), (499.5, 499.5, 0.0616),
                        (1000.0, 499.5, 0.2209)):
            with mp.workdps(30):
                ref = float(mp.log(mp.betainc(a, b, 0, x)) - a * mp.log(x))
            got = analytic._log_incomplete_beta_tail(a, b, betaln(a, b), np.array([x]),
                                                     np.log([x]))[0]
            assert got == pytest.approx(ref, rel=1e-14, abs=0.0), (a, b, x)

    def test_log_density_far_out(self):
        # no overflow past t = 710; the tail decays like e^(-2t)
        law = analytic._unit_law(FlatConfig(40, 39, 38, 6.0), K1)
        lf = analytic._log_density(law, np.array([400.0, 800.0, 1600.0]))
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
        assert analytic._unit_law(cfg1, K1).log_pref == pytest.approx(ref, rel=0.0, abs=1e-12)

    def test_density_path_calls_no_crofton_constant(self, crofton_calls):
        distance_density(CFG, K1, 0.5, TOL)
        distance_cdf(CFG, K1, 0.5, TOL)
        moment(CFG, K1, 1.0, True, TOL)
        assert crofton_calls == []

    def test_cdf_grid_computes_the_crofton_constant_once(self):
        # the density's normaliser is the radial mass, the Crofton constant's evaluation
        distance_cdf_grid(CFG, K1, np.linspace(0.05, 4.0, 128), TOL)
        assert log_radial_mass.cache_info().misses == 1


class TestUnitLaw:
    def test_density_builds_the_law_once(self, monkeypatch):
        cached = []

        def spy(a, b):
            cached.append(analytic._unit_law.cache_info().currsize)
            return betaln(a, b)

        betaln = analytic.betaln
        monkeypatch.setattr(analytic, "betaln", spy)
        for x in np.linspace(0.1, 4.0, 50):
            distance_density(CFG, K1, float(x), TOL)
        assert analytic._unit_law.cache_info().misses == 1
        # both betaln values (the density's, and p's and the atom's) are
        # computed before the law enters the cache
        assert cached == [0, 0]

    def test_scalar_far_tail_is_the_array_call(self):
        from scipy.special import betainc

        cfg = FlatConfig(1000, 999, 998, 12.0)
        x = (math.sinh(12.0) / math.sinh(30.0)) ** 2
        assert betainc(500.0, 0.5, x) < 1e-200  # the hypergeometric series
        scalar = distance_density(cfg, K1, 30.0, TOL)
        assert type(scalar) is float and scalar > 0.0
        assert scalar == distance_density(cfg, K1, np.array([30.0]), TOL)[0]
        assert scalar == distance_density(cfg, K1, np.array([6.0, 30.0, 60.0]), TOL)[1]

    def test_same_values_with_a_cold_cache(self):
        deltas = np.linspace(0.1, 4.0, 7)
        warm = [distance_density(CFG, K1, deltas, TOL), distance_cdf(CFG, K1, 1.5, TOL),
                intersection_probability(CFG, K1, TOL)]
        analytic._unit_law.cache_clear()
        log_radial_mass.cache_clear()
        analytic._radial_mass_parts.cache_clear()
        np.testing.assert_array_equal(distance_density(CFG, K1, deltas, TOL), warm[0])
        analytic._unit_law.cache_clear()
        assert distance_cdf(CFG, K1, 1.5, TOL) == warm[1]
        analytic._unit_law.cache_clear()
        assert intersection_probability(CFG, K1, TOL) == warm[2]


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

    @pytest.mark.parametrize("deltas", [
        np.r_[np.linspace(0.1, 3.0, 300), [3.0] * 10],           # copies of the last point
        np.r_[np.linspace(0.1, 1.0, 300), [1.0] * 3],            # ending at v
        np.sort(np.r_[np.linspace(0.1, 3.0, 300), [1.0] * 7]),   # copies of v
        np.zeros(200),
        np.r_[np.zeros(150), np.linspace(0.5, 2.0, 100)],
        np.linspace(0.05, 0.95, 300),                            # no panel past v
        np.linspace(1.05, 4.0, 300),                             # only points past v
    ], ids=["last-copies", "end-at-v", "v-copies", "zeros", "zeros-then", "below-v", "past-v"])
    def test_long_grid_shapes(self, deltas):
        # more than 128 points, most of them inside the law's panels
        np.testing.assert_allclose(
            distance_cdf_grid(CFG, K1, deltas, TOL),
            [distance_cdf(CFG, K1, float(x), TOL) for x in deltas], rtol=1e-12, atol=0.0)

    def test_a_wide_segment_is_refined(self, monkeypatch):
        # the first panels below v = 12 are graded toward the layer about 1/1000
        # wide below it, and those that miss it are halved: halving settles the
        # grid without an adaptive integral of its own
        cfg = FlatConfig(1000, 999, 998, 12.0)
        refined = []

        def spy(law, lo, hi, tol):
            refined.append((lo, hi))
            return density_integral(law, lo, hi, tol)

        density_integral = analytic._density_integral
        monkeypatch.setattr(analytic, "_density_integral", spy)
        grid = distance_cdf_grid(cfg, K1, [12.0, 72.0], TOL)
        assert refined == []
        monkeypatch.undo()
        np.testing.assert_allclose(
            grid, [distance_cdf(cfg, K1, 12.0, TOL), distance_cdf(cfg, K1, 72.0, TOL)],
            rtol=1e-12, atol=0.0)
        assert grid[1] == pytest.approx(P_STAR_1000_999_998_V12_MPMATH, rel=1e-9, abs=0.0)

    @pytest.mark.parametrize("cfg", [FlatConfig(40, 39, 38, 6.0), FlatConfig(200, 199, 1, 8.0)])
    def test_refines_failing_segments_together(self, cfg, monkeypatch):
        # 9 of the 21 and 9 of the 24 first panels of these grids miss the
        # tolerance; a few rounds of halving settle all of them
        calls = []

        def spy(*args, **kwargs):
            calls.append(args[1:3])
            return density_integral(*args, **kwargs)

        density_integral = analytic._density_integral
        monkeypatch.setattr(analytic, "_density_integral", spy)
        deltas = np.linspace(0.0, 4.0 * cfg.u, 129)[1:]
        grid = distance_cdf_grid(cfg, K1, deltas, TOL)
        assert calls == []
        monkeypatch.undo()
        np.testing.assert_allclose(
            grid, [distance_cdf(cfg, K1, float(x), TOL) for x in deltas], rtol=1e-12, atol=0.0)

    def test_makes_no_adaptive_call(self, monkeypatch):
        def fail(*args, **kwargs):
            raise AssertionError("integrate_adaptive called")

        log_radial_mass(3, 1, 1.0)  # the Crofton constant's, memoised
        monkeypatch.setattr(analytic, "integrate_adaptive", fail)
        assert distance_cdf_grid(CFG, K1, np.linspace(0.05, 4.0, 128), TOL).shape == (128,)
        assert distance_cdf_grid(CFG, K1, np.linspace(0.05, 4.0, 3000), TOL).shape == (3000,)

    def test_refinement_stops_at_the_subdivision_budget(self):
        # the layer below v = 12 needs more halvings than a budget of 40 panels allows
        with pytest.raises(QuadratureError, match="40 panels"):
            distance_cdf_grid(FlatConfig(1000, 999, 998, 12.0), K1, [12.0, 72.0],
                              Tolerance(max_subdivisions=40))

    def test_a_segment_too_narrow_to_halve_raises(self, monkeypatch):
        # an integrand with a jump at 0.5 never meets the tolerance on the panel
        # that holds the jump, and halving that panel ends at one a few doubles
        # wide, whose halves would put nodes on their ends
        def log_integrands(law, alpha=0.0):
            def log_g(x):
                return np.where(x >= 0.5, 0.0, -1.0)
            return log_g, log_g

        monkeypatch.setattr(analytic, "_log_integrands", log_integrands)
        with pytest.raises(QuadratureError, match="too narrow to halve"):
            distance_cdf_grid(CFG, K1, [0.5, 0.75], TOL)

    @pytest.mark.parametrize("trials", [5000, 100_000])
    @pytest.mark.parametrize("cfg, K", [
        (FlatConfig(3, 2, 1, 1.0), K1),
        (FlatConfig(12, 8, 1, 1.0), K1),    # F ~ t^7 near 0
        (FlatConfig(40, 39, 38, 6.0), K1),  # thin layer below v, refined segments
        (FlatConfig(30, 3, 1, 3.0), Curvature(-1.0 / 30.0)),
        (FlatConfig(50, 2, 1, 2.0), Curvature(-0.02))])
    def test_monte_carlo_samples_match_pointwise(self, cfg, K, trials):
        # every point takes the node interpolant of the law panel that holds it;
        # (40, 39, 38) hits 125 times in 5000 trials, and its panels are refined
        samples = estimate_samples(cfg, K, trials)
        grid = distance_cdf_grid(cfg, K, samples, TOL)
        idx = np.unique(np.r_[np.arange(0, samples.size, 100), np.arange(1, 40, 3),
                              samples.size - 1])
        np.testing.assert_allclose(
            grid[idx], [distance_cdf(cfg, K, float(x), TOL) for x in samples[idx]],
            rtol=1e-12, atol=0.0)

    @pytest.mark.parametrize("cfg, K", [(FlatConfig(3, 2, 1, 1.0), K1),
                                        (FlatConfig(50, 2, 1, 2.0), Curvature(-0.02)),
                                        *BENCH_CONFIGS[1:3]])
    def test_long_grids_take_their_knots_from_the_law(self, cfg, K, monkeypatch):
        # 4151, 2202, 1605 and 2518 sorted hits: at most 40 first panels, not one
        # per point; at these configurations (three of them the benchmark's law
        # ones) a cold grid of the hits or of 128 points is one call of the
        # density integrand, with no panel to refine
        calls = []

        def spy(law, alpha=0.0):
            log_g, log_g_past = log_integrands(law, alpha)

            def counted(t):
                calls.append(t.size)
                return log_g(t)
            return counted, log_g_past

        samples = estimate_samples(cfg, K, 5000)
        log_integrands = analytic._log_integrands
        monkeypatch.setattr(analytic, "_log_integrands", spy)
        for deltas in (samples, [4.0 * cfg.u / 128 * (i + 1) for i in range(128)]):
            calls.clear()
            analytic._unit_law.cache_clear()
            distance_cdf_grid(cfg, K, deltas, TOL)
            assert len(calls) == 1 and calls[0] <= 40 * 15
        assert samples.size > 1500

    def test_points_that_miss_the_tolerance_halve_their_panels(self, monkeypatch):
        # 65 points, each with a copy 1e-6 relative past it: once every panel
        # meets the tolerance, the error estimates of 44 points below v (the
        # interpolant's own among them) still miss rel_tol times their value.
        # The 22 panels that hold them are halved and only the halves are
        # evaluated: no point becomes a panel end, and no panel is evaluated twice
        cfg = FlatConfig(40, 39, 38, 6.0)
        base = np.linspace(0.0, 12.0, 66)[1:]
        deltas = np.sort(np.r_[base, base * (1.0 + 1e-6)])
        panels, at_points = [], []

        def spy_panels(law, lo, hi, far):
            panels.append(list(zip(lo.tolist(), hi.tolist())))
            return panel_integrals(law, lo, hi, far)

        def spy_points(*args):
            at_points.append(len(panels))
            return cdf_at(*args)

        panel_integrals, cdf_at = analytic._panel_integrals, analytic._cdf_at
        monkeypatch.setattr(analytic, "_panel_integrals", spy_panels)
        monkeypatch.setattr(analytic, "_cdf_at", spy_points)
        grid = distance_cdf_grid(cfg, K1, deltas, TOL)
        monkeypatch.undo()
        # the points were evaluated twice, with halves evaluated in between
        assert len(at_points) == 2 and at_points[1] == at_points[0] + 1
        evaluated = [p for call in panels for p in call]
        assert len(set(evaluated)) == len(evaluated)
        # every panel after the first call is a half of one evaluated before it
        for i, call in enumerate(panels[1:], 1):
            before = {p for c in panels[:i] for p in c}
            assert len(call) % 2 == 0
            for (a, m), (m2, b) in zip(call[::2], call[1::2]):
                assert m == m2 == 0.5 * (a + b) and (a, b) in before
        np.testing.assert_allclose(
            grid, [distance_cdf(cfg, K1, float(x), TOL) for x in deltas], rtol=1e-12, atol=0.0)

    @pytest.mark.parametrize("cfg", [CFG, FlatConfig(12, 8, 1, 1.0)])
    @pytest.mark.parametrize("deltas", [[1e-300, 1.0], np.logspace(-12, 0.5, 128)])
    def test_points_near_0_cut_the_first_panel_at_once(self, cfg, deltas, monkeypatch):
        # F is 0 where the first panel [0, h] starts, so a point t far below h
        # misses until that panel is halved toward 0 about log2(h / t) times:
        # the halves ending at h/2^k, ..., h/4, h/2 are evaluated in one call,
        # not one round each (about 1000 rounds for t = 1e-300)
        panels = []

        def spy(law, lo, hi, far):
            panels.append((lo, hi))
            return panel_integrals(law, lo, hi, far)

        panel_integrals = analytic._panel_integrals
        monkeypatch.setattr(analytic, "_panel_integrals", spy)
        grid = distance_cdf_grid(cfg, K1, deltas, TOL)
        monkeypatch.undo()
        assert len(panels) == 2
        h, (lo, hi) = panels[0][1][0], panels[1]
        k = lo.size - 1
        np.testing.assert_array_equal(hi, np.ldexp(h, -np.arange(k, -1, -1)))
        assert lo[0] == 0.0 and hi[0] <= deltas[0] < 2.0 * hi[0]
        np.testing.assert_allclose(
            grid, [distance_cdf(cfg, K1, float(x), TOL) for x in deltas], rtol=1e-12, atol=0.0)


def estimate_samples(cfg, K, trials):
    """The sorted finite Monte Carlo distances of a seed-7 run."""
    return simulate_distance_distribution(cfg, K, trials, 7).finite_samples


class TestSubnormal:
    """Results below the smallest normal double keep their digits."""

    @pytest.mark.parametrize("key", sorted(RHO_SUBNORMAL_MPMATH))
    def test_rho(self, key):
        got = critical_constant_rho(*key, tol=TOL)
        assert got == pytest.approx(RHO_SUBNORMAL_MPMATH[key], rel=1e-9, abs=4 * math.ulp(0.0))

    def test_probability(self):
        got = intersection_probability(FlatConfig(600, 300, 0, 3.1), K1, TOL)
        assert got == pytest.approx(P_600_300_0_V3_1_MPMATH, rel=1e-9, abs=4 * math.ulp(0.0))

    @pytest.mark.parametrize("log_c", [-700.0, -720.0, -800.0])
    def test_relative_integral_of_a_narrow_peak(self, log_c):
        # e^log_c times a Gaussian of width 0.01 at 0.3, whose mass is 0.01 sqrt(pi):
        # a normal, a subnormal and a zero result.  No node of a first panel on
        # [0, 2] lies within 2 widths of the peak.  In log form the integral
        # converges on the relative tolerance alone, and its log is finite.
        res = integrate_adaptive(lambda x: log_c - ((x - 0.3) / 0.01) ** 2, 0.0, 2.0, TOL,
                                 log_form=True)
        log_ref = log_c + math.log(0.01 * math.sqrt(math.pi))
        assert res.value == pytest.approx(math.exp(log_ref), rel=1e-9, abs=2 * math.ulp(0.0))
        assert res.log_value == pytest.approx(log_ref, rel=1e-12)


class TestGuards:
    def test_moment_tail_is_bounded(self, monkeypatch):
        # a density that never decays: the integral to infinity diverges, and
        # the quadrature gives up and says so
        monkeypatch.setattr(analytic, "_log_density",
                            lambda law, t: np.zeros(np.shape(t)))
        with pytest.raises(QuadratureError) as info:
            moment(CFG, K1, 0.5, True, TOL)
        assert info.value.partial is not None
        assert not info.value.partial.converged
        assert info.value.partial.value > 0

    def test_cdf_grid_checks_its_range(self, monkeypatch):
        # a constant density c below v = 1, so that F(t) = c t, on every panel
        # with error estimates 5e-10 times the panel's value
        def panels(c):
            def panel_integrals(law, lo, hi, far):
                return (c * (hi - lo), 5e-10 * abs(c) * (hi - lo), np.ones((lo.size, 15)),
                        0.5 * c * (hi - lo))
            return panel_integrals

        monkeypatch.setattr(analytic, "_panel_integrals", panels(1.2))
        with pytest.raises(ProbabilityRangeError):
            distance_cdf_grid(CFG, K1, [0.5, 1.0], TOL)
        monkeypatch.setattr(analytic, "_panel_integrals", panels(-1e-3))
        with pytest.raises(ProbabilityRangeError):
            distance_cdf_grid(CFG, K1, [0.5], TOL)
        # an overshoot within the summed error estimates is clamped
        monkeypatch.setattr(analytic, "_panel_integrals", panels(1.0 + 2e-10))
        grid = distance_cdf_grid(CFG, K1, [0.5, 1.0], TOL)
        assert grid[0] == pytest.approx(0.5 + 1e-10, rel=1e-15, abs=0.0) and grid[1] == 1.0

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

    @pytest.mark.parametrize("ratio", [0.5, 0.9, 1.1])
    def test_oracle_matches_at_large_m(self, ratio):
        # m = 335: below u the oracle's integrand is s^334, 1e-104 at s = 1/2
        cfg = FlatConfig(1000, 506, 171, 0.01)
        assert euclidean_cdf_mp_oracle(1000, 506, 171, 0.01, ratio * 0.01) == pytest.approx(
            euclidean_distance_cdf(cfg, ratio * 0.01, TOL), rel=1e-12, abs=0.0)

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

    def test_rho_near_u_0(self):
        # r* = 8e-101: rho is 1 - O(z), z = kappa u^2 / 2; bisection from one
        # panel never reached r* and gave 3.7e-158
        assert critical_constant_rho(1e-100, 2, 1, 1.0, TOL) == pytest.approx(1.0, rel=0.0,
                                                                             abs=1e-9)
        with pytest.raises(DomainError, match="underflows"):
            critical_constant_rho(1e-170, 2, 1, 1.0, TOL)

    @pytest.mark.parametrize("key", [(1e-100, 2, 1, 1.0), (1e-20, 3, 0, 1.0)])
    def test_rho_oracle_resolves_r_star(self, key):
        # r* = sqrt(z / (z + a)) far below 1/16: split only at k/16 and
        # 1 - 2^-j the oracle gave 1.59e-130 and 0.99999977
        assert rho_mp_oracle(*key) == pytest.approx(critical_constant_rho(*key, TOL),
                                                    rel=1e-9, abs=0.0)

    def test_rho_names_a_normaliser_beyond_scipy(self):
        # scipy's hyp1f1(1, m/2 + 1, -z) is nan at z = 5e19; it was
        # ProbabilityRangeError: probability nan
        with pytest.raises(DomainError, match=r"u=10000000000\.0, z=.*5e\+19"):
            critical_constant_rho(1e10, 50, 3, 1.0, TOL)

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
