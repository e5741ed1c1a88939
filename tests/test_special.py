import dataclasses
import math
import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hypflats import (
    Curvature,
    CurvatureModeError,
    DomainError,
    FlatConfig,
    constant_D,
    klein_distance,
    klein_radius,
    klein_radius_inv,
    log_sphere_surface,
    sphere_surface,
)
from hypflats.special import betaln


class TestCurvature:
    def test_rejects_positive(self):
        with pytest.raises(DomainError):
            Curvature(0.5)

    def test_scale(self):
        assert Curvature(-4.0).scale == 2.0
        assert Curvature(0.0).is_flat

    def test_flat_has_no_ball(self):
        with pytest.raises(CurvatureModeError):
            Curvature(0.0).ball_radius

    def test_ball_radius(self):
        assert Curvature(-0.25).ball_radius == 2.0

    @pytest.mark.parametrize("K", [-1.0, -0.5, -1e-3, 0.0, -2.0 ** -1074])
    def test_hash_is_that_of_the_field_tuple(self, K):
        curv = Curvature(K)
        assert hash(curv) == hash((curv.K, curv.scale))
        assert dataclasses.astuple(curv) == (curv.K, curv.scale)

    def test_hash_survives_equality_repr_asdict_and_pickling(self):
        curv = Curvature(-0.5)
        assert curv == Curvature(-0.5) and curv != Curvature(-0.25)
        assert repr(curv) == f"Curvature(K=-0.5, scale={math.sqrt(0.5)!r})"
        assert dataclasses.asdict(curv) == {"K": -0.5, "scale": math.sqrt(0.5)}
        copy = pickle.loads(pickle.dumps(curv))
        assert copy == curv and hash(copy) == hash(curv)


class TestFlatConfig:
    def test_valid(self):
        cfg = FlatConfig(5, 3, 1, 2.0)
        assert cfg.k == 3

    @pytest.mark.parametrize(
        "d,q,g,u",
        [(1, 1, 0, 1.0), (3, 3, 1, 1.0), (3, 0, 0, 1.0),
         (3, 2, 2, 1.0), (3, 2, -1, 1.0), (3, 2, 1, 0.0), (3, 2, 1, -1.0)],
    )
    def test_invalid(self, d, q, g, u):
        with pytest.raises(DomainError):
            FlatConfig(d, q, g, u)

    @pytest.mark.parametrize("d,q,g,u", [(3, 2, 1, 1.0), (30, 3, 1, 3.0), (1000, 999, 998, 1e-300)])
    def test_hash_is_that_of_the_field_tuple(self, d, q, g, u):
        cfg = FlatConfig(d, q, g, u)
        assert hash(cfg) == hash((d, q, g, u)) == hash(dataclasses.astuple(cfg))

    def test_hash_survives_equality_repr_asdict_and_pickling(self):
        cfg = FlatConfig(5, 3, 1, 2.0)
        assert cfg == FlatConfig(5, 3, 1, 2.0) and cfg != FlatConfig(5, 3, 1, 2.5)
        assert {cfg: 1}[FlatConfig(5, 3, 1, 2.0)] == 1
        assert repr(cfg) == "FlatConfig(d=5, q=3, gamma=1, u=2.0)"
        assert dataclasses.asdict(cfg) == {"d": 5, "q": 3, "gamma": 1, "u": 2.0}
        copy = pickle.loads(pickle.dumps(cfg))
        assert copy == cfg and hash(copy) == hash(cfg)
        assert hash(dataclasses.replace(cfg, u=3.0)) == hash((5, 3, 1, 3.0))


class TestSphereSurface:
    def test_known_values(self):
        assert sphere_surface(1) == pytest.approx(2.0, rel=1e-14)
        assert sphere_surface(2) == pytest.approx(2 * math.pi, rel=1e-14)
        assert sphere_surface(3) == pytest.approx(4 * math.pi, rel=1e-14)
        assert sphere_surface(4) == pytest.approx(2 * math.pi**2, rel=1e-14)

    def test_log_form_large_dimension(self):
        # direct evaluation overflows the Gamma ratio long before n = 2000
        val = log_sphere_surface(2000)
        assert math.isfinite(val)
        # recurrence omega_{n+2} = 2 pi omega_n / n
        lhs = log_sphere_surface(2002)
        rhs = math.log(2 * math.pi) + log_sphere_surface(2000) - math.log(2000)
        assert lhs == pytest.approx(rhs, abs=1e-10)

    def test_rejects_nonpositive(self):
        with pytest.raises(DomainError):
            log_sphere_surface(0)


def mp_betaln(a, b):
    import mpmath as mp

    with mp.workdps(40):
        return mp.log(mp.beta(mp.mpf(a), mp.mpf(b)))


class TestBetaln:
    # half-integers: the parameters of every beta function of the distance law
    HALVES = [k / 2 for k in range(1, 41)] + [30.5, 64.0, 100.5, 250.0, 250.5, 483.5, 499.5, 500.0]

    def test_half_integers_against_mpmath(self):
        # within 16 units of rounding of log B (scipy's betaln: 2074 at (483.5, 0.5))
        for a in self.HALVES:
            for b in self.HALVES:
                ref = mp_betaln(a, b)
                assert abs(betaln(a, b) - ref) <= 16 * math.ulp(float(ref)), (a, b)

    def test_random_pairs_against_mpmath(self):
        rng = np.random.default_rng(11)
        for a, b in np.exp(rng.uniform(math.log(0.05), math.log(5000.0), (300, 2))):
            ref = mp_betaln(a, b)
            assert abs(betaln(a, b) - ref) <= 4e-15 * max(1.0, abs(float(ref))), (a, b)

    def test_symmetric_and_scipy_below_the_series(self):
        from scipy.special import betaln as scipy_betaln

        assert betaln(483.5, 0.5) == betaln(0.5, 483.5)
        assert betaln(7.5, 3.0) == scipy_betaln(7.5, 3.0)


class TestConstantD:
    def test_known_values(self):
        assert constant_D(FlatConfig(3, 2, 1, 1.0)) == pytest.approx(
            1 / math.pi, rel=1e-13
        )
        assert constant_D(FlatConfig(2, 1, 0, 1.0)) == pytest.approx(
            2 / math.pi**2, rel=1e-13
        )


class TestKleinRadius:
    def test_unit_curvature(self):
        K = Curvature(-1.0)
        assert klein_radius(K, 1.0) == pytest.approx(math.tanh(1.0), rel=1e-15)

    def test_monotone_and_bounded(self):
        # stay below tanh saturation so strict monotonicity is observable
        K = Curvature(-2.0)
        xs = np.linspace(0.01, 6, 50)
        rs = [klein_radius(K, x) for x in xs]
        assert all(b > a for a, b in zip(rs, rs[1:]))
        assert rs[-1] < K.ball_radius

    @settings(max_examples=50, deadline=None)
    @given(
        x=st.floats(0.0, 4.0),
        negK=st.floats(1e-4, 1.0),
    )
    def test_roundtrip(self, x, negK):
        K = Curvature(-negK)
        assert klein_radius_inv(K, klein_radius(K, x)) == pytest.approx(
            x, rel=1e-9, abs=1e-12
        )

    def test_inv_rejects_boundary(self):
        with pytest.raises(DomainError):
            klein_radius_inv(Curvature(-1.0), 1.0)


class TestKleinDistance:
    def test_origin_matches_radial_formula(self):
        K = Curvature(-1.0)
        o = np.zeros(3)
        y = np.array([0.3, 0.4, 0.0])
        assert klein_distance(K, o, y) == pytest.approx(
            klein_radius_inv(K, 0.5), abs=1e-12
        )

    def test_near_boundary_precision(self):
        # cancellation test: radial distance via the two routes must agree
        K = Curvature(-1.0)
        for r in (0.9, 0.99, 0.999999, 1 - 1e-12):
            o = np.zeros(2)
            y = np.array([r, 0.0])
            assert klein_distance(K, o, y) == pytest.approx(
                klein_radius_inv(K, r), rel=1e-12
            )

    def test_symmetry_and_identity(self):
        K = Curvature(-0.5)
        x = np.array([0.2, -0.1, 0.05])
        y = np.array([-0.3, 0.25, 0.1])
        assert klein_distance(K, x, y) == pytest.approx(
            klein_distance(K, y, x), rel=1e-14
        )
        assert klein_distance(K, x, x) == 0.0

    def test_triangle_inequality(self):
        K = Curvature(-1.0)
        rng = np.random.default_rng(7)
        for _ in range(50):
            x, y, z = 0.5 * rng.uniform(-1, 1, (3, 3)) / math.sqrt(3)
            assert klein_distance(K, x, z) <= (
                klein_distance(K, x, y) + klein_distance(K, y, z) + 1e-12
            )

    def test_rejects_outside_ball(self):
        with pytest.raises(DomainError):
            klein_distance(Curvature(-1.0), np.zeros(2), np.array([1.1, 0.0]))
