import math

import numpy as np
import pytest

from hypflats import (
    ConstructionError,
    Curvature,
    DomainError,
    FlatConfig,
    HittingFlatSampler,
    SimEstimate,
    estimate_intersection_probability,
    intersection_probability,
    ks_statistic,
    sample_central_subspace,
    sample_hitting_flat,
    simulate_distance_distribution,
)
import hypflats.analytic as analytic
import hypflats.montecarlo as mc
from hypflats.montecarlo import _trial_rng
from oracles import probability_closed_form_oracle, radial_cdf_oracle, radial_cdf_rho_oracle
from scipy.stats import ks_2samp
from test_klein import reference_intersection

CFG = FlatConfig(3, 2, 1, 1.0)
K1 = Curvature(-1.0)


class TestRng:
    def test_counter_streams_differ(self):
        a = _trial_rng(7, 0).random(4)
        b = _trial_rng(7, 1).random(4)
        assert not np.allclose(a, b)

    def test_reproducible(self):
        np.testing.assert_array_equal(
            _trial_rng(7, 3).random(4), _trial_rng(7, 3).random(4)
        )

    def test_seed_range_checked(self):
        with pytest.raises(DomainError):
            estimate_intersection_probability(CFG, K1, 10, -1)


class TestSampleCentralSubspace:
    def test_orthonormal(self):
        rng = np.random.default_rng(0)
        B = sample_central_subspace(5, 3, rng)
        G = B.columns.T @ B.columns
        np.testing.assert_allclose(G, np.eye(3), atol=1e-12)

    def test_rotation_invariance_of_first_coordinate(self):
        # for q=1 in d=2 the column is uniform on the circle up to sign fix:
        # the angle of the spanned line is uniform on [0, pi)
        rng = np.random.default_rng(1)
        angles = []
        for _ in range(4000):
            v = sample_central_subspace(2, 1, rng).columns[:, 0]
            angles.append(math.atan2(v[1], v[0]) % math.pi)
        hist, _ = np.histogram(angles, bins=8, range=(0, math.pi))
        expected = 4000 / 8
        chi2 = np.sum((hist - expected) ** 2 / expected)
        assert chi2 < 30.0  # 7 dof; p ~ 1e-4 cutoff

    def test_dimension_check(self):
        with pytest.raises(DomainError):
            sample_central_subspace(3, 3, np.random.default_rng(0))

    def test_degenerate_draws_raise_after_bounded_attempts(self):
        class Zeros:
            calls = 0

            def standard_normal(self, size):
                self.calls += 1
                return np.zeros(size)

        rng = Zeros()
        with pytest.raises(ConstructionError):
            sample_central_subspace(4, 2, rng)
        assert rng.calls == mc._QR_ATTEMPTS

    def test_degenerate_rows_are_redrawn(self):
        class ZerosFirst:
            def __init__(self):
                self.inner = np.random.default_rng(9)
                self.calls = 0

            def standard_normal(self, size):
                self.calls += 1
                out = self.inner.standard_normal(size)
                if self.calls == 1:
                    out[1] = 0.0
                return out

        rng = ZerosFirst()
        frames = mc._haar_frames(4, 2, rng, 3)
        assert rng.calls == 2
        for F in frames:
            np.testing.assert_allclose(F.T @ F, np.eye(2), atol=1e-12)


# configurations that select each envelope (checked in
# test_power_envelope_at_small_v_and_large_m)
POWER_CFG = FlatConfig(10, 9, 1, 0.3)
EXPONENTIAL_CFG = CFG


def reference_radius(sampler, rng):
    """One radius by a scalar rejection loop written from the envelope's formula."""
    d, m, K = sampler.cfg.d, sampler.m, sampler.K
    v = K.scale * sampler.cfg.u
    while True:
        u, w = rng.random(), rng.random()
        if sampler.envelope == "power":
            # r^(m-1) in Klein r, equal to r^(m-1) (1 + K r^2)^(-(d+1)/2) at R
            r = sampler.R * u ** (1.0 / m)
            log_accept = -0.5 * (d + 1) * (math.log1p(K.K * r * r)
                                           - math.log1p(K.K * sampler.R ** 2))
        else:
            # tanh^(m-1)(v) exp(lam rho) on [0, v], inverted in closed form
            lam = (d - 1) * math.log(math.cosh(v)) / v
            rho = v + math.log(u + (1.0 - u) * math.exp(-lam * v)) / lam
            log_accept = ((d - 1) * math.log(math.cosh(rho)) - lam * rho
                          + (m - 1) * (math.log(math.tanh(rho)) - math.log(math.tanh(v))))
            r = math.tanh(rho) / K.scale
        if math.log(w) < log_accept:
            return r


class TestHittingFlatSampler:
    @pytest.mark.parametrize("cfg", [CFG, FlatConfig(7, 4, 2, 1.3), FlatConfig(50, 2, 1, 0.28),
                                     FlatConfig(1000, 999, 998, 12.0), FlatConfig(3, 2, 1, 1e-200)])
    def test_reads_its_constants_from_the_law(self, cfg, radial_mass_calls):
        # v, tanh v, log tanh v, log cosh v and the radial mass are the law's,
        # and a sampler built after its law evaluates no radial mass
        law = analytic._unit_law(cfg, K1)
        sampler = HittingFlatSampler(cfg, K1)
        assert len(radial_mass_calls) == 1
        d, m = cfg.d, law.m
        assert (sampler._v, sampler._tanh_v, sampler.m) == (law.v, law.tanh_v, m)
        assert sampler.R == law.tanh_v / K1.scale
        assert sampler._lam == (d - 1) * law.log_cosh_v / law.v
        assert sampler._drop == math.expm1(-(d - 1) * law.log_cosh_v)
        if sampler.envelope == "power":
            log_envelope = m * law.log_tanh_v - math.log(m) + (d + 1) * law.log_cosh_v
        else:
            log_envelope = ((m - 1) * law.log_tanh_v + (d - 1) * law.log_cosh_v
                            + math.log(-sampler._drop) - math.log(sampler._lam))
        assert sampler.acceptance == math.exp(law.log_R - log_envelope)

    @pytest.mark.parametrize("u, K", [(1e-310, -1.0), (1e-200, -1e-300), (1e300, -1e300)])
    def test_checks_the_reduced_radius(self, u, K):
        cfg, K = FlatConfig(3, 2, 1, u), Curvature(K)
        with pytest.raises(DomainError, match=r"sqrt\(-K\) u"):
            HittingFlatSampler(cfg, K)
        with pytest.raises(DomainError, match=r"sqrt\(-K\) u"):
            sample_hitting_flat(cfg, K, np.random.default_rng(1))

    def test_flat_dimension_and_hitting(self):
        from hypflats import klein_radius_inv

        sampler = HittingFlatSampler(CFG, K1)
        rng = np.random.default_rng(2)
        R = sampler.R
        for _ in range(200):
            E = sampler.sample(rng)
            assert E.dim == CFG.k
            r = np.linalg.norm(E.offset)
            assert r <= R * (1 + 1e-12)
            assert klein_radius_inv(K1, min(r, R)) <= CFG.u + 1e-10

    def test_acceptance_at_envelope_max_is_one(self):
        # each envelope touches the law at the top of its range and lies
        # above it everywhere else
        u = np.linspace(0.0, 1.0, 2001)[1:]
        for cfg in (POWER_CFG, EXPONENTIAL_CFG, FlatConfig(1000, 500, 0, 1.0)):
            sampler = HittingFlatSampler(cfg, K1)
            r, log_accept = sampler._propose(u)
            assert r[-1] == pytest.approx(math.tanh(cfg.u), rel=1e-15)
            assert log_accept[-1] == pytest.approx(0.0, abs=1e-12 * cfg.d * cfg.u)
            assert np.all(log_accept <= 1e-12 * cfg.d * cfg.u)

    def test_exponential_envelope_at_large_d(self):
        cfg = FlatConfig(400, 2, 1, 1.0)
        sampler = HittingFlatSampler(cfg, K1)
        assert sampler.envelope == "exponential"
        rng = np.random.default_rng(3)
        for _ in range(20):
            r = np.linalg.norm(sampler.sample(rng).offset)
            assert 0.0 <= r <= sampler.R * (1 + 1e-9)

    def test_power_envelope_at_small_v_and_large_m(self):
        sampler = HittingFlatSampler(POWER_CFG, K1)
        assert sampler.envelope == "power"
        assert HittingFlatSampler(EXPONENTIAL_CFG, K1).envelope == "exponential"
        # where (d-1) log cosh v is lost to rounding only power is offered
        tiny = HittingFlatSampler(FlatConfig(3, 2, 1, 1e-200), K1)
        assert tiny.envelope == "power"
        assert tiny.acceptance == pytest.approx(1.0)
        assert 0.0 <= tiny._sample_radius(np.random.default_rng(7)) <= tiny.R

    def test_envelope_choice_and_exact_acceptance(self):
        # the chosen envelope accepts at least 0.418 of proposals over the
        # documented domain; the counters agree with the exact value
        for cfg in (POWER_CFG, EXPONENTIAL_CFG, FlatConfig(1000, 500, 0, 1.0),
                    FlatConfig(60, 3, 1, 2.5), FlatConfig(40, 39, 38, 12.0)):
            sampler = HittingFlatSampler(cfg, K1)
            assert 0.418 <= sampler.acceptance <= 1.0
            _, proposals, accepted = sampler._draw_radii(np.random.default_rng(13), 20000)
            rate = accepted / proposals
            se = math.sqrt(sampler.acceptance * (1 - sampler.acceptance) / proposals)
            assert abs(rate - sampler.acceptance) <= 5 * se
        with pytest.raises(AttributeError):
            sampler.envelope = "power"

    def test_radial_law_matches_oracle(self):
        sampler = HittingFlatSampler(CFG, K1)
        rng = np.random.default_rng(4)
        radii = np.sort([np.linalg.norm(sampler.sample(rng).offset)
                         for _ in range(20000)])
        cdf = radial_cdf_oracle(CFG.d, CFG.q - CFG.gamma, sampler.R, K1.K, radii)
        assert ks_statistic(radii, cdf) < 0.015

    def test_radial_law_matches_mpmath(self):
        # large v and d, where the law sits in a thin layer below v; the
        # mpmath CDF is taken at every 40th sorted draw and interpolated,
        # which moves the statistic by at most one cell's mass (about 0.002)
        for cfg in (FlatConfig(10, 9, 8, 8.0), FlatConfig(10, 9, 8, 4.0),
                    FlatConfig(30, 2, 1, 4.0), FlatConfig(60, 3, 1, 2.5), POWER_CFG):
            sampler = HittingFlatSampler(cfg, K1)
            rng = np.random.default_rng(5)
            rho = np.sort(np.arctanh([sampler._sample_radius(rng) for _ in range(20000)]))
            knots = np.concatenate(([0.0], rho[::40], [cfg.u]))
            cdf = np.interp(rho, knots, radial_cdf_rho_oracle(cfg.d, sampler.m, cfg.u, knots))
            assert ks_statistic(rho, cdf) <= 0.015, cfg

    def test_one_radius_matches_scalar_rejection_loop(self):
        # the n-th radius of a batch is the n-th acceptance of the scalar
        # loop over the same sequence of uniform pairs, and the batch counts
        # the pairs that loop consumed up to it
        class Counting:
            def __init__(self, seed):
                self.inner = np.random.default_rng(seed)
                self.draws = 0

            def random(self):
                self.draws += 1
                return self.inner.random()

        for cfg in (POWER_CFG, EXPONENTIAL_CFG):
            sampler = HittingFlatSampler(cfg, K1)
            assert sampler._sample_radius(np.random.default_rng(12)) == pytest.approx(
                reference_radius(sampler, np.random.default_rng(12)), rel=1e-12)
            radii, proposals, accepted = sampler._draw_radii(np.random.default_rng(12), 200)
            loop = Counting(12)
            expect = [reference_radius(sampler, loop) for _ in range(200)]
            np.testing.assert_allclose(radii, expect, rtol=1e-12)
            assert accepted == 200 and proposals == loop.draws // 2

    def test_rejection_rounds_are_bounded(self):
        class Interior:
            # proposal in the middle of the range, acceptance uniform just
            # under 1: every envelope rejects it
            def random(self, size):
                out = np.full(size, 1.0 - 1e-12)
                out[:, 0] = 0.5
                return out

        for cfg in (POWER_CFG, EXPONENTIAL_CFG):
            sampler = HittingFlatSampler(cfg, K1)
            with pytest.raises(ConstructionError):
                sampler._draw_radii(Interior(), 3)

    def test_wrapper(self):
        rng = np.random.default_rng(6)
        E = sample_hitting_flat(CFG, K1, rng)
        assert E.dim == CFG.k


class TestEstimates:
    def test_from_counts(self):
        est = SimEstimate.from_counts(100, 25, 1)
        assert est.p_hat == 0.25
        assert est.std_err == pytest.approx(math.sqrt(0.25 * 0.75 / 100))

    def test_thread_determinism(self):
        a = estimate_intersection_probability(CFG, K1, 5000, 99, threads=1)
        b = estimate_intersection_probability(CFG, K1, 5000, 99, threads=8)
        assert a == b

    def test_concatenation_consistency(self):
        # trials [0, N) of one run equal trials of two half-runs stitched
        full = simulate_distance_distribution(CFG, K1, 4096, 5, threads=4)
        import hypflats.montecarlo as mc

        d1 = mc._run_trials(CFG, K1, 2048, 5)
        assert full.trials == 4096
        head = mc._run_trials(CFG, K1, 4096, 5)[:2048]
        np.testing.assert_array_equal(d1, head)

    def test_distribution_summary_invariant(self):
        s = simulate_distance_distribution(CFG, K1, 2000, 17, threads=2)
        assert len(s.finite_samples) + s.empty_count == s.trials
        assert np.all(np.diff(s.finite_samples) >= 0)

    def test_probability_at_large_radius(self):
        # p from the mpmath closed form; at u = 8 the radius law sits in a
        # layer about 0.1 wide below v
        for u in (8.0, 4.0):
            p = probability_closed_form_oracle(10, 9, 8, u)
            est = estimate_intersection_probability(FlatConfig(10, 9, 8, u), K1,
                                                    100_000, 41)
            assert abs(est.p_hat - p) <= 4 * est.std_err, (u, est.p_hat, p)

    @pytest.mark.parametrize("d,q,gamma,u,seed", [
        (3, 2, 1, 8.0, 1), (150, 149, 148, 8.0, 2), (40, 39, 38, 6.0, 3),
        (12, 8, 3, 1.0, 4), (300, 299, 1, 0.1, 5)])
    def test_within_four_sigma_of_the_analytic_p(self, d, q, gamma, u, seed):
        # 10^6 trials up to v = 8; sigma from the analytic p
        cfg, n = FlatConfig(d, q, gamma, u), 1_000_000
        p = intersection_probability(cfg, K1)
        est = estimate_intersection_probability(cfg, K1, n, seed)
        assert abs(est.p_hat - p) <= 4 * math.sqrt(p * (1 - p) / n), (est.p_hat, p)

    def test_trials_validation(self):
        with pytest.raises(DomainError):
            estimate_intersection_probability(CFG, K1, 0, 1)


def full_geometry_distances(cfg, K, n, seed):
    """n trials in R^d: Haar L and Haar normal frames of E, offsets from the
    sampler's radii, intersected one flat at a time."""
    rng = np.random.default_rng(seed)
    sampler = HittingFlatSampler(cfg, K)
    L = mc._haar_frames(cfg.d, cfg.q, rng, n)
    W = mc._haar_frames(cfg.d, sampler.m, rng, n)
    g = rng.standard_normal((n, sampler.m))
    radii, _, _ = sampler._draw_radii(rng, n)
    x = np.einsum("nij,nj->ni", W, radii[:, None] * g / np.linalg.norm(g, axis=1, keepdims=True))
    out = np.full(n, np.inf)
    for i in range(n):
        hit = reference_intersection(W[i], x[i], L[i], K)
        if hit is not None:
            out[i] = hit[1]
    return out


class TestInvariantKernel:
    # the independent check of the chi-square ratio: Haar frames in R^d,
    # intersected flat by flat.  (12, 8, 1) has m = 7; (20, 5, 0) has
    # gamma = 0; (10, 9, 1) has d - q < m; (12, 8, 4) and (15, 10, 6) have
    # gamma + 1 = 5 and 7 degrees of freedom in the denominator
    @pytest.mark.parametrize("d,q,gamma,u", [(3, 2, 1, 1.0), (12, 8, 1, 1.0),
                                             (20, 5, 0, 1.0), (10, 9, 1, 0.3),
                                             (12, 8, 4, 1.0), (15, 10, 6, 1.2)])
    def test_matches_full_geometry(self, d, q, gamma, u):
        cfg, n = FlatConfig(d, q, gamma, u), 30000
        ref = full_geometry_distances(cfg, K1, n, 1000 + d)
        got = mc._run_trials(cfg, K1, n, 2000 + d)
        hit_ref, hit_got = np.isfinite(ref), np.isfinite(got)
        p = (hit_ref.sum() + hit_got.sum()) / (2 * n)
        assert 0 < p < 1
        assert abs(hit_ref.mean() - hit_got.mean()) <= 4 * math.sqrt(p * (1 - p) * 2 / n)
        assert ks_2samp(ref[hit_ref], got[hit_got]).pvalue >= 1e-3

    def test_large_m_matches_closed_form(self):
        # m = 38 with d - q = 1: a one-dimensional B
        cfg = FlatConfig(40, 39, 1, 0.3)
        p = probability_closed_form_oracle(40, 39, 1, 0.3)
        est = estimate_intersection_probability(cfg, K1, 10000, 43)
        assert abs(est.p_hat - p) <= 4 * math.sqrt(p * (1 - p) / est.trials)

    @pytest.mark.parametrize("cfg,K", [
        (CFG, K1),                                   # m = 1
        (FlatConfig(50, 2, 1, 2.0), Curvature(-0.02)),  # m = 1, K != -1
        (FlatConfig(10, 4, 2, 1.5), K1),             # m = 2
        (FlatConfig(12, 8, 1, 1.0), K1),             # m = 7
        (FlatConfig(10, 9, 1, 0.3), K1),             # m = 8 > d - q = 1
    ])
    def test_block_draw_order(self, cfg, K):
        # block 1 of seed 11, rebuilt from its stream: chi-squares with
        # gamma + 1 degrees of freedom, then with d - q, then the radii; a
        # trial's norm is r sqrt(1 + chi2_(d-q) / chi2_(gamma+1))
        sampler = mc._get_sampler(cfg, K)
        n = mc._BLOCK_TRIALS
        rng = _trial_rng(11, 1)
        chi_y = rng.chisquare(cfg.gamma + 1, n)
        chi_x = rng.chisquare(cfg.d - cfg.q, n)
        radii, _, _ = sampler._draw_radii(rng, n)
        norm = radii * np.sqrt(1.0 + chi_x / chi_y)
        expect = np.full(n, np.inf)
        meets = norm < K.ball_radius * (1.0 - 1e-14)
        expect[meets] = np.arctanh(K.scale * norm[meets]) / K.scale
        got = mc._run_trials(cfg, K, 2 * n, 11)[n:]
        np.testing.assert_allclose(got, expect, rtol=1e-12)
        assert 0 < np.count_nonzero(np.isfinite(got)) < n

    def test_kernel_calls_no_factorisation_or_solve(self, monkeypatch):
        # the kernel stays off LAPACK (and so off OpenBLAS threads) at every m
        def forbidden(*args, **kwargs):
            raise AssertionError("the kernel called LAPACK")

        for name in ("cholesky", "solve", "inv", "lstsq", "qr"):
            monkeypatch.setattr(np.linalg, name, forbidden)
        for cfg in (CFG, FlatConfig(12, 8, 1, 1.0), FlatConfig(10, 9, 1, 0.3),
                    FlatConfig(300, 299, 1, 0.1)):
            sampler = mc._get_sampler(cfg, K1)
            hyper, _, accepted = mc._block_distances(sampler, _trial_rng(1, 0), 4)
            assert hyper.shape == (4,) and accepted == 4


class TestBlocks:
    def test_blocks_hold_1024_trials_at_every_m(self, monkeypatch):
        # m = 298: 5000 trials are five blocks, one stream each
        streams = []

        def spy(seed, block):
            streams.append((seed, block))
            return _trial_rng(seed, block)

        monkeypatch.setattr(mc, "_trial_rng", spy)
        mc._run_trials(FlatConfig(300, 299, 1, 0.1), K1, 5000, 13)
        assert streams == [(13, j) for j in range(5)]

    def test_prefix_of_a_longer_run(self):
        full = mc._run_trials(CFG, K1, 4096, 11)
        for n in (10, 2 * mc._BLOCK_TRIALS + 517):
            np.testing.assert_array_equal(mc._run_trials(CFG, K1, n, 11), full[:n])

    def test_identical_across_thread_counts(self):
        cfg = FlatConfig(12, 4, 1, 1.5)
        n = 3 * mc._BLOCK_TRIALS + 100
        one = mc._run_trials(cfg, K1, n, 23, threads=1)
        four = mc._run_trials(cfg, K1, n, 23, threads=4)
        np.testing.assert_array_equal(one, four)
        assert one.size == n and 0 < np.count_nonzero(np.isfinite(one)) < n

    def test_radius_counts_exact_under_threads(self):
        sampler = mc._get_sampler(CFG, K1)
        counts = []
        for threads in (1, 4):
            before = (sampler.proposals, sampler.accepted)
            mc._run_trials(CFG, K1, 5000, 31, threads=threads)
            counts.append((sampler.proposals - before[0], sampler.accepted - before[1]))
        assert counts[0] == counts[1]
        blocks = -(-5000 // mc._BLOCK_TRIALS)
        assert counts[0][1] == blocks * mc._BLOCK_TRIALS
        assert counts[0][0] > counts[0][1]

    @pytest.mark.parametrize("trials, threads", [(mc.MAX_TRIALS + 1, None), (0, None),
                                                 (1000, mc.MAX_THREADS + 1), (1000, 0)])
    def test_runs_past_the_caps_raise_before_drawing(self, monkeypatch, trials, threads):
        def no_sampler(cfg, K):
            raise AssertionError("a sampler was built")

        monkeypatch.setattr(mc, "_get_sampler", no_sampler)
        with pytest.raises(DomainError, match="trials|threads"):
            mc._run_trials(CFG, K1, trials, 1, threads)


class TestKsStatistic:
    def test_perfect_fit_small(self):
        n = 1000
        samples = np.sort(np.random.default_rng(8).random(n))
        assert ks_statistic(samples, samples) < 0.06

    def test_total_mismatch(self):
        samples = np.linspace(0.01, 0.99, 100)
        assert ks_statistic(samples, np.zeros(100)) == pytest.approx(1.0)

    def test_requires_sorted(self):
        with pytest.raises(DomainError):
            ks_statistic(np.array([0.5, 0.1]), np.array([0.5, 0.1]))

    def test_requires_nonempty(self):
        with pytest.raises(DomainError):
            ks_statistic(np.array([]), np.array([]))

    def test_requires_one_cdf_value_per_sample(self):
        with pytest.raises(DomainError, match="3 samples but 1 CDF values"):
            ks_statistic([0.1, 0.2, 0.3], [0.5])

    def test_rejects_a_nan_cdf_value(self):
        with pytest.raises(DomainError, match="NaN"):
            ks_statistic([0.1, 0.2, 0.3], [0.2, math.nan, 0.9])
