"""Acceptance suite: one test (and one pass/fail line) per criterion.

Run with `pytest -v tests/test_acceptance.py` to see the per-criterion
verdict lines.
"""

import json
import math
import subprocess
import sys

import numpy as np
import pytest

import hypflats as hf
from hypflats import Curvature, FlatConfig, Tolerance
from oracles import P_STAR_3_2_1, P_STAR_5_3_0_HALF, radial_cdf_oracle, rho_riemann_oracle

TOL = Tolerance()
CFG = FlatConfig(3, 2, 1, 1.0)
K1 = Curvature(-1.0)
MC_TRIALS = 100_000
MC_SEED = 20260823


def report(n, ok, detail=""):
    verdict = "PASS" if ok else "FAIL"
    print(f"criterion {n}: {verdict} {detail}", flush=True)
    assert ok, f"criterion {n} failed: {detail}"


@pytest.fixture(scope="module")
def mc_run():
    return hf.simulate_distance_distribution(CFG, K1, MC_TRIALS, MC_SEED, threads=8)


def test_criterion_01_curvature_scaling():
    worst = 0.0
    for K in (-0.25, -1.0, -4.0):
        for u in (0.5, 1.0, 2.0):
            for d, q, g in ((3, 2, 1), (4, 2, 0), (5, 3, 2)):
                pK = hf.intersection_probability(
                    FlatConfig(d, q, g, u), Curvature(K), TOL
                )
                p1 = hf.intersection_probability(
                    FlatConfig(d, q, g, math.sqrt(-K) * u), K1, TOL
                )
                worst = max(worst, abs(pK - p1))
    report(1, worst <= 1e-8, f"curvature scaling, worst |p_K - p_1| = {worst:.3g}")


def test_criterion_02_normalization():
    cases = [
        (CFG, K1),
        (FlatConfig(5, 3, 0, 1.5), Curvature(-0.5)),
    ]
    ok = True
    details = []
    for cfg, K in cases:
        p = hf.intersection_probability(cfg, K, TOL)
        horizon = 50.0 / K.scale
        cdf_inf = hf.distance_cdf(cfg, K, horizon, TOL)
        dtol = Tolerance(rel_tol=1e-8)

        def integrand(x):
            return np.array([hf.distance_density(cfg, K, xi, dtol) for xi in x])

        mass = hf.integrate_adaptive(
            integrand, 0.0, horizon, Tolerance(rel_tol=1e-7, abs_tol=1e-10),
            break_points=(cfg.u,),
        ).value
        ok &= abs(mass - p) <= 1e-6 and abs(cdf_inf - p) <= 1e-8
        details.append(f"|int f - p| = {abs(mass - p):.2g}, "
                       f"|F(inf) - p| = {abs(cdf_inf - p):.2g}")
    report(2, ok, "normalization: " + "; ".join(details))


def test_criterion_03_monte_carlo_probability(mc_run):
    p = hf.intersection_probability(CFG, K1, TOL)
    hits = len(mc_run.finite_samples)
    est = hf.SimEstimate.from_counts(MC_TRIALS, hits, MC_SEED)
    dev = abs(est.p_hat - p) / est.std_err
    report(3, dev <= 4.0,
           f"MC p_hat = {est.p_hat:.5f} vs p = {p:.5f} ({dev:.2f} sigma)")


def test_criterion_04_monte_carlo_distance_law(mc_run):
    p = hf.intersection_probability(CFG, K1, TOL)
    a = 1.0 - p
    atom_hat = mc_run.empty_count / MC_TRIALS
    atom_se = math.sqrt(a * (1 - a) / MC_TRIALS)
    atom_dev = abs(atom_hat - a) / atom_se

    samples = mc_run.finite_samples
    ks = hf.ks_statistic(samples, hf.distance_cdf_grid(CFG, K1, samples, TOL) / p)
    ok = atom_dev <= 4.0 and ks <= 0.02
    report(4, ok, f"atom deviation {atom_dev:.2f} sigma, KS = {ks:.4f}")


def test_criterion_05_sampler_radial_law():
    sampler = hf.HittingFlatSampler(CFG, K1)
    rng = np.random.default_rng(MC_SEED)
    n = 100_000
    m = CFG.q - CFG.gamma
    radii = np.sort([sampler._sample_radius(rng) for _ in range(n)])
    cdf = radial_cdf_oracle(CFG.d, m, sampler.R, K1.K, radii)
    ks = hf.ks_statistic(radii, cdf)
    report(5, ks <= 0.015, f"sampler radial KS = {ks:.4f} at {n} draws")


def test_criterion_06_euclidean_limit():
    ps = [hf.intersection_probability(CFG, Curvature(K), TOL)
          for K in (-1e-2, -1e-4, -1e-6)]
    increasing = ps[0] < ps[1] < ps[2]
    near_one = ps[2] >= 0.99
    cdf_ok = True
    for delta in (0.3, 1.0, 2.0):
        hyp = hf.distance_cdf(CFG, Curvature(-1e-8), delta, TOL)
        euc = hf.euclidean_distance_cdf(CFG, delta, TOL)
        cdf_ok &= abs(hyp - euc) <= 1e-3
    ok = increasing and near_one and cdf_ok
    report(6, ok, f"p along K -> 0: {ps[0]:.6f} < {ps[1]:.6f} < {ps[2]:.6f}, "
                  f"flat-limit CDF match: {cdf_ok}")


def test_criterion_07_high_dimension_decay():
    p100 = hf.intersection_probability(FlatConfig(100, 2, 1, 1.0), K1, TOL)
    p300 = hf.intersection_probability(FlatConfig(300, 2, 1, 1.0), K1, TOL)
    ok = p100 <= 1e-3 and p300 <= TOL.abs_tol
    report(7, ok, f"p(d=100) = {p100:.3g}, p(d=300) = {p300:.3g}")


def test_criterion_08_phase_transition():
    p_sub = hf.intersection_probability(
        FlatConfig(200, 2, 1, 1.0), Curvature(-1.0 / 200**2), TOL
    )
    p_sup = hf.intersection_probability(
        FlatConfig(200, 2, 1, 1.0), Curvature(-1.0 / math.sqrt(200)), TOL
    )
    p_crit = hf.intersection_probability(
        FlatConfig(500, 2, 1, 1.0), Curvature(-1.0 / 500), TOL
    )
    rho = hf.critical_constant_rho(1.0, 2, 1, 1.0, TOL)
    rho_oracle = rho_riemann_oracle(1.0, 2, 1, 1.0)
    ok = (p_sub >= 0.95 and p_sup <= 0.05
          and abs(p_crit - rho) <= 0.05
          and abs(rho - rho_oracle) <= 1e-4)
    report(8, ok, f"sub p = {p_sub:.4f}, super p = {p_sup:.4f}, "
                  f"crit p = {p_crit:.4f} vs rho = {rho:.6f} "
                  f"(oracle {rho_oracle:.6f})")


def test_criterion_09_moment_classification():
    ok = True
    details = []
    for cfg in (CFG, FlatConfig(4, 2, 0, 1.0)):
        lo = cfg.gamma - cfg.q
        # divergent branch
        ok &= hf.moment(cfg, K1, 1.0, False, TOL).divergent
        ok &= hf.moment(cfg, K1, float(lo), True, TOL).divergent
        ok &= hf.moment(cfg, K1, lo - 0.5, True, TOL).divergent
        # finite branch
        ok &= hf.moment(cfg, K1, 0.0, False, TOL).value == 1.0
        if lo < -0.5:  # -0.5 in (gamma - q, 0]
            ok &= not hf.moment(cfg, K1, -0.5, False, TOL).divergent

    # conditional moments: tail-doubling stability at (3,2,1)
    dtol = Tolerance(rel_tol=1e-8)

    def tail_integral(alpha, T):
        def f(x):
            return np.array(
                [xi**alpha * hf.distance_density(CFG, K1, xi, dtol) for xi in x]
            )
        return hf.integrate_adaptive(
            f, 0.0, T, Tolerance(rel_tol=1e-8, abs_tol=1e-12),
            break_points=(CFG.u,) if CFG.u < T else (),
        ).value

    for alpha in (0.5, 1.0, 2.0):
        res = hf.moment(CFG, K1, alpha, True, dtol)
        ok &= not res.divergent and res.value > 0
        i15, i30 = tail_integral(alpha, 15.0), tail_integral(alpha, 30.0)
        change = abs(i30 - i15) / abs(i30)
        ok &= change <= 1e-6
        details.append(f"alpha={alpha}: tail change {change:.2g}")

    # small-delta power law: f(delta) / delta^(q - gamma - 1) stabilizes
    for cfg in (CFG, FlatConfig(4, 2, 0, 1.0)):
        e = cfg.q - cfg.gamma - 1
        ratios = [hf.distance_density(cfg, K1, x, TOL) / x**e
                  for x in (1e-3, 1e-4, 1e-5)]
        spread = (max(ratios) - min(ratios)) / abs(ratios[-1])
        ok &= spread <= 1e-3
        details.append(f"power-law spread {spread:.2g}")
    report(9, ok, "; ".join(details))


def test_criterion_10_geometry_oracle():
    from hypflats import (Basis, flat_from_normal_offset,
                          intersect_with_central_subspace)

    e1 = Basis(np.array([[1.0], [0.0]]))
    x_axis = Basis(np.array([[1.0], [0.0]]))
    y_axis = Basis(np.array([[0.0], [1.0]]))

    def line(x):
        return flat_from_normal_offset(e1, np.array([x, 0.0]))

    out = intersect_with_central_subspace(line(0.5), x_axis, K1)
    ok = (out.meets
          and abs(out.euclid_dist - 0.5) <= 1e-12
          and abs(out.hyper_dist - math.atanh(0.5)) <= 1e-12)
    ok &= not intersect_with_central_subspace(line(0.5), y_axis, K1).meets
    ok &= not intersect_with_central_subspace(line(1.2), x_axis, K1).meets

    # rotation equivariance over 100 seeded rotations
    worst = 0.0
    rng = np.random.default_rng(123)
    trials = 0
    while trials < 100:
        d = int(rng.integers(2, 7))
        q = int(rng.integers(1, d))
        m = int(rng.integers(1, q + 1))
        W = np.linalg.qr(rng.standard_normal((d, m)))[0]
        x = W @ (0.4 * rng.standard_normal(m) / math.sqrt(m))
        if np.linalg.norm(x) >= 0.999:
            continue
        trials += 1
        E = flat_from_normal_offset(Basis(W), x)
        L = Basis(np.linalg.qr(rng.standard_normal((d, q)))[0])
        a = intersect_with_central_subspace(E, L, K1)
        O = np.linalg.qr(rng.standard_normal((d, d)))[0]
        E2 = flat_from_normal_offset(Basis(O @ W), O @ x)
        b = intersect_with_central_subspace(E2, Basis(O @ L.columns), K1)
        if a.meets != b.meets:
            worst = math.inf
            break
        if a.meets:
            worst = max(worst, abs(a.euclid_dist - b.euclid_dist),
                        abs(a.hyper_dist - b.hyper_dist))
    ok &= worst <= 1e-10
    report(10, ok, f"hand-computed cases exact, equivariance worst dev = {worst:.3g}")


def test_criterion_11_simulate_determinism():
    base = [sys.executable, "-m", "hypflats.cli", "simulate",
            "--d", "3", "--q", "2", "--gamma", "1", "--K", "-1", "--u", "1",
            "--trials", "2000", "--seed", "31415"]
    outs = [
        subprocess.run(base, capture_output=True, check=True).stdout,
        subprocess.run(base, capture_output=True, check=True).stdout,
        subprocess.run(base + ["--threads", "1"], capture_output=True,
                       check=True).stdout,
        subprocess.run(base + ["--threads", "8"], capture_output=True,
                       check=True).stdout,
    ]
    ok = all(o == outs[0] for o in outs) and len(outs[0]) > 0
    doc = json.loads(outs[0])
    ok &= doc["seed"] == 31415
    report(11, ok, "simulate output byte-identical across reruns and thread counts")
