"""The three workloads: how each builds its operations from a seed, runs
them through the library's public functions, and checks their outputs.

Operations are grouped in rounds.  Every round of a workload has the same
composition (the same strata, configurations or request kinds), so a run
of whole rounds sees the same mix of cheap and expensive operations
whatever the seed; the seed moves the points inside each stratum slightly
and sets the order within a round and the Monte Carlo seeds.  How many
rounds a run takes depends on ``--seconds`` only (ROUND_S).

The library is reached through module attributes (``analytic.X``,
``cli.run``) looked up at call time, so the traced run's wrappers see
every call the benchmark makes.
"""

from __future__ import annotations

import itertools
import json
import math
import os
import random
import warnings
from dataclasses import dataclass, field

# Tolerances of the output checks.  The oracles they compare with are
# independent scipy/Riemann computations, accurate to about 1e-10
# (probabilities, CDFs) and 1e-7 (rho).
FROZEN_REL_TOL = 1e-9     # default Tolerance().rel_tol of the library
CDF_REL_TOL = 1e-7
RHO_REL_TOL = 1e-5
TRAPEZOID_REL_TOL = 1e-2  # 50-point trapezoid across the kink at delta = v
MC_SIGMAS = 4.0

# Seconds of --seconds that one round stands for.  A run measures
# round(--seconds / ROUND_S) rounds: a fixed list of operations whatever
# the speed of the library.  Chosen so that a run at --seconds 18 measures
# 182 prob-sweep, 120 law and 18 mc-validate operations: 17 to 33 s of
# unscaled CPU time on the library before any performance work, on the
# shared 2-vCPU virtual machine the benchmark was tuned on.
ROUND_S = {"prob-sweep": 2.6, "law": 2.3, "mc-validate": 3.0}

# prob-sweep strata: log-spaced bins of d and of the reduced radius v.
D_RANGE = (3, 1000)
V_RANGE = (0.05, 8.0)
D_BINS = 4
V_BINS = 4
CRITICAL_KAPPA = (0.5, 4.0)
CRITICAL_U = (0.5, 2.0)
CRITICAL_MAX_Q = 4
JITTER = 0.02              # largest seed shift of a design point, in cell widths
# The stratum where calls run for tens of seconds or raise at the seed
# (see hard_stratum.py): q = d - 1, d >= HARD_D_MIN, v >= HARD_V_MIN.
HARD_D_MIN = 150
HARD_V_MIN = 7.0

# law: small d, moderate v; the first two carry frozen probabilities.
LAW_CONFIGS = (
    (3, 2, 1, 1.0, -1.0),
    (5, 3, 0, 1.5, -0.5),
    (4, 2, 0, 0.8, -1.0),
)
LAW_RHO = ((1.0, 2, 1, 1.0), (1.5, 3, 0, 2.0), (0.8, 1, 0, 0.5))
CDF_GRID_POINTS = 128
CDF_GRID_SPAN = 4.0          # grid covers reduced distances (0, 4 v]
SCAN_POINTS = 50
SCAN_SPAN = (0.3, 2.0)       # density scan over reduced distances [0.3 v, 2 v]
EUCLID_DELTA = 0.7           # Euclidean CDF at 0.7 u

# mc-validate: d from 3 to 50, p from 0.08 to 0.84 at the seed.
MC_CONFIGS = (
    (3, 2, 1, 1.0, -1.0),
    (30, 3, 1, 3.0, -1.0 / 30.0),
    (50, 2, 1, 2.0, -0.02),
)
MC_TRIALS = 5000


@dataclass
class Op:
    """One request: its kind and the parameters it is called with."""

    kind: str
    params: dict = field(default_factory=dict)

    def describe(self) -> dict:
        return {"kind": self.kind, **self.params}


def _cfg(c):
    d, q, gamma, u, K = c
    return {"d": d, "q": q, "gamma": gamma, "u": u, "K": K}


def _log_uniform(rng, lo, hi):
    return math.exp(rng.uniform(math.log(lo), math.log(hi)))


def _log_spaced(lo, hi, n, x):
    """Point x (0 <= x < n) of n log-spaced cells over [lo, hi]."""
    return lo * (hi / lo) ** (x / n)


# ---------------------------------------------------------------- rounds


def _prob_sweep_round(rng, k):
    """Round k: one stratified sample of the domain.

    For each of D_BINS log-spaced bins of d: one configuration in each of
    V_BINS log-spaced bins of v with q uniform in [1, d-1], one with
    q = d - 1 and v anywhere in V_RANGE, and one on the critical schedule
    -K d = kappa (where p tends to rho(u, q, gamma, kappa) instead of 0).
    gamma is uniform in [0, q-1].

    The positions inside the strata come from a fixed design (one random
    stream per round index), moved by at most JITTER by the workload seed.
    Per-call cost varies a hundredfold across the domain, so independent
    draws per seed would make runs incomparable; this way every seed runs
    distinct configurations with nearly the same cost profile.  K is
    log-uniform from the workload seed: p depends on K and u only through
    v = sqrt(-K) u.
    """
    design = random.Random(f"prob-sweep/design/{k}")
    ops = []

    def x():
        return min(max(design.random() + rng.uniform(-JITTER, JITTER), 0.0), 1.0 - 1e-9)

    def pick(lo, hi):  # integer in [lo, hi]
        return lo + int(x() * (hi - lo + 1))

    def add(d, q, gamma, u, K, label):
        ops.append(Op("prob", {**_cfg((d, q, gamma, u, K)), "label": label}))

    def sweep(d, q, v, label):
        K = -_log_uniform(rng, 0.1, 10.0)
        add(d, q, pick(0, q - 1), v / math.sqrt(-K), K, label)

    for i in range(D_BINS):
        def draw_d():
            d = round(_log_spaced(*D_RANGE, D_BINS, i + x()))
            return min(max(d, D_RANGE[0]), D_RANGE[1])

        for j in range(V_BINS):
            d = draw_d()
            sweep(d, pick(1, d - 1), _log_spaced(*V_RANGE, V_BINS, j + x()), "sweep")
        d = draw_d()
        sweep(d, d - 1, _log_spaced(*V_RANGE, 1, x()), "sweep-q=d-1")
        d = draw_d()
        q = pick(1, min(CRITICAL_MAX_Q, d - 1))
        kappa = _log_spaced(*CRITICAL_KAPPA, 1, x())
        u = CRITICAL_U[0] + (CRITICAL_U[1] - CRITICAL_U[0]) * x()
        add(d, q, pick(0, q - 1), u, -kappa / d, "critical")
    add(3, 2, 1, 1.0, -1.0, "P_STAR_3_2_1")
    add(5, 3, 0, 1.5, -0.5, "P_STAR_5_3_0_HALF")
    rng.shuffle(ops)
    return ops


def _law_round(rng, k):
    ops = []
    for c in LAW_CONFIGS:
        u = c[3]   # reduced distances x v are distances x u
        ops.append(Op("cdf_grid", {**_cfg(c), "points": CDF_GRID_POINTS,
                                   "delta_max": CDF_GRID_SPAN * u}))
        ops.append(Op("density_scan", {**_cfg(c), "steps": SCAN_POINTS,
                                       "delta_lo": SCAN_SPAN[0] * u,
                                       "delta_hi": SCAN_SPAN[1] * u}))
        ops.append(Op("moment", {**_cfg(c), "alpha": 1.0, "conditional": True}))
        ops.append(Op("euclid_cdf", {**_cfg(c), "delta": EUCLID_DELTA * u}))
    for u, q, gamma, kappa in LAW_RHO:
        ops.append(Op("rho", {"u": u, "q": q, "gamma": gamma, "kappa": kappa}))
    rng.shuffle(ops)
    return ops


def _mc_round(rng, k):
    ops = [Op("simulate", {**_cfg(c), "trials": MC_TRIALS,
                           "seed": rng.randrange(2**63)}) for c in MC_CONFIGS]
    rng.shuffle(ops)
    return ops


def hard_stratum(seed: int, count: int):
    """count prob operations drawn from the hard stratum (q = d - 1,
    d log-uniform in [HARD_D_MIN, 1000], v uniform in [HARD_V_MIN, 8])."""
    rng = random.Random(f"hard-stratum/{seed}")
    ops = []
    for _ in range(count):
        d = round(_log_uniform(rng, HARD_D_MIN, D_RANGE[1]))
        q = d - 1
        K = -_log_uniform(rng, 0.1, 10.0)
        v = rng.uniform(HARD_V_MIN, V_RANGE[1])
        ops.append(Op("prob", {**_cfg((d, q, rng.randrange(q), v / math.sqrt(-K), K)),
                               "label": "hard"}))
    return ops


ROUND_BUILDERS = {
    "prob-sweep": _prob_sweep_round,
    "law": _law_round,
    "mc-validate": _mc_round,
}


def rounds(workload: str, seed: int):
    """Endless sequence of rounds (lists of Op) for a workload and seed."""
    build = ROUND_BUILDERS[workload]
    rng = random.Random(f"{workload}/{seed}")
    for k in itertools.count():
        yield build(rng, k)


# ---------------------------------------------------------------- references


def references(workload: str, oracles) -> dict:
    """Reference values for the checks, computed once during set-up.

    ``oracles`` is the repository's ``tests/oracles.py`` module (it must be
    importable for ``refs.py`` too); the other references come from
    ``refs.py``.  Neither uses the library.
    """
    from scipy.integrate import IntegrationWarning

    from refs import euclidean_cdf_oracle, hyperbolic_cdf_oracle

    out = {"P_STAR_3_2_1": oracles.P_STAR_3_2_1,
           "P_STAR_5_3_0_HALF": oracles.P_STAR_5_3_0_HALF}
    if workload != "law":
        return out
    p_ref = {LAW_CONFIGS[0]: oracles.P_STAR_3_2_1,
             LAW_CONFIGS[1]: oracles.P_STAR_5_3_0_HALF}
    # QAGS warns about roundoff near its 1e-12 target; at these fixed
    # configurations the values agree with the library to about 1e-12.
    warnings.simplefilter("ignore", IntegrationWarning)
    for c in LAW_CONFIGS:
        d, q, g, u, K = c
        v = u * math.sqrt(-K)
        out[("p", c)] = p_ref.get(c) or oracles.probability_oracle(d, q, g, v)
        for x in (SCAN_SPAN[0], SCAN_SPAN[1], CDF_GRID_SPAN):
            out[("cdf", c, x)] = hyperbolic_cdf_oracle(d, q, g, v, x * v)
        out[("euclid", c)] = euclidean_cdf_oracle(d, q, g, u, EUCLID_DELTA * u)
    for r in LAW_RHO:
        out[("rho", r)] = oracles.rho_riemann_oracle(*r)
    return out


# ---------------------------------------------------------------- execution


@dataclass
class Context:
    """What operations need besides their parameters."""

    hypflats: object      # the imported package
    threads: int          # --threads for simulate
    tmpdir: str           # scratch directory inside the checkout
    counter: int = 0


def _flat(hf, p):
    return hf.special.FlatConfig(p["d"], p["q"], p["gamma"], p["u"]), hf.special.Curvature(p["K"])


def execute(op: Op, ctx: Context):
    """Run one operation; its return value is what check() inspects."""
    hf = ctx.hypflats
    p = op.params
    an = hf.analytic
    if op.kind == "prob":
        return an.intersection_probability(*_flat(hf, p))
    if op.kind == "cdf_grid":
        step = p["delta_max"] / p["points"]
        deltas = [step * (i + 1) for i in range(p["points"])]
        return [float(x) for x in an.distance_cdf_grid(*_flat(hf, p), deltas)]
    if op.kind == "density_scan":
        n = p["steps"]
        lo, hi = p["delta_lo"], p["delta_hi"]
        deltas = [lo + (hi - lo) * i / (n - 1) for i in range(n)]
        cfg, K = _flat(hf, p)
        return deltas, [an.distance_density(cfg, K, x) for x in deltas]
    if op.kind == "moment":
        return an.moment(*_flat(hf, p), p["alpha"], p["conditional"]).value
    if op.kind == "euclid_cdf":
        cfg, _ = _flat(hf, p)
        return an.euclidean_distance_cdf(cfg, p["delta"])
    if op.kind == "rho":
        return an.critical_constant_rho(p["u"], p["q"], p["gamma"], p["kappa"])
    if op.kind == "simulate":
        ctx.counter += 1
        path = os.path.join(ctx.tmpdir, f"simulate-{ctx.counter}.json")
        argv = ["--output", path, "simulate", "--d", str(p["d"]), "--q", str(p["q"]),
                "--gamma", str(p["gamma"]), f"--K={p['K']!r}", "--u", repr(p["u"]),
                "--trials", str(p["trials"]), "--seed", str(p["seed"]),
                "--threads", str(ctx.threads)]
        code = hf.cli.run(argv)
        if code != 0:
            raise RuntimeError(f"simulate exited with code {code}")
        with open(path) as fh:
            result = json.load(fh)
        os.remove(path)
        return result
    raise ValueError(f"unknown operation kind {op.kind!r}")


# ---------------------------------------------------------------- checks


def _is_number(x):
    return isinstance(x, (int, float)) and math.isfinite(x)


def _close(x, ref, rel):
    return _is_number(x) and abs(x - ref) <= rel * abs(ref)


def _law_key(p):
    return (p["d"], p["q"], p["gamma"], p["u"], p["K"])


def check(op: Op, out, refs: dict):
    """None when the output passes, else a one-line reason."""
    p = op.params
    if op.kind == "prob":
        if not (_is_number(out) and 0.0 <= out <= 1.0):
            return f"p = {out!r} outside [0, 1]"
        ref = refs.get(p.get("label"))
        if ref is not None and not _close(out, ref, FROZEN_REL_TOL):
            return f"p = {out!r} differs from frozen {ref!r} by more than rel {FROZEN_REL_TOL}"
        return None
    if op.kind == "cdf_grid":
        c = _law_key(p)
        pref = refs[("p", c)]
        if len(out) != p["points"] or not all(_is_number(x) for x in out):
            return "CDF grid has wrong length or non-finite values"
        if any(b < a for a, b in zip(out, out[1:])):
            return "CDF grid decreases"
        if out[0] < 0.0 or out[-1] > pref * (1.0 + FROZEN_REL_TOL) + 1e-12:
            return f"CDF grid leaves [0, p = {pref!r}]: {out[0]!r} .. {out[-1]!r}"
        ref = refs[("cdf", c, CDF_GRID_SPAN)]
        if not _close(out[-1], ref, CDF_REL_TOL):
            return f"CDF at the grid end {out[-1]!r} differs from oracle {ref!r}"
        return None
    if op.kind == "density_scan":
        deltas, f = out
        if not all(_is_number(x) and x >= 0.0 for x in f):
            return "negative or non-finite density"
        trap = sum(0.5 * (f[i] + f[i + 1]) * (deltas[i + 1] - deltas[i])
                   for i in range(len(f) - 1))
        c = _law_key(p)
        diff = refs[("cdf", c, SCAN_SPAN[1])] - refs[("cdf", c, SCAN_SPAN[0])]
        if not _close(trap, diff, TRAPEZOID_REL_TOL):
            return f"trapezoid of the density {trap!r} does not match CDF difference {diff!r}"
        return None
    if op.kind == "moment":
        if not (_is_number(out) and out > 0.0):
            return f"conditional moment {out!r} is not finite and positive"
        return None
    if op.kind == "euclid_cdf":
        ref = refs[("euclid", _law_key(p))]
        if not (_is_number(out) and 0.0 <= out <= 1.0 and _close(out, ref, CDF_REL_TOL)):
            return f"Euclidean CDF {out!r} differs from oracle {ref!r}"
        return None
    if op.kind == "rho":
        ref = refs[("rho", (p["u"], p["q"], p["gamma"], p["kappa"]))]
        if not _close(out, ref, RHO_REL_TOL):
            return f"rho = {out!r} differs from the Riemann oracle {ref!r}"
        return None
    if op.kind == "simulate":
        return _check_simulate(p, out)
    raise ValueError(f"unknown operation kind {op.kind!r}")


def _check_simulate(p, out):
    n = out.get("trials")
    if n != p["trials"]:
        return f"simulate reports {n!r} trials, asked for {p['trials']}"
    p_hat, p_ref = out.get("p_hat"), out.get("analytic_p")
    atom_hat, atom_ref = out.get("atom_hat"), out.get("analytic_atom")
    if not all(_is_number(x) and 0.0 <= x <= 1.0 for x in (p_hat, p_ref, atom_hat, atom_ref)):
        return "simulate output has missing or out-of-range probabilities"
    # deviations recomputed here; p_deviation_sigmas is not trusted
    sigma = out.get("std_err")
    if not (_is_number(sigma) and _close(sigma, math.sqrt(p_hat * (1.0 - p_hat) / n), 1e-9)):
        return f"std_err {sigma!r} is not the binomial standard error of p_hat"
    if abs(p_hat - p_ref) > MC_SIGMAS * sigma:
        return f"p_hat {p_hat!r} is more than {MC_SIGMAS} sigma from analytic {p_ref!r}"
    sigma_atom = math.sqrt(atom_hat * (1.0 - atom_hat) / n)
    if abs(atom_hat - atom_ref) > MC_SIGMAS * sigma_atom:
        return f"atom {atom_hat!r} is more than {MC_SIGMAS} sigma from analytic {atom_ref!r}"
    return None
