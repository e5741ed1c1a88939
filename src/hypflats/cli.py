"""Command-line front end: analytic evaluation, Monte Carlo validation and
parameter sweeps emitted as CSV/JSON.

Exit codes: 0 success, 2 invalid arguments, 3 numerical failure.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import asdict, dataclass, field
from datetime import datetime, timezone
from functools import lru_cache

import numpy as np

from . import __version__, analytic, montecarlo
from .errors import HypflatsError, QuadratureError
from .quadrature import Tolerance
from .special import Curvature, FlatConfig

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_NUMERICAL = 3


@dataclass
class RunManifest:
    """Provenance record serialized alongside every CSV output."""

    command: str
    parameters: dict
    version: str = __version__
    seed: int | None = None
    timestamp: str = field(
        default_factory=lambda: datetime.now(timezone.utc).isoformat()
    )

    def to_comment(self) -> str:
        return "# " + json.dumps(asdict(self), sort_keys=True)


def _curvature(value: str) -> float:
    K = float(value)
    if K >= 0:
        raise argparse.ArgumentTypeError(f"curvature K must be < 0, got {K}")
    return K


# most rows of a scan: density-scan's and scan-K's --steps, and the rows that
# scan-d's and scan-phase's --d-max give (_D_MAX_ROWS)
MAX_STEPS = 100_000


def _int_in(lo: int, hi: int | None = None):
    """argparse type: an int in [lo, hi], or >= lo when hi is None."""
    def parse(value: str) -> int:
        n = int(value)
        if n < lo:
            raise argparse.ArgumentTypeError(f"must be >= {lo}, got {n}")
        if hi is not None and n > hi:
            raise argparse.ArgumentTypeError(f"must be <= {hi}, got {n}")
        return n

    parse.__name__ = "int"  # argparse names the type in its error message
    return parse


def _add_cfg_args(p, curvature=True):
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--gamma", type=int, required=True)
    if curvature:
        p.add_argument("--K", type=_curvature, required=True)
    p.add_argument("--u", type=float, required=True)


def _add_tol_arg(p):
    p.add_argument("--rel-tol", type=float, default=1e-9,
                   help="relative quadrature tolerance (default 1e-9)")


@lru_cache(maxsize=None)
def build_parser():
    """The argument parser, built once: each parse returns a fresh Namespace."""
    parser = argparse.ArgumentParser(
        prog="hypflats",
        description="Intersection probabilities of random flats in hyperbolic space",
    )
    parser.add_argument("--output", help="write to this file instead of stdout")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("prob", help="intersection probability")
    _add_cfg_args(p)
    _add_tol_arg(p)
    p.add_argument("--json", action="store_true")

    p = sub.add_parser("cdf", help="CDF of the intersection distance")
    _add_cfg_args(p)
    _add_tol_arg(p)
    p.add_argument("--delta", type=float, required=True)

    p = sub.add_parser("density-scan", help="distance density on a delta grid (CSV)")
    _add_cfg_args(p)
    _add_tol_arg(p)
    p.add_argument("--delta-min", type=float, required=True)
    p.add_argument("--delta-max", type=float, required=True)
    p.add_argument("--steps", type=_int_in(1, MAX_STEPS), required=True,
                   help=f"grid points, 1..{MAX_STEPS}")

    p = sub.add_parser("moment", help="moment of the intersection distance")
    _add_cfg_args(p)
    _add_tol_arg(p)
    p.add_argument("--alpha", type=float, required=True)
    p.add_argument("--conditional", action="store_true")

    p = sub.add_parser("phase", help="critical-regime limit constant rho")
    p.add_argument("--u", type=float, required=True)
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--gamma", type=int, required=True)
    p.add_argument("--kappa", type=float, required=True)
    _add_tol_arg(p)

    p = sub.add_parser("scan-d", help="probability against dimension (CSV)")
    p.add_argument("--d-min", type=int, required=True)
    p.add_argument("--d-max", type=int, required=True)
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--gamma", type=int, required=True)
    p.add_argument("--K", type=_curvature, required=True)
    p.add_argument("--u", type=float, required=True)
    _add_tol_arg(p)

    p = sub.add_parser("scan-K", help="probability against curvature (CSV)")
    _add_cfg_args(p, curvature=False)
    p.add_argument("--K-min", type=_curvature, required=True)
    p.add_argument("--K-max", type=_curvature, required=True)
    p.add_argument("--steps", type=_int_in(2, MAX_STEPS), required=True,
                   help=f"grid points, 2..{MAX_STEPS}")
    p.add_argument("--log-spaced", action="store_true")
    _add_tol_arg(p)

    p = sub.add_parser("scan-phase", help="probability along a curvature schedule (CSV)")
    p.add_argument("--mode", choices=("sub", "super", "crit"), required=True)
    p.add_argument("--kappa", type=float)
    p.add_argument("--d-max", type=int, required=True)
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--gamma", type=int, required=True)
    p.add_argument("--u", type=float, required=True)
    _add_tol_arg(p)

    p = sub.add_parser("simulate", help="Monte Carlo check against the analytic law (JSON)")
    _add_cfg_args(p)
    _add_tol_arg(p)
    p.add_argument("--trials", type=int, default=100_000)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--threads", type=_int_in(1), default=1,
                   help="worker threads over trial blocks (default 1; the output "
                        "does not depend on it)")

    return parser


def _manifest(args, stochastic=False):
    params = {
        k: v for k, v in sorted(vars(args).items())
        if k not in ("command", "output") and v is not None
    }
    return RunManifest(
        command=args.command,
        parameters=params,
        seed=getattr(args, "seed", None) if stochastic else None,
    )


def _emit_csv(args, header, rows, stochastic=False):
    lines = [_manifest(args, stochastic).to_comment(), header]
    lines += [",".join(f"{v:.12g}" if isinstance(v, float) else str(v) for v in row)
              for row in rows]
    return "\n".join(lines) + "\n"


def _cmd_prob(args, tol):
    cfg = FlatConfig(args.d, args.q, args.gamma, args.u)
    p = analytic.intersection_probability(cfg, Curvature(args.K), tol)
    if args.json:
        return json.dumps({"command": "prob", "d": args.d, "q": args.q,
                           "gamma": args.gamma, "curvature": args.K,
                           "u": args.u, "p": p}) + "\n"
    return f"{p:.12g}\n"


def _cmd_cdf(args, tol):
    cfg = FlatConfig(args.d, args.q, args.gamma, args.u)
    v = analytic.distance_cdf(cfg, Curvature(args.K), args.delta, tol)
    return f"{v:.12g}\n"


def _cmd_density_scan(args, tol):
    cfg = FlatConfig(args.d, args.q, args.gamma, args.u)
    K = Curvature(args.K)
    if args.delta_min <= 0 or args.delta_max < args.delta_min:
        raise HypflatsError("need 0 < delta-min <= delta-max")
    deltas = np.linspace(args.delta_min, args.delta_max, args.steps)
    rows = zip(deltas.tolist(), analytic.distance_density(cfg, K, deltas, tol).tolist())
    return _emit_csv(args, "delta,f", rows)


def _cmd_moment(args, tol):
    cfg = FlatConfig(args.d, args.q, args.gamma, args.u)
    res = analytic.moment(cfg, Curvature(args.K), args.alpha, args.conditional, tol)
    if res.divergent:
        return "divergent\n"
    return f"{res.value:.12g}\n"


def _cmd_phase(args, tol):
    rho = analytic.critical_constant_rho(args.u, args.q, args.gamma, args.kappa, tol)
    return f"{rho:.12g}\n"


def _cmd_scan_d(args, tol):
    if args.d_min > args.d_max:
        raise HypflatsError("need d-min <= d-max")
    K = Curvature(args.K)
    rows = []
    for d in range(args.d_min, args.d_max + 1):
        cfg = FlatConfig(d, args.q, args.gamma, args.u)
        rows.append((d, analytic.intersection_probability(cfg, K, tol)))
    return _emit_csv(args, "d,p", rows)


def _cmd_scan_K(args, tol):
    cfg = FlatConfig(args.d, args.q, args.gamma, args.u)
    if args.log_spaced:
        Ks = -np.geomspace(-args.K_min, -args.K_max, args.steps)
    else:
        Ks = np.linspace(args.K_min, args.K_max, args.steps)
    rows = [(float(K), analytic.intersection_probability(cfg, Curvature(float(K)), tol))
            for K in Ks]
    return _emit_csv(args, "K,p", rows)


# --mode: (PhaseMode regime, curvature schedule K(d, kappa))
_PHASE_SCHEDULES = {
    "sub": ("subcritical", lambda d, kappa: -1.0 / d**2),
    "super": ("supercritical", lambda d, kappa: -1.0 / math.sqrt(d)),
    "crit": ("critical", lambda d, kappa: -kappa / d),
}


def _cmd_scan_phase(args, tol):
    regime, schedule = _PHASE_SCHEDULES[args.mode]
    mode = analytic.PhaseMode(regime, args.kappa)  # DomainError on a misused --kappa
    limit = analytic.phase_limit(mode, args.u, args.q, args.gamma, tol)
    rows = []
    for d in range(args.q + 1, args.d_max + 1):
        K = schedule(d, args.kappa)
        cfg = FlatConfig(d, args.q, args.gamma, args.u)
        p = analytic.intersection_probability(cfg, Curvature(K), tol)
        rows.append((d, K, p, limit))
    return _emit_csv(args, "d,K,p,limit", rows)


# the rows of the scans over d, one per dimension up to --d-max
_D_MAX_ROWS = {
    "scan-d": lambda args: args.d_max - args.d_min + 1,
    "scan-phase": lambda args: args.d_max - args.q,
}


def _cmd_simulate(args, tol):
    cfg = FlatConfig(args.d, args.q, args.gamma, args.u)
    K = Curvature(args.K)
    summary = montecarlo.simulate_distance_distribution(
        cfg, K, args.trials, args.seed, args.threads
    )
    hits = len(summary.finite_samples)
    est = montecarlo.SimEstimate.from_counts(args.trials, hits, summary.seed)
    p = analytic.intersection_probability(cfg, K, tol)
    a = analytic.atom_mass(cfg, K, tol)
    atom_hat = summary.empty_count / args.trials
    # |p_hat - p| = |atom_hat - a| in units of the analytic binomial standard
    # error; the estimate's own std_err is 0 whenever p_hat is 0 or 1
    se = math.sqrt(p * a / args.trials)
    gap = abs(est.p_hat - p)
    deviation = gap / se if se > 0 else (0.0 if gap == 0 else math.inf)
    if hits:
        cdf = analytic.distance_cdf_grid(cfg, K, summary.finite_samples, tol) / p
        ks = montecarlo.ks_statistic(summary.finite_samples, cdf)
    else:
        ks = math.nan
    out = {
        "command": "simulate",
        "d": args.d, "q": args.q, "gamma": args.gamma,
        "curvature": args.K, "u": args.u,
        "trials": args.trials, "seed": summary.seed,
        "p_hat": est.p_hat, "std_err": est.std_err,
        "analytic_p": p,
        "p_deviation_sigmas": deviation,
        "atom_hat": atom_hat, "analytic_atom": a,
        "atom_deviation_sigmas": deviation,
        "ks_statistic": ks,
        "version": __version__,
    }
    # JSON has no NaN or infinity: ks_statistic without hits, an infinite deviation
    out = {k: None if isinstance(v, float) and not math.isfinite(v) else v
           for k, v in out.items()}
    return json.dumps(out, sort_keys=True, allow_nan=False) + "\n"


_COMMANDS = {
    "prob": _cmd_prob,
    "cdf": _cmd_cdf,
    "density-scan": _cmd_density_scan,
    "moment": _cmd_moment,
    "phase": _cmd_phase,
    "scan-d": _cmd_scan_d,
    "scan-K": _cmd_scan_K,
    "scan-phase": _cmd_scan_phase,
    "simulate": _cmd_simulate,
}


def run(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    rows = _D_MAX_ROWS.get(args.command)
    if rows is not None and rows(args) > MAX_STEPS:
        parser.error(f"argument --d-max: gives {rows(args)} rows, more than {MAX_STEPS}")
    rel = getattr(args, "rel_tol", 1e-9)
    try:
        tol = Tolerance(rel_tol=rel)
        text = _COMMANDS[args.command](args, tol)
    except QuadratureError as exc:
        print(f"error: numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except HypflatsError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    if args.output:
        with open(args.output, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return EXIT_OK


def main():
    raise SystemExit(run())


if __name__ == "__main__":
    main()
