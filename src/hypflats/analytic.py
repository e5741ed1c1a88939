"""Closed-form quantities: Crofton constants, intersection probabilities,
distance CDF/density, atom mass, moments, Euclidean baselines and the
critical phase constant.

Every hyperbolic evaluation first rescales to unit curvature (K = -1 with
ball radius v = sqrt(-K) u).  On the event that the flats meet, the
distance t from the origin to the intersection has the closed-form density

    f(t) = A sinh^(m-1) t cosh^gamma t I_x((q+1)/2, (d-q)/2),

m = q - gamma, x = min(1, sinh^2 v / sinh^2 t), I_x the regularized
incomplete beta function and A = B((q+1)/2, (d-q)/2) / (B((gamma+1)/2, (d-q)/2) R),
R the radial mass below, as in p (_log_density, in log space).  The CDF and
the moments are 1-d integrals of it, in w = s/(1+s), s = sqrt(t - v), past
v: a moment is one integral to infinity.  The CDF grid is one vectorised
pass: one Gauss-Kronrod panel per grid segment, all panels below v from one
integrand call and all past v from another, with the rare segment that
misses the tolerance refined on its own.  The flat-space (K -> 0) distance
CDF and the normaliser of the critical constant rho are closed form; rho is
one 1-d integral of a lower incomplete gamma function.

The intersection probability and its complement, the atom mass, are 1-d
integrals over the offset radius rho in [0, v] of the moving flat
(_offset_radius_integral): rho has the radial-mass law, and given rho the
flats meet with a probability that is a regularized incomplete beta
function of sech^2 rho.

The radial mass log_radial_mass(d, m, v), which normalises the offset-radius
law, the density and the Crofton constant, is memoised per (d, m, v): all
quantities of one configuration, and the Monte Carlo sampler, share one quadrature.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import lru_cache

import numpy as np
from scipy.special import betainc, betaincc, betaln, gammainc, gammaln, hyp1f1

from .errors import DomainError, ProbabilityRangeError, QuadratureError
from .quadrature import (
    DEFAULT_TOLERANCE,
    QuadResult,
    Tolerance,
    _gk_panels,
    integrate_adaptive,
    integrate_iterated_2d,  # re-exported: perfbench's traced run looks it up on this module
)
from .special import Curvature, FlatConfig, log_sphere_surface

__all__ = [
    "MomentResult",
    "PhaseMode",
    "crofton_constant",
    "log_crofton_constant",
    "log_radial_mass",
    "intersection_probability",
    "euclidean_intersection_probability",
    "distance_cdf",
    "distance_cdf_grid",
    "distance_density",
    "atom_mass",
    "moment",
    "euclidean_distance_cdf",
    "reduce_to_unit_curvature",
    "critical_constant_rho",
    "phase_limit",
]


@dataclass(frozen=True)
class MomentResult:
    """Moment of the distance law; value is None when the moment diverges."""

    alpha: float
    conditional: bool
    value: float | None

    @property
    def divergent(self) -> bool:
        return self.value is None


@dataclass(frozen=True)
class PhaseMode:
    """Curvature schedule regime for the d -> infinity limit."""

    regime: str  # "subcritical" | "supercritical" | "critical"
    kappa: float | None = None

    def __post_init__(self):
        if self.regime not in ("subcritical", "supercritical", "critical"):
            raise DomainError(f"unknown phase regime {self.regime!r}")
        if self.regime == "critical":
            if self.kappa is None or not self.kappa > 0:
                raise DomainError("critical regime requires kappa > 0")
        elif self.kappa is not None:
            raise DomainError("kappa only applies to the critical regime")

    @classmethod
    def subcritical(cls):
        return cls("subcritical")

    @classmethod
    def supercritical(cls):
        return cls("supercritical")

    @classmethod
    def critical(cls, kappa: float):
        return cls("critical", kappa)


_RELATIVE_ONLY_ABS_TOL = 1e-300
_RADIAL_MASS_TOLERANCE = Tolerance(rel_tol=1e-12, abs_tol=_RELATIVE_ONLY_ABS_TOL)
_BETAINC_FLOOR = 1e-200
_SERIES_EPS = 1e-17
_SERIES_MAX_TERMS = 1000


def _log_cosh(x):
    x = np.asarray(x, dtype=float)
    return x + np.log1p(np.exp(-2.0 * x)) - math.log(2.0)


def _log_sinh(t):
    t = np.asarray(t, dtype=float)
    return t + np.log(-np.expm1(-2.0 * t)) - math.log(2.0)


@lru_cache(maxsize=64)
def log_radial_mass(d: int, m: int, rho: float) -> float:
    """log of the radial mass, the integral of sinh^(m-1) t cosh^(d-m) t over [0, rho].

    With omega_m in front it is the Crofton constant of (d-m)-flats at
    K = -1, and it is the total mass of the offset-radius law of a flat
    with normal dimension m hitting the ball of radius rho.  The mass can
    sit in a layer about 1/((d-m) tanh rho) wide below rho.  The integrand
    is divided by its value at rho and multiplied by 1/rho plus its
    log-slope there, so the integral is O(1) and only the relative
    tolerance of 1e-12 decides convergence: a panel that misses most of
    the layer is refined, not accepted as absolutely small.

    Memoised: the Crofton constant, p, the atom mass, the density and the
    Monte Carlo sampler of one configuration share one quadrature.  A mass
    that underflows to 0 (d = 1000, rho = 300) raises QuadratureError.
    """
    if not (d >= 2 and 1 <= m <= d):
        raise DomainError(f"need d >= 2 and 1 <= m <= d, got m={m}, d={d}")
    if not (rho > 0 and math.isfinite(rho)):
        raise DomainError(f"need rho > 0, got {rho}")

    def log_g(t):
        val = (d - 1) * _log_cosh(t)
        if m > 1:
            val = val + (m - 1) * np.log(np.tanh(t))
        return val

    top = float(log_g(rho))
    log_scale = math.log(1.0 / rho + (m - 1) / math.tanh(rho) + (d - m) * math.tanh(rho))
    res = integrate_adaptive(log_g, 0.0, rho, _RADIAL_MASS_TOLERANCE, log_form=True,
                             log_offset=log_scale - top)
    if not res.value > 0:
        raise QuadratureError(f"radial mass underflows to {res.value} at d={d}, m={m}, "
                              f"rho={rho}", partial=res)
    return top - log_scale + math.log(res.value)


def log_crofton_constant(d: int, k: int, u: float, K: Curvature) -> float:
    """log of the total invariant measure of k-flats hitting the radius-u ball.

    At K < 0 it is omega_(d-k) (-K)^((k-d)/2) times the radial mass
    log_radial_mass(d, d-k, sqrt(-K) u).
    """
    if not 0 <= k <= d - 1:
        raise DomainError(f"need 0 <= k <= d-1, got k={k}, d={d}")
    if not u > 0:
        raise DomainError(f"need u > 0, got {u}")
    n = d - k
    if K.is_flat:
        return log_sphere_surface(n) + n * math.log(u) - math.log(n)
    s = K.scale
    return (log_sphere_surface(n) + (k - d) * math.log(s)
            + log_radial_mass(d, n, s * u))


def crofton_constant(d: int, k: int, u: float, K: Curvature) -> float:
    return math.exp(log_crofton_constant(d, k, u, K))


def reduce_to_unit_curvature(cfg: FlatConfig, K: Curvature):
    """Rescale to K = -1: ball radius becomes v = sqrt(-K) u.

    Probabilities are invariant; distances shrink by sqrt(-K) and densities
    gain a factor sqrt(-K).
    """
    K.require_hyperbolic()
    return replace(cfg, u=K.scale * cfg.u), Curvature(-1.0)


def _as_probability(value, error_estimate):
    """value as a probability, elementwise: clamped to [0, 1].

    Raises ProbabilityRangeError where value is nan or leaves [0, 1] by
    more than error_estimate + 1e-12.  A float in, a float out.
    """
    v = np.asarray(value, dtype=float)
    slack = error_estimate + 1e-12
    inside = (v >= -slack) & (v <= 1.0 + slack)  # false at nan
    if not inside.all():
        i = np.unravel_index(np.argmin(inside), v.shape)
        side = "below 0" if v[i] < 0.0 else "above 1" if v[i] > 1.0 else "not a number"
        err = np.broadcast_to(error_estimate, v.shape)[i]
        raise ProbabilityRangeError(f"probability {v[i]} {side} beyond error estimate {err}")
    out = np.minimum(np.maximum(v, 0.0), 1.0)
    return float(out) if out.ndim == 0 else out


def _log_prefactor(cfg1: FlatConfig) -> float:
    """log(D omega_{d-gamma} / C) at unit curvature with ball radius cfg1.u.

    It equals 2 / (B((gamma+1)/2, (d-q)/2) R), R the radial mass: p's own
    normalisation.  Each public function computes it once and passes it down.
    """
    d, q, g = cfg1.d, cfg1.q, cfg1.gamma
    return (math.log(2.0) - betaln(0.5 * (g + 1), 0.5 * (d - q))
            - log_radial_mass(d, q - g, cfg1.u))


def _offset_radius_integral(cfg: FlatConfig, K: Curvature, tol: Tolerance,
                            hit: bool) -> float:
    """P(the flats meet) if hit, else P(they miss), as one integral over the offset radius.

    At unit curvature the distance rho in [0, v] of the moving flat from the
    origin has density sinh^(m-1) rho cosh^(d-m) rho / R, m = q - gamma,
    R = exp(log_radial_mass(d, m, v)).  Given rho the flats meet with
    probability I_x(b, a'), x = sech^2 rho, b = (d-q)/2, a' = (gamma+1)/2,
    and miss with probability I_y(a', b), y = tanh^2 rho.  Taking x^b
    (y^a') out of the incomplete beta function leaves

        hit:  sinh^(m-1) rho cosh^gamma rho     (B_x(b, a') / x^b) / B(b, a'),
        miss: sinh^q rho cosh^(d-q-1) rho       (B_y(a', b) / y^a') / B(a', b)

    to integrate over [0, v] and divide by R.  Both converge on tol's
    relative tolerance alone, so a miss probability near 0 keeps its
    digits.
    """
    cfg1, _ = reduce_to_unit_curvature(cfg, K)
    d, q, g, v = cfg1.d, cfg1.q, cfg1.gamma, cfg1.u
    b, a1 = 0.5 * (d - q), 0.5 * (g + 1)
    if hit:
        sinh_pow, cosh_pow, a, c = q - g - 1, g, b, a1
    else:
        sinh_pow, cosh_pow, a, c = q, d - q - 1, a1, b

    def log_g(rho):
        lc = _log_cosh(rho)
        log_x = -2.0 * lc if hit else 2.0 * np.log(np.tanh(rho))
        val = cosh_pow * lc + _log_incomplete_beta_tail(a, c, np.exp(log_x), log_x)
        return val + sinh_pow * _log_sinh(rho) if sinh_pow else val

    res = integrate_adaptive(log_g, 0.0, v, replace(tol, abs_tol=_RELATIVE_ONLY_ABS_TOL),
                             log_form=True,
                             log_offset=-betaln(a, c) - log_radial_mass(d, q - g, v))
    return _as_probability(res.value, res.error_estimate)


def intersection_probability(cfg: FlatConfig, K: Curvature,
                             tol: Tolerance = DEFAULT_TOLERANCE) -> float:
    """Probability that the moving flat meets the central q-flat."""
    return _offset_radius_integral(cfg, K, tol, hit=True)


def euclidean_intersection_probability(cfg: FlatConfig) -> float:
    """In flat space the two flats meet almost surely."""
    return 1.0


def atom_mass(cfg: FlatConfig, K: Curvature,
              tol: Tolerance = DEFAULT_TOLERANCE) -> float:
    """Mass of the atom at +infinity: the probability the flats miss."""
    return _offset_radius_integral(cfg, K, tol, hit=False)


def _log_incomplete_beta_tail(a: float, b: float, x, log_x):
    """log(B_x(a, b) / x^a) for 0 <= x <= 1, B_x the incomplete beta function.

    From scipy's regularized betainc where that is at least _BETAINC_FLOOR;
    below it, from B_x(a, b) = x^a (1 - x)^b / a * 2F1(a + b, 1; a + 1; x)
    with the hypergeometric series summed here: x lies far below the mean
    a/(a+b) there, so its terms fall fast (at most about 90 of them for
    a, b <= 1000).  Both scipy's betainc and its hyp2f1 can be off by whole
    percents that deep in the tail at large a (I_x(200, 38) near 3e-280 by
    5%, against mpmath).
    """
    i = betainc(a, b, x)
    with np.errstate(divide="ignore"):
        out = np.log(i) + betaln(a, b) - a * log_x
    tail = i < _BETAINC_FLOOR
    if tail.any():
        xt = x[tail]
        term = np.ones_like(xt)
        total = np.ones_like(xt)
        for n in range(_SERIES_MAX_TERMS):
            if np.all(term <= _SERIES_EPS * total):
                break
            term *= (a + b + n) / (a + 1 + n) * xt
            total += term
        else:
            raise QuadratureError(
                f"2F1({a + b}, 1; {a + 1}; x) series needs more than {_SERIES_MAX_TERMS} terms")
        out[tail] = b * np.log1p(-xt) - math.log(a) + np.log(total)
    return out


def _log_lower_gamma_tail(a: float, c):
    """log(gamma(a, c) / c^a) for c >= 0, gamma the lower incomplete gamma function.

    From scipy's regularized gammainc wherever that is a normal double; where
    it underflows (or c = 0), from gamma(a, c) = c^a e^(-c) / a * M(1, a + 1, c)
    (DLMF 8.5.1), whose series converges fast there (c lies far below a).
    """
    p = gammainc(a, c)
    with np.errstate(divide="ignore", invalid="ignore"):
        out = np.log(p) + gammaln(a) - a * np.log(c)
    under = p < np.finfo(float).tiny
    if under.any():
        cu = c[under]
        out[under] = -cu - math.log(a) + np.log(hyp1f1(1.0, a + 1.0, cu))
    return out


def _log_density(cfg1: FlatConfig, pref: float, t) -> np.ndarray:
    """log of the distance density at unit curvature, elementwise on reduced distances t > 0.

    f(t) = A sinh^(m-1) t cosh^gamma t I_x(a, b), m = q - gamma,
    a = (q+1)/2, b = (d-q)/2, x = min(1, sinh^2 v / sinh^2 t) with v = cfg1.u,
    A = B(a, b) exp(pref) / 2 (_log_prefactor).  For t > v the factor x^a of I_x is
    taken out and merged with sinh^(m-1) t into sinh^(q+1) v / sinh^(gamma+2) t,
    so no power of order d multiplies a log of sinh t there.
    """
    t = np.asarray(t, dtype=float)
    d, q, g = cfg1.d, cfg1.q, cfg1.gamma
    m = q - g
    a, b = 0.5 * (q + 1), 0.5 * (d - q)
    ls_t = _log_sinh(t)
    ls_v = float(_log_sinh(cfg1.u))
    log_x = np.minimum(0.0, 2.0 * (ls_v - ls_t))
    far = log_x < 0.0
    out = np.full(t.shape, pref - math.log(2.0))
    if g:
        out += g * _log_cosh(t)
    near = ~far
    out[near] += betaln(a, b)
    if m > 1:  # at m = 1 the power is 0 and sinh^0 = 1, also at t = 0
        out[near] += (m - 1) * ls_t[near]
    if far.any():
        lx = log_x[far]
        out[far] += ((q + 1) * ls_v - (g + 2) * ls_t[far]
                     + _log_incomplete_beta_tail(a, b, np.exp(lx), lx))
    return out


def _w_past(t, v):
    """w = s / (1 + s), s = sqrt(t - v), for finite t >= v."""
    s = np.sqrt(t - v)
    return s / (1.0 + s)


def _log_integrands(cfg1: FlatConfig, pref: float, alpha: float = 0.0):
    """log of t^alpha times the unit-curvature density, in t and, past v, in w.

    Past v the density has a (t - v)^((d-q)/2) term, a square root at
    d - q = 1, which Gauss-Kronrod resolves slowly.  In w = s / (1 + s),
    s = sqrt(t - v), the integrand 2 s g(v + s^2) / (1 - w)^2 is smooth and
    [v, infinity] is [0, 1]; the quadrature never evaluates w = 1.
    """
    v = cfg1.u

    def log_g(t):
        val = _log_density(cfg1, pref, t)
        return val + alpha * np.log(t) if alpha else val

    def log_g_past(w):
        s = w / (1.0 - w)
        return math.log(2.0) + np.log(w) - 3.0 * np.log1p(-w) + log_g(v + s * s)

    return log_g, log_g_past


def _density_integral(cfg1: FlatConfig, pref: float, lo: float, hi: float,
                      tol: Tolerance, alpha: float = 0.0) -> QuadResult:
    """Integral of t^alpha times the unit-curvature density over reduced distances [lo, hi].

    The part below v runs in t, the part past v in w = s / (1 + s),
    s = sqrt(t - v) (_log_integrands); hi = infinity is w = 1.

    Only tol's relative tolerance decides convergence.  The density peaks
    at v in a layer that can be far narrower than a panel (about 1/d wide
    below v at gamma near q, and thin in w for large upper limits), and a
    first panel whose nodes all miss it sees a value orders of magnitude
    below the true one; an absolute tolerance would accept that.
    """
    v = cfg1.u
    tol = replace(tol, abs_tol=_RELATIVE_ONLY_ABS_TOL)
    log_g, log_g_past = _log_integrands(cfg1, pref, alpha)
    parts = []
    if lo < v:
        parts.append(integrate_adaptive(log_g, lo, min(hi, v), tol, log_form=True))
    if hi > v:
        w_hi = 1.0 if hi == math.inf else _w_past(hi, v)
        parts.append(integrate_adaptive(log_g_past, _w_past(max(lo, v), v), w_hi, tol,
                                        log_form=True))
    return QuadResult(math.fsum(r.value for r in parts),
                      math.fsum(r.error_estimate for r in parts),
                      sum(r.evaluations for r in parts),
                      all(r.converged for r in parts))


def _segment_integrals(cfg1: FlatConfig, pref: float, lo: np.ndarray, hi: np.ndarray,
                       tol: Tolerance):
    """Integrals of the unit-curvature density over the segments [lo[i], hi[i]].

    No segment may straddle v.  Each segment is one Gauss-Kronrod panel,
    those below v from one integrand call in t and those past v from one
    in w (_log_integrands).  A segment whose error estimate exceeds tol's
    relative target goes alone to _density_integral, as it would be
    refined there.  Returns the arrays (values, error estimates).
    """
    v = cfg1.u
    log_g, log_g_past = _log_integrands(cfg1, pref)
    vals, errs = np.empty(lo.shape), np.empty(lo.shape)
    near = hi <= v
    vals[near], errs[near] = _gk_panels(log_g, lo[near], hi[near], True, 0.0)
    far = ~near
    vals[far], errs[far] = _gk_panels(log_g_past, _w_past(lo[far], v), _w_past(hi[far], v),
                                      True, 0.0)
    for i in np.flatnonzero(errs > np.maximum(_RELATIVE_ONLY_ABS_TOL,
                                               tol.rel_tol * np.abs(vals))):
        res = _density_integral(cfg1, pref, float(lo[i]), float(hi[i]), tol)
        vals[i], errs[i] = res.value, res.error_estimate
    return vals, errs


def _require_distance(delta) -> None:
    if not (math.isfinite(delta) and delta >= 0):
        raise DomainError(f"need a finite delta >= 0, got {delta}")


def distance_cdf(cfg: FlatConfig, K: Curvature, delta: float,
                 tol: Tolerance = DEFAULT_TOLERANCE) -> float:
    """P(distance of the intersection to the origin <= delta)."""
    _require_distance(delta)
    if delta == 0:
        return 0.0
    cfg1, _ = reduce_to_unit_curvature(cfg, K)
    res = _density_integral(cfg1, _log_prefactor(cfg1), 0.0, K.scale * delta, tol)
    return _as_probability(res.value, res.error_estimate)


def distance_cdf_grid(cfg: FlatConfig, K: Curvature, deltas,
                      tol: Tolerance = DEFAULT_TOLERANCE) -> np.ndarray:
    """distance_cdf on an ascending 1-d grid, in one vectorised pass.

    The knots are 0, the reduced radius v and the grid points.  Every
    segment between neighbouring knots is one Gauss-Kronrod panel; the
    panels below v take one integrand call and those past v one more
    (_segment_integrals).  A segment whose error estimate misses the
    relative tolerance is integrated adaptively on its own.  The values
    are the cumulative sums of the segments, each with the summed error
    estimates, and leaving [0, 1] by more than them raises
    ProbabilityRangeError.
    """
    deltas = np.asarray(deltas, dtype=float)
    if deltas.ndim != 1:
        raise DomainError(f"deltas must be a 1-d sequence, got shape {deltas.shape}")
    if not (np.all(np.isfinite(deltas)) and np.all(deltas >= 0)
            and np.all(np.diff(deltas) >= 0)):
        raise DomainError("deltas must be finite, ascending and >= 0")
    cfg1, _ = reduce_to_unit_curvature(cfg, K)
    pref = _log_prefactor(cfg1)
    t = K.scale * deltas
    knots = np.unique(np.concatenate(([0.0, min(cfg1.u, t.max(initial=0.0))], t)))
    vals, errs = _segment_integrals(cfg1, pref, knots[:-1], knots[1:], tol)
    at = np.searchsorted(knots, t)
    return _as_probability(np.concatenate(([0.0], np.cumsum(vals)))[at],
                           np.concatenate(([0.0], np.cumsum(errs)))[at])


def distance_density(cfg: FlatConfig, K: Curvature, delta,
                     tol: Tolerance = DEFAULT_TOLERANCE):
    """Density of the absolutely continuous part of the distance law.

    delta is a distance (the result is a float) or an array of them (the
    result is an array of the same shape, computed with one Crofton
    constant).  Closed form, so tol is not used; it is accepted like
    everywhere else.
    """
    t = np.asarray(delta, dtype=float)
    if not np.all((t > 0) & (t < math.inf)):
        raise DomainError(f"need finite delta > 0, got {delta}")
    cfg1, _ = reduce_to_unit_curvature(cfg, K)
    f = K.scale * np.exp(_log_density(cfg1, _log_prefactor(cfg1), K.scale * t))
    return float(f) if f.ndim == 0 else f


def moment(cfg: FlatConfig, K: Curvature, alpha: float, conditional: bool,
           tol: Tolerance = DEFAULT_TOLERANCE) -> MomentResult:
    """Moment of order alpha of the distance to the origin.

    Divergence is decided by the analytic criterion: the unconditional
    moment is finite iff alpha in (gamma - q, 0]; the conditional one iff
    alpha > gamma - q.  Quadrature only runs on the finite branch: one
    integral over [0, infinity].  The conditional moment divides it by p
    and raises QuadratureError where p underflows to 0.  A non-finite alpha
    raises DomainError.
    """
    K.require_hyperbolic()
    if not math.isfinite(alpha):
        raise DomainError(f"moment order alpha must be finite, got {alpha}")
    lo = cfg.gamma - cfg.q
    if alpha <= lo or (not conditional and alpha > 0):
        return MomentResult(alpha, conditional, None)
    if alpha == 0:
        return MomentResult(alpha, conditional, 1.0)

    cfg1, _ = reduce_to_unit_curvature(cfg, K)
    res = _density_integral(cfg1, _log_prefactor(cfg1), 0.0, math.inf, tol, alpha)
    value = K.scale ** (-alpha) * res.value
    if conditional:
        p = intersection_probability(cfg, K, tol)
        if p == 0.0:
            raise QuadratureError("p underflows to 0.0: the conditional moment is 0/0",
                                  partial=res)
        value /= p
    return MomentResult(alpha, conditional, value)


def euclidean_distance_cdf(cfg: FlatConfig, delta: float,
                           tol: Tolerance = DEFAULT_TOLERANCE) -> float:
    """Flat-space distance CDF (the K -> 0 limit of distance_cdf).

    The K = 0 density is proportional to t^(m-1) I_x(a, b), m = q - gamma,
    a = (q+1)/2, b = (d-q)/2, x = min(1, u^2 / t^2), with total mass 1.
    Integrating by parts, with a' = (gamma+1)/2 and x = u^2 / delta^2:

        F(delta) = (delta/u)^m B(a, b) / B(a', b)                        delta <= u,
        F(delta) = x^a' (B_x(a, b) / x^a) / B(a', b) + 1 - I_x(a', b)    delta > u.

    Closed form, so tol is not used; it is accepted like everywhere else.
    """
    _require_distance(delta)
    if delta == 0:
        return 0.0
    d, q, g, u = cfg.d, cfg.q, cfg.gamma, cfg.u
    a, b, a1 = 0.5 * (q + 1), 0.5 * (d - q), 0.5 * (g + 1)
    if delta <= u:
        value = math.exp((q - g) * math.log(delta / u) + betaln(a, b) - betaln(a1, b))
    else:
        log_x = np.array([2.0 * math.log(u / delta)])
        x = np.exp(log_x)
        head = a1 * log_x + _log_incomplete_beta_tail(a, b, x, log_x) - betaln(a1, b)
        value = float(np.exp(head[0]) + betaincc(a1, b, x[0]))
    return _as_probability(value, 0.0)


def critical_constant_rho(u: float, q: int, gamma: int, kappa: float,
                          tol: Tolerance = DEFAULT_TOLERANCE) -> float:
    """Limit of the intersection probability in the critical regime -K d -> kappa.

    rho = P * integral over r in (0, 1) of r^(-(gamma+2)) gamma(a, c) / (2 c^a),
    a = (q+1)/2, c = (u^2 kappa / 2)(1 - r^2) / r^2, where gamma(a, c) / (2 c^a)
    is the inner integral of w^q e^(-c w^2) over w in (0, 1), and
    P = omega_(gamma+1) (2 pi)^(-(gamma+1)/2) u^(q+1) kappa^((gamma+1)/2) / N
    with N the integral of e^(kappa s^2 / 2) s^(m-1) over s in (0, u), m = q - gamma.
    With z = kappa u^2 / 2 and Kummer's transformation of the confluent
    hypergeometric M, N = (u^m / m) M(m/2, m/2 + 1, z) = (u^m / m) e^z M(1, m/2 + 1, -z).
    The r-integral converges on tol's relative tolerance alone.
    """
    if not 0 <= gamma <= q - 1:
        raise DomainError(f"need 0 <= gamma <= q-1, got gamma={gamma}, q={q}")
    if not u > 0:
        raise DomainError(f"need u > 0, got {u}")
    if not kappa > 0:
        raise DomainError(f"need kappa > 0, got {kappa}")
    m, a, z = q - gamma, 0.5 * (q + 1), 0.5 * kappa * u * u
    log_norm = m * math.log(u) - math.log(m) + z + math.log(hyp1f1(1.0, 0.5 * m + 1.0, -z))
    pref = (log_sphere_surface(gamma + 1) + 0.5 * (gamma + 1) * math.log(kappa / (2.0 * math.pi))
            + (1 + q) * math.log(u) - math.log(2.0) - log_norm)

    def log_outer(r):
        with np.errstate(over="ignore"):  # c = inf where r is tiny: the term is 0
            c_r = z * (1.0 - r) * (1.0 + r) / (r * r)
        return _log_lower_gamma_tail(a, c_r) - (gamma + 2) * np.log(r)

    res = integrate_adaptive(log_outer, 0.0, 1.0, replace(tol, abs_tol=_RELATIVE_ONLY_ABS_TOL),
                             log_form=True, log_offset=pref)
    return _as_probability(res.value, res.error_estimate)


def phase_limit(mode: PhaseMode, u: float, q: int, gamma: int,
                tol: Tolerance = DEFAULT_TOLERANCE) -> float:
    """d -> infinity limit of the intersection probability under a curvature schedule."""
    if mode.regime == "subcritical":
        return 1.0
    if mode.regime == "supercritical":
        return 0.0
    return critical_constant_rho(u, q, gamma, mode.kappa, tol)
