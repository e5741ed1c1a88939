"""Closed-form quantities: Crofton constants, intersection probabilities,
distance CDF/density, atom mass, moments, Euclidean baselines and the
critical phase constant.

Every hyperbolic evaluation first rescales to unit curvature (K = -1 with
ball radius v = sqrt(-K) u) and starts from that configuration's law,
_unit_law(cfg, K): the constants of the density and of p's integrands,
computed once per configuration and memoised (64 of them).  On the event
that the flats meet, the distance t from the origin to the intersection has
the closed-form density

    f(t) = A sinh^(m-1) t cosh^gamma t I_x((q+1)/2, (d-q)/2),

m = q - gamma, x = min(1, sinh^2 v / sinh^2 t), I_x the regularized
incomplete beta function and A = B((q+1)/2, (d-q)/2) / (B((gamma+1)/2, (d-q)/2) R),
R the radial mass below, as in p (_log_density, in log space).  The CDF and
the moments are 1-d integrals of it, in y = (t/v)^k below v, which makes
a moment's power of t at 0 smooth, and in w = s/(1+s), s = sqrt(t - v),
past v: a moment is one integral to infinity.  Their first panels come
from the law: equal in w past v (_GRID_PANELS_PAST per unit of w), and
graded toward v on both sides where the integral reaches v (_layer_knots),
so a moment at the benchmark's configurations takes three integrand calls
(below v, past v, and p's) instead of thirteen, and one at v = 1e-10
returns its value where bisection toward v ran out of subdivisions.  A
CDF grid, of 128 points or of 10^5 sorted Monte Carlo samples, is one
representation of the law on those panels (_grid_panels), all evaluated
in one integrand call and halved where they miss the tolerance; each
point takes the integral of its panel's node interpolant.  The
flat-space (K -> 0) distance CDF and the normaliser of the critical constant rho are
closed form; rho is one 1-d integral of a lower incomplete gamma function,
on first panels graded around the point r* where that function turns over,
which usually settle it in one integrand call.

The intersection probability and its complement, the atom mass, are 1-d
integrals over the offset radius rho in [0, v] of the moving flat
(_offset_radius_integral): rho has the radial-mass law, and given rho the
flats meet with a probability that is a regularized incomplete beta
function of sech^2 rho.  They are taken in h = v - rho, relative to their
values at v: each node's log is a difference of logs of sinh and cosh that
cancels nothing, and the large powers of sinh v and cosh v meet those of
the radial mass once, in closed form, so no log near d v rounds in them.
Their mass lies in a layer about 1/d wide below v at large d, so their
first panels are graded toward it, h = 2, 4, 8, ... over the integrand's
log-slope at v, and all of them take one call of the integrand.

The radial mass log_radial_mass(d, m, v), the log of the integral of
sinh^(m-1) t cosh^(d-m) t over [0, v], normalises the offset-radius law, the
density and the Crofton constant.  It is exact and takes no quadrature: a
recurrence in the power of cosh, and the halving sinh t = 2 sinh(t/2) cosh(t/2)
where that power is even, write it as sums of positive terms in log space
(_log_sinh_cosh_parts), a leading power sinh^m v cosh^(d-m-1) v times a
factor of order log d.  It is memoised per (d, m, v) with that factor
(_radial_mass_parts): the unit-curvature law, the Crofton constant and the
Monte Carlo sampler of one configuration share one evaluation.

Every integral here is integrate_adaptive in log form, which keeps the
integral's scale in log space: it converges on the relative tolerance
alone, so a subnormal p or rho keeps its digits, and its log_value is
finite where p underflows, so a conditional moment is a ratio of logs.  No
function here uses a Tolerance's abs_tol: its rel_tol and max_subdivisions
decide.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy.special import betainc, betaincc, gammainc, gammaln, hyp1f1

from .errors import DomainError, ProbabilityRangeError, QuadratureError
from .quadrature import (
    _XK,
    DEFAULT_TOLERANCE,
    QuadResult,
    Tolerance,
    _exp_or_raise,
    _gk_panels,
    _nodes_inside,
    _panel_scales,
    integrate_adaptive,
    integrate_iterated_2d,  # re-exported: perfbench's traced run looks it up on this module
)
from .special import Curvature, FlatConfig, betaln, log_sphere_surface

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


_BETAINC_FLOOR = 1e-200
_UNIT_CURVATURE = Curvature(-1.0)
_LOG2 = math.log(2.0)
# the radial mass's sums drop terms below this fraction of the sum
_SUM_EPS = 1e-17
_LOG_SUM_EPS = math.log(_SUM_EPS)
# terms of the series for the integral of sinh^a up to 1/2: ratios at most 0.21
_SINH_SERIES_TERMS = 64
_SERIES_EPS = 1e-17
_SERIES_MAX_TERMS = 1000
# first panels graded toward a layer (_layer_knots: p's, the atom's, the density
# integrals' next to v, rho's) end h = 2^k _LAYER_KNOT / lambda from its edge,
# lambda the integrand's log-slope there, where lambda times the span exceeds
# _LAYER_MIN_SPAN; a wider layer costs no panel of its own
_LAYER_KNOT = 2.0
_LAYER_MIN_SPAN = 4.0
# the law's first panels (_grid_panels): a CDF grid's equal panels in t on
# [0, min(v, its last point)], and, for the grid and a density integral
# alike, equal panels in w past v, _GRID_PANELS_PAST per unit of w
_GRID_PANELS_BELOW = 4
_GRID_PANELS_PAST = 12


# the 15 x 15 map from node values at _XK to the Chebyshev coefficients on
# [-1, 1] of their degree-14 interpolant
_CHEBYSHEV = np.linalg.inv(np.cos(np.arange(_XK.size) * np.arccos(_XK)[:, None]))


def _antiderivative_matrix() -> np.ndarray:
    """The 16 x 15 map from node values at _XK to the Chebyshev coefficients on
    [-1, 1] of the antiderivative, 0 at -1, of their degree-14 interpolant.

    The Chebyshev basis keeps the map's entries below 0.14 (the monomial
    one needs entries up to 570), so summing the series by Clenshaw loses
    about one unit of rounding of the panel's integral, not a thousand.
    """
    n = _XK.size
    k = np.arange(2, n)
    integrate = np.zeros((n + 1, n))  # integral of T_k, in T_0 .. T_n
    integrate[1, 0], integrate[2, 1] = 1.0, 0.25
    integrate[k + 1, k], integrate[k - 1, k] = 0.5 / (k + 1), -0.5 / (k - 1)
    integrate[0] = -((-1.0) ** np.arange(1, n + 1)) @ integrate[1:]  # T_j(-1) = (-1)^j
    return integrate @ _CHEBYSHEV


_ANTIDERIVATIVE = _antiderivative_matrix()


def _log_cosh(x):
    return x + np.log1p(np.exp(-2.0 * x)) - math.log(2.0)


def _log_sinhc(t):
    """log(sinh t / t) for t >= 0, 0 at t = 0: log(-expm1(-2t) / 2t) + t, with no
    cancellation of log t where t is small."""
    t = np.maximum(t, np.finfo(float).tiny)
    return t + np.log(-np.expm1(-2.0 * t) / (2.0 * t))


def _log_sinh(t):
    return t + np.log(-np.expm1(-2.0 * t)) - math.log(2.0)


def _log_sinh_cosh(v: float) -> tuple[float, float]:
    """log sinh v and log cosh v for a float v > 0, each to a few units of rounding."""
    if v < 20.0:
        # cosh v - 1 = 2 sinh^2(v/2): no cancellation where log cosh v is small
        return math.log(math.sinh(v)), math.log1p(2.0 * math.sinh(0.5 * v) ** 2)
    return v - _LOG2 + math.log1p(-math.exp(-2.0 * v)), v - _LOG2 + math.log1p(math.exp(-2.0 * v))


def _split(x: float) -> tuple[float, float]:
    """x = hi + lo exactly, each with at most 26 significant bits (Veltkamp), so
    an integer below 2^27 times either is exact."""
    c = 134217729.0 * x
    hi = c - (c - x)
    return hi, x - hi


_LOG2_HI, _LOG2_MID = _split(_LOG2)
_LOG2_LO = 2.3190468138462996e-17  # log 2 - _LOG2, which a double cannot hold


def _log_power_terms(n1: int, n2: int, v: float, log_sinh: float, log_cosh: float) -> list:
    """Terms whose math.fsum is log(sinh^n1 v cosh^n2 v); log_sinh and log_cosh are at v.

    Past v = 1 the logs are v - log 2 + log1p(-+e^(-2v)), and
    (n1 + n2)(v - log 2) is kept as exact products of split factors: the
    rounding of log cosh v alone, times d - m = 1000, would cost 1e-12
    relative at v = 12.  Past v = 1e300 the split would overflow.
    """
    if not 1.0 <= v <= 1e300:
        return [n1 * log_sinh, n2 * log_cosh]
    n, (v_hi, v_lo), e = n1 + n2, _split(v), math.exp(-2.0 * v)
    return [n * v_hi, n * v_lo, -n * _LOG2_HI, -n * _LOG2_MID, -n * _LOG2_LO,
            n1 * math.log1p(-e), n2 * math.log1p(e)]


def _terms_needed(n: int, ratio: float) -> int:
    """How many of n positive terms to sum, each at most ratio times the one before
    and the first 1: those dropped add at most _SUM_EPS."""
    if ratio >= 1.0:
        return n
    if ratio <= 0.0:
        return 1
    return min(n, 1 + math.ceil(math.log(_SUM_EPS * (1.0 - ratio)) / math.log(ratio)))


def _log_series(ratios: np.ndarray) -> float:
    """log(1 + r1 + r1 r2 + r1 r2 r3 + ...) for positive ratios r1, r2, ..."""
    return math.log1p(float(np.cumprod(ratios).sum()))


def _log_sinh_cosh_parts(a: int, b: int, v: float, log_sinh: float,
                         log_cosh: float) -> tuple[int, int, float]:
    """I(a, b; v), the integral of sinh^a t cosh^b t over [0, v], a, b >= 0, a + b >= 1,
    as its leading power and the rest: (n1, n2, log_factor) with
    I(a, b; v) = sinh^n1 v cosh^n2 v exp(log_factor); log_sinh and log_cosh are at v.

    Differentiating sinh^(a+1) cosh^(b-1) gives
    I(a, b) = (sinh^(a+1) v cosh^(b-1) v + (b - 1) I(a, b - 2)) / (a + b), so
    I(a, b) = sinh^(a+1) v cosh^(b-1) v / (a + b) * sum_k r_k, r_0 = 1,
    r_k = r_(k-1) sech^2 v (b + 1 - 2k) / (a + b - 2k).  At odd b the sum
    ends by itself (at I(a, 1) = sinh^(a+1) v / (a + 1)); at even b it takes
    the terms k < b/2 and adds c I(a, 0; v), c = prod_(j < b/2)
    (b - 1 - 2j) / (a + b - 2j), unless c v sinh^a v, a bound on that
    remainder, is below _SUM_EPS of the sum.  Every term is positive.  For
    b >= 1 the power is (a + 1, b - 1) and the factor, the log of the sum
    over a + b, is small next to it: about log(a + b) in size at most.  At
    b = 0 the power is (0, 0) and the factor is the whole log.
    """
    if b == 0:
        return 0, 0, _log_sinh_power_integral(a, v, log_sinh, log_cosh)
    sech2 = math.exp(-2.0 * log_cosh)
    # the factor (b + 1 - 2k) / (a + b - 2k) is at most 1 where a >= 1 and 2 where a = 0
    n = _terms_needed((b + 1) // 2, sech2 if a else 2.0 * sech2)
    top = np.arange(b - 1.0, b + 1.0 - 2.0 * n, -2.0)  # b + 1 - 2k for k = 1 .. n - 1
    log_factor = _log_series(sech2 * top / (top + (a - 1))) - math.log(a + b)
    if b % 2:
        return a + 1, b - 1, log_factor
    log_power = math.fsum(_log_power_terms(a + 1, b - 1, v, log_sinh, log_cosh))
    # c <= 1, so the remainder is at most v sinh^a v
    log_bound = math.log(v) + a * log_sinh - log_power
    if log_bound < log_factor + _LOG_SUM_EPS:
        return a + 1, b - 1, log_factor
    top = np.arange(b - 1.0, 0.0, -2.0)  # b - 1 - 2j for j < b/2
    log_c = float(np.log(top / (top + (a + 1))).sum())
    if log_c + log_bound < log_factor + _LOG_SUM_EPS:
        return a + 1, b - 1, log_factor
    log_rest = log_c + _log_sinh_power_integral(a, v, log_sinh, log_cosh) - log_power
    return a + 1, b - 1, float(np.logaddexp(log_factor, log_rest))


def _log_sinh_cosh_integral(a: int, b: int, v: float) -> float:
    """log I(a, b; v), the integral of sinh^a t cosh^b t over [0, v] (_log_sinh_cosh_parts)."""
    log_sinh, log_cosh = _log_sinh_cosh(v)
    n1, n2, log_factor = _log_sinh_cosh_parts(a, b, v, log_sinh, log_cosh)
    return math.fsum(_log_power_terms(n1, n2, v, log_sinh, log_cosh) + [log_factor])


def _log_sinh_power_integral(a: int, v: float, log_sinh: float, log_cosh: float) -> float:
    """log I(a, 0; v), the integral of sinh^a t over [0, v]; log_sinh and log_cosh are at v.

    I(0, 0; v) = v.  Up to v = 1/2 it is the series
    tanh^(a+1) v cosh^a v / (a + 1) * sum_n (1/2)_n / ((a+3)/2)_n tanh^(2n) v,
    whose ratios are at most tanh^2(1/2) = 0.21.  Past 1/2,
    sinh t = 2 sinh(t/2) cosh(t/2) gives I(a, 0; v) = 2^(a+1) I(a, a; v/2).
    """
    if a == 0:
        return math.log(v)
    if v > 0.5:
        return math.fsum([(a + 1) * _LOG2_HI, (a + 1) * _LOG2_MID, (a + 1) * _LOG2_LO,
                          _log_sinh_cosh_integral(a, a, 0.5 * v)])
    log_tanh = log_sinh - log_cosh
    t2 = math.exp(2.0 * log_tanh)
    half = np.arange(0.5, _terms_needed(_SINH_SERIES_TERMS, t2) - 1.0)  # n - 1/2 for n >= 1
    return ((a + 1) * log_tanh + a * log_cosh - math.log(a + 1)
            + _log_series(t2 * half / (half + 0.5 * (a + 2))))


@lru_cache(maxsize=64)
def log_radial_mass(d: int, m: int, rho: float) -> float:
    """log of the radial mass, the integral of sinh^(m-1) t cosh^(d-m) t over [0, rho].

    With omega_m in front it is the Crofton constant of (d-m)-flats at
    K = -1, and it is the total mass of the offset-radius law of a flat
    with normal dimension m hitting the ball of radius rho.  It is exact
    and needs no quadrature: the reduction of _log_sinh_cosh_parts writes
    it as sums of positive terms, in log space, whatever the layer about
    1/((d-m) tanh rho) wide below rho that holds the mass.

    Memoised: the Crofton constant, p, the atom mass, the density and the
    Monte Carlo sampler of one configuration share one evaluation
    (_radial_mass_parts).  A log beyond the largest double (rho near 1e308)
    raises QuadratureError.
    """
    return _radial_mass_parts(d, m, rho)[0]


@lru_cache(maxsize=64)
def _radial_mass_parts(d: int, m: int, rho: float) -> tuple[float, float]:
    """(log R, log_factor): log_radial_mass and the factor that multiplies its
    leading power sinh^m rho cosh^(d-m-1) rho (at m = d there is no power and the
    factor is log R), memoised.

    The offset-radius integrals take their integrands' powers relative to
    that leading power, so only the factor, whose size is about log d, meets
    their logs; log R itself is near (d-1) rho.
    """
    if not (d >= 2 and 1 <= m <= d):
        raise DomainError(f"need d >= 2 and 1 <= m <= d, got m={m}, d={d}")
    if not (rho > 0 and math.isfinite(rho)):
        raise DomainError(f"need rho > 0, got {rho}")
    rho = float(rho)
    log_sinh, log_cosh = _log_sinh_cosh(rho)
    n1, n2, log_factor = _log_sinh_cosh_parts(m - 1, d - m, rho, log_sinh, log_cosh)
    log_mass = math.fsum(_log_power_terms(n1, n2, rho, log_sinh, log_cosh) + [log_factor])
    if not math.isfinite(log_mass):
        raise QuadratureError(f"log radial mass overflows at d={d}, m={m}, rho={rho}")
    return log_mass, log_factor


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
    return FlatConfig(cfg.d, cfg.q, cfg.gamma, K.scale * cfg.u), _UNIT_CURVATURE


@dataclass(frozen=True)
class _UnitLaw:
    """The constants of one configuration's distance law at unit curvature (_unit_law).

    a = (q+1)/2, b = (d-q)/2, a1 = (gamma+1)/2; betaln_ab is log B(a, b),
    the density's, and betaln_a1b is log B(a1, b) = log B(b, a1), that of
    p's and the atom's integrands; log_pref is log(2 / (B(a1, b) R)), R the
    radial mass: p's normalisation, and the density's prefactor
    A = B(a, b) exp(log_pref) / 2.  hit_offset and miss_offset are the logs
    of the offset-radius integrands' powers at v over R's, with R's factor
    and B(a1, b) (_offset_radius_integral).
    """

    cfg1: FlatConfig  # the configuration at K = -1, ball radius v
    v: float
    m: int  # q - gamma
    a: float
    b: float
    a1: float
    log_sinh_v: float
    log_cosh_v: float
    log_tanh_v: float
    betaln_ab: float
    betaln_a1b: float
    log_R: float
    log_pref: float
    hit_offset: float
    miss_offset: float


@lru_cache(maxsize=64)
def _unit_law(cfg: FlatConfig, K: Curvature) -> _UnitLaw:
    """The unit-curvature law of (cfg, K), memoised: every hyperbolic function starts here.

    Its radial mass comes from log_radial_mass, which has its own memo
    shared with the sampler and the Crofton constant.  No value depends on
    whether the law was cached.
    """
    cfg1, _ = reduce_to_unit_curvature(cfg, K)
    d, q, g, v = cfg1.d, cfg1.q, cfg1.gamma, cfg1.u
    m, a, b, a1 = q - g, 0.5 * (q + 1), 0.5 * (d - q), 0.5 * (g + 1)
    betaln_ab, betaln_a1b = betaln(a, b), betaln(a1, b)
    log_R = log_radial_mass(d, m, v)
    log_R_factor = _radial_mass_parts(d, m, v)[1]
    log_sinh, log_cosh = _log_sinh_cosh(v)

    def offset(n1, n2):
        # sinh^n1 v cosh^n2 v over R's leading power sinh^m v cosh^(d-m-1) v
        return math.fsum(_log_power_terms(n1 - m, n2 - (d - m - 1), v, log_sinh, log_cosh)
                         + [-log_R_factor, -betaln_a1b])

    # log tanh v = log(-expm1(-2v)) - log1p(e^(-2v)): no cancellation at large v
    log_tanh = math.log(-math.expm1(-2.0 * v)) - math.log1p(math.exp(-2.0 * v))
    return _UnitLaw(cfg1, v, m, a, b, a1, log_sinh, log_cosh, log_tanh, betaln_ab, betaln_a1b,
                    log_R, _LOG2 - betaln_a1b - log_R, offset(m - 1, g), offset(q, d - q - 1))


def _as_probability(value, error_estimate):
    """value as a probability, elementwise: clamped to [0, 1].

    Raises ProbabilityRangeError where value is nan or leaves [0, 1] by
    more than error_estimate + 1e-12.  A float in, a float out.
    """
    slack = error_estimate + 1e-12
    if isinstance(value, float) and -slack <= value <= 1.0 + slack:
        return min(1.0, max(0.0, value))
    v = np.asarray(value, dtype=float)
    inside = (v >= -slack) & (v <= 1.0 + slack)  # false at nan
    if not inside.all():
        i = np.unravel_index(np.argmin(inside), v.shape)
        side = "below 0" if v[i] < 0.0 else "above 1" if v[i] > 1.0 else "not a number"
        err = np.broadcast_to(error_estimate, v.shape)[i]
        raise ProbabilityRangeError(f"probability {v[i]} {side} beyond error estimate {err}")
    out = np.minimum(np.maximum(v, 0.0), 1.0)
    return float(out) if out.ndim == 0 else out


def _layer_knots(slope: float, span: float) -> list:
    """The distances h = 2^k _LAYER_KNOT / slope, k = 0, 1, ..., below span from
    the end of an integral whose integrand's log falls off at rate slope away
    from that end: first panels graded toward the layer about 1/slope wide that
    holds its mass; none where slope * span <= _LAYER_MIN_SPAN."""
    knots = []
    if slope * span > _LAYER_MIN_SPAN:
        h = _LAYER_KNOT / slope
        while h < span:
            knots.append(h)
            h *= 2.0
    return knots


def _offset_radius_integral(cfg: FlatConfig, K: Curvature, tol: Tolerance,
                            hit: bool) -> QuadResult:
    """P(the flats meet) if hit, else P(they miss), as one integral over the offset radius.

    At unit curvature the distance rho in [0, v] of the moving flat from the
    origin has density sinh^(m-1) rho cosh^(d-m) rho / R, m = q - gamma,
    R = exp(log_radial_mass(d, m, v)).  Given rho the flats meet with
    probability I_x(b, a'), x = sech^2 rho, b = (d-q)/2, a' = (gamma+1)/2,
    and miss with probability I_y(a', b), y = tanh^2 rho.  Taking x^b
    (y^a') out of the incomplete beta function leaves

        hit:  sinh^(m-1) rho cosh^gamma rho     (B_x(b, a') / x^b) / B(b, a'),
        miss: sinh^q rho cosh^(d-q-1) rho       (B_y(a', b) / y^a') / B(a', b)

    to integrate over [0, v] and divide by R.  Where y > 1/2 the miss
    integrand is sinh^(m-1) rho cosh^(d-m) rho (1 - I_x(b, a')) instead,
    with x = exp(-2 log cosh rho) exact: 1 - y there keeps only part of the
    digits of x that the miss probability depends on, and rounds to 0 past
    rho = 18.7.  1 - I_x is 1 - betainc where betainc is at most 1/2 and
    scipy's betaincc, 7 to 10 times dearer, only where it is above 1/2.
    That branch's power differs from the first by
    -(gamma+1) log tanh v at v.

    Both are log-form integrals in h = v - rho, relative to their values
    at v: at large d their logs are sums of terms near d v (or, at small v,
    near d log v), whose rounding alone would cost 1e-12 of p at d = 1000.
    With E = e^(-2 rho) and M = expm1(-2h) <= 0,

        log sinh rho - log sinh v = -h + log1p(E M / -expm1(-2v)),
        log cosh rho - log cosh v = -h + log1p(-E M / (1 + e^(-2v))),

    the differences of Ls(t) = log(-expm1(-2t)) and of Lc(t) = log1p(e^(-2t))
    at rho and at v, with nothing left to cancel.  The powers at v, over
    R's leading power and with R's factor and the beta function, are the
    integral's log_offset (_UnitLaw.hit_offset, miss_offset).

    The mass lies in a layer about 1/lambda wide below v, lambda the
    integrand's log-slope at v ((m-1) coth v + (gamma+a') tanh v for the
    hit, q coth v + (d-q) tanh v for the miss), so the first panels end at
    h = 2^k _LAYER_KNOT / lambda, k = 0, 1, ... below v, unless
    lambda v <= _LAYER_MIN_SPAN: one call of the integrand then usually
    settles the integral.  Log-form integrals converge on tol's relative
    tolerance alone, so a miss probability near 0 keeps its digits.
    """
    law = _unit_law(cfg, K)
    d, q, g, m, b, a1, v = law.cfg1.d, law.cfg1.q, law.cfg1.gamma, law.m, law.b, law.a1, law.v
    e = math.exp(-2.0 * v)
    sinh_div, cosh_div = -math.expm1(-2.0 * v), -(1.0 + e)

    def em_of(h):
        # E M >= expm1(-2v) where h <= v, so E M / -expm1(-2v) >= -1: its
        # log1p is -inf at rho = 0 and never nan
        return np.exp(2.0 * (h - v)) * np.expm1(-2.0 * h)

    def log_hit(h):
        em = em_of(h)
        dlc = np.log1p(em / cosh_div) - h  # log cosh rho - log cosh v
        log_x = -2.0 * (dlc + law.log_cosh_v)  # log sech^2 rho
        dls = np.log1p(em / sinh_div) - h if m > 1 or g == 0 else None
        if g:
            out = _log_incomplete_beta_tail(b, a1, law.betaln_a1b, np.exp(log_x), log_x)
        else:
            # I_x(b, 1/2) is 1 - O(sqrt(1 - x)), so the rounding of x near 1
            # costs it digits (at gamma >= 1 its slope in x is bounded, and
            # the rounding costs at most b eps).  It is 1 - I_y(1/2, b),
            # y = tanh^2 rho, which keeps them wherever I_y is at most 1/2.
            miss = betainc(a1, b, np.exp(2.0 * (dls - dlc + law.log_tanh_v)))
            near = miss <= 0.5
            out = np.log1p(-np.minimum(miss, 0.5)) + (law.betaln_a1b - b * log_x)
            if not near.all():
                out = np.where(near, out, _log_incomplete_beta_tail(
                    b, a1, law.betaln_a1b, np.exp(log_x), log_x))
        if g:
            out = out + g * dlc
        # at m = 1 the power of sinh rho is 0 and sinh^0 = 1, also at rho = 0
        return out + (m - 1) * dls if m > 1 else out

    def log_miss(h):
        em = em_of(h)
        dls, dlc = np.log1p(em / sinh_div) - h, np.log1p(em / cosh_div) - h
        log_y = 2.0 * (dls - dlc + law.log_tanh_v)  # log tanh^2 rho
        out = q * dls + (d - q - 1) * dlc
        # the nodes with y > 1/2 where 1 - I_x(b, a') is not deep in its tail
        far = log_y > -_LOG2
        if far.any():
            # 1 - betainc keeps every digit where betainc is at most 1/2 (then
            # 1 - betainc >= 1/2), at a tenth of betaincc's cost
            x_far = np.exp(-2.0 * (dlc[far] + law.log_cosh_v))
            i_far = 1.0 - betainc(b, a1, x_far)
            near_one = i_far < 0.5
            if near_one.any():
                i_far[near_one] = betaincc(b, a1, x_far[near_one])
            usable = i_far >= _BETAINC_FLOOR
            far[far], i_far = usable, i_far[usable]
        if not far.all():
            out = out + _log_incomplete_beta_tail(a1, b, law.betaln_a1b, np.exp(log_y), log_y)
        if far.any():
            out[far] = ((m - 1) * dls[far] + (d - m) * dlc[far] + np.log(i_far)
                        - (g + 1) * law.log_tanh_v + law.betaln_a1b)
        return out

    tanh_v = math.tanh(v)
    if hit:
        slope = (m - 1) / tanh_v + (g + a1) * tanh_v
    else:
        slope = q / tanh_v + (d - q) * tanh_v
    return integrate_adaptive(log_hit if hit else log_miss, 0.0, v, tol, log_form=True,
                              log_offset=law.hit_offset if hit else law.miss_offset,
                              break_points=_layer_knots(slope, v))


def intersection_probability(cfg: FlatConfig, K: Curvature,
                             tol: Tolerance = DEFAULT_TOLERANCE) -> float:
    """Probability that the moving flat meets the central q-flat."""
    res = _offset_radius_integral(cfg, K, tol, hit=True)
    return _as_probability(res.value, res.error_estimate)


def euclidean_intersection_probability(cfg: FlatConfig) -> float:
    """In flat space the two flats meet almost surely."""
    return 1.0


def atom_mass(cfg: FlatConfig, K: Curvature,
              tol: Tolerance = DEFAULT_TOLERANCE) -> float:
    """Mass of the atom at +infinity: the probability the flats miss."""
    res = _offset_radius_integral(cfg, K, tol, hit=False)
    return _as_probability(res.value, res.error_estimate)


def _log_incomplete_beta_tail(a: float, b: float, log_beta: float, x, log_x):
    """log(B_x(a, b) / x^a) for 0 <= x <= 1, B_x the incomplete beta function.

    log_beta is betaln(a, b).  From scipy's regularized betainc where that
    is at least _BETAINC_FLOOR; below it, from
    B_x(a, b) = x^a (1 - x)^b / a * 2F1(a + b, 1; a + 1; x)
    with the hypergeometric series summed here: x lies far below the mean
    a/(a+b) there, so its terms fall fast (at most about 90 of them for
    a, b <= 1000).  Both scipy's betainc and its hyp2f1 can be off by whole
    percents that deep in the tail at large a (I_x(200, 38) near 3e-280 by
    5%, against mpmath).  x may be a scalar; a float x at or above the
    floor skips the array bookkeeping.
    """
    i = betainc(a, b, x)
    if isinstance(x, float) and i >= _BETAINC_FLOOR:
        return np.log(i) + log_beta - a * log_x
    tail = i < _BETAINC_FLOOR
    out = np.log(np.where(tail, 1.0, i)) + log_beta - a * log_x
    if np.count_nonzero(tail):
        xt = np.asarray(x)[tail]
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
        out = np.asarray(out)  # writable, also where x is a scalar
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


def _log_head(law: _UnitLaw, t):
    """log(A cosh^gamma t / B(a, b)), the density's factor on both sides of v (_log_density)."""
    head = law.log_pref - _LOG2
    g = law.cfg1.gamma
    return head + g * _log_cosh(t) if g else head


def _log_near(law: _UnitLaw, head, ls_t):
    """head plus log(B(a, b) sinh^(m-1) t), the log density for t <= v, ls_t = log sinh t;
    at m = 1 the power of sinh t is 0 and sinh^0 = 1, also at t = 0."""
    head = head + law.betaln_ab
    return head + (law.m - 1) * ls_t if law.m > 1 else head


def _log_past(law: _UnitLaw, ls_t, log_x):
    """log(sinh^(q+1) v / sinh^(gamma+2) t B_x(a, b) / x^a), the log density for t > v
    less _log_head, ls_t = log sinh t, log_x = log x < 0."""
    q, g = law.cfg1.q, law.cfg1.gamma
    return ((q + 1) * law.log_sinh_v - (g + 2) * ls_t
            + _log_incomplete_beta_tail(law.a, law.b, law.betaln_ab, np.exp(log_x), log_x))


def _log_density(law: _UnitLaw, t) -> np.ndarray:
    """log of the distance density at unit curvature, elementwise on reduced distances t > 0.

    f(t) = A sinh^(m-1) t cosh^gamma t I_x(a, b), m = q - gamma,
    a = (q+1)/2, b = (d-q)/2, x = min(1, sinh^2 v / sinh^2 t),
    A = B(a, b) exp(law.log_pref) / 2.  For t > v the factor x^a of I_x is
    taken out and merged with sinh^(m-1) t into sinh^(q+1) v / sinh^(gamma+2) t,
    so no power of order d multiplies a log of sinh t there.

    A float t takes the one side of v it lies on, with no masks: the same
    NumPy calls in the same order, so it equals the array path bit for bit.
    """
    if isinstance(t, float):
        ls_t = _log_sinh(t)
        log_x = 2.0 * (law.log_sinh_v - ls_t)
        head = _log_head(law, t)
        return head + _log_past(law, ls_t, log_x) if log_x < 0.0 else _log_near(law, head, ls_t)
    t = np.asarray(t, dtype=float)
    ls_t = _log_sinh(t)
    log_x = np.minimum(0.0, 2.0 * (law.log_sinh_v - ls_t))
    far = log_x < 0.0
    head = _log_head(law, t)
    n_far = np.count_nonzero(far)
    if n_far == far.size:
        return head + _log_past(law, ls_t, log_x)
    if not n_far:
        out = _log_near(law, head, ls_t)
        return out if law.m > 1 else np.full(t.shape, out)
    out = np.full(t.shape, head)
    near = ~far
    out[near] = _log_near(law, out[near], ls_t[near])
    out[far] += _log_past(law, ls_t[far], log_x[far])
    return out


def _w_past(t, v):
    """w = s / (1 + s), s = sqrt(t - v), for finite t >= v."""
    s = np.sqrt(t - v)
    return s / (1.0 + s)


def _t_past(w, v):
    """_w_past's inverse on w in [0, 1): t = v + s^2, s = w / (1 - w), and log dt/dw."""
    s = w / (1.0 - w)
    return v + s * s, math.log(2.0) + np.log(w) - 3.0 * np.log1p(-w)


def _log_integrands(law: _UnitLaw, alpha: float = 0.0):
    """log of t^alpha times the unit-curvature density, in t and, past v, in w.

    Past v the density has a (t - v)^((d-q)/2) term, a square root at
    d - q = 1, which Gauss-Kronrod resolves slowly.  In w = s / (1 + s),
    s = sqrt(t - v), the integrand 2 s g(v + s^2) / (1 - w)^2 is smooth and
    [v, infinity] is [0, 1]; the quadrature never evaluates w = 1.
    """
    v = law.v

    def log_g(t):
        val = _log_density(law, t)
        return val + alpha * np.log(t) if alpha else val

    def log_g_past(w):
        t, log_jacobian = _t_past(w, v)
        return log_jacobian + log_g(t)

    return log_g, log_g_past


def _below_layer(law: _UnitLaw, span: float) -> list:
    """_layer_knots toward v from below over span: the density's log-slope at v
    is lambda = (m-1) coth v + gamma tanh v."""
    tanh_v = math.tanh(law.v)
    return _layer_knots((law.m - 1) / tanh_v + law.cfg1.gamma * tanh_v, span)


def _past_knots(law: _UnitLaw, w_lo: float, w_hi: float, graded: bool) -> list:
    """The interior ends of the first panels in w on [w_lo, w_hi] past v:
    max(1, ceil(_GRID_PANELS_PAST (w_hi - w_lo))) equal panels, the first
    graded toward w_lo too if graded, at s0, 2 s0, 4 s0, ... (_layer_knots),
    s0^2 = tanh v (d-q) / (2 (d+1)) the t - v where I_x(a, b) has fallen to
    about 1/2."""
    n = max(1, math.ceil(_GRID_PANELS_PAST * (w_hi - w_lo)))
    knots = list(np.linspace(w_lo, w_hi, n + 1)[1:-1])
    if graded:
        # I_x(a, b) is about 1/2 where 1 - x, about 2 coth v (t - v), reaches
        # b / (a + b): at s = s0, and w is about s there
        s0 = math.sqrt(math.tanh(law.v) * (law.cfg1.d - law.cfg1.q) / (2.0 * law.cfg1.d + 2.0))
        knots += [w_lo + h for h in _layer_knots(_LAYER_KNOT / s0, (w_hi - w_lo) / n)]
    return knots


def _density_integral(law: _UnitLaw, lo: float, hi: float, tol: Tolerance,
                      alpha: float = 0.0) -> QuadResult:
    """Integral of t^alpha times the unit-curvature density over reduced distances [lo, hi].

    Below v the density is A B(a, b) sinh^(m-1) t cosh^gamma t, so the
    integrand is t^(m-1+alpha) E(t), E = A B(a, b) (sinh t / t)^(m-1)
    cosh^gamma t smooth.  In t a moment near its divergence at
    alpha = gamma - q has t^(m-1+alpha) at t = 0, with mass closer to 0 than
    bisection in doubles reaches.  So that part runs in y = (t/v)^k, k =
    m + alpha where that is below 2 and 1 otherwise, over
    [(lo/v)^k, (min(hi, v)/v)^k]: there the integrand is
    v^(m+alpha) / k y^((m+alpha)/k - 1) E(v y^(1/k)), bounded and at least
    C^1, the power and the Jacobian taken together in closed form.  t =
    v y^(1/k) may underflow to 0, where E is smooth and no log of t is taken
    (_log_sinhc).  The part past v runs in w = s / (1 + s), s = sqrt(t - v)
    (_log_integrands); hi = infinity is w = 1.

    Both parts are log-form integrals, so only tol's relative tolerance
    decides convergence, and log_value is finite where value underflows.
    The density peaks at v in a layer that can be far narrower than a panel
    (about 1/d wide below v at gamma near q, and thin in w for large upper
    limits), and a first panel whose nodes all miss it sees a value orders
    of magnitude below the true one; an absolute tolerance would accept that.

    So the first panels come from the law, each part's in one call of its
    integrand, and they are those of distance_cdf_grid (_grid_panels).  Past
    v they are equal panels in w, _GRID_PANELS_PAST per unit of w: 12 for a
    moment, a few for a CDF just past v.  Where the part past v starts at v,
    its first panel is graded toward w = 0 too (_past_knots): at small v
    that layer is far thinner than a panel (s0 = 2e-6 at
    (1000,999,998, v=1e-8)).  Below v, where the integral reaches v, the
    panels end at t = v - h, mapped to y, h = 2/lambda, 4/lambda, ...
    (_below_layer, as p's), lambda the density's log-slope at v.
    """
    v, m, g = law.v, law.m, law.cfg1.gamma
    parts = []
    if lo < v:
        power = m + alpha
        k = power if power < 2.0 else 1.0

        def log_g_below(y):
            # y^(power/k - 1) is y^0 where k = power; sinh^0 = 1 at m = 1
            t = v * y ** (1.0 / k)
            out = (power - 1.0) * np.log(y) if k != power else np.zeros(y.shape)
            if m > 1:
                out += (m - 1) * _log_sinhc(t)
            if g:
                out += g * _log_cosh(t)
            return out

        knots = [(1.0 - h / v) ** k for h in _below_layer(law, v - lo)] if hi >= v else ()
        parts.append(integrate_adaptive(
            log_g_below, (lo / v) ** k, (min(hi, v) / v) ** k, tol, log_form=True,
            log_offset=law.log_pref - _LOG2 + law.betaln_ab + power * math.log(v) - math.log(k),
            break_points=knots))
    if hi > v:
        log_g_past = _log_integrands(law, alpha)[1]
        w_lo = _w_past(max(lo, v), v)
        w_hi = 1.0 if hi == math.inf else _w_past(hi, v)
        parts.append(integrate_adaptive(log_g_past, w_lo, w_hi, tol, log_form=True,
                                        break_points=_past_knots(law, w_lo, w_hi, lo <= v)))
    return QuadResult(math.fsum(r.value for r in parts),
                      math.fsum(r.error_estimate for r in parts),
                      sum(r.evaluations for r in parts),
                      all(r.converged for r in parts),
                      float(np.logaddexp.reduce([r.log_value for r in parts])))


def _grid_panels(law: _UnitLaw, t_max: float):
    """distance_cdf_grid's first panels on [0, t_max], t_max > 0: (lo, hi, far).

    Below v, in t: _GRID_PANELS_BELOW equal panels on [0, min(v, t_max)],
    and where the grid reaches v, ends at t = v - h toward the layer below
    it (_below_layer).  Past v, in w (_w_past): the panels of
    _density_integral on [v, t_max] (_past_knots).  far marks the panels
    past v; they follow the others, and on each side the panels ascend.
    """
    v = law.v
    end = min(v, t_max)
    near = [end * i / _GRID_PANELS_BELOW for i in range(_GRID_PANELS_BELOW + 1)]
    past = [0.0]
    if t_max >= v:
        near = sorted(set(near).union(v - h for h in _below_layer(law, v)))
    if t_max > v:
        w_max = float(_w_past(t_max, v))
        past = sorted({0.0, w_max, *_past_knots(law, 0.0, w_max, True)})
    n = len(near) + len(past) - 2
    return (np.array(near[:-1] + past[:-1]), np.array(near[1:] + past[1:]),
            np.arange(n) >= len(near) - 1)


def _panel_integrals(law: _UnitLaw, lo: np.ndarray, hi: np.ndarray, far: np.ndarray):
    """The Gauss-Kronrod panels [lo[i], hi[i]] of the unit-curvature density, in
    t below v and in w where far (those follow the others), from one call of
    the density integrand (_log_integrands): the nodes in w are mapped to t
    and the Jacobian is added to their logs.

    Returns (values, errors, nodes, scale): each panel's integral and error
    estimate in absolute units, and its node values at _XK over their
    largest with the factor that makes the interpolant through them on
    [-1, 1] the integrand on the panel (_gk_panels, _panel_scales).
    """
    log_g = _log_integrands(law)[0]
    k = _XK.size * np.count_nonzero(~far)  # the nodes below v come first

    def log_f(x):
        t, log_jacobian = _t_past(x[k:], law.v)
        y = log_g(np.concatenate((x[:k], t)))
        y[k:] += log_jacobian
        return y

    vals, errs, nodes, log_scale = _gk_panels(log_f, lo, hi, True)
    scale = _panel_scales(log_scale, lo, hi)
    return vals * scale, errs * scale, nodes, scale


def _cdf_at(x, n_near, lo, hi, far, vals, errs, nodes, scale):
    """The CDF and its error estimate at the ascending points x > 0, the first
    n_near in t (at most v) and the others in w, and the panel of each.

    A point's panel is found by bisection on the starts of the panels on its
    side of v.  Its value is the sum of the panels before it plus its
    panel's scale times the antiderivative of the node interpolant
    (_ANTIDERIVATIVE), summed by Clenshaw's recurrence at the point's place
    in [-1, 1].  Its error estimate is the panel errors summed through its
    panel plus the interpolant's own, its last two Chebyshev coefficients in
    units of the panel's scale: the Kronrod estimate, of the whole panel to
    a far higher degree than 14, says nothing of the interpolant inside it.
    """
    p_near = np.count_nonzero(~far)
    row = np.empty(x.size, dtype=np.intp)
    row[:n_near] = np.searchsorted(lo[:p_near], x[:n_near], side="right") - 1
    row[n_near:] = p_near - 1 + np.searchsorted(lo[p_near:], x[n_near:], side="right")
    # per panel: the scaled coefficients with the start value folded into the
    # first, the midpoint, the inverse half-width (0 for an empty panel) and
    # the error estimate through the panel, the interpolant's own included
    half = 0.5 * (hi - lo)
    through = np.cumsum(errs) + scale * np.abs(nodes @ _CHEBYSHEV[-2:].T).sum(axis=1)
    c = scale[:, None] * (nodes @ _ANTIDERIVATIVE.T)
    c[1:, 0] += np.cumsum(vals[:-1])
    inv_half = np.divide(1.0, half, out=np.zeros_like(half), where=half > 0.0)
    # one row per quantity, so that the recurrence reads contiguous rows
    g = np.take(np.vstack((c.T, lo + half, inv_half, through)), row, axis=1)
    s = (x - g[-3]) * g[-2]
    s2, b1, b2, tmp = 2.0 * s, g[-4].copy(), np.zeros_like(s), np.empty_like(s)
    for j in range(_ANTIDERIVATIVE.shape[0] - 2, 0, -1):
        np.multiply(s2, b1, out=tmp)
        tmp -= b2
        tmp += g[j]
        b1, b2, tmp = tmp, b1, b2
    return s * b1 - b2 + g[0], g[-1], row


def _require_distance(delta) -> None:
    if not (math.isfinite(delta) and delta >= 0):
        raise DomainError(f"need a finite delta >= 0, got {delta}")


def distance_cdf(cfg: FlatConfig, K: Curvature, delta: float,
                 tol: Tolerance = DEFAULT_TOLERANCE) -> float:
    """P(distance of the intersection to the origin <= delta)."""
    _require_distance(delta)
    if delta == 0:
        return 0.0
    res = _density_integral(_unit_law(cfg, K), 0.0, K.scale * delta, tol)
    return _as_probability(res.value, res.error_estimate)


def distance_cdf_grid(cfg: FlatConfig, K: Curvature, deltas,
                      tol: Tolerance = DEFAULT_TOLERANCE) -> np.ndarray:
    """distance_cdf on an ascending 1-d grid, from one representation of the law.

    The representation is Gauss-Kronrod panels of the density up to the
    last point, the law's and not the grid's (_grid_panels), all evaluated
    in one call of the density integrand (_panel_integrals).  The panels
    that miss tol's relative target are halved together, all halves in one
    more call, until each meets it.  Each point then takes the panels before
    it plus its panel's node interpolant up to it (_cdf_at).  A point whose
    error estimate misses the target halves the panel that holds it, or,
    near 0, cuts the first panel at h/2, h/4, ... down past it: no point
    becomes a panel end, and no panel is evaluated twice.  A 128-point grid
    at the benchmark's law configurations is 12 panels and one call.
    QuadratureError is raised where a panel to halve is too narrow to halve
    in doubles, or where halving would take the panels past
    tol.max_subdivisions; leaving [0, 1] by more than the error estimates
    raises ProbabilityRangeError.
    """
    deltas = np.asarray(deltas, dtype=float)
    if deltas.ndim != 1:
        raise DomainError(f"deltas must be a 1-d sequence, got shape {deltas.shape}")
    if not (np.all(np.isfinite(deltas)) and np.all(deltas >= 0)
            and np.all(np.diff(deltas) >= 0)):
        raise DomainError("deltas must be finite, ascending and >= 0")
    law = _unit_law(cfg, K)
    t = K.scale * deltas
    value, err = np.zeros(t.shape), np.zeros(t.shape)
    zeros = int(np.searchsorted(t, 0.0, side="right"))  # F(0) = 0
    if zeros < t.size:
        t = t[zeros:]
        n_near = int(np.searchsorted(t, law.v, side="right"))
        x = t.copy()
        x[n_near:] = _w_past(t[n_near:], law.v)
        lo, hi, far = _grid_panels(law, float(t[-1]))
        panels = _panel_integrals(law, lo, hi, far)
        while True:
            vals, errs = panels[:2]
            split = errs > tol.rel_tol * np.abs(vals)
            depth = 1  # the halvings of the first panel toward 0
            if not split.any():
                value[zeros:], err[zeros:], row = _cdf_at(x, n_near, lo, hi, far, *panels)
                miss = err[zeros:] > tol.rel_tol * np.abs(value[zeros:])
                if not miss.any():
                    break
                split[row[miss]] = True
                if row[miss][0] == 0:
                    # F is 0 where the first panel starts: it is halved toward 0,
                    # all at once, until the least point missing lies past a half
                    depth = max(1, math.ceil(math.log2(hi[0]) - math.log2(x[miss][0])))
            # cut each panel at its midpoint, the first at h/2^depth, ..., h/4, h/2
            at = np.flatnonzero(split)
            cuts, owner = 0.5 * (lo[at] + hi[at]), at  # owner: the panel each cut falls in
            if depth > 1:
                cuts = np.r_[np.ldexp(hi[0], -np.arange(depth, 0, -1)), cuts[1:]]
                owner = np.r_[np.zeros(depth, dtype=np.intp), at[1:]]
            if lo.size + cuts.size > tol.max_subdivisions:
                raise QuadratureError(f"grid refinement exceeded {tol.max_subdivisions} panels")
            # each panel cut becomes its pieces, in place
            keep = np.sort(np.r_[np.arange(lo.size), owner])
            ends = owner + np.arange(cuts.size)  # the piece that each cut ends
            lo, hi, far = lo[keep], hi[keep], far[keep]
            hi[ends], lo[ends + 1] = cuts, cuts
            new = np.zeros(lo.size, dtype=bool)
            new[ends] = new[ends + 1] = True
            if not _nodes_inside(lo[new], hi[new]).all():
                raise QuadratureError("a grid panel misses the tolerance and is too narrow "
                                      "to halve")
            panels = tuple(y[keep] for y in panels)
            for y, pieces in zip(panels, _panel_integrals(law, lo[new], hi[new], far[new])):
                y[new] = pieces
    return _as_probability(value, err)


def distance_density(cfg: FlatConfig, K: Curvature, delta,
                     tol: Tolerance = DEFAULT_TOLERANCE):
    """Density of the absolutely continuous part of the distance law.

    delta is a distance (the result is a float) or an array of them (the
    result is an array of the same shape).  A float, np.float64 included,
    takes _log_density's float branch, with no array bookkeeping, and gives
    the array call's value bit for bit.  Closed form from the memoised
    unit-curvature law (_unit_law), so tol is not used; it is accepted like
    everywhere else.
    """
    if isinstance(delta, float):
        if not 0.0 < delta < math.inf:
            raise DomainError(f"need finite delta > 0, got {delta}")
        return float(K.scale * np.exp(_log_density(_unit_law(cfg, K), K.scale * delta)))
    t = np.asarray(delta, dtype=float)
    if not ((t > 0) & (t < math.inf)).all():
        raise DomainError(f"need finite delta > 0, got {delta}")
    f = K.scale * np.exp(_log_density(_unit_law(cfg, K), K.scale * t))
    return float(f) if f.ndim == 0 else f


def moment(cfg: FlatConfig, K: Curvature, alpha: float, conditional: bool,
           tol: Tolerance = DEFAULT_TOLERANCE) -> MomentResult:
    """Moment of order alpha of the distance to the origin.

    Divergence is decided by the analytic criterion: the unconditional
    moment is finite iff alpha in (gamma - q, 0]; the conditional one iff
    alpha > gamma - q.  Quadrature only runs on the finite branch: one
    integral over [0, infinity].  The conditional moment divides it by p
    in log space, so it is finite where p underflows to 0.  A non-finite
    alpha raises DomainError.
    """
    K.require_hyperbolic()
    if not math.isfinite(alpha):
        raise DomainError(f"moment order alpha must be finite, got {alpha}")
    lo = cfg.gamma - cfg.q
    if alpha <= lo or (not conditional and alpha > 0):
        return MomentResult(alpha, conditional, None)
    if alpha == 0:
        return MomentResult(alpha, conditional, 1.0)

    res = _density_integral(_unit_law(cfg, K), 0.0, math.inf, tol, alpha)
    if not conditional:
        return MomentResult(alpha, conditional, K.scale ** (-alpha) * res.value)
    log_p = _offset_radius_integral(cfg, K, tol, hit=True).log_value
    log_value = res.log_value - log_p - alpha * math.log(K.scale)
    return MomentResult(alpha, conditional, _exp_or_raise(log_value, "the conditional moment"))


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
        log_x = 2.0 * math.log(u / delta)
        x = np.exp(log_x)
        head = (a1 * log_x + _log_incomplete_beta_tail(a, b, betaln(a, b), x, log_x)
                - betaln(a1, b))
        value = float(np.exp(head) + betaincc(a1, b, x))
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

    Its first panels are graded around r* = sqrt(z / (z + a)), where c = a
    and gamma(a, c) / c^a turns over from Gamma(a) c^-a to about
    e^(-c a / (a + 1)) / a.  Below r* the integrand's log rises at
    (2 z + m - 1) / r*, and the panels end at r* - h (_layer_knots).  Past
    r*, where the log still rises at r = 1, at 2 z a / (a + 1) - gamma - 2,
    the mass lies in a layer below 1 and the panels end at 1 - h; otherwise
    the log falls at (gamma + 2) / r* and they end at r* + h.  A side too
    gentle for _layer_knots is a slow power of r, and its panels halve
    toward 0 (r*/2, r*/4) or double toward 1 (2 r*, 4 r*, ...).  That
    settles rho in one integrand call at the benchmark's configurations,
    where bisection from one panel took 5 to 7.
    """
    if not 0 <= gamma <= q - 1:
        raise DomainError(f"need 0 <= gamma <= q-1, got gamma={gamma}, q={q}")
    if not u > 0:
        raise DomainError(f"need u > 0, got {u}")
    if not kappa > 0:
        raise DomainError(f"need kappa > 0, got {kappa}")
    m, a, z = q - gamma, 0.5 * (q + 1), 0.5 * kappa * u * u
    if not z > 0:
        # the integrand is then r^-(gamma+2) / a, whose integral diverges at r = 0
        raise DomainError(f"kappa u^2 / 2 underflows to 0 at u={u}, kappa={kappa}")
    with np.errstate(divide="ignore", invalid="ignore"):
        log_norm = m * math.log(u) - math.log(m) + z + float(np.log(hyp1f1(1.0, 0.5 * m + 1.0, -z)))
    if not math.isfinite(log_norm):
        # scipy's hyp1f1(1, m/2 + 1, -z) is nan from about z = 1e11 on
        raise DomainError(f"the normaliser of rho is not finite at u={u}, z=kappa u^2/2={z}")
    pref = (log_sphere_surface(gamma + 1) + 0.5 * (gamma + 1) * math.log(kappa / (2.0 * math.pi))
            + (1 + q) * math.log(u) - math.log(2.0) - log_norm)

    def log_outer(r):
        with np.errstate(over="ignore"):  # c = inf where r is tiny: the term is 0
            c_r = z * (1.0 - r) * (1.0 + r) / (r * r)
        return _log_lower_gamma_tail(a, c_r) - (gamma + 2) * np.log(r)

    r_star = math.sqrt(z / (z + a))
    knots = [r_star] + ([r_star - h for h in _layer_knots((2.0 * z + m - 1) / r_star, r_star)]
                        or [0.5 * r_star, 0.25 * r_star])
    rise = 2.0 * z * a / (a + 1.0) - (gamma + 2)
    if rise > 0.0:
        knots += [1.0 - h for h in _layer_knots(rise, 1.0 - r_star)]
    else:
        # 2 r*, 4 r*, ... below 1: r* = f 2^e with 1/2 <= f < 1, so 2^k r* < 1 for k <= -e
        knots += ([r_star + h for h in _layer_knots((gamma + 2) / r_star, 1.0 - r_star)]
                  or [r_star * 2.0**k for k in range(1, 1 - math.frexp(r_star)[1])])
    res = integrate_adaptive(log_outer, 0.0, 1.0, tol, log_form=True, log_offset=pref,
                             break_points=knots)
    return _as_probability(res.value, res.error_estimate)


def phase_limit(mode: PhaseMode, u: float, q: int, gamma: int,
                tol: Tolerance = DEFAULT_TOLERANCE) -> float:
    """d -> infinity limit of the intersection probability under a curvature schedule."""
    if mode.regime == "subcritical":
        return 1.0
    if mode.regime == "supercritical":
        return 0.0
    return critical_constant_rho(u, q, gamma, mode.kappa, tol)
