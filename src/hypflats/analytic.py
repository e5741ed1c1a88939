"""Closed-form quantities: Crofton constants, intersection probabilities,
distance CDF/density, atom mass, moments, Euclidean baselines and the
critical phase constant.

Every hyperbolic evaluation first rescales to unit curvature (K = -1 with
ball radius v = sqrt(-K) u) and starts from that configuration's law,
_unit_law(cfg, K): the constants of the density and of p's integrands,
computed once per configuration and memoised (64 of them).  The law also
memoises, per Tolerance, what depends on nothing else (_UnitLaw.memo): p's
and the atom's integrals, one store of the density's first panels and
their node values (_law_store), each moment's integral, and each grid's
settled prefix of the store, so a repeated p, atom, conditional moment or
grid, or a Monte Carlo check of one configuration, evaluates no integrand
again, and a grid and a moment evaluate the first panels once between
them; clearing _unit_law drops them with it.  On the event
that the flats meet, the distance t from the origin to the intersection has
the closed-form density

    f(t) = A sinh^(m-1) t cosh^gamma t I_x((q+1)/2, (d-q)/2),

m = q - gamma, x = min(1, sinh^2 v / sinh^2 t), I_x the regularized
incomplete beta function and A = B((q+1)/2, (d-q)/2) / (B((gamma+1)/2, (d-q)/2) R),
R the radial mass below, as in p (_log_density, in log space and relative
to v as p is; a float t takes the same terms from the math module,
_log_density_float).  The CDF and the moments are 1-d integrals of it, in
t below v and in w = s/(1+s), s = sqrt(t - v), past v: a moment is one
integral to infinity.  Their first panels come from the law: equal in w
past v (_GRID_PANELS_PAST per unit of w), and graded toward v on both
sides where the integral reaches v (_layer_knots).  The store holds those
of the whole law: 4 equal panels and the graded ones below v, and the
whole lattice in w, ends at exactly k / 12, all evaluated in one integrand
call.  A moment is its node values weighted by t^alpha, halved in copies
against the moment's own total (_moment_integral); near its divergence,
where m + alpha < 2, the store's first panel gives way to a head below a
t0 of at most 2^-26.5 in closed form, to 2^-53, and panels doubling from
t0 on, so no power of t meets a quadrature rule at 0.  The CDF has one
engine: a grid, of one point (distance_cdf), of 128 or of 10^5 sorted
Monte Carlo samples, reads the store's prefix up to the lattice panel
past v of its last point, halved past v where a panel misses the
tolerance and memoised per prefix (_grid_law); each point takes the
integral of its panel's node interpolant or, below v, F's closed form
(_cdf_below).  The flat-space (K -> 0) distance CDF and the normaliser of
the critical constant rho are closed form; rho is one 1-d integral of a
lower incomplete gamma function, on first panels graded around the
point r* where that function turns over, which usually settle it in one
integrand call, memoised per argument tuple and tolerance (_rho_integral).

The intersection probability and its complement, the atom mass, are 1-d
integrals over the offset radius rho in [0, v] of the moving flat
(_offset_radius_integral): rho has the radial-mass law, and given rho the
flats meet with a probability that is a regularized incomplete beta
function of sech^2 rho.  They, the density, the CDF and the moments are
taken relative to v: each log-integrand is a constant of the law plus
multiples of log sinh t - log sinh v and log cosh t - log cosh v, which
cancel nothing (_log_ratios_at_v), and the large powers of sinh v and
cosh v meet the radial mass's once, in that constant, so no log near d v
rounds in them.  p's and the atom's run in h = v - rho; their mass lies
in a layer about 1/d wide below v at large d, so their first panels are
graded toward it, h = 2, 4, 8, ... over the integrand's log-slope at v,
and all of them take one call of the integrand.

The radial mass log_radial_mass(d, m, v), the log of the integral of
sinh^(m-1) t cosh^(d-m) t over [0, v], normalises the offset-radius law, the
density and the Crofton constant.  It is exact and takes no quadrature: a
recurrence in the power of cosh, and the halving sinh t = 2 sinh(t/2) cosh(t/2)
where that power is even, write it as sums of positive terms in log space
(_log_sinh_cosh_parts), a leading power sinh^m v cosh^(d-m-1) v times a
factor of order log d (_radial_mass_parts).  The same recurrence, on an
array of radii, is the CDF below v.  A configuration's law holds it
(_UnitLaw.log_R), and the Monte Carlo sampler reads it there, so one
configuration evaluates it once; it has no memo of its own.  The law's
reduction to unit curvature (reduce_to_unit_curvature) is also the one
check of v: outside [_MIN_REDUCED_RADIUS, infinity) it raises DomainError.

Every integral here keeps its scale in log space (integrate_adaptive in
log form, or the store's panels): it converges on the relative tolerance
alone, so a subnormal p or rho keeps its digits, and its log_value is
finite where p underflows, so a conditional moment is a ratio of logs.  No
function here uses a Tolerance's abs_tol: its rel_tol and max_subdivisions
decide.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np
from scipy.special import betainc, betaincc, gammainc, gammaln, hyp1f1
# the ufunc betainc's own function, without its dispatch on floats: 0.4
# against 1.4 us a call
from scipy.special.cython_special import betainc as _betainc_float

from .errors import DomainError, ProbabilityRangeError, QuadratureError
from .quadrature import (
    _XK,
    DEFAULT_TOLERANCE,
    QuadResult,
    Tolerance,
    _exp_or_raise,
    _gk_panels,
    _gk_sums,
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
_TINY = float(np.finfo(float).tiny)
# the least reduced radius sqrt(-K) u: at v = 1e-307 a 128-point CDF grid at
# (1000, 999, 2) overflows a panel's inverse half-width next to 0
_MIN_REDUCED_RADIUS = 1e-300
_UNIT_CURVATURE = Curvature(-1.0)
_LOG2 = math.log(2.0)
# the radial mass's sums drop terms below this fraction of the sum
_SUM_EPS = 1e-17
_LOG_SUM_EPS = math.log(_SUM_EPS)
# terms of the series for the integral of sinh^a up to 1/2: ratios at most 0.21
_SINH_SERIES_TERMS = 64
_SERIES_EPS = 1e-17
_SERIES_MAX_TERMS = 1000
# first panels graded toward a layer (_layer_knots: p's, the atom's, the store's
# next to v, rho's) end h = 2^k _LAYER_KNOT / lambda from its edge,
# lambda the integrand's log-slope there, where lambda times the span exceeds
# _LAYER_MIN_SPAN; a wider layer costs no panel of its own
_LAYER_KNOT = 2.0
_LAYER_MIN_SPAN = 4.0
# the law's first panels (_law_store): equal panels in t on [0, v], and equal
# panels in w past v, _GRID_PANELS_PAST per unit of w, ending at exactly
# k / 12 (_LATTICE)
_GRID_PANELS_BELOW = 4
_GRID_PANELS_PAST = 12
_LATTICE = [k / _GRID_PANELS_PAST for k in range(_GRID_PANELS_PAST + 1)]
# entries of one law's memo (_remember): p, the atom, the store, 13 grid
# prefixes and moments, at a few tolerances
_MEMO_ENTRIES = 64


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


def _log_sinhc(t):
    """log(sinh t / t) for t >= 0, 0 at t = 0: log(-expm1(-2t) / 2t) + t, with no
    cancellation of log t where t is small."""
    t = np.maximum(t, _TINY)
    return t + np.log(-np.expm1(-2.0 * t) / (2.0 * t))


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
    and the first 1: those dropped add at most _SUM_EPS.  Sums that share their
    terms take the largest of their ratios."""
    if ratio >= 1.0:
        return n
    if ratio <= 0.0:
        return 1
    return min(n, 1 + math.ceil(math.log(_SUM_EPS * (1.0 - ratio)) / math.log(ratio)))


class _OnFloat:
    """math's functions under NumPy's names, for the radial mass's float radius."""
    exp, log, log1p, expm1 = math.exp, math.log, math.log1p, math.expm1
    max = all = any = staticmethod(lambda x: x)


def _log_series(ratios: np.ndarray):
    """log(1 + r1 + r1 r2 + r1 r2 r3 + ...) for positive ratios r1, r2, ... along
    the last axis: one sum per radius, a float for one radius given as a float."""
    total = np.cumprod(ratios, axis=-1).sum(axis=-1)
    return math.log1p(total) if ratios.ndim == 1 else np.log1p(total)


def _log_sinh_cosh_parts(a: int, b: int, t, log_sinh, log_cosh):
    """I(a, b; t), the integral of sinh^a s cosh^b s over [0, t], a, b >= 0, a + b >= 1,
    at a float radius t or an array of them, as (n1, n2, log_factor) with
    I(a, b; t) = sinh^n1 t cosh^n2 t exp(log_factor); log_sinh and log_cosh are at t.

    Differentiating sinh^(a+1) cosh^(b-1) gives
    I(a, b) = (sinh^(a+1) t cosh^(b-1) t + (b - 1) I(a, b - 2)) / (a + b), so
    I(a, b) = sinh^(a+1) t cosh^(b-1) t / (a + b) * sum_k r_k, r_0 = 1,
    r_k = r_(k-1) sech^2 t (b + 1 - 2k) / (a + b - 2k), as many positive terms
    at every radius as the largest sech^2 t needs.  At odd b the sum ends by
    itself; at even b it takes the terms k < b/2 and adds c I(a, 0; t),
    c = prod_(j < b/2) (b - 1 - 2j) / (a + b - 2j), unless c t sinh^a t, a
    bound on that remainder, is below _SUM_EPS of the sum at every radius.
    The power is (a + 1, b - 1), or (a + 1, 0) at b = 0
    (_log_sinh_power_integral); the factor, about log(a + b) in size at most,
    depends on t only through sech^2 t and t / sinh t.
    """
    if b == 0:
        return a + 1, 0, _log_sinh_power_integral(a, t, log_sinh, log_cosh)
    xp = _OnFloat if isinstance(t, float) else np
    sech2 = xp.exp(-2.0 * log_cosh)
    # the factor (b + 1 - 2k) / (a + b - 2k) is at most 1 where a >= 1 and 2 where a = 0
    n = _terms_needed((b + 1) // 2, xp.max(sech2) * (1.0 if a else 2.0))
    top = np.arange(b - 1.0, b + 1.0 - 2.0 * n, -2.0)  # b + 1 - 2k for k = 1 .. n - 1
    log_factor = _log_series(np.multiply.outer(sech2, top) / (top + (a - 1))) - math.log(a + b)
    if b % 2:
        return a + 1, b - 1, log_factor
    # the remainder over the power is at most c t / (sinh t cosh^(b-1) t), c <= 1
    log_bound = (-_log_sinhc(t) if xp is np else math.log(t) - log_sinh) - (b - 1) * log_cosh
    if xp.all(log_bound < log_factor + _LOG_SUM_EPS):
        return a + 1, b - 1, log_factor
    top = np.arange(b - 1.0, 0.0, -2.0)  # b - 1 - 2j for j < b/2
    log_c = float(np.log(top / (top + (a + 1))).sum())
    if xp.all(log_c + log_bound < log_factor + _LOG_SUM_EPS):
        return a + 1, b - 1, log_factor
    log_rest = log_c + _log_sinh_power_integral(a, t, log_sinh, log_cosh) - (b - 1) * log_cosh
    return a + 1, b - 1, np.logaddexp(log_factor, log_rest)


def _log_sinh_power_integral(a: int, t, log_sinh, log_cosh):
    """log(I(a, 0; t) / sinh^(a+1) t), I(a, 0; t) the integral of sinh^a s over
    [0, t], at a radius t or an array of them; log_sinh and log_cosh are at t.

    I(0, 0; t) = t.  Up to t = 1/2 it is the series
    tanh^(a+1) t cosh^a t / (a + 1) * sum_n (1/2)_n / ((a+3)/2)_n tanh^(2n) t,
    whose ratios are at most tanh^2(1/2) = 0.21.  Past 1/2,
    sinh s = 2 sinh(s/2) cosh(s/2) gives I(a, 0; t) = 2^(a+1) I(a, a; t/2),
    sinh^(a+1) t cosh^(-2)(t/2) times the factor of I(a, a; t/2)
    (_log_sinh_cosh_parts).  Radii on both sides of 1/2 take a call each.
    """
    if a == 0:
        return -_log_sinhc(t)
    xp, low = _OnFloat if isinstance(t, float) else np, t <= 0.5
    if xp.all(low):
        t2 = xp.exp(2.0 * (log_sinh - log_cosh))
        half = np.arange(0.5, _terms_needed(_SINH_SERIES_TERMS, xp.max(t2)) - 1.0)  # n - 1/2, n >= 1
        return (_log_series(np.multiply.outer(t2, half) / (half + 0.5 * (a + 2)))
                - log_cosh - math.log(a + 1))
    if not xp.any(low):
        s = 0.5 * t
        log_cosh_s = s - _LOG2 + xp.log1p(xp.exp(-2.0 * s))
        log_sinh_s = s - _LOG2 + xp.log(-xp.expm1(-2.0 * s))
        return _log_sinh_cosh_parts(a, a, s, log_sinh_s, log_cosh_s)[2] - 2.0 * log_cosh_s
    out = np.empty(t.shape)
    for side in (low, ~low):
        out[side] = _log_sinh_power_integral(a, t[side], log_sinh[side], log_cosh[side])
    return out


def log_radial_mass(d: int, m: int, rho: float) -> float:
    """log of the radial mass, the integral of sinh^(m-1) t cosh^(d-m) t over [0, rho].

    With omega_m in front it is the Crofton constant of (d-m)-flats at
    K = -1, and it is the total mass of the offset-radius law of a flat
    with normal dimension m hitting the ball of radius rho.  It is exact
    and needs no quadrature: the reduction of _log_sinh_cosh_parts writes
    it as sums of positive terms, in log space, whatever the layer about
    1/((d-m) tanh rho) wide below rho that holds the mass.

    Closed form, so it is not memoised; a configuration's law holds its
    radial mass (_UnitLaw.log_R).  A log beyond the largest double (rho near
    1e308) raises QuadratureError.
    """
    return _radial_mass_parts(d, m, rho)[0]


def _radial_mass_parts(d: int, m: int, rho: float) -> tuple[float, float]:
    """(log R, log_factor): log_radial_mass and the factor that multiplies its
    leading power sinh^m rho cosh^(d-m-1) rho (sinh^d rho at m = d, which no
    configuration's law has).

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
    log_radial_mass(d, d-k, sqrt(-K) u); a reduced radius sqrt(-K) u outside
    [_MIN_REDUCED_RADIUS, infinity) raises the configurations' DomainError,
    naming K and u (_reduced_radius).
    """
    if not 0 <= k <= d - 1:
        raise DomainError(f"need 0 <= k <= d-1, got k={k}, d={d}")
    if not u > 0:
        raise DomainError(f"need u > 0, got {u}")
    n = d - k
    if K.is_flat:
        return log_sphere_surface(n) + n * math.log(u) - math.log(n)
    return (log_sphere_surface(n) + (k - d) * math.log(K.scale)
            + log_radial_mass(d, n, _reduced_radius(K, u)))


def crofton_constant(d: int, k: int, u: float, K: Curvature) -> float:
    return math.exp(log_crofton_constant(d, k, u, K))


def _reduced_radius(K: Curvature, u: float) -> float:
    """v = sqrt(-K) u at K < 0, or DomainError naming K and u where v is below
    _MIN_REDUCED_RADIUS, underflows to 0 or overflows."""
    v = K.scale * u
    if not _MIN_REDUCED_RADIUS <= v < math.inf:
        raise DomainError(f"need {_MIN_REDUCED_RADIUS:g} <= sqrt(-K) u < inf, "
                          f"got sqrt(-K) u = {v} at K={K.K}, u={u}")
    return v


def reduce_to_unit_curvature(cfg: FlatConfig, K: Curvature):
    """Rescale to K = -1: ball radius becomes v = sqrt(-K) u.

    Probabilities are invariant; distances shrink by sqrt(-K) and densities
    gain a factor sqrt(-K).  A v below _MIN_REDUCED_RADIUS, or one that
    underflows to 0 or overflows, raises DomainError (_reduced_radius).
    """
    K.require_hyperbolic()
    return FlatConfig(cfg.d, cfg.q, cfg.gamma, _reduced_radius(K, cfg.u)), _UNIT_CURVATURE


@dataclass(frozen=True)
class _UnitLaw:
    """The constants of one configuration's distance law at unit curvature (_unit_law).

    a = (q+1)/2, b = (d-q)/2, a1 = (gamma+1)/2; betaln_ab is log B(a, b),
    the density's, and betaln_a1b is log B(a1, b) = log B(b, a1), that of
    p's and the atom's integrands.  hit_offset and miss_offset are the logs
    of the offset-radius integrands' powers at v over R's, R the radial
    mass, with R's factor and B(a1, b) (_offset_radius_integral), hit_offset
    the density's too, and cdf_offset that of F below v with B(a, b)
    (_cdf_below).  e2v = e^(-2v), sinh_div = 1 - e2v and cosh_div = -(1 + e2v)
    serve _log_ratios_at_v.
    """

    cfg1: FlatConfig  # the configuration at K = -1, ball radius v
    v: float
    tanh_v: float
    m: int  # q - gamma
    a: float
    b: float
    a1: float
    log_cosh_v: float
    log_tanh_v: float
    e2v: float
    sinh_div: float
    cosh_div: float
    betaln_ab: float
    betaln_a1b: float
    log_R: float
    hit_offset: float
    cdf_offset: float
    miss_offset: float
    # what the functions of one tolerance computed from this law, keyed by
    # (tol, kind, ...) (_remember); not part of the law's value
    memo: dict = field(default_factory=dict, compare=False, hash=False, repr=False)


def _remember(law: _UnitLaw, key: tuple, value):
    """Store value under key in law.memo and return it.  A full memo
    (_MEMO_ENTRIES) is emptied first, so a sweep over tolerances or moment
    orders holds bounded memory; each step is one dict operation, so threads
    sharing a law at worst compute an entry twice, never read a wrong one."""
    if len(law.memo) >= _MEMO_ENTRIES:
        law.memo.clear()
    law.memo[key] = value
    return value


@lru_cache(maxsize=64)
def _unit_law(cfg: FlatConfig, K: Curvature) -> _UnitLaw:
    """The unit-curvature law of (cfg, K), memoised: every hyperbolic function,
    and the Monte Carlo sampler, starts here.

    It is the one reduction of a configuration to unit curvature
    (reduce_to_unit_curvature, which checks v) and the one memo of its
    radial mass (_radial_mass_parts, evaluated once here).  No value depends
    on whether the law was cached.
    """
    cfg1, _ = reduce_to_unit_curvature(cfg, K)
    d, q, g, v = cfg1.d, cfg1.q, cfg1.gamma, cfg1.u
    m, a, b, a1 = q - g, 0.5 * (q + 1), 0.5 * (d - q), 0.5 * (g + 1)
    betaln_ab, betaln_a1b = betaln(a, b), betaln(a1, b)
    log_R, log_R_factor = _radial_mass_parts(d, m, v)
    log_sinh, log_cosh = _log_sinh_cosh(v)

    def offset(n1, n2):
        # sinh^n1 v cosh^n2 v over R's leading power sinh^m v cosh^(d-m-1) v
        return math.fsum(_log_power_terms(n1 - m, n2 - (d - m - 1), v, log_sinh, log_cosh)
                         + [-log_R_factor, -betaln_a1b])

    e2v, sinh_div = math.exp(-2.0 * v), -math.expm1(-2.0 * v)
    # log tanh v = log(1 - e^(-2v)) - log1p(e^(-2v)): no cancellation at large v
    return _UnitLaw(cfg1, v, math.tanh(v), m, a, b, a1, log_cosh,
                    math.log(sinh_div) - math.log1p(e2v), e2v, sinh_div, -(1.0 + e2v),
                    betaln_ab, betaln_a1b, log_R, offset(m - 1, g),
                    offset(m, max(g - 1, 0)) + betaln_ab, offset(q, d - q - 1))


def _as_probability(value, error_estimate):
    """value as a probability, elementwise: clamped to [0, 1].

    Raises ProbabilityRangeError where value is nan or leaves [0, 1] by
    more than error_estimate + 1e-12.  A float in, a float out.
    """
    slack = error_estimate + 1e-12
    if isinstance(value, float) and -slack <= value <= 1.0 + slack:
        return min(1.0, max(0.0, value))
    v = np.asarray(value, dtype=float)
    if v.size and v.min() >= 0.0 and v.max() <= 1.0:  # false at nan
        return float(v) if v.ndim == 0 else v
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
    holds its mass; none where slope * span <= _LAYER_MIN_SPAN or where
    _LAYER_KNOT / slope is 0."""
    knots = []
    if slope * span > _LAYER_MIN_SPAN:
        h = _LAYER_KNOT / slope
        # h is 0 where slope overflows (v near 1e-308), and doubling 0 never reaches span
        while 0.0 < h < span:
            knots.append(h)
            h *= 2.0
    return knots


def _log_ratios_at_v(law: _UnitLaw, h, past: bool = False, sinh: bool = True):
    """(log sinh t - log sinh v, log cosh t - log cosh v) at t = v - h, elementwise,
    the first None unless sinh: every log-integrand of the law is a constant
    at v plus multiples of these.

        log sinh t - log sinh v = -h + log1p(E M / (1 - e^(-2v))),
        log cosh t - log cosh v = -h + log1p(-E M / (1 + e^(-2v))),

    E M = e^(-2v) - e^(-2t), leave nothing to cancel.  E M is e^(-2t) expm1(-2h)
    where h >= 0, at least -(1 - e^(-2v)), so the first log1p is -inf at
    t = 0, never nan; past v (every h < 0) it is -e^(-2v) expm1(2h), in
    (0, e^(-2v)), so nothing overflows however far t lies.
    """
    em = (-law.e2v * np.expm1(2.0 * h) if past
          else np.exp(2.0 * (h - law.v)) * np.expm1(-2.0 * h))
    return (np.log1p(em / law.sinh_div) - h if sinh else None,
            np.log1p(em / law.cosh_div) - h)


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
    A node's log is a sum of multiples of log sinh rho - log sinh v and of
    log cosh rho - log cosh v (_log_ratios_at_v); the powers at v over R's
    leading power, with R's factor and B(a', b), are the log_offset.

    The mass lies in a layer about 1/lambda wide below v, lambda the
    integrand's log-slope at v ((m-1) coth v + (gamma+a') tanh v for the
    hit, q coth v + (d-q) tanh v for the miss), so the first panels end at
    h = 2^k _LAYER_KNOT / lambda, k = 0, 1, ... below v, unless
    lambda v <= _LAYER_MIN_SPAN: one call of the integrand then usually
    settles the integral.  Log-form integrals converge on tol's relative
    tolerance alone, so a miss probability near 0 keeps its digits.

    The result is memoised with the law, per (tol, hit) (_remember): p, the
    atom, a conditional moment's log p and a Monte Carlo check of one
    configuration share one integral.
    """
    law = _unit_law(cfg, K)
    key = (tol, "hit" if hit else "miss")
    memo = law.memo.get(key)
    if memo is not None:
        return memo
    d, q, g, m, b, a1, v = law.cfg1.d, law.cfg1.q, law.cfg1.gamma, law.m, law.b, law.a1, law.v

    def log_hit(h):
        dls, dlc = _log_ratios_at_v(law, h, sinh=m > 1 or g == 0)
        log_x = -2.0 * (dlc + law.log_cosh_v)  # log sech^2 rho
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
        dls, dlc = _log_ratios_at_v(law, h)
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

    if hit:
        slope = (m - 1) / law.tanh_v + (g + a1) * law.tanh_v
    else:
        slope = q / law.tanh_v + (d - q) * law.tanh_v
    return _remember(law, key, integrate_adaptive(
        log_hit if hit else log_miss, 0.0, v, tol, log_form=True,
        log_offset=law.hit_offset if hit else law.miss_offset,
        break_points=_layer_knots(slope, v)))


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
    under = p < _TINY
    if under.any():
        cu = c[under]
        out[under] = -cu - math.log(a) + np.log(hyp1f1(1.0, a + 1.0, cu))
    return out


def _log_density(law: _UnitLaw, t) -> np.ndarray:
    """log of the distance density at unit curvature, elementwise on reduced distances t > 0.

    f(t) = A sinh^(m-1) t cosh^gamma t I_x(a, b), m = q - gamma, a = (q+1)/2,
    b = (d-q)/2, x = min(1, sinh^2 v / sinh^2 t), A = B(a, b) / (B(a1, b) R):
    p's hit integrand's powers times B(a, b) I_x(a, b) / B(a1, b).  So, with
    p's constant at v (hit_offset) and Dls, Dlc from _log_ratios_at_v, h = v - t,

        t <= v:  hit_offset + log B(a, b) + (m-1) Dls + gamma Dlc,
        t > v:   hit_offset + gamma Dlc - (gamma+2) Dls + log(B_x(a, b) / x^a),

    log x = -2 Dls: past v x^a is taken out of I_x.  No term near d v
    rounds.  Below v Dls is -h + log(-expm1(-2t) / (1 - e^(-2v))), from t:
    the kernel's form, from h alone, loses t's low digits where t << v.  The
    side of v is t > v, not log x < 0: the two forms differ by more than
    rounding at t = v (I_x(a, 1/2) has a square-root edge at x = 1).
    _log_density_float is the same terms in the same order at a float t.
    """
    t = np.asarray(t, dtype=float)
    h = law.v - t
    far = h < 0.0
    n_far = np.count_nonzero(far)
    if n_far in (0, far.size):
        return _log_density_side(law, t, h, n_far > 0)
    out, near = np.empty(t.shape), ~far
    out[near] = _log_density_side(law, t[near], h[near], False)
    out[far] = _log_density_side(law, t[far], h[far], True)
    return out


def _log_density_side(law: _UnitLaw, t, h, past: bool) -> np.ndarray:
    """_log_density at t, h = v - t, past v if past (every h < 0), else at or below it."""
    m, g = law.m, law.cfg1.gamma
    dls, dlc = _log_ratios_at_v(law, h, past, sinh=past)
    if past:
        log_x = -2.0 * dls
        out = (law.hit_offset - (g + 2) * dls
               + _log_incomplete_beta_tail(law.a, law.b, law.betaln_ab, np.exp(log_x), log_x))
    else:
        out = np.full(np.shape(t), law.hit_offset + law.betaln_ab)
        if m > 1:
            out += (m - 1) * (np.log(-np.expm1(-2.0 * t) / law.sinh_div) - h)
    return out + g * dlc if g else out


def _log_density_float(law: _UnitLaw, t: float) -> float:
    """_log_density at a float t > 0: the same terms in the same order from the
    math module and, past v, one scalar betainc (or _log_incomplete_beta_tail's
    series), in no more calls than log sinh t and log cosh t would take: E M is
    -e^(-2v) expm1(2h), or -e^(-2t) where e^(-2v) is subnormal and negligible.
    NumPy's log and exp are not libm's: the paths agree to rounding, not bits."""
    m, g, h = law.m, law.cfg1.gamma, law.v - t
    past = h < 0.0
    if g or past:
        em = (-law.e2v * math.expm1(2.0 * h) if past or law.e2v >= _TINY
              else -math.exp(-2.0 * t))
    lc = g * (math.log1p(em / law.cosh_div) - h) if g else 0.0
    if not past:
        out = law.hit_offset + law.betaln_ab
        if m > 1:
            out += (m - 1) * (math.log(-math.expm1(-2.0 * t) / law.sinh_div) - h)
        return out + lc
    dls = math.log1p(em / law.sinh_div) - h
    a, log_x = law.a, -2.0 * dls
    x = math.exp(log_x)
    i = _betainc_float(a, law.b, x)
    tail = (math.log(i) + law.betaln_ab - a * log_x if i >= _BETAINC_FLOOR
            else float(_log_incomplete_beta_tail(a, law.b, law.betaln_ab, x, log_x)))
    return law.hit_offset - (g + 2) * dls + tail + lc


def _w_past(t, v):
    """w = s / (1 + s), s = sqrt(t - v), for finite t >= v."""
    s = np.sqrt(t - v)
    return s / (1.0 + s)


def _t_past(w, v):
    """_w_past's inverse on w in [0, 1): t = v + s^2, s = w / (1 - w), and log dt/dw."""
    s = w / (1.0 - w)
    return v + s * s, math.log(2.0) + np.log(w) - 3.0 * np.log1p(-w)


def _below_layer(law: _UnitLaw, span: float) -> list:
    """_layer_knots toward v from below over span: the density's log-slope at v
    is lambda = (m-1) coth v + gamma tanh v."""
    return _layer_knots((law.m - 1) / law.tanh_v + law.cfg1.gamma * law.tanh_v, span)


def _past_ends(law: _UnitLaw) -> list:
    """The ends in w of the store's first panels past v (_law_store): the
    lattice k / _GRID_PANELS_PAST, 0 and 1 among them, the first panel graded
    toward w = 0 at s0, 2 s0, 4 s0, ... (_layer_knots),
    s0^2 = tanh v (d-q) / (2 (d+1)), where I_x(a, b) has fallen to about 1/2
    (w is about s there)."""
    s0 = math.sqrt(law.tanh_v * (law.cfg1.d - law.cfg1.q) / (2.0 * law.cfg1.d + 2.0))
    return sorted({*_LATTICE, *_layer_knots(_LAYER_KNOT / s0, _LATTICE[1])})


def _panel_integrals(law: _UnitLaw, lo: np.ndarray, hi: np.ndarray, far: np.ndarray):
    """The Gauss-Kronrod panels [lo[i], hi[i]] of the unit-curvature density, in
    t below v and in w where far (those follow the others), from one call of
    _log_density: the nodes in w are mapped to t and the Jacobian is added to
    their logs.  Past v the density has a (t - v)^((d-q)/2) term, a square
    root at d - q = 1, which Gauss-Kronrod resolves slowly; in
    w = s / (1 + s), s = sqrt(t - v), the integrand 2 s f(v + s^2) / (1 - w)^2
    is smooth, [v, infinity] is [0, 1], and no node lies at w = 1.

    Returns _gk_panels' (values, errors, log_nodes, log_scale) in log form
    and the (n, 15) nodes t: each panel's integral and error estimate are values
    and errors times exp(log_scale), and log_nodes are the logs of its node
    values at _XK less their largest, so that exp(log_scale) times the
    interpolant through exp(log_nodes) on [-1, 1] is the integrand on the
    panel.  A grid takes them to absolute units (_absolute), a moment
    weights them by t^alpha in log space (_moment_weigh).
    """
    k = _XK.size * np.count_nonzero(~far)  # the nodes below v come first
    t = np.empty((lo.size, _XK.size))  # the nodes in t, as log_f receives them

    def log_f(x):
        t_past, log_jacobian = _t_past(x[k:], law.v)
        t.flat[:k], t.flat[k:] = x[:k], t_past
        y = _log_density(law, t.ravel())
        y[k:] += log_jacobian
        return y

    return (*_gk_panels(log_f, lo, hi, True), t)


def _absolute(lo, hi, far, raw):
    """_panel_integrals' panels in absolute units, as a grid holds them:
    (values, errors, nodes, scale), the nodes over their largest,
    QuadratureError where a scale overflows (_panel_scales)."""
    vals, errs, log_nodes, log_scale = raw[:4]
    scale = _panel_scales(log_scale, lo, hi)
    return vals * scale, errs * scale, np.exp(log_nodes), scale


def _law_store(law: _UnitLaw, tol: Tolerance):
    """The law's first panels and the density's node values on them, memoised
    with the law per tol: (lo, hi, far, raw, prefix), read-only.

    Below v, in t: _GRID_PANELS_BELOW equal panels on [0, v] and ends at
    t = v - h toward the layer below it (_below_layer).  Past v, in w
    (_w_past): the whole lattice of _GRID_PANELS_PAST equal panels on [0, 1],
    with ends at exactly k / _GRID_PANELS_PAST, the first graded toward
    w = 0 (_past_ends).  far marks the panels past v; they follow the
    others, and on each side the panels ascend.  raw is _panel_integrals'
    (values, errors, log_nodes, log_scale, t), all from one call of the
    density integrand, and prefix[n] the number of panels that end at or
    below the n-th lattice end, w = n / _GRID_PANELS_PAST: every grid's
    panels are such a prefix.  Nothing here is refined: a grid settles its
    prefix past v (_grid_law), and a moment refines against its own total
    (_moment_integral), each on copies.
    """
    key = (tol, "panels")
    store = law.memo.get(key)
    if store is None:
        v = law.v
        near = sorted({v * i / _GRID_PANELS_BELOW for i in range(_GRID_PANELS_BELOW + 1)}
                      .union(v - h for h in _below_layer(law, v)))
        past = _past_ends(law)
        lo, hi = np.array(near[:-1] + past[:-1]), np.array(near[1:] + past[1:])
        p_near = len(near) - 1
        far = np.arange(lo.size) >= p_near
        prefix = p_near + np.searchsorted(hi[p_near:], _LATTICE, side="right")
        raw = _panel_integrals(law, lo, hi, far)
        for y in (lo, hi, far, *raw, prefix):
            y.flags.writeable = False
        store = _remember(law, key, (lo, hi, far, raw, prefix))
    return store


def _moment_weigh(alpha: float):
    """The map from _panel_integrals' panels to those of t^alpha times the
    density: (values, errors, log_scale).  alpha log t is added to the log
    node values, taken relative to their largest again, and summed
    (_gk_sums): in log space, so neither factor's range within a panel can
    underflow the other's mass."""
    def weigh(lo, hi, far, raw):
        y = raw[2] + alpha * np.log(raw[4])
        top = y.max(axis=1)
        top[top == -math.inf] = 0.0  # an empty panel: its log_scale is -inf already
        return (*_gk_sums(np.exp(y - top[:, None])), raw[3] + top)
    return weigh


def _moment_integral(law: _UnitLaw, tol: Tolerance, alpha: float) -> QuadResult:
    """Integral of t^alpha times the unit-curvature density over [0, infinity],
    from the law's first panels (_law_store) weighted by t^alpha (_moment_weigh).

    Where k = m + alpha >= 2 the integrand is at least t^1 at 0 and the
    store's first panel [0, e] serves.  Below 2 it does not vanish at 0, and
    [0, e] gives way to the head [0, t0] in closed form and panels from t0
    to e, each at most twice as long as the one before, in one call.  Below
    v, t^alpha f(t) = A t^(k-1) phi(t), phi = (sinh t / t)^(m-1) cosh^gamma t
    = 1 + e1 t^2 + O(t^4), e1 = (m-1)/6 + gamma/2 >= 0, so the head's integral
    is A t0^k (1/k + e1 t0^2 / (k+2) + ...), and t0^(alpha+1) f(t0) / k
    exceeds it by a relative 2 e1 t0^2 / (k+2) at most: below 2^-53 at
    t0 = min(e, 2^-26.5 / sqrt(max(e1, 1))).  The head is a panel of error 0
    whose log scale is that, log f(t0) from _log_density.

    While the summed error estimate misses tol's relative target the panels
    whose error exceeds that target's share per panel are halved, all in one
    call (_halve), in copies: the store is never changed.  Sums are kept in
    units of the largest panel scale, so log_value is finite where value
    underflows.  _halve's QuadratureError carries the sum so far, unconverged.
    """
    lo, hi, far, raw, _ = _law_store(law, tol)
    weigh = _moment_weigh(alpha)
    panels, evals = weigh(lo, hi, far, raw), _XK.size * lo.size
    k, e = law.m + alpha, float(hi[0])
    if k < 2.0:
        e1 = (law.m - 1) / 6.0 + 0.5 * law.cfg1.gamma
        t0 = min(e, 2.0**-26.5 / math.sqrt(max(e1, 1.0)))
        ends = np.geomspace(t0, e, 1 + math.ceil(math.log2(e / t0)))  # [t0] where t0 = e
        g_lo, g_hi, g_far = ends[:-1], ends[1:], np.zeros(ends.size - 1, dtype=bool)
        grown = weigh(g_lo, g_hi, g_far, _panel_integrals(law, g_lo, g_hi, g_far))
        head = (alpha + 1.0) * math.log(t0) + float(_log_density(law, t0)) - math.log(k)
        lo, hi = np.r_[0.0, g_lo, lo[1:]], np.r_[t0, g_hi, hi[1:]]
        far = np.r_[False, g_far, far[1:]]
        panels = tuple(np.r_[h, g, y[1:]] for h, g, y in zip((1.0, 0.0, head), grown, panels))
        evals += _XK.size * (g_lo.size - 1) + 1
    while True:
        vals, errs, log_scale = panels
        ref = float(log_scale.max())
        if ref == -math.inf:  # every node value is 0
            return QuadResult(0.0, 0.0, evals, True)
        unit = np.exp(log_scale - ref)
        abs_errs = errs * unit
        total, total_err = math.fsum(vals * unit), math.fsum(abs_errs)
        log_value = ref + math.log(total)
        value = _exp_or_raise(log_value, "the integral")
        converged = total_err <= tol.rel_tol * total
        res = QuadResult(value, value * (total_err / total), evals, converged, log_value)
        if converged:
            return res
        split = abs_errs > tol.rel_tol * total / lo.size
        split[np.argmax(abs_errs)] = True  # one at least, whatever the sums' rounding
        try:
            lo, hi, far, panels = _halve(law, tol, lo, hi, far, panels, split, weigh)
        except QuadratureError as exc:
            raise QuadratureError(str(exc), partial=res) from None
        evals += 2 * _XK.size * np.count_nonzero(split)


def _halve(law: _UnitLaw, tol: Tolerance, lo, hi, far, panels, split, weigh):
    """The panels with those marked in split cut at their midpoints:
    (lo, hi, far, panels) as new arrays, the given ones untouched.  Only the
    halves are evaluated, all in one call (_panel_integrals), and weigh
    takes them to the caller's units (_absolute for a grid, _moment_weigh).

    QuadratureError where the panels would pass tol.max_subdivisions or a
    half is too narrow for its nodes to lie inside it (_nodes_inside).
    """
    at = np.flatnonzero(split)
    if lo.size + at.size > tol.max_subdivisions:
        raise QuadratureError(f"panel refinement exceeded {tol.max_subdivisions} panels")
    # each panel cut becomes its halves, in place in the copies
    cuts, keep = 0.5 * (lo[at] + hi[at]), np.sort(np.r_[np.arange(lo.size), at])
    ends = at + np.arange(at.size)  # the first half of each panel cut
    lo, hi, far = lo[keep], hi[keep], far[keep]
    hi[ends], lo[ends + 1] = cuts, cuts
    new = np.zeros(lo.size, dtype=bool)
    new[ends] = new[ends + 1] = True
    if not _nodes_inside(lo[new], hi[new]).all():
        raise QuadratureError("a panel misses the tolerance and is too narrow to halve")
    panels = tuple(y[keep] for y in panels)
    pieces = weigh(lo[new], hi[new], far[new], _panel_integrals(law, lo[new], hi[new], far[new]))
    for y, piece in zip(panels, pieces):
        y[new] = piece
    return lo, hi, far, panels


def _settle(law: _UnitLaw, tol: Tolerance, lo, hi, far, panels):
    """Halve (_halve) every grid panel past v whose error misses half tol's
    relative target against its value or, with its interpolant's (_cdf_table),
    against F at its start, all at once, until none does; each target is at
    least F's rounding at the panel's end.  With F(v)'s error within the other
    half (distance_cdf_grid), every point past v then meets the target."""
    half = 0.5 * tol.rel_tol
    while True:
        vals, errs, nodes, scale = panels
        end = np.cumsum(vals)
        floor = 2.0**-53 * end
        own = errs + scale * np.abs(nodes @ _CHEBYSHEV[-2:].T).sum(axis=1)
        split = far & ((errs > half * np.maximum(vals, floor))
                       | (own > half * np.maximum(end - vals, floor)))
        if not split.any():
            return lo, hi, far, panels
        lo, hi, far, panels = _halve(law, tol, lo, hi, far, panels, split, _absolute)


def _cdf_table(lo, hi, far, vals, errs, nodes, scale) -> np.ndarray:
    """The per-panel table of _cdf_at, one row per quantity so that its
    recurrence reads contiguous rows: the scaled Chebyshev coefficients of the
    antiderivative with the start value folded into the first, the midpoint,
    the inverse half-width (0 for an empty panel) and the error estimate
    through the panel.  That is the panel errors summed through it plus the
    interpolant's own, its last two Chebyshev coefficients in units of the
    panel's scale (the Kronrod estimate, of the whole panel to a far higher
    degree than 14, says nothing of the interpolant inside it), and below v
    2^-40 of the panel's value, a generous bound on the Clenshaw sum's
    rounding: most of the error of a point where F is far below it."""
    half = 0.5 * (hi - lo)
    through = (np.cumsum(errs) + scale * np.abs(nodes @ _CHEBYSHEV[-2:].T).sum(axis=1)
               + np.where(far, 0.0, 2.0**-40 * np.abs(vals)))
    c = scale[:, None] * (nodes @ _ANTIDERIVATIVE.T)
    c[1:, 0] += np.cumsum(vals[:-1])
    inv_half = np.divide(1.0, half, out=np.zeros_like(half), where=half > 0.0)
    return np.vstack((c.T, lo + half, inv_half, through))


def _cdf_at(x, n_near, lo, p_near, table):
    """The CDF and its error estimate at the ascending points x > 0, the first
    n_near in t (at most v) and the others in w, and the panel of each.

    A point's panel is found by bisection on the starts of the panels on its
    side of v, the first p_near panels below it.  Its value is the sum of
    the panels before it plus its panel's scale times the antiderivative of
    the node interpolant (_ANTIDERIVATIVE), summed by Clenshaw's recurrence
    at the point's place in [-1, 1] (table, _cdf_table), and its error
    estimate is the table's through its panel.
    """
    row = np.empty(x.size, dtype=np.intp)
    row[:n_near] = np.searchsorted(lo[:p_near], x[:n_near], side="right") - 1
    row[n_near:] = p_near - 1 + np.searchsorted(lo[p_near:], x[n_near:], side="right")
    g = np.take(table, row, axis=1)
    s = (x - g[-3]) * g[-2]
    s2, b1, b2, tmp = 2.0 * s, g[-4].copy(), np.zeros_like(s), np.empty_like(s)
    for j in range(_ANTIDERIVATIVE.shape[0] - 2, 0, -1):
        np.multiply(s2, b1, out=tmp)
        tmp -= b2
        tmp += g[j]
        b1, b2, tmp = tmp, b1, b2
    return s * b1 - b2 + g[0], g[-1], row


def _grid_law(law: _UnitLaw, tol: Tolerance, n: int):
    """The law's representation for grids whose last point lies in the n-th
    lattice panel past v (at or below v where n = 0), memoised with the law:
    (lo, hi, far, panels, table, p_near, at_v), read-only, p_near the number
    of panels below v and at_v their sums, F(v) and its error.  It is the
    store's first prefix[n] panels (_law_store) in absolute units, settled
    past v (_settle), with _cdf_at's table: none of it depends on a point.
    """
    key = (tol, "grid", n)
    entry = law.memo.get(key)
    if entry is None:
        lo, hi, far, raw, prefix = _law_store(law, tol)
        k = prefix[n]
        lo, hi, far = lo[:k], hi[:k], far[:k]
        panels = _absolute(lo, hi, far, tuple(y[:k] for y in raw))
        lo, hi, far, panels = _settle(law, tol, lo, hi, far, panels)
        p_near = int(np.count_nonzero(~far))
        at_v = tuple(float(np.cumsum(y[:p_near])[-1]) for y in panels[:2])
        entry = (lo, hi, far, panels, _cdf_table(lo, hi, far, *panels), p_near, at_v)
        for y in (lo, hi, far, *panels, entry[4]):
            y.flags.writeable = False
        _remember(law, key, entry)
    return entry


def _cdf_below(law: _UnitLaw, t) -> np.ndarray:
    """F(t) at reduced distances 0 <= t <= v in closed form, elementwise.

    There I_x(a, b) = 1 and F(t) = A I(m-1, gamma; t) = F(v) R_q(m, t) / R_q(m, v),
    R_q the radial mass (log_radial_mass): E cap L is uniform in the invariant
    measure of the gamma-flats of L.  Like the density (_log_density_side),
    it is cdf_offset plus multiples of Dls, from t, and of Dlc
    (_log_ratios_at_v), plus the small factor of _log_sinh_cosh_parts.
    """
    h, e = law.v - t, -np.expm1(-2.0 * t)  # e = 2t exactly where t is tiny
    # a subnormal ratio e / sinh_div keeps few digits: scale those by 2^64 first
    k = np.where(e < _TINY * law.sinh_div, 64, 0)
    with np.errstate(divide="ignore"):  # log 0 = -inf at t = 0
        dls = np.log(np.ldexp(e, k) / law.sinh_div) - (h + k * _LOG2)
    dlc = _log_ratios_at_v(law, h, sinh=False)[1]
    n1, n2, log_factor = _log_sinh_cosh_parts(law.m - 1, law.cfg1.gamma, t,
                                              dls + (law.log_tanh_v + law.log_cosh_v),
                                              dlc + law.log_cosh_v)
    out = law.cdf_offset + log_factor + n1 * dls
    return np.exp(out + n2 * dlc if n2 else out)


def _require_distance(delta) -> None:
    if not (math.isfinite(delta) and delta >= 0):
        raise DomainError(f"need a finite delta >= 0, got {delta}")


def distance_cdf(cfg: FlatConfig, K: Curvature, delta: float,
                 tol: Tolerance = DEFAULT_TOLERANCE) -> float:
    """P(distance of the intersection to the origin <= delta): the one-point
    distance_cdf_grid, whose memo it shares."""
    _require_distance(delta)
    return float(distance_cdf_grid(cfg, K, [delta], tol)[0])


def distance_cdf_grid(cfg: FlatConfig, K: Curvature, deltas,
                      tol: Tolerance = DEFAULT_TOLERANCE) -> np.ndarray:
    """The distance CDF on an ascending 1-d grid, from one representation of
    the law; distance_cdf is its one-point case.

    The representation is Gauss-Kronrod panels of the density placed by the
    law alone, memoised per (tol, n) (_grid_law): a prefix of the law's store
    (_law_store), below v never refined, past v the first n lattice panels
    in w, n the fewest that reach the last point, halved to the target their
    points need.  Each point takes the panels before it plus its panel's
    node interpolant up to it (_cdf_at).  Below v, where F is a ratio of
    radial masses (_cdf_below), the points whose error estimate misses tol's
    relative target take that closed form, in one call, and so does F(v),
    which anchors every point past v; F(v) also does where the store's sum
    below v misses half the target.  A point past v that still misses halves
    its panel, in copies: the memo never depends on a point, and a warm grid
    evaluates no panel.  QuadratureError is raised where a panel to halve is
    too narrow in doubles or halving would pass tol.max_subdivisions;
    leaving [0, 1] by more than the error estimates raises
    ProbabilityRangeError.
    """
    deltas = np.asarray(deltas, dtype=float)
    if deltas.ndim != 1:
        raise DomainError(f"deltas must be a 1-d sequence, got shape {deltas.shape}")
    # first >= 0, last finite and ascending: a NaN anywhere fails one of them
    if deltas.size and not (deltas[0] >= 0 and deltas[-1] < math.inf
                            and (deltas[1:] >= deltas[:-1]).all()):
        raise DomainError("deltas must be finite, ascending and >= 0")
    law = _unit_law(cfg, K)
    x = K.scale * deltas  # in t up to v and in w past it
    n_near = int(np.searchsorted(x, law.v, side="right"))
    near, past = x[:n_near], x[n_near:]
    past[:] = _w_past(past, law.v)
    # the fewest lattice panels past v that reach the last point
    n = bisect.bisect_left(_LATTICE, x[-1]) if past.size else 0
    lo, hi, far, panels, table, p_near, (f_v, err_v) = _grid_law(law, tol, n)
    value, err, row = _cdf_at(x, n_near, lo, p_near, table)
    miss, shift, drop = err > tol.rel_tol * np.abs(value), 0.0, 0.0
    if miss[:n_near].any() or err_v > 0.5 * tol.rel_tol * f_v:
        below = miss[:n_near] | (near == law.v)  # they read F(v)
        closed = _cdf_below(law, np.append(near[below], law.v))
        value[:n_near][below], err[:n_near][below] = closed[:-1], 0.0
        shift, drop = closed[-1] - f_v, err_v  # F(v) closed form: no error below v
        value[n_near:] += shift
        err[n_near:] -= drop
        miss = err > tol.rel_tol * np.abs(value)
    while miss[n_near:].any():
        split = np.zeros(lo.size, dtype=bool)
        split[row[n_near:][miss[n_near:]]] = True
        lo, hi, far, panels = _settle(
            law, tol, *_halve(law, tol, lo, hi, far, panels, split, _absolute))
        value[n_near:], err[n_near:], row[n_near:] = _cdf_at(
            past, 0, lo, p_near, _cdf_table(lo, hi, far, *panels))
        value[n_near:] += shift
        err[n_near:] -= drop
        miss = err > tol.rel_tol * np.abs(value)
    return _as_probability(value, err)


def distance_density(cfg: FlatConfig, K: Curvature, delta,
                     tol: Tolerance = DEFAULT_TOLERANCE):
    """Density of the absolutely continuous part of the distance law.

    delta is a distance (the result is a float) or an array of them (the
    result is an array of the same shape).  A float, np.float64 included,
    takes _log_density_float, math calls and one scalar betainc with no array
    bookkeeping; it agrees with the array call to the rounding of the log
    density's terms (NumPy's log and exp are not libm's), and both pick the
    side of v by comparing t with v.  Closed form from the memoised
    unit-curvature law (_unit_law), so tol is not used; it is accepted like
    everywhere else.
    """
    if isinstance(delta, float):
        if not 0.0 < delta < math.inf:
            raise DomainError(f"need finite delta > 0, got {delta}")
        s = K.scale
        return s * math.exp(_log_density_float(_unit_law(cfg, K), s * float(delta)))
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
    integral over [0, infinity], a sum over the law's store of first panels
    weighted by t^alpha (_moment_integral), which the CDF shares, with a
    closed-form head below t0 near the divergence, where m + alpha < 2.
    The conditional moment divides it by p in log space, so it is finite
    where p underflows to 0.  Both integrals are memoised with the law, per
    tolerance (and alpha): a repeated moment evaluates no integrand.  A
    non-finite alpha raises DomainError.
    """
    law = _unit_law(cfg, K)
    if not math.isfinite(alpha):
        raise DomainError(f"moment order alpha must be finite, got {alpha}")
    lo = cfg.gamma - cfg.q
    if alpha <= lo or (not conditional and alpha > 0):
        return MomentResult(alpha, conditional, None)
    if alpha == 0:
        return MomentResult(alpha, conditional, 1.0)

    key = (tol, "moment", alpha)
    res = law.memo.get(key)
    if res is None:
        res = _remember(law, key, _moment_integral(law, tol, alpha))
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

    The integral is memoised per (u, q, gamma, kappa, tol), 64 of them
    (_rho_integral): a repeated rho evaluates no integrand and returns the
    first call's value bit for bit.  Invalid arguments raise before the
    lookup, and a call that raises stores nothing.
    """
    if not 0 <= gamma <= q - 1:
        raise DomainError(f"need 0 <= gamma <= q-1, got gamma={gamma}, q={q}")
    if not u > 0:
        raise DomainError(f"need u > 0, got {u}")
    if not kappa > 0:
        raise DomainError(f"need kappa > 0, got {kappa}")
    res = _rho_integral(u, q, gamma, kappa, tol)
    return _as_probability(res.value, res.error_estimate)


@lru_cache(maxsize=64)
def _rho_integral(u: float, q: int, gamma: int, kappa: float, tol: Tolerance) -> QuadResult:
    """rho's integral (critical_constant_rho) at valid arguments, memoised."""
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
    return integrate_adaptive(log_outer, 0.0, 1.0, tol, log_form=True, log_offset=pref,
                              break_points=knots)


def phase_limit(mode: PhaseMode, u: float, q: int, gamma: int,
                tol: Tolerance = DEFAULT_TOLERANCE) -> float:
    """d -> infinity limit of the intersection probability under a curvature schedule."""
    if mode.regime == "subcritical":
        return 1.0
    if mode.regime == "supercritical":
        return 0.0
    return critical_constant_rho(u, q, gamma, mode.kappa, tol)
