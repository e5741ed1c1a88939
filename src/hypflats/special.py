"""Sphere surface areas, dimension constants, the log-beta function and
Klein-model radii/distances.

Everything here is closed form.  Gamma-function ratios are evaluated in log
space so the constants stay finite for dimensions in the thousands.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.special import betaln as _scipy_betaln
from scipy.special import gammaln

from .errors import CurvatureModeError, DomainError

__all__ = [
    "Curvature",
    "FlatConfig",
    "betaln",
    "sphere_surface",
    "log_sphere_surface",
    "constant_D",
    "log_constant_D",
    "klein_radius",
    "klein_radius_inv",
    "klein_distance",
]


@dataclass(frozen=True)
class Curvature:
    """Curvature K <= 0 of the model space, with the derived scale sqrt(-K).

    Its hash is computed once, at construction (see FlatConfig).
    """

    K: float
    scale: float = field(init=False)

    def __post_init__(self):
        if not math.isfinite(self.K) or self.K > 0:
            raise DomainError(f"curvature must satisfy K <= 0, got {self.K}")
        object.__setattr__(self, "scale", math.sqrt(-self.K))
        object.__setattr__(self, "_hash", hash((self.K, self.scale)))

    def __hash__(self):
        return self._hash

    def __reduce__(self):
        return type(self), (self.K,)

    @property
    def is_flat(self) -> bool:
        return self.K == 0.0

    def require_hyperbolic(self) -> None:
        if self.K == 0.0:
            raise CurvatureModeError(
                "operation requires strictly negative curvature (K < 0)"
            )

    @property
    def ball_radius(self) -> float:
        """Euclidean radius of the open Klein ball, 1/sqrt(-K)."""
        self.require_hyperbolic()
        return 1.0 / self.scale


@dataclass(frozen=True)
class FlatConfig:
    """Dimension triple (d, q, gamma) and hitting-ball radius u.

    d is the ambient dimension, q the dimension of the central flat, gamma
    the generic dimension of the intersection.  The moving flat then has
    dimension k = d - q + gamma.

    Its hash is that of the field tuple, as a frozen dataclass's, but
    computed once, at construction: every memoised function keys on it.  It
    is not a field, so equality, repr and asdict do not see it, and a
    pickle rebuilds the configuration, so the hash is always this
    interpreter's.
    """

    d: int
    q: int
    gamma: int
    u: float

    def __post_init__(self):
        if self.d < 2:
            raise DomainError(f"need d >= 2, got d={self.d}")
        if not 1 <= self.q <= self.d - 1:
            raise DomainError(f"need 1 <= q <= d-1, got q={self.q}, d={self.d}")
        if not 0 <= self.gamma <= self.q - 1:
            raise DomainError(
                f"need 0 <= gamma <= q-1, got gamma={self.gamma}, q={self.q}"
            )
        if not (self.u > 0 and math.isfinite(self.u)):
            raise DomainError(f"need u > 0, got u={self.u}")
        object.__setattr__(self, "_hash", hash((self.d, self.q, self.gamma, self.u)))

    def __hash__(self):
        return self._hash

    def __reduce__(self):
        return type(self), (self.d, self.q, self.gamma, self.u)

    @property
    def k(self) -> int:
        """Dimension of the moving flat."""
        return self.d - self.q + self.gamma


def sphere_surface(n: int) -> float:
    """Surface content of the n-dimensional Euclidean unit sphere.

    omega_n = 2 pi^(n/2) / Gamma(n/2).
    """
    return math.exp(log_sphere_surface(n))


def log_sphere_surface(n: int) -> float:
    """log(omega_n), safe for n up to ~1e4."""
    if n < 1:
        raise DomainError(f"sphere dimension must be >= 1, got {n}")
    return math.log(2.0) + 0.5 * n * math.log(math.pi) - gammaln(0.5 * n)


# Stirling's series for log Gamma(x) - (x - 1/2) log x + x - log(2 pi) / 2 in
# powers of 1/x: B_2k / (2k (2k - 1)) for k = 1 .. 10.  At x >= _STIRLING_MIN
# the last term is below 1e-17.
_STIRLING = (1 / 12, -1 / 360, 1 / 1260, -1 / 1680, 1 / 1188, -691 / 360360, 1 / 156,
             -3617 / 122400, 43867 / 244188, -174611 / 125400)
_STIRLING_MIN = 8.0
_HALF_LOG_2PI = 0.5 * math.log(2.0 * math.pi)


def _stirling_rest(x: float) -> float:
    """log Gamma(x) - (x - 1/2) log x + x - log(2 pi) / 2 for x >= _STIRLING_MIN."""
    r = 1.0 / (x * x)
    s = 0.0
    for c in reversed(_STIRLING):
        s = s * r + c
    return s / x


def betaln(a: float, b: float) -> float:
    """log B(a, b) for a, b > 0, to a few units of rounding of log B.

    Where both arguments lie below _STIRLING_MIN it is scipy's betaln.
    Elsewhere the large (x - 1/2) log x - x parts of the three log-gamma
    values are differenced in closed form with log1p, and only the small
    remainders of Stirling's series are summed: with a >= b,

        log B = log Gamma(b) - (a - 1/2) log1p(b/a) - b log(a + b) + b
                + rest(a) - rest(a + b),

    rest(x) = _stirling_rest(x).  Past b = _STIRLING_MIN log Gamma(b) is
    Stirling's as well, which turns log Gamma(b) - b log(a + b) + b into
    log(2 pi) / 2 - (1/2) log b - b log1p(a/b) + rest(b).  scipy's betaln
    differences the log-gamma values themselves and is off by up to 2e3
    units of rounding of log B on half-integers up to 500.
    """
    a, b = max(a, b), min(a, b)
    if a < _STIRLING_MIN:
        return float(_scipy_betaln(a, b))
    rest = _stirling_rest(a) - _stirling_rest(a + b)
    if b < _STIRLING_MIN:
        return math.fsum([float(gammaln(b)), -(a - 0.5) * math.log1p(b / a),
                          -b * math.log(a + b), b, rest])
    return math.fsum([_HALF_LOG_2PI, -0.5 * math.log(b), -(a - 0.5) * math.log1p(b / a),
                      -b * math.log1p(a / b), _stirling_rest(b), rest])


def log_constant_D(cfg: FlatConfig) -> float:
    """log of the dimensional constant D in the prefactor of the distance density."""
    d, q, g = cfg.d, cfg.q, cfg.gamma
    return (
        log_sphere_surface(g + 1)
        + log_sphere_surface(q - g)
        + log_sphere_surface(d - q)
        - log_sphere_surface(d - q + g + 1)
        - log_sphere_surface(d - g)
    )


def constant_D(cfg: FlatConfig) -> float:
    """Ratio of sphere surface areas associated with (d, q, gamma)."""
    return math.exp(log_constant_D(cfg))


def klein_radius(K: Curvature, x: float) -> float:
    """Euclidean (Klein-model) radius of the hyperbolic sphere of radius x.

    R_K(x) = tanh(sqrt(-K) x) / sqrt(-K); increasing, bounded by 1/sqrt(-K).
    """
    K.require_hyperbolic()
    if x < 0:
        raise DomainError(f"radius must be >= 0, got {x}")
    return math.tanh(K.scale * x) / K.scale


def klein_radius_inv(K: Curvature, r: float) -> float:
    """Hyperbolic distance from the origin of a point at Euclidean norm r."""
    K.require_hyperbolic()
    s = K.scale
    if not 0 <= r < 1.0 / s:
        raise DomainError(
            f"need 0 <= r < 1/sqrt(-K) = {1.0 / s}, got r={r}"
        )
    return math.atanh(s * r) / s


def klein_distance(K: Curvature, x, y) -> float:
    """Hyperbolic distance between two points of the open Klein ball.

    cosh(sqrt(-K) d) = (1 + K<x,y>) / sqrt((1 + K|x|^2)(1 + K|y|^2)).
    The 1 + K|.|^2 factors are evaluated through expm1-free log1p forms to
    avoid cancellation near the ball boundary.
    """
    K.require_hyperbolic()
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.shape != y.shape or x.ndim != 1:
        raise DomainError("points must be 1-d arrays of equal length")
    Kv = K.K
    nx2 = float(x @ x)
    ny2 = float(y @ y)
    if Kv * nx2 <= -1.0 or Kv * ny2 <= -1.0:
        raise DomainError("point lies outside the open Klein ball")
    inner = float(x @ y)
    # log cosh(s d) = log(1 + K<x,y>) - (log(1+K|x|^2) + log(1+K|y|^2))/2
    log_cosh = (
        math.log1p(Kv * inner)
        - 0.5 * (math.log1p(Kv * nx2) + math.log1p(Kv * ny2))
    )
    if log_cosh <= 0.0:  # roundoff below cosh = 1 means coincident points
        return 0.0
    # arcosh(1 + m) = log1p(m + sqrt(m (m + 2))), stable for m near 0
    m = math.expm1(log_cosh)
    return math.log1p(m + math.sqrt(m * (m + 2.0))) / K.scale
