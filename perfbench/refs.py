"""Reference values computed without the library's quadrature.

Both oracles integrate the raw (r, z) form of the distance-law double
integral with scipy's QAGS, the same construction as
``tests/oracles.probability_oracle`` but with a finite outer limit, so
they check the library against code that shares none of its quadrature,
break-point or kernel logic.  ``oracles`` is the repository's
``tests/oracles.py``.
"""

import math

from oracles import dimension_constant, omega
from scipy.integrate import quad


def _double_integral(d, q, g, outer_hi, inner_hi, curv):
    """Integral of r^(q-g-1) z^q (1-z^2)^((d-q)/2-1) (1 - curv r^2 z^2)^(-(d+1)/2)
    over r in (0, outer_hi), z in (0, inner_hi(r))."""
    c = q - g - 1

    def inner(r):
        def f(z):
            return (z ** q * (1 - z * z) ** ((d - q) / 2 - 1)
                    * (1 - curv * r * r * z * z) ** (-(d + 1) / 2))

        return quad(f, 0, inner_hi(r), epsabs=1e-15, epsrel=1e-12, limit=200)[0]

    return quad(lambda r: r ** c * inner(r), 0, outer_hi,
                epsabs=1e-15, epsrel=1e-12, limit=200)[0]


def hyperbolic_cdf_oracle(d, q, g, v, delta):
    """P(intersection distance <= delta) at K = -1 with ball radius v."""
    k = d - q + g
    R = math.tanh(v)
    C = omega(d - k) * quad(
        lambda r: math.cosh(r) ** k * math.sinh(r) ** (d - k - 1),
        0, v, epsabs=1e-15, epsrel=1e-13)[0]
    I = _double_integral(d, q, g, math.tanh(delta),
                         lambda r: min(1.0, R / r), 1.0)
    return dimension_constant(d, q, g) * omega(d - g) / C * I


def euclidean_cdf_oracle(d, q, g, u, delta):
    """Flat-space P(intersection distance <= delta) with ball radius u."""
    n = q - g
    C = omega(n) * u ** n / n
    I = _double_integral(d, q, g, delta, lambda r: min(1.0, u / r), 0.0)
    return dimension_constant(d, q, g) * omega(d - g) / C * I
