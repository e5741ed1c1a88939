"""Independent reference computations used to freeze expected test values.

Everything here deliberately avoids the library's own quadrature: the
probability oracle uses scipy's QAGS on the raw (r, z) form of the double
integral, the critical-constant oracle is a plain midpoint Riemann sum,
one radial-law oracle is a dense trapezoid CDF, and the radial mass, its
CDF and the closed-form probability are evaluated by mpmath at high
precision.
"""

import math

import numpy as np
from scipy.integrate import quad


def omega(n):
    return 2.0 * math.pi ** (n / 2.0) / math.gamma(n / 2.0)


def dimension_constant(d, q, g):
    return (omega(g + 1) * omega(q - g) * omega(d - q)
            / (omega(d - q + g + 1) * omega(d - g)))


def probability_oracle(d, q, g, u):
    """Intersection probability at K = -1 via scipy QAGS on the raw integrand.

    Accurate to roughly 1e-10 for small dimensions; used only to freeze
    low-dimensional reference values.
    """
    R = math.tanh(u)
    k = d - q + g

    def c_int(r):
        return math.cosh(r) ** k * math.sinh(r) ** (d - k - 1)

    C = omega(d - k) * quad(c_int, 0, u, epsabs=1e-14, epsrel=1e-13)[0]

    def inner(r):
        hi = min(1.0, R / r)

        def f(z):
            return (z ** q * (1 - z * z) ** ((d - q) / 2 - 1)
                    * (1 - r * r * z * z) ** (-(d + 1) / 2))

        return quad(f, 0, hi, epsabs=1e-15, epsrel=1e-13, limit=500)[0]

    c = q - g - 1
    I = quad(lambda r: r ** c * inner(r), 0, 1,
             epsabs=1e-15, epsrel=1e-13, limit=500)[0]
    return dimension_constant(d, q, g) * omega(d - g) / C * I


def rho_riemann_oracle(u, q, g, kappa, n=4000):
    """Critical-regime limit constant by midpoint Riemann sums."""
    s = (np.arange(n) + 0.5) * u / n
    A = np.sum(np.exp(kappa * s * s / 2.0) * s ** (q - g - 1)) * u / n
    r = (np.arange(n) + 0.5) / n
    total = 0.0
    for ri in r:
        coeff = u * u * kappa * (1.0 - ri * ri) / 2.0
        vmax = 1.0 / ri
        vcut = min(vmax, math.sqrt(60.0 / coeff)) if coeff > 0 else vmax
        v = (np.arange(n) + 0.5) * vcut / n
        inner = np.sum(v ** q * np.exp(-coeff * v * v)) * vcut / n
        total += ri ** (q - g - 1) * inner
    total /= n
    pref = (omega(g + 1) * (2.0 * math.pi) ** (-(g + 1) / 2.0)
            * u ** (1 + q) * kappa ** ((g + 1) / 2.0) / A)
    return pref * total


def radial_cdf_oracle(d, m, R, K, r_values):
    """CDF of the offset-radius law r^(m-1) (1 + K r^2)^(-(d+1)/2) on [0, R].

    Dense trapezoid on a fixed grid; independent of the sampler and of the
    adaptive quadrature.  Its step R/200000 must be well below the width
    of the law's layer at R, about (1 - R^2 |K|) / ((d+1) R |K|) in r: true
    at small d and moderate u, false at (10, 9, 8, u=8) and beyond, where
    radial_cdf_rho_oracle applies.
    """
    grid = np.linspace(0.0, R, 200001)
    dens = np.zeros_like(grid)
    dens[1:] = grid[1:] ** (m - 1) * (1.0 + K * grid[1:] ** 2) ** (-(d + 1) / 2.0)
    cdf = np.concatenate(
        ([0.0], np.cumsum(0.5 * (dens[1:] + dens[:-1]) * np.diff(grid)))
    )
    cdf /= cdf[-1]
    return np.interp(np.asarray(r_values, dtype=float), grid, cdf)


# mpmath is imported where it is used: the benchmark loads this module for
# its scipy oracles and should not pay mpmath's import and memory.


def _mp_radial_mass(d, m, rho):
    import mpmath as mp

    S = mp.tanh(mp.mpf(rho))
    return S**m / m * mp.hyp2f1(mp.mpf(d + 1) / 2, mp.mpf(m) / 2,
                                mp.mpf(m) / 2 + 1, S * S)


def log_radial_mass_oracle(d, m, rho, dps=50):
    """log of the integral of sinh^(m-1) t cosh^(d-m) t over [0, rho], by mpmath.

    With x = tanh t the integral is that of x^(m-1) (1 - x^2)^(-(d+1)/2)
    over [0, S], S = tanh rho; expanding the second factor gives
    S^m / m * 2F1((d+1)/2, m/2; m/2 + 1; S^2).
    """
    import mpmath as mp

    with mp.workdps(dps):
        return float(mp.log(_mp_radial_mass(d, m, rho)))


def radial_cdf_rho_oracle(d, m, v, rho_values, dps=30):
    """CDF at rho of the offset-distance law sinh^(m-1) cosh^(d-m) on [0, v], by mpmath."""
    import mpmath as mp

    with mp.workdps(dps):
        total = _mp_radial_mass(d, m, v)
        return np.array([float(_mp_radial_mass(d, m, r) / total) if r > 0 else 0.0
                         for r in np.asarray(rho_values, dtype=float)])


def probability_closed_form_oracle(d, q, g, v, dps=30):
    """Intersection probability at K = -1 by mpmath from the one-dimensional
    closed form of the distance density,

        f(delta) = A sinh^(q-g-1)(delta) cosh^g(delta) I_x((q+1)/2, (d-q)/2),

    x = min(1, sinh^2 v / sinh^2 delta), A = B((q+1)/2, (d-q)/2) D omega_(d-g) / (2 C),
    with C from the mpmath radial mass.
    """
    import mpmath as mp

    with mp.workdps(dps):
        v = mp.mpf(v)
        m = q - g

        def om(n):
            return 2 * mp.pi ** (mp.mpf(n) / 2) / mp.gamma(mp.mpf(n) / 2)

        C = om(m) * _mp_radial_mass(d, m, v)
        D = om(g + 1) * om(m) * om(d - q) / (om(d - q + g + 1) * om(d - g))
        a, b = mp.mpf(q + 1) / 2, mp.mpf(d - q) / 2
        A = mp.beta(a, b) / 2 * D * om(d - g) / C

        def f(t):
            x = min(mp.mpf(1), mp.sinh(v) ** 2 / mp.sinh(t) ** 2)
            return (A * mp.sinh(t) ** (m - 1) * mp.cosh(t) ** g
                    * mp.betainc(a, b, 0, x, regularized=True))

        return float(mp.quad(f, [0, v, v + 1, v + 4, v + 16, mp.inf]))


# Frozen reference values (probability_oracle above, scipy 1.x, 2026-08):
#   probability_oracle(3, 2, 1, 1.0)                 -> 0.835422319722953
#   probability_oracle(5, 3, 0, sqrt(0.5) * 1.5)     -> 0.316475766703500
P_STAR_3_2_1 = 0.835422319722953
P_STAR_5_3_0_HALF = 0.316475766703500
# probability_closed_form_oracle(3, 2, 1, 1.0), mpmath at 30 digits; it
# lies 1.9e-11 from the scipy value above
P_STAR_3_2_1_MPMATH = 0.835422319704187
