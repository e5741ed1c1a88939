"""Independent reference computations used to freeze expected test values.

Everything here deliberately avoids the library's own quadrature: the
probability oracle uses scipy's QAGS on the raw (r, z) form of the double
integral, the critical-constant oracle is a plain midpoint Riemann sum,
one radial-law oracle is a dense trapezoid CDF, and the radial mass, its
CDF, the closed-form distance density and the probability it integrates
to are evaluated by mpmath at high precision.
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


def _mp_density(d, q, g, v):
    """The closed-form distance density at K = -1 as an mpmath function,

        f(t) = A sinh^(q-g-1)(t) cosh^g(t) I_x((q+1)/2, (d-q)/2),

    x = min(1, sinh^2 v / sinh^2 t), A = B((q+1)/2, (d-q)/2) D omega_(d-g) / (2 C),
    with C from the mpmath radial mass.  Call it inside mp.workdps.
    """
    import mpmath as mp

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

    return f


def log_density_oracle(d, q, g, v, t, dps=50):
    """log of the closed-form distance density at K = -1 and distance t, by mpmath."""
    import mpmath as mp

    with mp.workdps(dps):
        return float(mp.log(_mp_density(d, q, g, v)(mp.mpf(t))))


def probability_closed_form_oracle(d, q, g, v, dps=30):
    """Intersection probability at K = -1 by mpmath: the closed-form
    distance density integrated over (0, inf)."""
    import mpmath as mp

    with mp.workdps(dps):
        v = mp.mpf(v)
        return float(mp.quad(_mp_density(d, q, g, v), [0, v, v + 1, v + 4, v + 16, mp.inf]))


# Frozen reference values (probability_oracle above, scipy 1.x, 2026-08):
#   probability_oracle(3, 2, 1, 1.0)                 -> 0.835422319722953
#   probability_oracle(5, 3, 0, sqrt(0.5) * 1.5)     -> 0.316475766703500
P_STAR_3_2_1 = 0.835422319722953
P_STAR_5_3_0_HALF = 0.316475766703500
# probability_closed_form_oracle(3, 2, 1, 1.0), mpmath at 30 digits; it
# lies 1.9e-11 from the scipy value above
P_STAR_3_2_1_MPMATH = 0.835422319704187
# probability_closed_form_oracle at 30 digits, 2026-10; the same to 20
# digits at 40 digits with the quadrature also split at v - k/d and v + h
# for k in 1..64 and h in 0.001..32:
#   (10, 9, 8, v=8)  -> 0.0017573099289213724
#   (40, 39, 38, v=6) -> 0.02518608778412233
# The 2-d double integral of intersection_probability returns 0.001043 and
# 0.02016 at these configurations.
P_STAR_10_9_8_V8_MPMATH = 0.0017573099289213724
P_STAR_40_39_38_V6_MPMATH = 0.02518608778412233
# (1000, 999, 998, v=12): the mass below v sits in a layer about 1/1000
# wide.  probability_closed_form_oracle at 30 digits gives
# 0.00031013106614781824; split at v - k/1000 (k = 1..200) and v + h, the
# two halves are 1.229458277304e-05 and 2.978364833747792e-04 (sum
# 3.1013106614781e-04), and the half below v equals
# B(a, b) D omega_(d-g) / (2 C) times the mpmath radial mass (999, 1, 12).
P_STAR_1000_999_998_V12_MPMATH = 0.00031013106614781824
