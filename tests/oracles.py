"""Independent reference computations used to freeze expected test values.

Everything here deliberately avoids the library's own quadrature: the
probability oracle uses scipy's QAGS on the raw (r, z) form of the double
integral, one critical-constant oracle is a plain midpoint Riemann sum,
one radial-law oracle is a dense trapezoid CDF, and the radial mass, its
CDF, the closed-form distance density and the probability it integrates
to, the miss probability as an integral over the offset radius, the
flat-space distance CDF, the conditional mean distance and the critical
constant are evaluated by mpmath at high precision.

mpmath's quad stops when its error estimate falls below an absolute
epsilon, so each mpmath integrand is scaled to be of order one (or of
order 1/d) before it is integrated.
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


def _mp_omega(n):
    import mpmath as mp

    return 2 * mp.pi ** (mp.mpf(n) / 2) / mp.gamma(mp.mpf(n) / 2)


def _mp_dimension_constant(d, q, g):
    return (_mp_omega(g + 1) * _mp_omega(q - g) * _mp_omega(d - q)
            / (_mp_omega(d - q + g + 1) * _mp_omega(d - g)))


def _mp_density(d, q, g, v):
    """The closed-form distance density at K = -1 as an mpmath function,

        f(t) = A sinh^(q-g-1)(t) cosh^g(t) I_x((q+1)/2, (d-q)/2),

    x = min(1, sinh^2 v / sinh^2 t), A = B((q+1)/2, (d-q)/2) D omega_(d-g) / (2 C),
    with C from the mpmath radial mass.  Call it inside mp.workdps.
    """
    import mpmath as mp

    v = mp.mpf(v)
    m = q - g
    C = _mp_omega(m) * _mp_radial_mass(d, m, v)
    a, b = mp.mpf(q + 1) / 2, mp.mpf(d - q) / 2
    A = mp.beta(a, b) / 2 * _mp_dimension_constant(d, q, g) * _mp_omega(d - g) / C

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
    distance density, divided by its value at v, integrated over (0, inf)
    split at v, at unit steps up to v + 16, then at v + 32, v + 64, ...,
    v + 1024."""
    import mpmath as mp

    with mp.workdps(dps):
        v = mp.mpf(v)
        f = _mp_density(d, q, g, v)
        peak = f(v)
        pts = ([0, v] + [v + k for k in range(1, 17)]
               + [v + 16 * 2**j for j in range(1, 7)] + [mp.inf])
        return float(peak * mp.quad(lambda t: f(t) / peak, pts))


def conditional_mean_mp_oracle(d, q, g, v, dps=30):
    """Mean distance at K = -1 given that the flats meet, by mpmath: the
    integrals of t f(t) and of f(t), f the closed-form density, over (0, inf)
    with the split of probability_closed_form_oracle, divided."""
    import mpmath as mp

    with mp.workdps(dps):
        v = mp.mpf(v)
        f = _mp_density(d, q, g, v)
        peak = f(v)
        pts = ([0, v] + [v + k for k in range(1, 17)]
               + [v + 16 * 2**j for j in range(1, 7)] + [mp.inf])
        return float(mp.quad(lambda t: t * f(t) / peak, pts)
                     / mp.quad(lambda t: f(t) / peak, pts))


def atom_mass_mp_oracle(d, q, g, v, dps=30):
    """Probability at K = -1 that the flats miss, by mpmath, over the offset radius.

    The offset radius rho of the moving flat has density proportional to
    sinh^(m-1) rho cosh^(d-m) rho on [0, v], m = q - g; given rho the flats
    miss with probability I_y((g+1)/2, (d-q)/2), y = tanh^2 rho.  Split at
    v/2; at small v the integrand is about rho^q, so no layer needs a split.
    """
    import mpmath as mp

    with mp.workdps(dps):
        v = mp.mpf(v)
        m = q - g
        a1, b = mp.mpf(g + 1) / 2, mp.mpf(d - q) / 2

        def f(r):
            return (mp.sinh(r) ** (m - 1) * mp.cosh(r) ** (d - m)
                    * mp.betainc(a1, b, 0, mp.tanh(r) ** 2, regularized=True))

        return float(mp.quad(f, [0, v / 2, v]) / _mp_radial_mass(d, m, v))


def euclidean_cdf_mp_oracle(d, q, g, u, delta, dps=30):
    """Flat-space P(intersection distance <= delta) with ball radius u, by mpmath.

    The K = 0 density A0 t^(m-1) I_x((q+1)/2, (d-q)/2), m = q - g,
    x = min(1, u^2 / t^2), A0 = B((q+1)/2, (d-q)/2) D omega_(d-g) / (2 C0)
    with C0 = omega_m u^m / m, integrated in s = t / u over (0, delta / u),
    split at 1 and at 1 + 2^j / (4 d) for j = 0, 1, ...: past u the
    density falls within about u / d.
    """
    import mpmath as mp

    with mp.workdps(dps):
        u, s_max = mp.mpf(u), mp.mpf(delta) / mp.mpf(u)
        m = q - g
        a, b = mp.mpf(q + 1) / 2, mp.mpf(d - q) / 2
        A0 = (mp.beta(a, b) / 2 * _mp_dimension_constant(d, q, g) * _mp_omega(d - g)
              / (_mp_omega(m) * u**m / m))

        def f(s):
            return s ** (m - 1) * mp.betainc(a, b, 0, min(1, 1 / s**2), regularized=True)

        pts = [0, min(1, s_max)]
        h = mp.mpf(1) / (4 * d)
        while 1 + h < s_max:
            pts.append(1 + h)
            h *= 2
        if s_max > 1:
            pts.append(s_max)
        return float(A0 * u**m * mp.quad(f, pts))


def rho_mp_oracle(u, q, g, kappa, dps=30):
    """Critical-regime limit constant by mpmath, the inner integral as a lower
    incomplete gamma function.

    rho = P * integral over r in (0, 1) of r^(-(g+2)) gamma(a, c) / (2 c^a),
    a = (q+1)/2, c = h (1 - r^2) / r^2, h = u^2 kappa / 2, and
    P = omega_(g+1) (2 pi)^(-(g+1)/2) u^(q+1) kappa^((g+1)/2) / N with
    N = u^m times the integral of e^(h y^2) y^(m-1) over (0, 1), m = q - g.
    The r-integral is split at k/16 and at 1 - 2^-j for j = 4..39.
    """
    import mpmath as mp

    with mp.workdps(dps):
        u, kappa = mp.mpf(u), mp.mpf(kappa)
        m, a, h = q - g, mp.mpf(q + 1) / 2, u * u * kappa / 2
        N = u**m * mp.quad(lambda y: mp.exp(h * y * y) * y ** (m - 1), [0, 1])
        P = (_mp_omega(g + 1) * (2 * mp.pi) ** (-mp.mpf(g + 1) / 2)
             * u ** (q + 1) * kappa ** (mp.mpf(g + 1) / 2) / N)

        def f(r):
            c = h * (1 - r * r) / (r * r)
            if c == 0:
                return r ** (-(g + 2)) / (2 * a)
            return r ** (-(g + 2)) * mp.gammainc(a, 0, c) / (2 * c**a)

        pts = sorted({mp.mpf(k) / 16 for k in range(16)}
                     | {1 - mp.mpf(2) ** -j for j in range(4, 40)} | {mp.mpf(1)})
        return float(P * mp.quad(f, pts))


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
#   (200, 199, 1, v=8) -> 0.0006743136897731775     (0.00067431368977317756665)
#   (30, 2, 1, v=4)   -> 1.7602441924279076e-39     (1.7602441924279075941e-39)
# The last two, 2026-10: the value in parentheses is the same integrand at
# 40 digits split at v - k/d (k = 1..64) and v + h (h = 0.001..32).
P_STAR_10_9_8_V8_MPMATH = 0.0017573099289213724
P_STAR_40_39_38_V6_MPMATH = 0.02518608778412233
P_STAR_200_199_1_V8_MPMATH = 0.0006743136897731775
P_STAR_30_2_1_V4_MPMATH = 1.7602441924279076e-39
# probability_closed_form_oracle(820, 104, 75, 1.7415066928690492) at 30
# digits, 2026-10; v is sqrt(0.15301159143465998) * 4.452080227058008, a
# prob-sweep draw.  Its integrand reaches I_x(358, 38) near 1e-270, where
# scipy's betainc is off by percents.
P_STAR_820_104_75_MPMATH = 4.570332086093917e-285
# (1000, 999, 998, v=12): the mass below v sits in a layer about 1/1000
# wide.  probability_closed_form_oracle at 30 digits gives
# 0.00031013106614781824; split at v - k/1000 (k = 1..200) and v + h, the
# two halves are 1.229458277304e-05 and 2.978364833747792e-04 (sum
# 3.1013106614781e-04), and the half below v equals
# B(a, b) D omega_(d-g) / (2 C) times the mpmath radial mass (999, 1, 12).
P_STAR_1000_999_998_V12_MPMATH = 0.00031013106614781824
# conditional_mean_mp_oracle at 30 digits, 2026-10; the same to 17 digits
# at 40 digits with the quadrature also split at v - k/d (k = 1..64) and
# v + h (h = 0.001..0.5).  Keys (d, q, g, v).
COND_MEAN_MPMATH = {
    (3, 2, 1, 1.0): 0.7164044986140533,
    (10, 9, 8, 8.0): 8.18185251517835,
    (40, 39, 38, 6.0): 6.2804814200194246,
}
# atom_mass_mp_oracle at 30 digits, 2026-10; the same to 20 digits at 40
# digits, and as 1 minus the integral of the closed-form density at 50 and
# 60 digits (split at v/2, v and v (1 + 2^k) for k = -6..29).  1 - p loses
# most digits here.  Keys (d, q, g, v).
ATOM_MPMATH = {
    (20, 5, 2, 1e-4): 8.104411892273943e-12,
    (3, 2, 1, 1e-3): 1.6666666944443857e-07,
}

# euclidean_cdf_mp_oracle at 30 digits, 2026-10; the same to 16 digits at
# 40 digits, with the split ratio sqrt(2) instead of 2 (the delta = 2.2
# entry with the same split).  Keys (d, q, g, u, delta).
EUCLID_CDF_MPMATH = {
    (2, 1, 0, 1.0, 0.25): 0.15915494309189535,
    (2, 1, 0, 1.0, 5.0): 0.9361232232052524,
    (3, 2, 1, 1.0, 0.3): 0.23561944901923448,
    (3, 2, 1, 1.0, 2.0): 0.9566114774905182,
    (3, 2, 1, 1.0, 10.0): 0.998330824361109,
    (100, 50, 10, 2.0, 0.6): 8.059045130410414e-31,
    (100, 50, 10, 2.0, 4.0): 0.19610951249729217,
    (100, 50, 10, 2.0, 2.2): 3.000135004340674e-08,   # 1 - I_x(a', b) near x = 1
    (1000, 999, 1, 1.0, 1.5): 0.7459518023517755,
    (600, 300, 0, 1.0, 30.0): 0.5652165126933559,
}
# rho_mp_oracle at 30 digits, 2026-10; the same to 16 digits at 40 digits
# with the r-integral split at k/32 and 1 - 2^-j for j = 4..59 (the entry
# at kappa = 50 with the same split).  Keys (u, q, g, kappa).  The 2-d
# integral of the previous critical_constant_rho gave 0.0065107929 and
# 0.96028437 at the third and fourth.  The last two have large
# z = kappa u^2 / 2 (320 and 864; e^864 overflows a double); at 40 digits,
# with that finer split and N from mpmath's hyp1f1 instead of its quad,
# they agree to 20 digits.
RHO_MPMATH = {
    (1.0, 2, 1, 1.0): 0.8368497327356573,
    (1.5, 3, 0, 2.0): 0.09042767582461149,
    (2.0, 4, 2, 4.0): 0.006510795423060275,
    (2.0, 20, 19, 3.0): 0.96033022649109,
    (1.0, 200, 1, 1.0): 0.6095483723889904,
    (0.5, 200, 1, 1.0): 0.8835945489823468,
    (3.0, 200, 199, 50.0): 6.106478794567012e-21,   # tiny: needs a relative tolerance
    (4.0, 3, 0, 40.0): 1.0630061376620956e-138,
    (12.0, 200, 199, 12.0): 3.207838869333425e-240,
}
