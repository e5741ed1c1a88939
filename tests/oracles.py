"""Independent reference computations used to freeze expected test values.

Everything here deliberately avoids the library's own quadrature: the
probability oracle uses scipy's QAGS on the raw (r, z) form of the double
integral, the distance CDF oracle scipy's QUADPACK over the offset radius
(cdf_offset_radius), one critical-constant oracle is a plain midpoint Riemann sum,
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
from functools import lru_cache

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


# below this reduced distance sinh rho = rho and cosh rho = 1 to rounding
_POWER_EDGE = 2.0 ** -1000


def cdf_offset_radius(d, q, g, v, t):
    """The distance CDF F(t) at K = -1 and ball radius v, as an integral over
    the offset radius, by scipy's QUADPACK (QAGS, with break points).

    The offset radius rho of the moving flat has density w(rho) / W on
    [0, v], w = sinh^(m-1) rho cosh^(d-m) rho, m = q - g, W its integral.
    Given rho the intersection lies within t iff X / (X + Y) <= z, X and Y
    independent chi^2(d-q) and chi^2(g+1) variables and
    z = 1 - tanh^2 rho / tanh^2 t, so

        F(t) = integral over [0, top] of w(rho) I_z(b, a') d rho / W,

    top = min(v, t), b = (d-q)/2, a' = (g+1)/2.  It shares no formula with
    the closed-form density that the library integrates.  The integral runs
    on w relative to its value at top and W on w relative to its value at v
    (_offset_radius_quad), and w(top) / w(v) joins them in log space
    (_log_w_ratio), so no log near d v rounds in them and F keeps its digits
    where (top / v)^(m-1) underflows.  Below 2^-1000, where F is c t^m to
    rounding, F(t) is F(2^-1000) (t / 2^-1000)^m.
    """
    if t <= 0.0:
        return 0.0
    if t < _POWER_EDGE:
        return cdf_offset_radius(d, q, g, v, _POWER_EDGE) * (t / _POWER_EDGE) ** (q - g)
    top = min(v, t)
    return (math.exp(_log_w_ratio(d, q - g, top, v, v - top))
            * (_offset_radius_quad(d, q, g, top, t) / _offset_radius_mass(d, q, g, v)))


@lru_cache(maxsize=None)
def _offset_radius_mass(d, q, g, v):
    """W / w(v), the offset-radius law's mass relative to w at v (_offset_radius_quad)."""
    return _offset_radius_quad(d, q, g, v, None)


def _log_w_ratio(d, m, rho, top, h):
    """log w(rho) - log w(top), w = sinh^(m-1) cosh^(d-m), h = top - rho >= 0, as

        log sinh rho - log sinh top = -h + log(expm1(-2 rho) / expm1(-2 top)),
        log cosh rho - log cosh top = -h + log1p(-e^(-2 rho) expm1(-2h) / (1 + e^(-2 top))):

    ratios, not differences of two logs near log(2 top) where top is tiny,
    and the first not 1 + x either, which cancels where rho << top."""
    out = (d - m) * (math.log1p(-math.exp(-2.0 * rho) * math.expm1(-2.0 * h)
                                / (1.0 + math.exp(-2.0 * top))) - h)
    if m > 1:
        out += (m - 1) * (math.log(math.expm1(-2.0 * rho) / math.expm1(-2.0 * top)) - h)
    return out


def _offset_radius_quad(d, q, g, top, t):
    """The integral over [0, top] of w(rho) / w(top) times I_z(b, a')
    (cdf_offset_radius), top <= t, or of w(rho) / w(top) alone where t is None.

    w's ratio is _log_w_ratio's, and z = sinh(t - rho) sinh(t + rho) /
    (cosh^2 rho sinh^2 t), each sinh over sinh t as a ratio of expm1's:
    1 - (tanh rho / tanh t)^2 loses six digits near v at d = 1000.  The
    integral runs in s, rho = top - s^2, where I_z's square-root edge at
    rho = t (z^b at b = 1/2) is smooth and t - rho = (t - top) + s^2 is
    exact.  Its break points grade the panels toward the two layers that
    can hold the mass: the one about 1/lambda wide below top, lambda the
    log-slope of w there (at large d), at s = sqrt(2^k / lambda); and,
    where I_z(b, a') falls at rho of about rho0 = tanh t sqrt(a' / b) < top
    (at large b and t << v), the one above rho = 0, at rho = 2^k rho0.
    """
    from scipy.special import betainc

    m, b, a1 = q - g, 0.5 * (d - q), 0.5 * (g + 1)
    e = None if t is None else math.expm1(-2.0 * t)

    def f(s):
        s2 = s * s
        rho = max(top - s2, 0.0)
        if rho == 0.0 and m > 1:
            return 0.0
        value = 2.0 * s * math.exp(_log_w_ratio(d, m, rho, top, s2))
        if t is None:
            return value
        z = (math.expm1(-2.0 * ((t - top) + s2)) / e) * (math.expm1(-2.0 * (t + rho)) / e)
        return value * float(betainc(b, a1, z / math.cosh(rho) ** 2))

    slope = (m - 1) / math.tanh(top) + (d - m) * math.tanh(top)
    h, rho0 = 1.0 / slope, (math.inf if t is None else math.tanh(t) * math.sqrt(a1 / b))
    knots = []  # none within a factor 2 of top: QAGP fails on a panel of a few doubles
    while h < 0.5 * top:
        knots.append(math.sqrt(h))
        h *= 2.0
    while rho0 < 0.5 * top:
        knots.append(math.sqrt(top - rho0))
        rho0 *= 2.0
    return quad(f, 0.0, math.sqrt(top), points=sorted(set(knots)) or None,
                epsabs=0.0, epsrel=1e-13, limit=200)[0]


# mpmath is imported where it is used: the benchmark loads this module for
# its scipy oracles and should not pay mpmath's import and memory.


def _mp_radial_mass(d, m, rho):
    """The radial mass by mpmath's hypergeometric form (log_radial_mass_oracle).

    1 - S^2 = sech^2 rho is about 4 e^(-2 rho), so the working precision is
    raised to keep 20 of its digits; at 50 digits S^2 would round to 1 past
    rho = 58 and 2F1 would return inf.
    """
    import mpmath as mp

    with mp.workdps(max(mp.mp.dps, int(2 * float(rho) / math.log(10)) + 20)):
        S = mp.tanh(mp.mpf(rho))
        if S * S >= 1:
            raise ValueError(f"tanh^2 {rho} rounds to 1 at {mp.mp.dps} digits")
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


def moment_mp_oracle(d, q, g, v, alpha, dps=30):
    """Unconditional moment E[t^alpha] at K = -1 by mpmath: the integral of
    t^alpha f(t), f the closed-form density, over (0, inf).

    Below v it runs in y = (t/v)^k, k = m + alpha, m = q - g, where
    t^alpha f(t) dt is v^(alpha+1) / k y^((alpha+1)/k - 1) f(v y^(1/k)) dy,
    a smooth function of y: in t a moment near its divergence at
    alpha = g - q is t^(m-1+alpha) at 0, whose mass mpmath's quad misses.
    Past v it runs in t, split at v + v 2^j for j = -8, -7, ... below 1024,
    the density's layer past v being about v (d-q) / (2 (d+1)) wide at
    small v.  Each part is taken relative to its integrand at v.
    """
    import mpmath as mp

    with mp.workdps(dps):
        v, alpha = mp.mpf(v), mp.mpf(alpha)
        k = q - g + alpha
        f = _mp_density(d, q, g, v)
        peak = f(v)
        below = mp.quad(lambda y: y ** ((alpha + 1) / k - 1) * f(v * y ** (1 / k)) / peak,
                        [0, 1]) * v ** (alpha + 1) / k
        pts = [v] + [v + v * mp.mpf(2) ** j for j in range(-8, 64) if v * 2**j < 1024] + [mp.inf]
        past = mp.quad(lambda t: (t / v) ** alpha * f(t) / peak, pts) * v**alpha
        return float((below + past) * peak)


def _mp_offset_radius_integral(d, q, g, v, hit, dps, layer, start=0):
    """P(the flats meet) if hit, else P(they miss), at K = -1 by mpmath, over the offset radius.

    The offset radius rho of the moving flat has density proportional to
    sinh^(m-1) rho cosh^(d-m) rho on [0, v], m = q - g; given rho the flats
    meet with probability I_x((d-q)/2, (g+1)/2), x = sech^2 rho, and miss
    with probability I_y((g+1)/2, (d-q)/2), y = tanh^2 rho.  Split at v/2
    and at v - 10^-k for k = 1..layer: the mass can sit within about 1/d
    of v; split points below start are dropped.  A start above 0 integrates
    over [start, v] only, for an integrand negligible below start whose I_x
    mpmath cannot sum there.  The integrand is taken relative to its value
    at v: at small v it lies near v^(m-1), 1e-5988 at (1000, 999, 0,
    v=1e-6), far below quad's absolute epsilon, which stopped it 1.2% off
    there at any precision.
    """
    import mpmath as mp

    with mp.workdps(dps):
        v = mp.mpf(v)
        m = q - g
        a1, b = mp.mpf(g + 1) / 2, mp.mpf(d - q) / 2

        def f(r):
            if hit:
                i = mp.betainc(b, a1, 0, 1 / mp.cosh(r) ** 2, regularized=True)
            else:
                i = mp.betainc(a1, b, 0, mp.tanh(r) ** 2, regularized=True)
            return mp.sinh(r) ** (m - 1) * mp.cosh(r) ** (d - m) * i

        scale = f(v)
        start = mp.mpf(start)
        pts = {v / 2, v} | {v - mp.mpf(10) ** -k for k in range(1, layer + 1)}
        pts = sorted({start} | {x for x in pts if x > start})
        return float(mp.quad(lambda r: f(r) / scale, pts) * scale / _mp_radial_mass(d, m, v))


def atom_mass_mp_oracle(d, q, g, v, dps=30, layer=0):
    """Probability at K = -1 that the flats miss, by mpmath, over the offset radius
    (_mp_offset_radius_integral).  At small v the integrand is about rho^q, so
    no layer needs a split."""
    return _mp_offset_radius_integral(d, q, g, v, False, dps, layer)


def probability_offset_mp_oracle(d, q, g, v, dps=30, layer=0, start=0):
    """Probability at K = -1 that the flats meet, by mpmath, over the offset
    radius (_mp_offset_radius_integral); shares nothing with the density."""
    return _mp_offset_radius_integral(d, q, g, v, True, dps, layer, start)


def euclidean_cdf_mp_oracle(d, q, g, u, delta, dps=30):
    """Flat-space P(intersection distance <= delta) with ball radius u, by mpmath.

    The K = 0 density A0 t^(m-1) I_x((q+1)/2, (d-q)/2), m = q - g,
    x = min(1, u^2 / t^2), A0 = B((q+1)/2, (d-q)/2) D omega_(d-g) / (2 C0)
    with C0 = omega_m u^m / m, integrated in s = t / u over (0, delta / u).
    Below s1 = min(1, delta / u) the integrand is s^(m-1), whose mass lies
    within about s1 / m of s1, so that part is split at s1 (1 - 2^j / (4 d))
    for j = 0, 1, ...; past u the density falls within about u / d, and that
    part is split at 1 and at 1 + 2^j / (4 d).  The integrand is taken
    relative to s1^(m-1): s^334 over [0, 1/2] at (1000, 506, 171), 1e-104,
    lies below quad's absolute epsilon, which stopped it 0.14% high there.
    """
    import mpmath as mp

    with mp.workdps(dps):
        u, s_max = mp.mpf(u), mp.mpf(delta) / mp.mpf(u)
        m = q - g
        a, b = mp.mpf(q + 1) / 2, mp.mpf(d - q) / 2
        A0 = (mp.beta(a, b) / 2 * _mp_dimension_constant(d, q, g) * _mp_omega(d - g)
              / (_mp_omega(m) * u**m / m))
        s1 = min(1, s_max)
        scale = s1 ** (m - 1)

        def f(s):
            return s ** (m - 1) / scale * mp.betainc(a, b, 0, min(1, 1 / s**2), regularized=True)

        pts = [0, s1]
        h = mp.mpf(1) / (4 * d)
        while h < 1:
            pts.append(s1 * (1 - h))
            h *= 2
        h = mp.mpf(1) / (4 * d)
        while 1 + h < s_max:
            pts.append(1 + h)
            h *= 2
        if s_max > 1:
            pts.append(s_max)
        return float(A0 * u**m * scale * mp.quad(f, sorted(pts)))


def rho_mp_oracle(u, q, g, kappa, dps=30):
    """Critical-regime limit constant by mpmath, the inner integral as a lower
    incomplete gamma function.

    rho = P * integral over r in (0, 1) of r^(-(g+2)) gamma(a, c) / (2 c^a),
    a = (q+1)/2, c = h (1 - r^2) / r^2, h = u^2 kappa / 2, and
    P = omega_(g+1) (2 pi)^(-(g+1)/2) u^(q+1) kappa^((g+1)/2) / N with
    N = u^m times the integral of e^(h y^2) y^(m-1) over (0, 1), m = q - g.
    The r-integral is split at k/16, at 1 - 2^-j for j = 4..39 and at
    r* 4^k below 1 for the integers k >= -4, and runs in x = r / r*, relative
    to its integrand at r*: there, at r* = sqrt(h / (h + a)),
    gamma(a, c) / c^a turns over, and at small u the mass lies within a few
    r* of 0, far below 1/16, over panels whose widths in r lie below quad's
    absolute epsilon.
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
            if c <= 0:  # at r = 1, or just past it where r* x rounds up
                return r ** (-(g + 2)) / (2 * a)
            return r ** (-(g + 2)) * mp.gammainc(a, 0, c) / (2 * c**a)

        # r = r* x: the integrand at r* and the width r* leave it of order one
        r_star = mp.sqrt(h / (h + a))
        peak = f(r_star)
        pts = sorted({mp.mpf(k) / 16 / r_star for k in range(16)}
                     | {(1 - mp.mpf(2) ** -j) / r_star for j in range(4, 40)} | {1 / r_star}
                     | {mp.mpf(4) ** k for k in range(-4, 1 - int(mp.floor(mp.log(r_star, 4))))
                        if r_star * mp.mpf(4) ** k < 1})
        return float(P * peak * r_star * mp.quad(lambda x: f(r_star * x) / peak, pts))


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
# v + h (h = 0.001..0.5).  At (600, 300, 0, v=4) p is e^-994.54, below the
# smallest double, and the conditional law is well defined.  The
# (533, 512, 509, 3.04e-5) entry is conditional_mean_mp_oracle(533, 512,
# 509, 3.04e-5) at dps=30, 2026-10-20, the same in every digit at dps=40;
# it and the (600, 300, 0, 4.0) one, which that call at dps=30 reproduces
# bit for bit on that date, take 0.9 s and 7.8 s to recompute.  Keys
# (d, q, g, v).
COND_MEAN_MPMATH = {
    (3, 2, 1, 1.0): 0.7164044986140533,
    (10, 9, 8, 8.0): 8.18185251517835,
    (40, 39, 38, 6.0): 6.2804814200194246,
    (600, 300, 0, 4.0): 6.7919147551653145,
    (1000, 999, 998, 12.0): 12.305850807038588,
    (533, 512, 509, 3.04e-5): 2.326603352413793e-05,
}
# moment_mp_oracle at 30 and at 40 digits, 2026-10, equal in every digit
# shown: unconditional moments near their divergence at alpha = gamma - q,
# where the integrand below v is t^(m-1+alpha), m + alpha = 0.01 or 0.001,
# and one of order -1/2.  The (3, 2, 1, 1e-4) entry is within 3.3e-9 of the
# flat limit m/(alpha+m) B(a' - alpha/2, b) / B(a', b) v^alpha.  Keys
# (d, q, g, v, alpha).
MOMENT_NEAR_DIVERGENCE_MPMATH = {
    (3, 2, 1, 1.0, -0.99): 56.11722616989026,
    (3, 2, 1, 1.0, -0.999): 558.6062172464884,
    (3, 2, 1, 1e-4, -0.99): 717679.0766833264,
    (12, 8, 1, 1.0, -6.99): 4.2710818277736236,
    (7, 4, 0, 2.0, -3.99): 0.0306037372718519,
    (30, 3, 1, 0.548, -1.99): 3.2324293101104415,
    (533, 512, 509, 3.04e-5, -2.99): 9060562058785602.0,
    (3, 2, 1, 1.0, -0.5): 1.3909339156791476,
    # steep rows, whose density falls fast below v: moment_mp_oracle at 30
    # and at 40 digits, 2026-10-20, equal in every digit shown
    (40, 39, 38, 6.0, -0.9999): 0.004026659698573204,
    (200, 199, 198, 8.0, -0.999): 0.0009171063409538565,
    (1000, 999, 998, 3.0, -0.999): 0.3269768956269786,
    (1000, 999, 998, 12.0, -0.99): 2.587005692330445e-05,
    (1000, 999, 998, 12.0, -0.999): 2.529254831495354e-05,
}
# At d = 1000 and 200 with large v, where a log near d v once rounded in the
# density (ROADMAP item 1), 2026-10:
#   log_density_oracle at 50 and at 70 digits, equal in every digit shown,
#   at t = v - 1e-2, v - 1e-3, v, v + 1e-3, v + 0.1 and v + 1.  At
#   (600, 300, 0, v=4) the density is e^-1193 to e^-1012 there, below the
#   smallest normal double, so it has no entry.  Keys (d, q, g, v, t).
#   F(v) at (1000, 999, 998, v=12): B(a, b) D omega_(d-g) / (2 C) times the
#   mpmath radial mass (999, 1, 12), the density's integral over [0, v] at
#   m = 1, at 40 and at 60 digits: 1.229458277303906746977068e-05 both.
#   moment_mp_oracle at 30 and at 40 digits, equal in every digit shown:
#   unconditional moments with m + alpha = 1/2.  Keys (d, q, g, v, alpha).
LOG_DENSITY_LARGE_D_MPMATH = {
    (1000, 999, 998, 12.0, 11.99): -14.380598540560507,
    (1000, 999, 998, 12.0, 11.999): -5.3985985412458435,
    (1000, 999, 998, 12.0, 12.0): -4.400598541321823,
    (1000, 999, 998, 12.0, 12.001): -5.251544554769094,
    (1000, 999, 998, 12.0, 12.1): -7.431089698717394,
    (1000, 999, 998, 12.0, 13.0): -10.007967014130402,
    (1000, 2, 1, 1.0, 0.99): -429.51501420208666,
    (1000, 2, 1, 1.0, 0.999): -429.50818075018145,
    (1000, 2, 1, 1.0, 1.0): -429.50741936611934,
    (1000, 2, 1, 1.0, 1.001): -429.5066575620828,
    (1000, 2, 1, 1.0, 1.1): -429.4292640573936,
    (1000, 2, 1, 1.0, 2.0): -428.61619744924445,
    (200, 199, 1, 8.0, 7.99): -6.415665665881656,
    (200, 199, 1, 8.0, 7.999): -4.63366526446083,
    (200, 199, 1, 8.0, 8.0): -4.435665220302827,
    (200, 199, 1, 8.0, 8.001): -4.877071856444367,
    (200, 199, 1, 8.0, 8.1): -6.679219999886358,
    (200, 199, 1, 8.0, 9.0): -9.239932288406786,
}
CDF_AT_V_1000_999_998_V12_MPMATH = 1.2294582773039068e-05
# F(t) far below v, where I_z(b, a') confines cdf_offset_radius's integrand
# to rho below about t sqrt(a'/b) (or a layer next to top), 2026-10: the
# density's constant A of _mp_density times the mpmath radial mass
# R_q(q - g, t), and mpmath's quad of sinh^(q-g-1) cosh^g over [0, t], at 40
# and at 60 digits, all equal in every digit shown.  Keys (d, q, g, v, t).
CDF_FAR_BELOW_V_MPMATH = {
    (1000, 2, 0, 1.0, 7.197e-10): 1.633204607868782e-207,
    (533, 512, 509, 3.04e-5, 7.308e-9): 1.3077161202385595e-11,
}
MOMENT_LARGE_D_MPMATH = {
    (1000, 999, 998, 12.0, -0.5): 8.84438867355182e-05,
    (200, 199, 1, 8.0, -197.5): 8.241916190692564e-183,
}
# atom_mass_mp_oracle at 30 digits, 2026-10; the same to 20 digits at 40
# digits, and as 1 minus the integral of the closed-form density at 50 and
# 60 digits (split at v/2, v and v (1 + 2^k) for k = -6..29).  1 - p loses
# most digits here.  Keys (d, q, g, v).
ATOM_MPMATH = {
    (20, 5, 2, 1e-4): 8.104411892273943e-12,
    (3, 2, 1, 1e-3): 1.6666666944443857e-07,
}
# atom_mass_mp_oracle at 40 digits with layer=10, 2026-10: the atom near 1,
# where the miss probability given rho is 1 - I_x(b, a') with x = sech^2 rho
# down to 1.5e-10 (v = 12) and 1.7e-17 (v = 20).  1 - probability_offset_mp_oracle
# at 30 digits with layer=6 gives the same four values; atom_mass_mp_oracle at
# 30 digits with layer=6 gives the first three and is 2.3e-14 off the last.
# Keys (d, q, g, v).
ATOM_NEAR_ONE_MPMATH = {
    (1000, 999, 998, 12.0): 0.9996898689338521,
    (600, 599, 598, 12.0): 0.9997597330367753,
    (40, 39, 38, 12.0): 0.9999375595601627,
    (10, 9, 8, 20.0): 0.9999999892027059,
}
# probability_offset_mp_oracle and atom_mass_mp_oracle at 30 digits,
# 2026-10-21, the same in every digit shown at 40 digits: (p, atom) on rows
# where p's first panels miss the default tolerance, so that its integral
# refines.  The atom at (114, 3, 0) and (1000, 2, 0) is 1 to double
# precision.  Keys (d, q, g, v).
P_REFINED_MPMATH = {
    (5, 2, 0, 2.5): (0.006600256843227635, 0.9933997431567724),
    (7, 1, 0, 4.5): (1.2203166256270111e-09, 0.9999999987796834),
    (114, 3, 0, 5.5): (8.073732188594773e-232, 1.0),
    (183, 6, 4, 0.625): (9.702746656379219e-12, 0.9999999999902972),
    (1000, 2, 0, 1.0): (1.8077296352539024e-187, 1.0),
}
# probability_offset_mp_oracle at 30 digits with layer=8 and at 40 digits with
# layer=12, 2026-10, equal in every digit shown; past the documented d of
# about 10^3.  The v = 300 and v = 20 entries at layer=3 and layer=4, the
# same at layer=5 and 6 with 40 digits.  At (10^5, 99999, 99998, v=12) the
# oracle does not converge, so that point has no entry.  Keys (d, q, g, v).
P_PAST_THE_DOMAIN_MPMATH = {
    (3000, 2999, 2998, 12.0): 0.0005370727384599367,
    (10000, 9999, 9998, 12.0): 0.0009804987101971632,
    (1000, 999, 998, 300.0): 2.5985704466372187e-129,
    (10000, 9999, 9998, 20.0): 3.289207567632172e-07,
}
# (10^5, 99999, 99998, v=12): probability_offset_mp_oracle with start=11.995
# and layer=11, at 30 and at 40 digits, 2026-10, equal in every digit shown.
# Below rho = 11.995 the integrand is below e^-500 of its value at v (it
# falls like cosh^gamma rho), and there mpmath's 2F1 for I_x(1/2, 49999.5)
# does not converge, so the oracle without start fails.
P_1E5_V12_MPMATH = 0.003100532350501337
# The log-rounding floor at d = 1000, v = 12 (ROADMAP item 1's first table):
# probability_offset_mp_oracle and atom_mass_mp_oracle at 30 digits with
# layer=10, and at 40 digits with layer=12, 2026-10, equal in every digit
# shown.  The atom at (1000, 500, 499) is 1 to double precision.  Keys
# (kind, d, q, g, v).
AT_THE_LOG_FLOOR_MPMATH = {
    ("p", 1000, 999, 998, 12.0): 0.00031013106614781824,
    ("atom", 1000, 500, 499, 12.0): 1.0,
    ("atom", 1000, 999, 0, 12.0): 0.999992169107129,
}
# Near rho = 0 at gamma = 0, where I_x(b, 1/2) is 1 - O(sqrt(1 - x)) and
# x = sech^2 rho rounds: probability_offset_mp_oracle at 50 and at 60
# digits (layer=0), 2026-10, equal in every digit shown; at 30 digits the
# atom at (30, 4, 0) is 1.3e-10 off.  Keys (d, q, g, v).
P_GAMMA_0_SMALL_V_MPMATH = {
    (30, 4, 0, 2e-6): 0.9999935527896882,
    (600, 3, 0, 1e-5): 0.9998538473739353,
    (3, 1, 0, 2e-6): 0.999999,
}
# log_radial_mass_oracle(1000, m, 300.0, dps=300) for m = 1 and m = 999: at
# 50 digits tanh^2 300 rounded to 1 and 2F1 returned inf.
LOG_RADIAL_MASS_1000_V300_MPMATH = 299000.639211842

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

# Values below the smallest normal double (2.2e-308), by rho_mp_oracle and
# probability_closed_form_oracle at their default precision; as doubles
# they are subnormal, so they carry fewer than 16 significant digits.
RHO_SUBNORMAL_MPMATH = {
    (6.0, 400, 1, 40.0): 9.35861621656e-313,
    (10.0, 150, 10, 15.0): 3.4823753164e-314,
}
P_600_300_0_V3_1_MPMATH = 1.305417157e-315
