"""NumPy implementation of the hot integrand kernel.

The curvature factor 1 + K r^2 sin^2(theta) is evaluated as
(1-g)(1+g) + (g cos(theta))^2 with g = sqrt(-K) r: near the Klein-ball
boundary the naive form cancels to ~1e-10 and keeps only half the digits,
which caps quadrature accuracy at ~1e-6; the factored form is exact there
(1 - g is computed without rounding for g in [0.5, 1]).
"""

import numpy as np


def log_kernel_theta(d, q, K, r, theta):
    """Log of sin^q(t) cos^(d-q-1)(t) (1+K r^2 sin^2 t)^(-(d+1)/2), elementwise.

    This is the radial-angular integrand z^q (1-z^2)^((d-q)/2-1)
    (1+K r^2 z^2)^(-(d+1)/2) after the substitution z = sin(t), Jacobian
    included, which removes its z = 1 endpoint singularity.  Angles with
    sin(t) = 0 map to -inf.  Stable for dimensions d up to ~1e4.
    """
    theta = np.asarray(theta, dtype=float)
    s = np.sin(theta)
    out = np.full(theta.shape, -np.inf)
    pos = s > 0.0
    sp = s[pos]
    c = np.cos(theta[pos])
    val = q * np.log(sp)
    e = d - q - 1.0
    if e != 0.0:
        val = val + e * np.log(c)
    if K != 0.0:
        g = np.sqrt(-K) * r
        curv = (1.0 - g) * (1.0 + g) + (g * c) ** 2
        val = val - 0.5 * (d + 1) * np.log(curv)
    out[pos] = val
    return out
