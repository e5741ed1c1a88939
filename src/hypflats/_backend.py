"""NumPy implementation of the hot integrand kernels.

The curvature factor 1 + K r^2 z^2 is evaluated as (1-g)(1+g) + g^2 (1-z^2)
with g = sqrt(-K) r: near the Klein-ball boundary the naive form cancels to
~1e-10 and keeps only half the digits, which caps quadrature accuracy at
~1e-6; the factored form is exact there (1 - g is computed without
rounding for g in [0.5, 1]).
"""

import numpy as np


def log_kernel(d, q, K, r, z):
    """Log of z^q (1-z^2)^((d-q)/2-1) (1+K r^2 z^2)^(-(d+1)/2), elementwise.

    z entries equal to 0 map to -inf.  Stable for dimensions d up to ~1e4.
    """
    z = np.asarray(z, dtype=float)
    out = np.full(z.shape, -np.inf)
    pos = z > 0.0
    zp = z[pos]
    one_minus_z2 = (1.0 - zp) * (1.0 + zp)
    val = q * np.log(zp)
    e = 0.5 * (d - q) - 1.0
    if e != 0.0:
        val = val + e * np.log(one_minus_z2)
    if K != 0.0:
        g = np.sqrt(-K) * r
        curv = (1.0 - g) * (1.0 + g) + g * g * one_minus_z2
        val = val - 0.5 * (d + 1) * np.log(curv)
    out[pos] = val
    return out


def log_kernel_theta(d, q, K, r, theta):
    """Same kernel after the substitution z = sin(theta), Jacobian included.

    log of sin^q(t) cos^(d-q-1)(t) (1+K r^2 sin^2 t)^(-(d+1)/2).  The
    substitution removes the z = 1 endpoint singularity of the z-form.
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
