"""Fixed work that does not touch the library, used to scale measured
times to one reference speed.

On a shared virtual machine the same operations ran at CPU-time speeds up
to 2.4 times apart from one minute to the next (other guests on the same
cores), so raw times of two runs compare the host as much as the library.
The benchmark times ``work()`` right before every operation and after the
last one, and reports each operation's time multiplied by
``REF_S / (mean of the probes on either side of it)``: the time the
operation would have taken at the speed where ``work()`` takes ``REF_S``.
``work()`` mixes what the library spends its time on: NumPy calls on
Gauss-Kronrod-sized arrays and scalar Python arithmetic.

Import time moved less with the host's state than ``work()`` did (about
+35% against +80%), so set-up has a probe of its own: each fresh
interpreter that times ``import hypflats`` is followed by one that times
importing SETUP_REFERENCE, the third-party modules hypflats imports, and
set-up time is ``SETUP_REF_S`` times the ratio of the two.  The reference
does not depend on the library, so a change in what hypflats imports, or
in its own module code, moves the ratio.
"""

from __future__ import annotations

import math
from time import process_time

import numpy as np

# CPU seconds of work() at the reference speed: about what it takes on an
# uncontended core of a 2-vCPU virtual machine (Python 3.11, NumPy 2.4).
REF_S = 1.5e-3
ITERATIONS = 100

SETUP_REFERENCE = ("numpy", "scipy.special", "scipy.interpolate")
# Wall seconds of importing SETUP_REFERENCE at the reference speed.
SETUP_REF_S = 0.6

_X = np.linspace(0.01, 1.5, 21)
_W = np.linspace(0.1, 1.0, 21)


def work() -> float:
    acc = 0.0
    for i in range(ITERATIONS):
        y = np.sin(_X * (1.0 + i * 1e-3))
        pos = y > 0.0
        v = 3.0 * np.log(y[pos]) + np.log(np.cos(_X[pos]))
        m = float(np.max(v))
        acc += math.exp(m) * float(_W[pos] @ np.exp(v - m))
        acc += math.fsum([math.sqrt(j + i) for j in range(20)])
    return acc


def timed() -> float:
    """CPU seconds of one work()."""
    c0 = process_time()
    work()
    return process_time() - c0

