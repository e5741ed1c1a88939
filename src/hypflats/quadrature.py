"""Adaptive one- and two-dimensional quadrature with log-space integrands.

The base rule is a nested Gauss-Kronrod 7/15 pair with bisection of the
worst panel; _gk_panels applies it to many independent panels with one
call of the integrand.  A panel at an end of the interval that keeps
stagnating (typically because that endpoint carries an integrable power
singularity)
is finished off by geometric bisection toward the endpoint with the tail
summed in closed form.  Integrands may be supplied in log form; panel
sums are then exponentiated with a per-panel max shift so that kernels
which underflow pointwise still integrate correctly.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, QuadratureError

__all__ = [
    "Tolerance",
    "QuadResult",
    "integrate_adaptive",
    "integrate_iterated_2d",
    "DEFAULT_TOLERANCE",
]


@dataclass(frozen=True)
class Tolerance:
    """Convergence targets of an adaptive integral: an error estimate of at most
    max(abs_tol, rel_tol |value|), within max_subdivisions panels.

    The functions of hypflats.analytic use only rel_tol and max_subdivisions:
    an absolute floor would accept a first panel that misses a thin layer of
    mass, so they replace abs_tol by 1e-300.  abs_tol applies where
    integrate_adaptive or integrate_iterated_2d is called directly.
    """

    rel_tol: float = 1e-9
    abs_tol: float = 1e-12
    max_subdivisions: int = 2000

    def __post_init__(self):
        if not (0 < self.rel_tol < math.inf and 0 < self.abs_tol < math.inf):
            raise DomainError("tolerances must be positive and finite")
        if self.max_subdivisions < 1:
            raise DomainError("max_subdivisions must be >= 1")

    def target(self, value: float) -> float:
        return max(self.abs_tol, self.rel_tol * abs(value))


DEFAULT_TOLERANCE = Tolerance()


@dataclass(frozen=True)
class QuadResult:
    value: float
    error_estimate: float
    evaluations: int
    converged: bool

    def __post_init__(self):
        if self.error_estimate < 0:
            raise DomainError("error_estimate must be >= 0")


# Kronrod-15 abscissae on [-1, 1] and the nested Gauss-7 / Kronrod-15 weights.
_XK = np.array(
    [
        -0.991455371120813, -0.949107912342759, -0.864864423359769,
        -0.741531185599394, -0.586087235467691, -0.405845151377397,
        -0.207784955007898, 0.0, 0.207784955007898, 0.405845151377397,
        0.586087235467691, 0.741531185599394, 0.864864423359769,
        0.949107912342759, 0.991455371120813,
    ]
)
_WK = np.array(
    [
        0.022935322010529, 0.063092092629979, 0.104790010322250,
        0.140653259715525, 0.169004726639267, 0.190350578064785,
        0.204432940075298, 0.209482141084728, 0.204432940075298,
        0.190350578064785, 0.169004726639267, 0.140653259715525,
        0.104790010322250, 0.063092092629979, 0.022935322010529,
    ]
)
_WG = np.array(
    [
        0.0, 0.129484966168870, 0.0, 0.279705391489277, 0.0,
        0.381830050505119, 0.0, 0.417959183673469, 0.0,
        0.381830050505119, 0.0, 0.279705391489277, 0.0,
        0.129484966168870, 0.0,
    ]
)

# Bisection depth at which a panel touching an original endpoint is handed
# to _endpoint_tail_panel.
_ENDPOINT_TAIL_DEPTH = 12
# largest log of a panel's scale factor: e^709 is within a factor 2.2 of
# the largest double
_MAX_LOG_SCALE = 709.0


def _exp_scale(log_scale, a, b):
    """exp(log_scale), or QuadratureError where it would overflow a double."""
    if log_scale > _MAX_LOG_SCALE:
        raise QuadratureError(
            f"log-integrand reaches {log_scale:.6g} on [{a}, {b}]; "
            f"its exponential overflows a double"
        )
    return math.exp(log_scale)


def _gk_panel(f, a, b, log_form, log_offset):
    """One Gauss-Kronrod 7/15 evaluation on [a, b].

    Returns (value, error, n_evals).  In log form the 15 node values are
    exponentiated after subtracting their maximum, so panels whose values
    underflow in direct form are still summed accurately.
    """
    h = 0.5 * (b - a)
    x = 0.5 * (a + b) + h * _XK
    y = np.asarray(f(x), dtype=float)
    if log_form:
        m = float(np.max(y))
        if m == -math.inf:
            return 0.0, 0.0, 15
        if not math.isfinite(m):
            raise QuadratureError(f"non-finite log-integrand on [{a}, {b}]")
        scale = _exp_scale(m + log_offset, a, b)
        vals = np.exp(y - m)
    else:
        if not np.all(np.isfinite(y)):
            raise QuadratureError(f"non-finite integrand value on [{a}, {b}]")
        scale = 1.0
        vals = y
    k15 = h * scale * float(_WK @ vals)
    g7 = h * scale * float(_WG @ vals)
    raw = abs(k15 - g7)
    # QUADPACK-style sharpening of the raw Gauss/Kronrod difference
    mean = float(_WK @ vals) / 2.0
    resasc = h * scale * float(_WK @ np.abs(vals - mean))
    if resasc > 0.0 and raw > 0.0:
        err = resasc * min(1.0, (200.0 * raw / resasc) ** 1.5)
    else:
        err = raw
    return k15, err, 15


def _check_log_panels(m, log_scale, a, b):
    """Raise the QuadratureError that _gk_panel raises on the first panel it rejects."""
    bad = np.isnan(m) | (m == math.inf)
    if bad.any():
        i = int(np.argmax(bad))
        raise QuadratureError(f"non-finite log-integrand on [{a[i]}, {b[i]}]")
    i = int(np.argmax(log_scale > _MAX_LOG_SCALE))
    _exp_scale(log_scale[i], a[i], b[i])


def _gk_panels(f, a, b, log_form, log_offset):
    """_gk_panel on the n panels [a[i], b[i]] at once, with one call of f.

    a and b are 1-d float arrays; f receives all 15 n nodes as one flat
    array.  Returns the arrays (values, errors, nodes, scale), with the
    checks of _gk_panel on every panel: nodes[i] are panel i's 15 node
    values at _XK, normalised (in log form divided by their largest), and
    scale[i] its half-width times that normaliser, so that
    values = scale * (nodes @ _WK) and any integral over part of the panel
    is scale times that of the interpolant through nodes on [-1, 1].  Its
    NumPy calls on (n, 15) arrays cost about 2.5 times _gk_panel's scalar
    arithmetic at n = 1, so the adaptive loop, which bisects one panel at a
    time, keeps _gk_panel.
    """
    if not a.size:
        return a, a, np.empty((0, 15)), a
    h = 0.5 * (b - a)
    x = (0.5 * (a + b))[:, None] + h[:, None] * _XK
    y = np.asarray(f(x.ravel()), dtype=float).reshape(x.shape)
    if log_form:
        m = y.max(axis=1)
        log_scale = m + log_offset
        # one test for the common case: no empty, non-finite or overflowing panel
        if not (m.min() > -math.inf and log_scale.max() <= _MAX_LOG_SCALE):
            _check_log_panels(m, log_scale, a, b)
            m[m == -math.inf] = 0.0  # an empty panel's nodes and scale are then 0
        vals = np.exp(y - m[:, None])
        scale = h * np.exp(log_scale)
    else:
        if not np.isfinite(y).all():
            i = int(np.argmax(~np.isfinite(y).all(axis=1)))
            raise QuadratureError(f"non-finite integrand value on [{a[i]}, {b[i]}]")
        scale = h
        vals = y
    kv = vals @ _WK
    k15 = scale * kv
    raw = np.abs(k15 - scale * (vals @ _WG))
    # QUADPACK-style sharpening of the raw Gauss/Kronrod difference
    resasc = scale * (np.abs(vals - 0.5 * kv[:, None]) @ _WK)
    pos = resasc > 0.0
    ratio = np.divide(raw, resasc, out=np.zeros_like(raw), where=pos)
    err = np.where(pos, resasc * np.minimum(1.0, (200.0 * ratio) ** 1.5), raw)
    return k15, err, vals, scale


def _endpoint_tail_panel(f, a, b, at_left, target, log_form, log_offset):
    """Finish a panel with an integrable power singularity at one endpoint.

    Bisects geometrically toward the singular endpoint.  The slab integrals
    of a (x - endpoint)^(-alpha) singularity form a geometric series, so
    once the slab ratio stabilizes the remaining tail is summed in closed
    form.  This captures mass closer to the endpoint than machine epsilon,
    which no node-sampling rule can reach.
    """
    total = 0.0
    total_err = 0.0
    evals = 0
    prev = None
    est_prev = None
    tail = 0.0
    tail_err = math.inf
    lo, hi = a, b
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        if mid <= lo or mid >= hi:
            break
        if at_left:
            s, e, n = _gk_panel(f, mid, hi, log_form, log_offset)
            lo, hi = lo, mid
        else:
            s, e, n = _gk_panel(f, lo, mid, log_form, log_offset)
            lo, hi = mid, hi
        total += s
        total_err += e
        evals += n
        if prev is not None and prev != 0.0:
            ratio = s / prev
            if 0.0 < ratio < 0.97:
                tail = s * ratio / (1.0 - ratio)
                est = total + tail
                if est_prev is not None:
                    tail_err = abs(est - est_prev)
                    if tail_err <= target:
                        return est, tail_err + total_err, evals
                est_prev = est
        prev = s
    return total + tail, (tail_err if math.isfinite(tail_err) else abs(tail)) + total_err, evals


def integrate_adaptive(f, a, b, tol: Tolerance = DEFAULT_TOLERANCE, *,
                       log_form=False, log_offset=0.0, break_points=()):
    """Adaptively integrate f over [a, b].

    f must accept a 1-d NumPy array of interior nodes and return the
    (log-)values elementwise; endpoints are never evaluated.  break_points
    are interior abscissae (e.g. kinks) used as initial panel boundaries.

    Raises QuadratureError with the partial result attached when the
    subdivision budget is exhausted.
    """
    if not (math.isfinite(a) and math.isfinite(b)) or a > b:
        raise DomainError(f"invalid interval [{a}, {b}]")

    pts = sorted({a, b, *(p for p in break_points if a < p < b)})
    heap = []
    counter = 0
    evals = 0
    final_value = 0.0  # panels finished by _endpoint_tail_panel or unsplittable
    final_err = 0.0
    total = 0.0
    total_err = 0.0
    for lo, hi in zip(pts[:-1], pts[1:]):
        v, e, n = _gk_panel(f, lo, hi, log_form, log_offset)
        heapq.heappush(heap, (-e, counter, lo, hi, v, e, 0))
        counter += 1
        evals += n
        total += v
        total_err += e
    nsub = len(heap)

    def _result(converged):
        # re-sum in deterministic order to shed accumulated cancellation
        value = final_value + math.fsum(item[4] for item in heap)
        err = final_err + math.fsum(item[5] for item in heap)
        return QuadResult(value, err, evals, converged)

    while True:
        if total_err + final_err <= tol.target(total + final_value):
            return _result(True)
        if not heap:
            res = _result(False)
            raise QuadratureError(
                "every panel finished without convergence", partial=res
            )
        if nsub >= tol.max_subdivisions:
            res = _result(False)
            raise QuadratureError(
                f"exceeded {tol.max_subdivisions} subdivisions", partial=res
            )
        _, _, lo, hi, v, e, depth = heapq.heappop(heap)
        total -= v
        total_err -= e
        if depth >= _ENDPOINT_TAIL_DEPTH and (lo == a or hi == b):
            target = 0.25 * tol.target(total + final_value + v)
            tv, te, n = _endpoint_tail_panel(
                f, lo, hi, lo == a, target, log_form, log_offset
            )
            evals += n
            final_value += tv
            final_err += te
            continue
        mid = 0.5 * (lo + hi)
        if mid <= lo or mid >= hi:  # interval no longer splittable in doubles
            final_value += v
            final_err += e
            continue
        for plo, phi in ((lo, mid), (mid, hi)):
            pv, pe, n = _gk_panel(f, plo, phi, log_form, log_offset)
            heapq.heappush(heap, (-pe, counter, plo, phi, pv, pe, depth + 1))
            counter += 1
            evals += n
            total += pv
            total_err += pe
        nsub += 1


def integrate_iterated_2d(g, a, b, inner_upper, tol: Tolerance = DEFAULT_TOLERANCE, *,
                          log_form=False, log_offset=0.0, outer_break_points=(),
                          inner_break_points=None):
    """Iterated integral of g(r, z) over r in [a, b], z in [0, inner_upper(r)].

    The inner integral runs at tolerance tol/50 so the iterated error stays
    dominated by the outer rule.  inner_break_points, if given, maps r to a
    sequence of interior inner abscissae.
    """
    inner_tol = Tolerance(
        rel_tol=tol.rel_tol / 50.0,
        abs_tol=tol.abs_tol / 50.0,
        max_subdivisions=tol.max_subdivisions,
    )
    inner_evals = 0
    inner_err_max = 0.0

    def outer_f(rs):
        nonlocal inner_evals, inner_err_max
        out = np.empty(rs.shape)
        for i, r in enumerate(rs):
            zu = inner_upper(r)
            if zu <= 0.0:
                out[i] = 0.0
                continue
            bp = inner_break_points(r) if inner_break_points is not None else ()
            try:
                res = integrate_adaptive(
                    lambda z: g(r, z), 0.0, zu, inner_tol,
                    log_form=log_form, log_offset=log_offset, break_points=bp,
                )
            except QuadratureError as exc:
                raise QuadratureError(
                    f"inner integral failed at r={r}: {exc}", partial=exc.partial
                ) from exc
            inner_evals += res.evaluations
            inner_err_max = max(inner_err_max, res.error_estimate)
            out[i] = res.value
        return out

    outer = integrate_adaptive(
        outer_f, a, b, tol, break_points=outer_break_points
    )
    return QuadResult(
        outer.value,
        outer.error_estimate + inner_err_max * (b - a),
        outer.evaluations + inner_evals,
        outer.converged,
    )

