"""Adaptive one- and two-dimensional quadrature with log-space integrands.

The base rule is a nested Gauss-Kronrod 7/15 pair with bisection of the
worst panel.  It comes in two forms with one convention, a panel's value
and error relative to exp(log_scale): _gk_panel on one panel, and
_gk_panels on many independent panels with one call of the integrand.
integrate_adaptive evaluates all its first panels (one per pair of
neighbouring break points) with one _gk_panels call (_gk_panel where there
is one), so an integral whose break points already resolve it costs one
call of its integrand, and then bisects one panel at a time with
_gk_panel.  That plain bisection is all it does: its error estimate meets
the tolerance or QuadratureError is raised with the partial result, and
no node lies on an end of the interval, so a singularity the rule cannot
resolve in doubles (a power x^-0.99 at an end, say) raises rather than
returns a sum that misses its mass.  Integrands may be supplied in log
form: each panel is then summed relative to its own scale, the sums are
kept relative to the largest scale, and only the result leaves log space,
so integrands that underflow or overflow pointwise still integrate
correctly and a result below the smallest double keeps its log.
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

    abs_tol applies to integrands in direct form only.  A log-form integral
    (integrate_adaptive(log_form=True)) converges on rel_tol alone: its
    value may lie anywhere in the range of a double or below it, and an
    absolute floor would accept a first panel that misses a thin layer of
    mass.  The functions of hypflats.analytic integrate in log form, so
    rel_tol and max_subdivisions decide for them.
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
    """An integral's value and error estimate.  log_value is log(value) unless
    given: a log-form integral (integrate_adaptive) gives it, finite where
    value underflows to 0."""

    value: float
    error_estimate: float
    evaluations: int
    converged: bool
    log_value: float | None = None

    def __post_init__(self):
        if self.error_estimate < 0:
            raise DomainError("error_estimate must be >= 0")
        if self.log_value is None:
            v = self.value
            object.__setattr__(self, "log_value", math.log(v) if v > 0.0 else
                               -math.inf if v == 0.0 else math.nan)


# Kronrod-15 abscissae on [-1, 1] and the nested Gauss-7 / Kronrod-15
# weights, to the 21 digits of QUADPACK's dqk15: its xgk, wgk and wg (the
# latter placed on the Kronrod nodes) from the left end to the centre, mirrored.
_XGK = np.array([
    0.991455371120812639207, 0.949107912342758524526, 0.864864423359769072790,
    0.741531185599394439864, 0.586087235467691130294, 0.405845151377397166907,
    0.207784955007898467601, 0.0,
])
_WGK = np.array([
    0.0229353220105292249637, 0.0630920926299785532907, 0.104790010322250183840,
    0.140653259715525918745, 0.169004726639267902827, 0.190350578064785409913,
    0.204432940075298892414, 0.209482141084727828013,
])
_WG_ON_XGK = np.array([
    0.0, 0.129484966168869693271, 0.0, 0.279705391489276667901,
    0.0, 0.381830050505118944950, 0.0, 0.417959183673469387755,
])
_XK = np.concatenate([-_XGK[:-1], _XGK[::-1]])
_WK = np.concatenate([_WGK, _WGK[-2::-1]])
_WG = np.concatenate([_WG_ON_XGK, _WG_ON_XGK[-2::-1]])
_WKG = np.stack((_WK, _WG), axis=1)  # both sums of _gk_panels in one product
_TINY = np.finfo(float).tiny
_X_OUTER = float(_XGK[0])

# QUADPACK's floor on a panel's error estimate, relative to the integral of
# |f| over it: the rounding of the sums, where the Gauss and Kronrod sums agree
_ROUNDOFF = 50.0 * np.finfo(float).eps

# largest log of a panel's scale factor in _panel_scales: e^709 is within a
# factor 2.2 of the largest double
_MAX_LOG_SCALE = 709.0


def _gk_panel(f, a, b, log_form):
    """One Gauss-Kronrod 7/15 evaluation on [a, b].

    Returns (value, error, log_scale): the panel's integral and its error
    estimate are value and error times exp(log_scale).  In direct form
    log_scale is 0.  In log form it is the largest of the 15 log node values
    plus log of the half-width, and the node values are exponentiated after
    subtracting that largest one, so a panel whose values underflow or
    overflow a double is still summed accurately; a panel whose nodes are
    all -inf is 0 with log_scale -inf.
    """
    h = 0.5 * (b - a)
    x = 0.5 * (a + b) + h * _XK
    y = np.asarray(f(x), dtype=float)
    if log_form:
        m = float(y.max())
        if m == -math.inf:
            return 0.0, 0.0, -math.inf
        if not math.isfinite(m):
            raise QuadratureError(f"non-finite log-integrand on [{a}, {b}]")
        log_scale = m + math.log(h)
        h = 1.0
        vals = np.exp(y - m)
    else:
        if not np.all(np.isfinite(y)):
            raise QuadratureError(f"non-finite integrand value on [{a}, {b}]")
        log_scale = 0.0
        vals = y
    kv = float(_WK @ vals)
    k15 = h * kv
    raw = abs(k15 - h * float(_WG @ vals))
    # QUADPACK-style sharpening of the raw Gauss/Kronrod difference
    resasc = h * float(_WK @ np.abs(vals - 0.5 * kv))
    if resasc > 0.0 and raw > 0.0:
        err = resasc * min(1.0, (200.0 * raw / resasc) ** 1.5)
    else:
        err = raw
    resabs = kv if log_form else float(_WK @ np.abs(vals))
    return k15, max(err, _ROUNDOFF * h * resabs), log_scale


def _gk_panels(f, a, b, log_form):
    """_gk_panel on the n panels [a[i], b[i]] at once, with one call of f.

    a and b are 1-d float arrays; f receives all 15 n nodes as one flat
    array.  Returns the arrays (values, errors, nodes, log_scale) in
    _gk_panel's units, with its checks on every panel: panel i's integral
    and error estimate are values[i] and errors[i] times exp(log_scale[i]).
    nodes[i] are panel i's 15 node values at _XK, in log form divided by
    their largest, so that there the integral over any part of the panel is
    exp(log_scale[i]) times that of the interpolant through nodes[i] on
    [-1, 1] (_panel_scales gives those factors).  Its NumPy calls on
    (n, 15) arrays cost about 2.5 times _gk_panel's scalar arithmetic at
    n = 1, so the adaptive loop, which bisects one panel at a time, keeps
    _gk_panel for its refinement.
    """
    if not a.size:
        return a, a, np.empty((0, 15)), a
    h = 0.5 * (b - a)
    x = (0.5 * (a + b))[:, None] + h[:, None] * _XK
    y = np.asarray(f(x.ravel()), dtype=float).reshape(x.shape)
    if log_form:
        m = log_scale = y.max(axis=1)
        # one test for the common case: no empty or non-finite panel
        if not np.isfinite(m).all():
            bad = np.isnan(m) | (m == math.inf)
            if bad.any():
                i = int(np.argmax(bad))
                raise QuadratureError(f"non-finite log-integrand on [{a[i]}, {b[i]}]")
            # an empty panel's nodes are then 0, and its log_scale -inf
            m = np.where(m == -math.inf, 0.0, m)
        vals = np.exp(y - m[:, None])
        # a panel of width 0 (two abscissae that round to one) has log_scale -inf too
        with np.errstate(divide="ignore"):
            log_scale = log_scale + np.log(h)
        kv, kg = (vals @ _WKG).T
        k15, raw, resabs = kv, np.abs(kv - kg), kv
        resasc = np.abs(vals - 0.5 * kv[:, None]) @ _WK
    else:
        if not np.isfinite(y).all():
            i = int(np.argmax(~np.isfinite(y).all(axis=1)))
            raise QuadratureError(f"non-finite integrand value on [{a[i]}, {b[i]}]")
        log_scale = np.zeros_like(h)
        vals = y
        kv, kg = (vals @ _WKG).T
        k15, raw, resabs = h * kv, h * np.abs(kv - kg), h * (np.abs(vals) @ _WK)
        resasc = h * (np.abs(vals - 0.5 * kv[:, None]) @ _WK)
    # QUADPACK-style sharpening of the raw Gauss/Kronrod difference,
    # resasc min(1, (200 raw / resasc)^1.5), and 0 where resasc is 0
    err = resasc * (np.minimum(200.0 * raw, resasc) / np.maximum(resasc, _TINY)) ** 1.5
    return k15, np.maximum(err, _ROUNDOFF * resabs), vals, log_scale


def _panel_scales(log_scale, a, b):
    """exp(log_scale) of _gk_panels' panels [a[i], b[i]], or QuadratureError naming
    the first whose scale overflows a double."""
    over = log_scale > _MAX_LOG_SCALE
    if over.any():
        i = int(np.argmax(over))
        raise QuadratureError(
            f"log-integrand reaches {log_scale[i]:.6g} on [{a[i]}, {b[i]}]; "
            f"its exponential overflows a double"
        )
    return np.exp(log_scale)


def _nodes_inside(a, b):
    """Whether _gk_panel's outermost nodes on [a, b], rounded as it rounds them,
    lie strictly inside [a, b]: on a panel a few doubles wide they round onto
    its ends.  Elementwise on arrays."""
    c, h = 0.5 * (a + b), 0.5 * (b - a)
    return (a < c - h * _X_OUTER) & (c + h * _X_OUTER < b)


def _exp_or_raise(log_value, what):
    """exp(log_value), or QuadratureError naming what where it is beyond the largest double."""
    try:
        return math.exp(log_value)
    except OverflowError:
        raise QuadratureError(f"{what} is e^{log_value:.6g}, beyond the largest double") from None


def integrate_adaptive(f, a, b, tol: Tolerance = DEFAULT_TOLERANCE, *,
                       log_form=False, log_offset=0.0, break_points=()):
    """Adaptively integrate f over [a, b].

    f must accept a 1-d NumPy array of interior nodes and return the
    (log-)values elementwise.  It is plain bisection: the panel with the
    largest error estimate is halved until the summed estimate meets the
    tolerance.  A panel whose halves' outer nodes would round onto their
    ends is not halved (_nodes_inside), so f is never evaluated at a, at b
    or at any panel's end.  break_points are interior abscissae (e.g.
    kinks, or the edges of a layer that holds the mass) used as initial
    panel boundaries: the first panels take one call of f (_gk_panels, or
    _gk_panel where there is one), and each bisection after them one more.

    In log form the integral is of exp(f + log_offset).  The sums are kept
    in units of exp(ref), ref the largest panel scale so far (_gk_panel),
    and log_offset is applied once, to the result: its log_value is finite
    where its value underflows to 0, and only a result beyond the largest
    double raises.  A log-form integral converges on tol's relative
    tolerance alone; a direct one on max(abs_tol, rel_tol |value|).

    Raises QuadratureError with the partial result attached when the
    subdivision budget is exhausted, or when every panel left is too narrow
    to halve: an endpoint singularity that needs more than doubles can
    resolve raises there.
    """
    if not (math.isfinite(a) and math.isfinite(b)) or a > b:
        raise DomainError(f"invalid interval [{a}, {b}]")

    pts = sorted({a, b, *(p for p in break_points if a < p < b)})
    if len(pts) == 2:
        first = [(a, b, *_gk_panel(f, a, b, log_form))]
    else:
        # one call of f for all of them; _gk_panel is cheaper for one panel
        vals, errs, _, log_scale = _gk_panels(f, np.array(pts[:-1], dtype=float),
                                              np.array(pts[1:], dtype=float), log_form)
        first = list(zip(pts[:-1], pts[1:], vals.tolist(), errs.tolist(), log_scale.tolist()))
    evals = 15 * len(first)
    ref = max((panel[4] for panel in first), default=-math.inf)
    if ref == -math.inf:  # no panel, or (log form) no node with a finite value
        return QuadResult(0.0, 0.0, evals, True)
    abs_floor = 0.0 if log_form else tol.abs_tol
    heap = []  # (key, lo, hi, value, error, log_scale); no two share lo
    done = []  # (value, error, log_scale): too narrow to halve
    total = 0.0  # over heap and done
    total_err = 0.0

    def push(lo, hi, v, e, scale):
        nonlocal ref, total, total_err
        if scale > ref:
            total *= math.exp(ref - scale)
            total_err *= math.exp(ref - scale)
            ref = scale
        unit = math.exp(scale - ref)
        # the panel with the largest absolute error estimate pops first
        key = -(math.log(e) + scale) if e > 0.0 else math.inf
        heapq.heappush(heap, (key, lo, hi, v, e, scale))
        total += v * unit
        total_err += e * unit

    for panel in first:
        push(*panel)
    nsub = len(heap)

    def _result(converged):
        # re-sum in deterministic order to shed accumulated cancellation
        parts = [item[3:6] for item in heap] + done
        value = math.fsum(v * math.exp(s - ref) for v, _, s in parts)
        err = math.fsum(e * math.exp(s - ref) for _, e, s in parts)
        if not log_form:
            return QuadResult(value, err, evals, converged)
        if value == 0.0:
            return QuadResult(0.0, 0.0, evals, converged)
        log_value = ref + log_offset + math.log(value)
        scaled = _exp_or_raise(log_value, "the integral")
        return QuadResult(scaled, scaled * (err / value), evals, converged, log_value)

    while True:
        if total_err <= max(abs_floor, tol.rel_tol * abs(total)):
            return _result(True)
        if not heap:
            raise QuadratureError("every panel left is too narrow to halve",
                                  partial=_result(False))
        if nsub >= tol.max_subdivisions:
            raise QuadratureError(f"exceeded {tol.max_subdivisions} subdivisions",
                                  partial=_result(False))
        _, lo, hi, v, e, scale = heapq.heappop(heap)
        mid = 0.5 * (lo + hi)
        if not (_nodes_inside(lo, mid) and _nodes_inside(mid, hi)):
            done.append((v, e, scale))  # a half would evaluate f at one of its ends
            continue
        unit = math.exp(scale - ref)
        total -= v * unit
        total_err -= e * unit
        for plo, phi in ((lo, mid), (mid, hi)):
            push(plo, phi, *_gk_panel(f, plo, phi, log_form))
        evals += 30
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

