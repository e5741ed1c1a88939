"""Adaptive one- and two-dimensional quadrature with log-space integrands.

The base rule is a nested Gauss-Kronrod 7/15 pair.  It comes in two forms
with one convention, a panel's value and error relative to
exp(log_scale): _gk_panel on one panel, and _gk_panels on many independent
panels with one call of the integrand.  One loop refines every integral to
a total tolerance (_refine): each round halves, in one call, every panel
whose error exceeds its share of the tolerance, and always the worst.  Its
error estimate meets the tolerance or QuadratureError is raised with the
partial result, and no node lies on an end of a panel: a panel too narrow
to halve is parked, so a singularity the rule cannot resolve in doubles (a
power x^-0.99 at an end, say) raises rather than returns a sum that misses
its mass.  integrate_adaptive is its first panels plus that loop.
Integrands may be supplied in log form: each panel is then summed relative
to its own scale, the sums are kept relative to the largest scale, and
only the result leaves log space, so integrands that underflow or overflow
pointwise still integrate correctly and a result below the smallest double
keeps its log.
"""

from __future__ import annotations

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
        if h == 0.0:  # b - a is the least subnormal: the nodes are its ends
            raise QuadratureError(f"the panel [{a}, {b}] is too narrow for its nodes")
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
    nodes[i] are panel i's 15 node values at _XK; in log form their logs
    less the largest (-inf where a value is 0), so that there the integral
    over any part of the panel is exp(log_scale[i]) times that of the
    interpolant through exp(nodes[i]) on [-1, 1] (_panel_scales gives those
    factors), and weights may be added to them in log space.  Its NumPy calls on
    (n, 15) arrays cost about 2.5 times _gk_panel's scalar arithmetic at
    n = 1, so integrate_adaptive keeps _gk_panel for a single first panel.
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
        log_nodes = y - m[:, None]
        # a panel of width 0 (two abscissae that round to one) has log_scale -inf too
        with np.errstate(divide="ignore"):
            log_scale = log_scale + np.log(h)
        return (*_gk_sums(np.exp(log_nodes)), log_nodes, log_scale)
    if not np.isfinite(y).all():
        i = int(np.argmax(~np.isfinite(y).all(axis=1)))
        raise QuadratureError(f"non-finite integrand value on [{a[i]}, {b[i]}]")
    kv, kg = (y @ _WKG).T
    raw, resabs = h * np.abs(kv - kg), h * (np.abs(y) @ _WK)
    resasc = h * (np.abs(y - 0.5 * kv[:, None]) @ _WK)
    return h * kv, np.maximum(_sharpened(raw, resasc), _ROUNDOFF * resabs), y, np.zeros_like(h)


def _sharpened(raw, resasc):
    """QUADPACK-style sharpening of the raw Gauss/Kronrod difference,
    resasc min(1, (200 raw / resasc)^1.5), and 0 where resasc is 0."""
    return resasc * (np.minimum(200.0 * raw, resasc) / np.maximum(resasc, _TINY)) ** 1.5


def _gk_sums(vals):
    """The log-form sums of _gk_panels on the (n, 15) node values vals, each row
    a panel's values at _XK in units of its scale, half-width included: the
    Kronrod sums and their error estimates.  Any positive weights of the node
    values (a moment's powers of t) may be applied before the call."""
    kv, kg = (vals @ _WKG).T
    resasc = np.abs(vals - 0.5 * kv[:, None]) @ _WK
    return kv, np.maximum(_sharpened(np.abs(kv - kg), resasc), _ROUNDOFF * kv)


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


def _halve(tol: Tolerance, evaluate, lo, hi, far, panels, split):
    """The panels with those marked in split cut at their midpoints:
    (lo, hi, far, panels) as new arrays, the given ones untouched.  panels is
    a tuple of arrays with one entry per panel, in the caller's units; only
    the halves are evaluated, all in one call of evaluate(lo, hi, far), which
    returns theirs in those units.  far is carried along for evaluate.

    QuadratureError where the panels would pass tol.max_subdivisions or a
    half is too narrow for its nodes to lie inside it (_nodes_inside).
    """
    at = np.flatnonzero(split)
    if lo.size + at.size > tol.max_subdivisions:
        raise QuadratureError(f"panel refinement exceeded {tol.max_subdivisions} panels")
    # each panel cut becomes its halves, in place in the copies
    cuts, keep = 0.5 * (lo[at] + hi[at]), np.sort(np.r_[np.arange(lo.size), at])
    ends = at + np.arange(at.size)  # the first half of each panel cut
    lo, hi, far = lo[keep], hi[keep], far[keep]
    hi[ends], lo[ends + 1] = cuts, cuts
    new = np.zeros(lo.size, dtype=bool)
    new[ends] = new[ends + 1] = True
    if not _nodes_inside(lo[new], hi[new]).all():
        raise QuadratureError("a panel misses the tolerance and is too narrow to halve")
    panels = tuple(y[keep] for y in panels)
    for y, piece in zip(panels, evaluate(lo[new], hi[new], far[new])):
        y[new] = piece
    return lo, hi, far, panels


def _refine(tol: Tolerance, evaluate, lo, hi, far, panels, evals, *,
            log_form=True, log_offset=0.0):
    """An integral to tol's target from its first panels [lo[i], hi[i]], whose
    (values, errors, log_scale) are panels in _gk_panel's units and cost
    evals nodes; evaluate(lo, hi, far) gives those of new panels (_halve).

    The target is rel_tol |total| in log form and tol.target(total) in
    direct form.  While the summed error misses it, each round halves every
    panel whose error exceeds its share of the target (the target over the
    number of panels), and always the worst, in one _halve.  A panel whose
    halves' outer nodes would round onto their ends (_nodes_inside) is
    parked: never halved, still summed.  The sums are kept in units of the
    largest panel scale, and log_offset is applied once, to the result: its
    log_value is finite where its value underflows.

    Raises QuadratureError with the unconverged partial result attached where
    every panel left is parked or the halving would pass tol.max_subdivisions.
    """
    def result(converged):  # of this round's sums
        if not log_form:
            return QuadResult(total, total_err, evals, converged)
        if total == 0.0:
            return QuadResult(0.0, 0.0, evals, converged)
        log_value = ref + log_offset + math.log(total)
        value = _exp_or_raise(log_value, "the integral")
        return QuadResult(value, value * (total_err / total), evals, converged, log_value)

    while True:
        vals, errs, log_scale = panels
        ref = float(log_scale.max()) if log_scale.size else -math.inf
        if ref == -math.inf:  # no panel, or (log form) no node with a finite value
            return QuadResult(0.0, 0.0, evals, True)
        unit = np.exp(log_scale - ref)
        abs_errs = errs * unit
        total, total_err = math.fsum(vals * unit), math.fsum(abs_errs)
        target = tol.rel_tol * abs(total) if log_form else tol.target(total)
        if total_err <= target:
            return result(True)
        mid = 0.5 * (lo + hi)
        halvable = _nodes_inside(lo, mid) & _nodes_inside(mid, hi)
        if not halvable.any():
            raise QuadratureError("every panel left is too narrow to halve",
                                  partial=result(False))
        split = halvable & (abs_errs > target / lo.size)
        # one at least, whatever the sums' rounding
        split[np.argmax(np.where(halvable, abs_errs, -1.0))] = True
        try:
            lo, hi, far, panels = _halve(tol, evaluate, lo, hi, far, panels, split)
        except QuadratureError as exc:
            raise QuadratureError(str(exc), partial=result(False)) from None
        evals += 2 * _XK.size * np.count_nonzero(split)


def integrate_adaptive(f, a, b, tol: Tolerance = DEFAULT_TOLERANCE, *,
                       log_form=False, log_offset=0.0, break_points=()):
    """Adaptively integrate f over [a, b]: its first panels, then _refine.

    f must accept a 1-d NumPy array of interior nodes and return the
    (log-)values elementwise; in log form the integral is of
    exp(f + log_offset).  break_points are interior abscissae (e.g. kinks,
    or the edges of a layer that holds the mass) used as the ends of the
    first panels, which take one call of f (_gk_panels, or _gk_panel where
    there is one); each round of refinement takes one more.  f is never
    evaluated at a, at b or at any panel's end.  A log-form integral
    converges on tol's relative tolerance alone, a direct one on tol.target,
    and only a result beyond the largest double raises.

    Raises QuadratureError with the partial result attached when the
    subdivision budget is exhausted, or when every panel left is too narrow
    to halve: an endpoint singularity that needs more than doubles can
    resolve raises there.
    """
    if not (math.isfinite(a) and math.isfinite(b)) or a > b:
        raise DomainError(f"invalid interval [{a}, {b}]")

    def evaluate(lo, hi, far):
        vals, errs, _, log_scale = _gk_panels(f, lo, hi, log_form)
        return vals, errs, log_scale

    pts = np.array(sorted({a, b, *(p for p in break_points if a < p < b)}), dtype=float)
    lo, hi = pts[:-1], pts[1:]
    # one panel: _gk_panel's scalar arithmetic is cheaper than _gk_panels' array calls
    panels = (tuple(np.array([y]) for y in _gk_panel(f, a, b, log_form)) if lo.size == 1
              else evaluate(lo, hi, None))
    return _refine(tol, evaluate, lo, hi, np.zeros(lo.size, dtype=bool), panels,
                   _XK.size * lo.size, log_form=log_form, log_offset=log_offset)


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

