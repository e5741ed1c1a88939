"""Per-layer tracing from outside the library.

The traced run replaces each layer's public functions, at the name their
caller looks them up by, with wrappers that record calls, a work count,
busy time and self time (busy time minus the time of spans nested inside
it on the same thread).  Times are CPU time of the calling thread, which
leaves out time the shared host withheld from the machine and time spent
waiting for the interpreter lock.  The library source is not modified;
everything is restored when the ``installed`` context exits.

Spans on worker threads (the Monte Carlo trials under ``--threads`` > 1)
would have no parent on their own thread, so they would not be subtracted
from the span that waits for them; the benchmark's traced pass therefore
runs ``simulate`` with ``--threads 1``.
"""

from __future__ import annotations

import importlib
import threading
from collections import defaultdict
from contextlib import contextmanager
from time import thread_time


def _evaluations(args, result):
    return getattr(result, "evaluations", 0)


def _nodes(args, result):
    theta = args[4] if len(args) > 4 else None
    return int(getattr(theta, "size", 0))


# (metric prefix, objects whose attribute the callers look up, attribute, work count)
SPANS = (
    ("quadrature.integrate_adaptive", ("hypflats.analytic", "hypflats.quadrature"),
     "integrate_adaptive", _evaluations),
    ("quadrature.integrate_iterated_2d", ("hypflats.analytic",),
     "integrate_iterated_2d", _evaluations),
    ("backend.log_kernel_theta", ("hypflats._backend",), "log_kernel_theta", _nodes),
    *((f"analytic.{fn}", ("hypflats.analytic",), fn, None) for fn in (
        "intersection_probability", "distance_cdf_grid", "distance_density", "moment",
        "critical_constant_rho", "euclidean_distance_cdf", "log_crofton_constant")),
    ("montecarlo.simulate_distance_distribution", ("hypflats.montecarlo",),
     "simulate_distance_distribution", None),
    ("montecarlo.ks_statistic", ("hypflats.montecarlo",), "ks_statistic", None),
    ("montecarlo._trial_rng", ("hypflats.montecarlo",), "_trial_rng", None),
    ("montecarlo.sample_central_subspace", ("hypflats.montecarlo",),
     "sample_central_subspace", None),
    ("montecarlo.HittingFlatSampler._sample_radius",
     ("hypflats.montecarlo:HittingFlatSampler",), "_sample_radius", None),
    ("klein.intersect_with_central_subspace", ("hypflats.montecarlo",),
     "intersect_with_central_subspace", None),
    ("linalg.min_norm_solution", ("hypflats.klein",), "min_norm_solution", None),
    ("linalg.Basis", ("hypflats.montecarlo",), "Basis", None),
    ("cli.run", ("hypflats.cli",), "run", None),
)

# Spans of this layer count the library's QuadratureError leaving them.
ERROR_LAYER = "quadrature"
ERROR_TYPE = "hypflats.errors:QuadratureError"


def _resolve(target):
    module, _, attr = target.partition(":")
    try:
        obj = importlib.import_module(module)
    except ImportError:
        return None
    return getattr(obj, attr, None) if attr else obj


class Tracer:
    """Accumulates span statistics from any number of threads."""

    def __init__(self):
        self.error_type = _resolve(ERROR_TYPE)
        self._lock = threading.Lock()
        self._local = threading.local()
        self.calls = defaultdict(int)
        self.work = defaultdict(int)
        self.busy = defaultdict(float)
        self.self_time = defaultdict(float)
        self.errors = 0
        self.present = set()
        self._samplers = {}

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, name, fn, work=None):
        tracer = self
        count_errors = name.startswith(ERROR_LAYER + ".") and self.error_type is not None

        def wrapper(*args, **kwargs):
            stack = tracer._stack()
            frame = [0.0]
            stack.append(frame)
            result = None
            t0 = thread_time()
            try:
                result = fn(*args, **kwargs)
                return result
            except Exception as exc:
                if (count_errors and isinstance(exc, tracer.error_type)
                        and not getattr(exc, "_perfbench_counted", False)):
                    exc._perfbench_counted = True
                    with tracer._lock:
                        tracer.errors += 1
                raise
            finally:
                dt = thread_time() - t0
                stack.pop()
                if stack:
                    stack[-1][0] += dt
                n = work(args, result) if work is not None and result is not None else 0
                with tracer._lock:
                    tracer.calls[name] += 1
                    tracer.work[name] += n
                    tracer.busy[name] += dt
                    tracer.self_time[name] += dt - frame[0]

        return wrapper

    def watch_sampler(self, fn):
        """Wrap the sampler cache so each sampler's counters are read before use."""
        tracer = self

        def wrapper(*args, **kwargs):
            sampler = fn(*args, **kwargs)
            with tracer._lock:
                if id(sampler) not in tracer._samplers:
                    tracer._samplers[id(sampler)] = (
                        sampler, getattr(sampler, "proposals", 0), getattr(sampler, "accepted", 0))
            return sampler

        return wrapper

    def radius_counts(self):
        """(proposals, accepted) of the rejection sampler since it was first seen.

        The library increments these counters without a lock, so under
        threads they are best-effort.
        """
        proposals = accepted = 0
        for sampler, p0, a0 in self._samplers.values():
            proposals += getattr(sampler, "proposals", p0) - p0
            accepted += getattr(sampler, "accepted", a0) - a0
        return proposals, accepted


@contextmanager
def installed(tracer: Tracer):
    """Patch the wrappers in, and restore the originals on exit."""
    saved = []
    try:
        for name, targets, attr, work in SPANS:
            for target in targets:
                obj = _resolve(target)
                if obj is None or not hasattr(obj, attr):
                    continue
                original = getattr(obj, attr)
                setattr(obj, attr, tracer.wrap(name, original, work))
                saved.append((obj, attr, original))
                tracer.present.add(name)
        mc = _resolve("hypflats.montecarlo")
        if mc is not None and hasattr(mc, "_get_sampler"):
            original = mc._get_sampler
            mc._get_sampler = tracer.watch_sampler(original)
            saved.append((mc, "_get_sampler", original))
        yield tracer
    finally:
        for obj, attr, original in reversed(saved):
            setattr(obj, attr, original)
