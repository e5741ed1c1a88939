"""hypflats benchmark: one workload, one seed, one process.

    python3 perfbench/run.py --workload prob-sweep --seed 1 --seconds 18 --trace 0

Run from the root of a source checkout.  The library is imported from
``src/`` in place (it is pure Python, so there is nothing to build).  One
closed-loop client calls the library's public functions, one operation
after the other, and checks every output; an operation that raises, fails
its check or runs past LATENCY_LIMIT_S counts as failed.  An operation's
time is the CPU time of this process, scaled to a reference speed by a
probe timed on either side of it and every PROBE_EVERY_S during it
(probe.py); README.md says why.
``simulate`` runs with ``--threads 1`` in the timed passes, so that this
holds for it too; the traced run measures the speed-up of ``--threads N``
separately.

A run measures a fixed list of operations: round(--seconds / ROUND_S)
whole rounds (workloads.ROUND_S).  The list depends on the workload, the seed and
``--seconds`` only, never on how fast the library is, so two versions of
the library are compared on the same traffic.

With ``--trace 0`` the last stdout line holds the end-to-end metrics.
With ``--trace 1`` the run measures half as many rounds untraced, then
replays the same operations with every layer wrapped (see tracer.py), and
the last line holds the per-layer metrics, per traced operation.  Lines before it list failed
operations and the run's metadata.
"""

from __future__ import annotations

import argparse
import itertools
import json
import math
import os
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from time import perf_counter, process_time

import probe
import tracer as tracing
import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SETUP_SAMPLES = 4          # pairs of fresh interpreters timed for setup_s
DEADLINE_S = 140.0         # no operation starts after this (wall clock)
MIN_ROUNDS = 3             # fewest rounds an untraced run measures
TAIL_BEYOND = 10           # samples required beyond the tail percentile
LATENCY_LIMIT_S = 10.0     # an operation still running after this is stopped and failed
PROBE_EVERY_S = 0.1        # wall seconds between probes during an operation

END_TO_END = (
    ("setup_s", "s"),
    ("ops_per_s", "1/s"),
    ("op_p50_ms", "ms"),
    ("op_tail_ms", "ms"),
    ("ok_ratio", "ratio"),
    ("peak_rss_mb", "MB"),
)

IMPORT_MODULES = (
    "hypflats", "hypflats._backend", "hypflats.analytic", "hypflats.quadrature",
    "hypflats.special", "hypflats.montecarlo", "hypflats.klein", "hypflats.linalg",
    "scipy.special", "scipy.interpolate", "scipy.integrate",
)
LAYERS = ("analytic", "quadrature", "backend", "montecarlo", "klein", "linalg", "cli")
# Span figures are per traced operation: totals over the replay divided by
# the number of operations replayed.
_SUFFIX_UNITS = {"calls": "count/op", "evals": "count/op", "nodes": "count/op",
                 "busy_s": "s/op", "self_s": "s/op"}
_SPAN_FIELDS = (
    ("quadrature.integrate_adaptive", ("calls", "evals", "self_s")),
    ("quadrature.integrate_iterated_2d", ("calls", "evals", "self_s")),
    ("backend.log_kernel_theta", ("calls", "nodes", "busy_s")),
    *((f"analytic.{fn}", ("calls", "busy_s")) for fn in (
        "intersection_probability", "distance_cdf_grid", "distance_density", "moment",
        "critical_constant_rho", "euclidean_distance_cdf", "log_crofton_constant")),
    ("montecarlo._trial_rng", ("busy_s",)),
    ("montecarlo.sample_central_subspace", ("calls", "busy_s")),
    ("montecarlo.HittingFlatSampler._sample_radius", ("calls", "busy_s")),
    ("klein.intersect_with_central_subspace", ("calls", "busy_s")),
    ("linalg.min_norm_solution", ("calls", "busy_s")),
    ("linalg.Basis", ("calls",)),
    ("cli.run", ("self_s",)),
)
PER_LAYER = (
    *((f"{span}.{f}", _SUFFIX_UNITS[f]) for span, fields in _SPAN_FIELDS for f in fields),
    ("quadrature.errors", "count/op"),
    ("montecarlo.radius_accept_ratio", "ratio"),
    ("montecarlo.trials_per_s", "1/s"),
    ("montecarlo.thread_speedup", "ratio"),
    *((f"layer.{layer}.self_s", "s/op") for layer in LAYERS),
    *((f"setup.import.{m}_s", "s") for m in IMPORT_MODULES),
    ("trace.ops_per_s", "1/s"),
    ("trace.untraced_ops_per_s", "1/s"),
    ("trace.overhead", "ratio"),
)


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(workloads.ROUND_BUILDERS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


# ---------------------------------------------------------------- set-up


_CHILD = ("import time; t = time.perf_counter(); import hypflats; "
          "print(time.perf_counter() - t); print(hypflats.__file__)")
_REFERENCE = (f"import time; t = time.perf_counter(); import {', '.join(probe.SETUP_REFERENCE)}; "
              "print(time.perf_counter() - t)")


def measure_imports(importtime: bool):
    """Time `import hypflats` in SETUP_SAMPLES fresh interpreters, each
    followed by one that imports probe.SETUP_REFERENCE.

    Returns the import times scaled to the reference speed, the raw import
    times (wall clock) and, with importtime, the median cumulative import
    time of each module in IMPORT_MODULES.
    """
    flags = ["-X", "importtime"] if importtime else []
    env = dict(os.environ, PYTHONPATH=str(SRC))
    times, raw, modules = [], [], {m: [] for m in IMPORT_MODULES}
    for _ in range(SETUP_SAMPLES):
        proc, ref = (subprocess.run([sys.executable, *flags, "-c", code], cwd=ROOT, env=env,
                                    capture_output=True, text=True, timeout=120, check=True)
                     for code in (_CHILD, _REFERENCE))
        seconds, path = proc.stdout.split("\n")[:2]
        if not Path(path).resolve().is_relative_to(SRC):
            raise RuntimeError(f"child imported hypflats from {path}, not {SRC}")
        raw.append(float(seconds))
        times.append(float(seconds) * probe.SETUP_REF_S / float(ref.stdout))
        seen = {}
        for line in proc.stderr.splitlines():
            parts = line.split("|")
            if line.startswith("import time:") and len(parts) == 3 and parts[1].strip().isdigit():
                seen[parts[2].strip()] = int(parts[1]) * 1e-6
        for m in modules:
            modules[m].append(seen.get(m, 0.0))
    return times, raw, {m: statistics.median(v) for m, v in modules.items()}


def git_commit():
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=30)
    except OSError:
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


# ---------------------------------------------------------------- passes


class Record:
    __slots__ = ("op", "cpu", "wall", "reason", "wrong", "probes", "probe_cpu", "scale",
                 "time")

    def __init__(self, op, cpu, wall, reason, wrong, probes=()):
        self.op = op
        self.cpu = cpu            # CPU seconds of this process, probes taken out
        self.wall = wall          # wall-clock seconds, probes taken out
        self.reason = reason      # None when the operation succeeded
        self.wrong = wrong        # True when a returned value failed its check
        self.probes = list(probes)  # CPU seconds of the probes taken during it
        self.probe_cpu = probe.REF_S  # mean of the probes around and during it
        self.scale = 1.0          # factor taking CPU time to the reference speed
        self.time = cpu           # the time the metrics use

    def calibrate(self, before, after):
        """Set the time from the probes' CPU seconds on either side and
        during the operation: CPU time at the reference speed.  A long
        operation is probed throughout, so a change of host speed in its
        middle is seen."""
        self.probe_cpu = statistics.mean([before, after, *self.probes])
        self.scale = probe.REF_S / self.probe_cpu
        self.time = self.cpu * self.scale


class LatencyLimit(Exception):
    pass


def run_op(op, ctx, refs):
    """Run and check one operation.  A wall-clock timer interrupts it every
    PROBE_EVERY_S to time the probe, and stops it after LATENCY_LIMIT_S;
    the probes' own CPU and wall time are taken out of the operation's."""
    probes, probe_wall = [], [0.0]

    def tick(signum, frame):
        if perf_counter() - t0 > LATENCY_LIMIT_S:
            raise LatencyLimit(f"exceeded the {LATENCY_LIMIT_S} s latency limit")
        w = perf_counter()
        probes.append(probe.timed())
        probe_wall[0] += perf_counter() - w

    previous = signal.signal(signal.SIGALRM, tick)
    c0, t0 = process_time(), perf_counter()
    signal.setitimer(signal.ITIMER_REAL, PROBE_EVERY_S, PROBE_EVERY_S)
    try:
        out = workloads.execute(op, ctx)
        reason = None
    except Exception as exc:
        reason = f"raised {type(exc).__name__}: {exc}"
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
    cpu = process_time() - c0 - sum(probes)
    wall = perf_counter() - t0 - probe_wall[0]
    if reason is not None:
        return Record(op, cpu, wall, reason, False, probes)
    try:
        reason = workloads.check(op, out, refs)
    except Exception as exc:
        reason = f"check raised {type(exc).__name__}: {exc}"
    return Record(op, cpu, wall, reason, reason is not None, probes)


def round_count(workload, seconds, trace=False):
    """Rounds a run measures: one per workloads.ROUND_S seconds of `seconds`
    (at least MIN_ROUNDS), half of that in each pass of a traced run."""
    n = max(MIN_ROUNDS, round(seconds / workloads.ROUND_S[workload]))
    return math.ceil(n / 2) if trace else n


def run_rounds(rounds, ctx, refs, deadline):
    """Run every operation of rounds, unless the deadline (wall clock) has
    passed; then no new operation starts and the run reports a prefix.

    The probe runs before each operation and after the last one; see
    Record.calibrate."""
    done = []
    before = probe.timed()
    for ops in rounds:
        records = []
        for op in ops:
            if perf_counter() > deadline:
                break
            r = run_op(op, ctx, refs)
            after = probe.timed()
            r.calibrate(before, after)
            before = after
            records.append(r)
        if records:
            done.append(records)
        if len(records) < len(ops):
            break
    return done


def flat(rounds):
    return [r for rnd in rounds for r in rnd]


def tail(latencies):
    """Highest percentile with TAIL_BEYOND samples beyond it, and the
    number of samples beyond it.

    With fewer than 2 * TAIL_BEYOND + 1 samples that percentile would lie
    at or below the median, so the maximum is reported instead.
    """
    s = sorted(latencies)
    i = len(s) - 1 - TAIL_BEYOND if len(s) > 2 * TAIL_BEYOND else len(s) - 1
    return s[i], len(s) - 1 - i


def trials_per_s(records, clock="time"):
    trials = sum(r.op.params.get("trials", 0) for r in records)
    busy = sum(getattr(r, clock) for r in records if "trials" in r.op.params)
    return trials / busy if busy > 0 else 0.0


# ---------------------------------------------------------------- metrics


def end_to_end(measured, setup_times):
    records = flat(measured)
    lat = [r.time for r in records]
    tail_s, beyond = tail(lat)
    values = {
        "setup_s": statistics.median(setup_times),
        "ops_per_s": len(lat) / sum(lat),
        "op_p50_ms": statistics.median(lat) * 1e3,
        "op_tail_ms": tail_s * 1e3,
        "ok_ratio": sum(r.reason is None for r in records) / len(records),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    info = {"samples": len(lat), "rounds": len(measured), "tail_beyond": beyond,
            "round_cpu_s": [sum(r.cpu for r in rnd) for rnd in measured],
            "raw_ops_per_s": len(records) / sum(r.cpu for r in records),
            "raw_op_p50_ms": statistics.median(r.cpu for r in records) * 1e3,
            "probe_ms": [1e3 * min(r.probe_cpu for r in records),
                         1e3 * statistics.median(r.probe_cpu for r in records),
                         1e3 * max(r.probe_cpu for r in records)],
            "wall_ops_per_s": len(records) / sum(r.wall for r in records),
            "wall_op_p50_ms": statistics.median(r.wall for r in records) * 1e3,
            "tail_percentile": 100.0 * (len(lat) - beyond) / len(lat)}
    return values, info


def per_layer(tr, measured, threaded, traced, import_s):
    values = {}
    ops = max(len(traced), 1)
    # span times to the reference speed, by the pass's median scaling
    scale = statistics.median(r.scale for r in traced) if traced else 1.0
    for span, fields in _SPAN_FIELDS:
        if span not in tr.present:
            continue  # the function no longer exists: absent, not zero
        stats = {"calls": tr.calls[span], "busy_s": tr.busy[span] * scale,
                 "self_s": tr.self_time[span] * scale}
        for f in fields:
            values[f"{span}.{f}"] = stats.get(f, tr.work[span]) / ops
    for layer in LAYERS:
        values[f"layer.{layer}.self_s"] = scale * sum(
            t for span, t in tr.self_time.items() if span.split(".")[0] == layer) / ops
    if any(span.startswith("quadrature.") for span in tr.present):
        values["quadrature.errors"] = tr.errors / ops
    proposals, accepted = tr.radius_counts()
    values["montecarlo.radius_accept_ratio"] = accepted / proposals if proposals else 0.0
    untraced = flat(measured)
    values["montecarlo.trials_per_s"] = trials_per_s(untraced)
    if threaded:
        n = len(threaded)
        base = trials_per_s(untraced[:n], "wall")
        values["montecarlo.thread_speedup"] = (
            trials_per_s(threaded, "wall") / base if base else 0.0)
    else:
        values["montecarlo.thread_speedup"] = 0.0
    for m, s in import_s.items():
        values[f"setup.import.{m}_s"] = s
    n = len(traced)
    if n:  # none when the measured pass alone ran past the deadline
        t_traced = sum(r.time for r in traced)
        t_plain = sum(r.time for r in untraced[:n])
        values["trace.ops_per_s"] = n / t_traced
        values["trace.untraced_ops_per_s"] = n / t_plain
        values["trace.overhead"] = t_traced / t_plain - 1.0
    return values


def emit(values, units):
    return {name: {"value": values[name], "unit": unit}
            for name, unit in units if name in values}


# ---------------------------------------------------------------- main


def main(argv=None):
    args = parse_args(argv)
    t_start = perf_counter()
    if not (SRC / "hypflats" / "__init__.py").is_file():
        print(f"error: no library source at {SRC / 'hypflats'}; run from a checkout",
              file=sys.stderr)
        return 2
    load_start = os.getloadavg()
    sys.path.insert(0, str(SRC))
    t0 = perf_counter()
    import hypflats
    import hypflats.cli
    inprocess_import_s = perf_counter() - t0
    if not Path(hypflats.__file__).resolve().is_relative_to(SRC):
        print(f"error: imported hypflats from {hypflats.__file__}", file=sys.stderr)
        return 2
    import numpy
    import scipy

    setup_times, setup_raw, import_s = measure_imports(importtime=bool(args.trace))
    sys.path.insert(0, str(ROOT / "tests"))
    import oracles

    refs = workloads.references(args.workload, oracles)
    nproc = len(os.sched_getaffinity(0))
    build = ROOT / ".bench_build"
    build.mkdir(exist_ok=True)
    tmpdir = tempfile.mkdtemp(prefix="perfbench-", dir=build)
    ctx = workloads.Context(hypflats, 1, tmpdir)
    deadline = t_start + DEADLINE_S
    n_rounds = round_count(args.workload, args.seconds, bool(args.trace))
    try:
        ops = list(itertools.islice(workloads.rounds(args.workload, args.seed), n_rounds))
        planned = sum(map(len, ops))
        measured = run_rounds(ops, ctx, refs, deadline)
        passes = {"untraced": flat(measured)}
        if args.trace:
            threaded = []
            if args.workload == "mc-validate":
                ctx.threads = nproc
                threaded = flat(run_rounds(ops, ctx, refs, deadline))
                ctx.threads = 1
                passes[f"threads-{nproc}"] = threaded
            tr = tracing.Tracer()
            with tracing.installed(tr):
                traced = flat(run_rounds(ops, ctx, refs, deadline))
            passes["traced"] = traced
            metrics = emit(per_layer(tr, measured, threaded, traced, import_s), PER_LAYER)
            info = {}
        else:
            values, info = end_to_end(measured, setup_times)
            metrics = emit(values, END_TO_END)
    finally:
        shutil.rmtree(tmpdir, ignore_errors=True)

    records = [r for rs in passes.values() for r in rs]
    for name, rs in passes.items():
        for r in rs:
            if r.reason is not None:
                print("FAILED " + json.dumps({"pass": name, "op": r.op.describe(),
                                              "reason": r.reason}))
    meta = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "nproc": nproc, "cpu_count": os.cpu_count(),
        "python": sys.version.split()[0], "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "backend": getattr(hypflats, "backend_name", lambda: None)(),
        "commit": git_commit(), "loadavg_start": load_start,
        "loadavg_end": os.getloadavg(), "inprocess_import_s": inprocess_import_s,
        "setup_samples_s": setup_times, "setup_raw_s": setup_raw, "planned_ops": planned,
        "truncated": any(len(rs) < planned for rs in passes.values()), **info,
        "wall_s": perf_counter() - t_start,
    }
    print(json.dumps({"meta": meta}))
    print(json.dumps({
        "correct": not any(r.wrong for r in records),
        "attempted": len(records),
        "failed": sum(r.reason is not None for r in records),
        "metrics": metrics,
    }), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
