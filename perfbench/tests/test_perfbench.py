"""Tests of the benchmark itself: seeded inputs, output checks, tracing
and the metric names declared in BENCHMARK.json.

    python3 -m pytest perfbench/tests
"""

import itertools
import json
import math
import time
from pathlib import Path

import pytest

import probe
import run
import tracer
import workloads
from workloads import LAW_CONFIGS, LAW_RHO, Op, check

ROOT = Path(__file__).resolve().parents[2]


def first_rounds(workload, seed, n=3):
    return [[op.describe() for op in rnd]
            for rnd in itertools.islice(workloads.rounds(workload, seed), n)]


@pytest.mark.parametrize("workload", sorted(workloads.ROUND_BUILDERS))
def test_same_seed_same_operations(workload):
    assert first_rounds(workload, 7) == first_rounds(workload, 7)
    assert first_rounds(workload, 7) != first_rounds(workload, 8)


@pytest.mark.parametrize("workload", sorted(workloads.ROUND_BUILDERS))
def test_rounds_have_a_fixed_composition(workload):
    kinds = [sorted((op["kind"], op.get("label", "")) for op in rnd)
             for rnd in first_rounds(workload, 3, 5)]
    assert all(k == kinds[0] for k in kinds)


def test_operation_list_depends_on_seconds_only():
    assert run.round_count("prob-sweep", 18) == 7
    assert run.round_count("prob-sweep", 18, trace=True) == 4
    assert run.round_count("law", 18) == 8
    assert run.round_count("mc-validate", 18) == 6
    assert run.round_count("mc-validate", 1, trace=True) == 2


def test_prob_sweep_covers_the_domain():
    # the rounds an 18 s run measures
    ops = [op for rnd in first_rounds("prob-sweep", 1, run.round_count("prob-sweep", 18))
           for op in rnd]
    d = [op["d"] for op in ops]
    v = [op["u"] * math.sqrt(-op["K"]) for op in ops if op["label"].startswith("sweep")]
    assert min(d) == 3 and max(d) > 700
    assert 0.05 <= min(v) < 0.1 and 6.0 < max(v) <= 8.0
    assert any(op["q"] == op["d"] - 1 and op["d"] > 300 for op in ops)
    assert all(1 <= op["q"] <= op["d"] - 1 and 0 <= op["gamma"] <= op["q"] - 1 for op in ops)
    critical = [op for op in ops if op["label"] == "critical"]
    assert all(0.5 <= -op["K"] * op["d"] <= 4.0 for op in critical)
    labels = [op["label"] for op in ops]
    assert labels.count("P_STAR_3_2_1") == labels.count("P_STAR_5_3_0_HALF") == 7


def test_hard_stratum_is_seeded_and_in_the_stratum():
    a = [op.describe() for op in workloads.hard_stratum(1, 20)]
    assert a == [op.describe() for op in workloads.hard_stratum(1, 20)]
    assert a != [op.describe() for op in workloads.hard_stratum(2, 20)]
    for op in a:
        v = op["u"] * math.sqrt(-op["K"])
        assert op["q"] == op["d"] - 1 and op["d"] >= workloads.HARD_D_MIN
        assert workloads.HARD_V_MIN <= v <= 8.0 + 1e-9


# ---------------------------------------------------------------- checks

P321 = 0.835422319722953


def prob(label, value):
    return check(Op("prob", {"label": label}), value, {"P_STAR_3_2_1": P321})


def test_prob_check():
    assert prob("sweep", 0.3) is None
    assert prob("sweep", 0.0) is None
    assert prob("sweep", 1.2) is not None
    assert prob("sweep", -1e-3) is not None
    assert prob("sweep", math.nan) is not None
    assert prob("P_STAR_3_2_1", P321 * (1 + 1e-10)) is None
    assert prob("P_STAR_3_2_1", P321 * (1 + 1e-6)) is not None


C = LAW_CONFIGS[0]
PARAMS = {"d": C[0], "q": C[1], "gamma": C[2], "u": C[3], "K": C[4]}
LAW_REFS = {
    ("p", C): 0.8,
    ("cdf", C, workloads.CDF_GRID_SPAN): 0.79,
    ("cdf", C, workloads.SCAN_SPAN[0]): 0.1,
    ("cdf", C, workloads.SCAN_SPAN[1]): 0.5,
    ("euclid", C): 0.25,
    ("rho", LAW_RHO[0]): 0.4,
}


def grid_check(values):
    op = Op("cdf_grid", {**PARAMS, "points": len(values), "delta_max": 4.0})
    return check(op, values, LAW_REFS)


def test_cdf_grid_check():
    good = [0.79 * (i + 1) / 128 for i in range(128)]
    assert grid_check(good) is None
    decreasing = list(good)
    decreasing[50], decreasing[51] = decreasing[51], decreasing[50]
    assert "decreases" in grid_check(decreasing)
    above = [min(x * 1.2, 0.9) for x in good]
    assert grid_check(above) is not None
    assert grid_check([-1e-3] + good[1:]) is not None
    assert grid_check(good[:-1] + [0.78]) is not None  # end differs from oracle


def scan_check(f, lo=1.0, hi=2.0):
    n = len(f)
    deltas = [lo + (hi - lo) * i / (n - 1) for i in range(n)]
    return check(Op("density_scan", {**PARAMS}), (deltas, f), LAW_REFS)


def test_density_scan_check():
    assert scan_check([0.4] * 50) is None           # trapezoid 0.4 == 0.5 - 0.1
    assert scan_check([0.4] * 49 + [-1e-9]) is not None
    assert "trapezoid" in scan_check([0.5] * 50)


def test_moment_rho_euclid_checks():
    assert check(Op("moment", PARAMS), 0.7, {}) is None
    for bad in (None, math.nan, math.inf, 0.0, -0.7):
        assert check(Op("moment", PARAMS), bad, {}) is not None
    rho = Op("rho", dict(zip(("u", "q", "gamma", "kappa"), LAW_RHO[0])))
    assert check(rho, 0.4 * (1 + 1e-6), LAW_REFS) is None
    assert check(rho, 0.4 * (1 + 1e-3), LAW_REFS) is not None
    euclid = Op("euclid_cdf", {**PARAMS, "delta": 0.7})
    assert check(euclid, 0.25, LAW_REFS) is None
    assert check(euclid, 0.2501, LAW_REFS) is not None


def simulate(p_hat, analytic_p=0.5, trials=5000, std_err=None, atom_hat=None):
    if std_err is None:
        std_err = math.sqrt(p_hat * (1 - p_hat) / trials)
    out = {"trials": trials, "p_hat": p_hat, "std_err": std_err, "analytic_p": analytic_p,
           "atom_hat": 1 - p_hat if atom_hat is None else atom_hat,
           "analytic_atom": 1 - analytic_p, "p_deviation_sigmas": 0.0}
    return check(Op("simulate", {"trials": 5000}), out, {})


def test_simulate_check():
    sigma = math.sqrt(0.25 / 5000)
    assert simulate(0.5 + 3 * sigma) is None
    assert "sigma" in simulate(0.5 + 5 * sigma)
    assert simulate(0.5 - 5 * sigma) is not None
    assert simulate(0.5, std_err=0.1) is not None       # inconsistent std_err
    assert simulate(0.5, atom_hat=0.5 + 5 * sigma) is not None
    assert simulate(0.5, trials=4000) is not None


# ---------------------------------------------------------------- tracing


def spin(seconds):
    import time

    t0 = time.thread_time()
    while time.thread_time() - t0 < seconds:
        pass


def test_self_time_excludes_nested_spans():
    tr = tracer.Tracer()
    inner = tr.wrap("quadrature.inner", lambda: spin(0.04))

    def body():
        inner()
        spin(0.02)

    tr.wrap("analytic.outer", body)()
    assert tr.calls["analytic.outer"] == tr.calls["quadrature.inner"] == 1
    assert tr.busy["quadrature.inner"] >= 0.04
    assert tr.busy["analytic.outer"] >= 0.06
    assert 0.02 <= tr.self_time["analytic.outer"] < 0.04


def test_quadrature_errors_are_counted_once():
    from hypflats.errors import QuadratureError

    tr = tracer.Tracer()

    def fail(exc):
        raise exc

    inner = tr.wrap("quadrature.a", fail)
    outer = tr.wrap("quadrature.b", lambda exc: inner(exc))
    with pytest.raises(QuadratureError):
        outer(QuadratureError("no convergence"))
    assert tr.errors == 1
    assert tr.calls["quadrature.a"] == tr.calls["quadrature.b"] == 1
    with pytest.raises(KeyboardInterrupt):   # e.g. the benchmark's latency limit
        outer(KeyboardInterrupt())
    with pytest.raises(ValueError):
        outer(ValueError())
    assert tr.errors == 1


def test_installed_traces_and_restores():
    import hypflats
    from hypflats import analytic

    original = analytic.intersection_probability
    tr = tracer.Tracer()
    with tracer.installed(tr):
        assert analytic.intersection_probability is not original
        analytic.intersection_probability(hypflats.FlatConfig(5, 3, 0, 1.5),
                                          hypflats.Curvature(-0.5))
    assert analytic.intersection_probability is original
    assert tr.calls["analytic.intersection_probability"] == 1
    assert tr.calls["analytic.log_crofton_constant"] >= 1
    assert tr.work["quadrature.integrate_iterated_2d"] > 0
    assert tr.work["backend.log_kernel_theta"] > 0
    spans = {name for name, *_ in tracer.SPANS}
    assert tr.present == spans


# ---------------------------------------------------------------- reporting


def test_per_layer_figures_are_per_operation():
    span = "analytic.log_crofton_constant"

    def figures(n_ops):
        tr = tracer.Tracer()
        tr.present.add(span)
        tr.calls[span] = 3 * n_ops
        tr.busy[span] = 0.02 * n_ops
        tr.self_time[span] = 0.01 * n_ops
        traced = [run.Record(Op("moment", {}), 0.1, 0.1, None, False) for _ in range(n_ops)]
        return run.per_layer(tr, [traced], [], traced, {})

    # replaying more operations (a faster library in a fixed time) changes nothing
    for n_ops in (10, 40):
        values = figures(n_ops)
        assert values[f"{span}.calls"] == 3
        assert values[f"{span}.busy_s"] == pytest.approx(0.02)
        assert values["layer.analytic.self_s"] == pytest.approx(0.01)
    assert "quadrature.integrate_adaptive.calls" not in values   # absent, not zero


def test_times_are_scaled_by_the_probes_around_each_operation():
    # an operation that ran while the host was half as fast (probe twice
    # REF_S) reports the time it takes at the reference speed
    slow = run.Record(Op("moment", {}), 0.2, 0.3, None, False)
    slow.calibrate(2.5 * probe.REF_S, 1.5 * probe.REF_S)
    assert slow.time == pytest.approx(0.1)
    fast = run.Record(Op("moment", {}), 0.1, 0.1, None, False)
    fast.calibrate(probe.REF_S, probe.REF_S)
    values, info = run.end_to_end([[slow, fast]], [1.0])
    assert values["ops_per_s"] == pytest.approx(10.0)
    assert values["op_p50_ms"] == pytest.approx(100.0)
    assert info["raw_ops_per_s"] == pytest.approx(2 / 0.3)
    # probes taken during a long operation count as much as those around it
    long = run.Record(Op("simulate", {}), 0.3, 0.3, None, False, probes=[3 * probe.REF_S] * 2)
    long.calibrate(probe.REF_S, probe.REF_S)
    assert long.time == pytest.approx(0.15)


def test_long_operation_is_probed_and_probe_time_taken_out(monkeypatch):
    def busy(op, ctx):
        t = time.perf_counter()
        while time.perf_counter() - t < 3.5 * run.PROBE_EVERY_S:
            pass

    monkeypatch.setattr(workloads, "execute", busy)
    monkeypatch.setattr(workloads, "check", lambda op, out, refs: None)
    t0, c0 = time.perf_counter(), time.process_time()
    r = run.run_op(Op("moment", {}), None, {})
    total_cpu, total_wall = time.process_time() - c0, time.perf_counter() - t0
    assert r.reason is None and len(r.probes) >= 2
    assert r.cpu == pytest.approx(total_cpu - sum(r.probes), abs=1e-3)
    assert r.wall < total_wall


def test_tail_has_ten_samples_beyond_it():
    assert run.tail(list(range(100))) == (89, 10)
    assert run.tail(list(range(21))) == (10, 10)
    assert run.tail(list(range(20))) == (19, 0)
    assert run.tail([3.0, 1.0, 2.0]) == (3.0, 0)


def test_declared_metrics_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(run.PER_LAYER)
    assert sorted(w["name"] for w in spec["workloads"]) == sorted(workloads.ROUND_BUILDERS)


def test_library_outputs_pass_their_checks():
    import hypflats
    import hypflats.cli
    import oracles

    refs = workloads.references("law", oracles)
    ctx = workloads.Context(hypflats, 1, str(ROOT))
    law = next(workloads.rounds("law", 1))
    for op in [op for op in law if op.kind in ("density_scan", "euclid_cdf", "rho")]:
        assert check(op, workloads.execute(op, ctx), refs) is None, op
    frozen = [op for op in next(workloads.rounds("prob-sweep", 1))
              if op.params["label"].startswith("P_STAR")]
    for op in frozen:
        assert check(op, workloads.execute(op, ctx), refs) is None, op


def test_exits_nonzero_without_the_library(tmp_path):
    import shutil
    import subprocess
    import sys

    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "law",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
