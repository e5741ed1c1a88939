import json
import math
import subprocess
import sys

import numpy as np
import pytest

import hypflats.analytic as analytic
import hypflats.cli as cli
from hypflats import (Curvature, FlatConfig, ks_statistic,
                      simulate_distance_distribution)
from hypflats.cli import (EXIT_NUMERICAL, EXIT_OK, EXIT_USAGE, MAX_STEPS, build_parser,
                          run)
from hypflats.quadrature import Tolerance
from oracles import ATOM_MPMATH, P_PAST_THE_DOMAIN_MPMATH, P_STAR_3_2_1

BASE = ["--d", "3", "--q", "2", "--gamma", "1", "--K", "-1", "--u", "1"]


def invoke(capsys, *argv):
    code = run(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


class TestProb:
    def test_basic(self, capsys):
        code, out, _ = invoke(capsys, "prob", *BASE)
        assert code == EXIT_OK
        assert float(out) == pytest.approx(P_STAR_3_2_1, abs=1e-8)
        # at least 8 significant digits printed
        mantissa = out.strip().replace(".", "").lstrip("0")
        assert len(mantissa) >= 8

    def test_json(self, capsys):
        code, out, _ = invoke(capsys, "prob", *BASE, "--json")
        assert code == EXIT_OK
        doc = json.loads(out)
        assert doc["p"] == pytest.approx(P_STAR_3_2_1, abs=1e-8)
        assert doc["curvature"] == -1.0

    def test_invalid_gamma_exits_2(self, capsys):
        code, _, err = invoke(
            capsys, "prob", "--d", "3", "--q", "2", "--gamma", "2",
            "--K", "-1", "--u", "1",
        )
        assert code == EXIT_USAGE
        assert "gamma" in err

    def test_positive_curvature_rejected(self, capsys):
        with pytest.raises(SystemExit) as exc:
            run(["prob", "--d", "3", "--q", "2", "--gamma", "1",
                 "--K", "1", "--u", "1"])
        assert exc.value.code == 2

    def test_unknown_flag_exits_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            run(["prob", *BASE, "--bogus"])
        assert exc.value.code == 2

    @pytest.mark.parametrize("command, extra", [("prob", ["--json"]),
                                                ("simulate", ["--trials", "100", "--seed", "1"])])
    def test_past_the_domain_exits_0(self, capsys, command, extra):
        # p is 2.6e-129 at v = 300, its mass in a layer about 1/1000 wide below v;
        # p's integral keeps its scale in log space
        code, out, err = invoke(
            capsys, command, "--d", "1000", "--q", "999", "--gamma", "998", "--K", "-1",
            "--u", "300", *extra,
        )
        assert code == EXIT_OK and err == ""
        doc = json.loads(out)
        p = doc["p"] if command == "prob" else doc["analytic_p"]
        assert p == pytest.approx(P_PAST_THE_DOMAIN_MPMATH[(1000, 999, 998, 300.0)],
                                  rel=1e-9, abs=0.0)

    def test_numerical_failure_exits_3(self, capsys):
        code, _, err = invoke(
            capsys, "prob", *BASE, "--rel-tol", "1e-300",
        )
        assert code == EXIT_NUMERICAL
        assert "numerical" in err


class TestCdf:
    def test_value(self, capsys):
        code, out, _ = invoke(capsys, "cdf", *BASE, "--delta", "40")
        assert code == EXIT_OK
        assert float(out) == pytest.approx(P_STAR_3_2_1, abs=1e-7)

    def test_nan_delta_exits_2(self, capsys):
        code, out, err = invoke(capsys, "cdf", *BASE, "--delta", "nan")
        assert code == EXIT_USAGE
        assert out == "" and "delta" in err


class TestRelTol:
    @pytest.mark.parametrize("value", ["nan", "inf", "0"])
    @pytest.mark.parametrize("command, args", [
        ("cdf", [*BASE, "--delta", "1"]),
        ("simulate", [*BASE, "--trials", "100", "--seed", "1"]),
    ])
    def test_invalid_rel_tol_exits_2(self, capsys, command, args, value):
        code, out, err = invoke(capsys, command, *args, "--rel-tol", value)
        assert code == EXIT_USAGE
        assert out == "" and "tolerance" in err


    def test_sets_only_the_relative_tolerance(self, capsys, monkeypatch):
        seen = []
        monkeypatch.setitem(cli._COMMANDS, "cdf", lambda args, tol: seen.append(tol) or "")
        assert invoke(capsys, "cdf", *BASE, "--delta", "1", "--rel-tol", "1e-13")[0] == EXIT_OK
        assert seen == [Tolerance(rel_tol=1e-13)]


class TestParser:
    def test_built_once(self):
        assert build_parser() is build_parser()

    def test_no_state_between_runs(self, capsys):
        code, out, _ = invoke(capsys, "prob", *BASE, "--json")
        assert code == EXIT_OK and json.loads(out)["p"] == pytest.approx(P_STAR_3_2_1,
                                                                         abs=1e-8)
        code, out, _ = invoke(capsys, "prob", *BASE)
        assert code == EXIT_OK and float(out) == pytest.approx(P_STAR_3_2_1, abs=1e-8)


def scipy_subpackages(work=""):
    """The public scipy subpackages loaded by a fresh interpreter that imports
    the CLI and runs work."""
    code = ("import os, sys, hypflats, hypflats.cli\n" + work +
            "print(*sorted({m.split('.')[1] for m in sys.modules if m.startswith('scipy.')}))")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True).stdout.split()
    return [m for m in out if not m.startswith("_") and m != "version"]


class TestImportCost:
    def test_loads_no_scipy_subpackage_but_special(self):
        # every CLI start pays for what the import loads: scipy.interpolate
        # alone costs about 40 ms
        assert scipy_subpackages() == ["special"]

    def test_simulate_loads_no_scipy_subpackage_but_special(self):
        # simulate's KS statistic used to import scipy.interpolate lazily
        assert scipy_subpackages(
            "assert hypflats.cli.run(['--output', os.devnull, 'simulate', '--d', '3', '--q', "
            "'2', '--gamma', '1', '--K', '-1', '--u', '1', '--trials', '200', '--seed', "
            "'1']) == 0\n") == ["special"]


class TestCsvCommands:
    def test_density_scan_format(self, capsys):
        code, out, _ = invoke(
            capsys, "density-scan", *BASE,
            "--delta-min", "0.2", "--delta-max", "1.0", "--steps", "5",
        )
        assert code == EXIT_OK
        lines = out.split("\n")
        assert lines[0].startswith("# ")
        manifest = json.loads(lines[0][2:])
        assert manifest["command"] == "density-scan"
        assert "timestamp" in manifest and "version" in manifest
        assert lines[1] == "delta,f"
        assert len(lines) == 2 + 5 + 1 and lines[-1] == ""
        for row in lines[2:-1]:
            delta, f = row.split(",")
            assert float(f) >= 0.0

    def test_density_scan_computes_the_crofton_constant_once(self, capsys):
        # the density's normaliser is the radial mass, the Crofton constant's evaluation
        code, out, _ = invoke(
            capsys, "density-scan", *BASE,
            "--delta-min", "0.2", "--delta-max", "3.0", "--steps", "50",
        )
        assert code == EXIT_OK and len(out.split("\n")) == 2 + 50 + 1
        assert analytic.log_radial_mass.cache_info().misses == 1

    def test_scan_d(self, capsys):
        code, out, _ = invoke(
            capsys, "scan-d", "--d-min", "3", "--d-max", "6",
            "--q", "2", "--gamma", "1", "--K", "-1", "--u", "1",
        )
        assert code == EXIT_OK
        lines = out.strip().split("\n")
        assert lines[1] == "d,p"
        ps = [float(r.split(",")[1]) for r in lines[2:]]
        assert len(ps) == 4
        assert all(b < a for a, b in zip(ps, ps[1:]))  # decreasing in d

    def test_scan_K_approaches_euclidean(self, capsys):
        code, out, _ = invoke(
            capsys, "scan-K", "--d", "3", "--q", "2", "--gamma", "1",
            "--u", "1", "--K-min=-1", "--K-max=-1e-8",
            "--steps", "4", "--log-spaced",
        )
        assert code == EXIT_OK
        rows = out.strip().split("\n")[2:]
        last_p = float(rows[-1].split(",")[1])
        assert abs(last_p - 1.0) < 0.01

    def test_scan_phase_crit(self, capsys):
        code, out, _ = invoke(
            capsys, "scan-phase", "--mode", "crit", "--kappa", "1",
            "--d-max", "8", "--q", "2", "--gamma", "1", "--u", "1",
        )
        assert code == EXIT_OK
        lines = out.strip().split("\n")
        assert lines[1] == "d,K,p,limit"
        for row in lines[2:]:
            d, K, p, limit = row.split(",")
            assert float(K) == pytest.approx(-1.0 / int(d))
            assert 0.0 < float(limit) < 1.0

    def test_scan_phase_kappa_misuse(self, capsys):
        code, _, err = invoke(
            capsys, "scan-phase", "--mode", "sub", "--kappa", "1",
            "--d-max", "5", "--q", "2", "--gamma", "1", "--u", "1",
        )
        assert code == EXIT_USAGE

    @pytest.mark.parametrize("kappa", [[], ["--kappa", "0"], ["--kappa", "nan"]])
    def test_scan_phase_crit_needs_positive_kappa(self, capsys, kappa):
        code, out, err = invoke(
            capsys, "scan-phase", "--mode", "crit", *kappa,
            "--d-max", "5", "--q", "2", "--gamma", "1", "--u", "1",
        )
        assert code == EXIT_USAGE
        assert out == "" and "kappa" in err

    def test_output_file(self, capsys, tmp_path):
        target = tmp_path / "out.csv"
        code = run(["--output", str(target), "scan-d", "--d-min", "3",
                    "--d-max", "4", "--q", "2", "--gamma", "1",
                    "--K", "-1", "--u", "1"])
        assert code == EXIT_OK
        text = target.read_text()
        assert text.startswith("# ") and text.endswith("\n")


class TestMomentPhase:
    def test_divergent(self, capsys):
        code, out, _ = invoke(capsys, "moment", *BASE, "--alpha", "1")
        assert code == EXIT_OK
        assert out.strip() == "divergent"

    def test_conditional_finite(self, capsys):
        code, out, _ = invoke(
            capsys, "moment", *BASE, "--alpha", "1", "--conditional",
            "--rel-tol", "1e-7",
        )
        assert code == EXIT_OK
        assert float(out) > 0

    @pytest.mark.parametrize("alpha, flags", [("nan", ()), ("inf", ()),
                                              ("inf", ("--conditional",))])
    def test_non_finite_alpha_exits_2(self, capsys, alpha, flags):
        code, out, err = invoke(capsys, "moment", *BASE, "--alpha", alpha, *flags)
        assert code == EXIT_USAGE
        assert out == "" and "alpha" in err

    def test_phase(self, capsys):
        code, out, _ = invoke(
            capsys, "phase", "--u", "1", "--q", "2", "--gamma", "1",
            "--kappa", "1",
        )
        assert code == EXIT_OK
        assert 0.0 < float(out) < 1.0


SCAN_ARGS = {
    "density-scan": [*BASE, "--delta-min", "0.2", "--delta-max", "1.0"],
    "scan-K": ["--d", "3", "--q", "2", "--gamma", "1", "--u", "1",
               "--K-min=-1", "--K-max=-0.5"],
}
D_SCAN_ARGS = {
    "scan-d": ["--d-min", "3", "--q", "2", "--gamma", "1", "--K", "-1", "--u", "1"],
    "scan-phase": ["--mode", "sub", "--q", "2", "--gamma", "1", "--u", "1"],
}


class TestStepsBound:
    @pytest.mark.parametrize("command, steps", [
        ("density-scan", 0), ("density-scan", MAX_STEPS + 1), ("density-scan", 10**12),
        ("scan-K", 1), ("scan-K", MAX_STEPS + 1), ("scan-K", 10**12),
    ])
    def test_out_of_range_exits_2_at_parse_time(self, capsys, monkeypatch, command, steps):
        def no_grid(args, tol):
            raise AssertionError("the command ran")

        monkeypatch.setitem(cli._COMMANDS, command, no_grid)
        with pytest.raises(SystemExit) as exc:
            run([command, *SCAN_ARGS[command], "--steps", str(steps)])
        assert exc.value.code == EXIT_USAGE
        assert "--steps" in capsys.readouterr().err

    @pytest.mark.parametrize("command, lo", [("density-scan", 1), ("scan-K", 2)])
    def test_range_ends_are_accepted(self, command, lo):
        for steps in (lo, MAX_STEPS):
            args = build_parser().parse_args([command, *SCAN_ARGS[command],
                                              "--steps", str(steps)])
            assert args.steps == steps

    # d from 3 (scan-d's --d-min, scan-phase's q + 1) to --d-max: one row each
    @pytest.mark.parametrize("command, rows", [
        ("scan-d", MAX_STEPS + 1), ("scan-d", 10**12),
        ("scan-phase", MAX_STEPS + 1), ("scan-phase", 10**12),
    ])
    def test_d_max_out_of_range_exits_2_before_the_command(self, capsys, monkeypatch,
                                                           command, rows):
        def no_scan(args, tol):
            raise AssertionError("the command ran")

        monkeypatch.setitem(cli._COMMANDS, command, no_scan)
        with pytest.raises(SystemExit) as exc:
            run([command, *D_SCAN_ARGS[command], "--d-max", str(rows + 2)])
        assert exc.value.code == EXIT_USAGE
        assert "--d-max" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["scan-d", "scan-phase"])
    def test_d_max_of_max_steps_rows_is_accepted(self, capsys, monkeypatch, command):
        ran = []
        monkeypatch.setitem(cli._COMMANDS, command, lambda args, tol: ran.append(args) or "")
        assert run([command, *D_SCAN_ARGS[command], "--d-max", str(MAX_STEPS + 2)]) == EXIT_OK
        assert ran[0].d_max == MAX_STEPS + 2


class TestSimulate:
    def test_json_fields(self, capsys):
        code, out, _ = invoke(
            capsys, "simulate", *BASE, "--trials", "2000", "--seed", "42",
            "--threads", "2",
        )
        assert code == EXIT_OK
        doc = json.loads(out)
        for key in ("p_hat", "std_err", "analytic_p", "p_deviation_sigmas",
                    "atom_hat", "analytic_atom", "ks_statistic", "seed"):
            assert key in doc
        assert doc["seed"] == 42
        assert doc["p_deviation_sigmas"] < 5.0
        assert 0.0 <= doc["ks_statistic"] <= 1.0

    def test_deviation_uses_the_analytic_standard_error(self, capsys):
        # p_hat = 1 here, so the estimate's own standard error is 0
        code, out, _ = invoke(
            capsys, "simulate", "--d", "3", "--q", "2", "--gamma", "1", "--K", "-1",
            "--u", "0.01", "--trials", "2000", "--seed", "3",
        )
        assert code == EXIT_OK
        doc = json.loads(out)
        p, n = doc["analytic_p"], doc["trials"]
        expect = abs(doc["p_hat"] - p) / math.sqrt(p * (1 - p) / n)
        assert doc["p_deviation_sigmas"] == doc["atom_deviation_sigmas"]
        assert doc["p_deviation_sigmas"] == pytest.approx(expect, rel=1e-9)
        assert doc["p_deviation_sigmas"] < 4.0
        assert doc["std_err"] == math.sqrt(doc["p_hat"] * (1 - doc["p_hat"]) / n)

    def test_deviation_where_the_mass_is_thin(self, capsys):
        # the hit distances crowd at v = 8: 22% of them lie within 0.1 below it
        code, out, _ = invoke(
            capsys, "simulate", "--d", "10", "--q", "9", "--gamma", "8", "--K", "-1",
            "--u", "8", "--trials", "100000", "--seed", "7",
        )
        assert code == EXIT_OK
        assert json.loads(out)["p_deviation_sigmas"] < 4.0

    def test_analytic_atom_is_the_atom_mass(self, capsys):
        # 1 - p is 1.1e-4 relative off the atom here
        code, out, _ = invoke(
            capsys, "simulate", "--d", "20", "--q", "5", "--gamma", "2", "--K", "-1",
            "--u", "1e-4", "--trials", "50", "--seed", "1",
        )
        assert code == EXIT_OK
        doc = json.loads(out)
        assert doc["analytic_atom"] == pytest.approx(ATOM_MPMATH[(20, 5, 2, 1e-4)],
                                                     rel=1e-11, abs=0.0)
        assert doc["p_deviation_sigmas"] == doc["atom_deviation_sigmas"]

    def test_computes_the_radial_mass_once(self, capsys):
        # the sampler and the unit-curvature law share one memoised radial mass,
        # and p, the atom and the CDF grid share one memoised law
        code, _, _ = invoke(
            capsys, "simulate", "--d", "7", "--q", "4", "--gamma", "2", "--K", "-0.7",
            "--u", "1.3", "--trials", "200", "--seed", "5",
        )
        assert code == EXIT_OK
        info = analytic.log_radial_mass.cache_info()
        assert info.misses == 1
        assert info.hits >= 1
        law = analytic._unit_law.cache_info()
        assert law.misses == 1
        assert law.hits >= 2

    def test_no_hits_is_valid_json(self, capsys):
        # p is 1.8e-39 here: nothing hits and there is no KS statistic
        def reject(name):
            raise ValueError(f"{name} is not JSON")

        code, out, _ = invoke(
            capsys, "simulate", "--d", "30", "--q", "2", "--gamma", "1", "--K", "-1",
            "--u", "4", "--trials", "2000", "--seed", "1",
        )
        assert code == EXIT_OK
        doc = json.loads(out, parse_constant=reject)
        assert doc["p_hat"] == 0.0 and doc["ks_statistic"] is None

    @pytest.mark.parametrize("argv, ks", [
        # frozen from the chi-square-ratio block stream of seed 7
        ([*BASE, "--trials", "100000", "--seed", "7"], 0.0036408),
        (["--d", "30", "--q", "3", "--gamma", "1", "--K", str(-1.0 / 30.0), "--u", "3",
          "--trials", "5000", "--seed", "3"], None),
    ])
    def test_ks_statistic_is_the_per_sample_one(self, capsys, argv, ks):
        code, out, _ = invoke(capsys, "simulate", *argv)
        assert code == EXIT_OK
        doc = json.loads(out)
        cfg = FlatConfig(doc["d"], doc["q"], doc["gamma"], doc["u"])
        K = Curvature(doc["curvature"])
        samples = simulate_distance_distribution(cfg, K, doc["trials"], doc["seed"]).finite_samples
        # each chunk of 128 samples is a grid of its own, on panels up to its own
        # last sample, not those that simulate takes up to the largest sample
        cdf = np.concatenate([analytic.distance_cdf_grid(cfg, K, samples[i:i + 128], Tolerance())
                              for i in range(0, samples.size, 128)])
        # and about 200 of them, the lowest 40 ranks among them, are the scalar CDF
        idx = np.unique(np.r_[np.arange(min(40, samples.size)),
                              np.linspace(0, samples.size - 1, 160).astype(int)])
        np.testing.assert_allclose(
            cdf[idx], [analytic.distance_cdf(cfg, K, float(x), Tolerance()) for x in samples[idx]],
            rtol=1e-12, atol=0.0)
        exact = ks_statistic(samples, cdf / doc["analytic_p"])
        assert doc["ks_statistic"] == pytest.approx(exact, rel=0.0, abs=1e-12)
        if ks is not None:
            assert doc["ks_statistic"] == pytest.approx(ks, rel=0.0, abs=5e-8)

    def test_threads_default_to_one(self):
        args = build_parser().parse_args(["simulate", *BASE, "--seed", "1"])
        assert args.threads == 1

    @pytest.mark.parametrize("threads", ["0", "-3"])
    def test_threads_below_one_rejected(self, capsys, threads):
        with pytest.raises(SystemExit) as exc:
            run(["simulate", *BASE, "--trials", "10", "--seed", "1",
                 "--threads", threads])
        assert exc.value.code == EXIT_USAGE
        assert "threads" in capsys.readouterr().err

    def test_repeat_identical(self, capsys):
        _, out1, _ = invoke(
            capsys, "simulate", *BASE, "--trials", "1000", "--seed", "7",
        )
        _, out2, _ = invoke(
            capsys, "simulate", *BASE, "--trials", "1000", "--seed", "7",
            "--threads", "4",
        )
        assert out1 == out2
