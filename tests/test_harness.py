import json
import os

import numpy as np
import pytest

import nandwalk.dynamics as dynamics
import nandwalk.harness as harness
from nandwalk import cli_main, eval_nand, parse_input, scan_bounds, sweep
from nandwalk.harness import config_hash, csv_cell


def run_cli(capsys, *argv):
    code = cli_main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestEval:
    def test_prints_value(self, capsys):
        code, out, _ = run_cli(capsys, "eval", "--input", "0110")
        assert code == 0
        assert out.strip() == "0"

    def test_json_with_randomized_trace(self, capsys):
        code, out, _ = run_cli(capsys, "eval", "--input", "0110",
                               "--seed", "7", "--format", "json")
        assert code == 0
        obj = json.loads(out)
        assert obj["value"] == 0
        assert obj["randomized_value"] == 0
        assert 1 <= obj["queries"] <= 4

    def test_seed_without_json_is_usage_error(self, capsys):
        code, out, err = run_cli(capsys, "eval", "--input", "0110", "--seed", "3")
        assert code == 2
        assert out == ""
        assert "--format json" in err

    def test_bad_input_is_usage_error(self, capsys):
        code, _, err = run_cli(capsys, "eval", "--input", "011")
        assert code == 2
        assert "power of two" in err


class TestScatter:
    def test_all_rows_pass(self, capsys):
        code, out, _ = run_cli(capsys, "scatter", "--input", "11",
                               "--emax", "auto", "--points", "16")
        assert code == 0
        lines = out.strip().split("\n")
        header = [ln for ln in lines if ln.startswith("#")]
        assert any("config_hash" in ln for ln in header)
        assert any("schema" in ln for ln in header)
        assert any("version" in ln for ln in header)
        data = [ln for ln in lines if not ln.startswith("#")]
        assert data[0].startswith("N,instance_id,E")
        assert len(data) == 17
        assert all(ln.endswith(",true") for ln in data[1:])

    def test_out_file(self, capsys, tmp_path):
        path = tmp_path / "scatter.csv"
        code, _, _ = run_cli(capsys, "scatter", "--input", "0110",
                             "--points", "8", "--out", str(path))
        assert code == 0
        assert path.read_text().count("\n") >= 9

    @pytest.mark.parametrize("emax", ["auto", "0.01"])
    def test_empty_grid_is_usage_error(self, capsys, emax):
        code, out, err = run_cli(capsys, "scatter", "--input", "01",
                                 "--emax", emax, "--points", "0")
        assert code == 2
        assert out == ""
        assert "empty" in err

    def test_nan_emax_is_usage_error(self, capsys):
        code, out, err = run_cli(capsys, "scatter", "--input", "01",
                                 "--emax", "nan", "--points", "3")
        assert code == 2
        assert out == ""
        assert "grid energies" in err

    def test_bound_violation_exits_one(self, capsys, monkeypatch):
        def failing_scan(tree, grid):
            report = scan_bounds(tree, grid)
            report.rows[0]["pass"] = False
            return report

        monkeypatch.setattr(harness, "scan_bounds", failing_scan)
        code, out, err = run_cli(capsys, "scatter", "--input", "11", "--points", "4")
        assert code == 1
        assert out.count(",false") == 1
        assert "1 bound violations" in err

    def test_json_format(self, capsys):
        code, out, _ = run_cli(capsys, "scatter", "--input", "11",
                               "--points", "4", "--format", "json")
        assert code == 0
        obj = json.loads(out)
        assert len(obj["rows"]) == 4
        assert all(r["pass"] for r in obj["rows"])
        assert obj["schema"][0] == "N"


class TestRun:
    def test_decision_matches_classical(self, capsys):
        code, out, _ = run_cli(capsys, "run", "--input", "0110", "--gamma", "16")
        assert code == 0
        obj = json.loads(out)
        assert obj["decision"] == eval_nand(parse_input("0110")) == 0
        assert obj["analytic_T0_sq"] == 0.0
        assert "config_hash" in obj and "version" in obj

    def test_several_gammas_are_a_usage_error(self, capsys):
        code, out, _ = run_cli(capsys, "run", "--input", "01", "--gamma", "8", "16")
        assert code == 2
        assert out == ""

    @pytest.mark.parametrize("gamma", ["inf", "nan"])
    def test_non_finite_gamma_is_usage_error(self, capsys, gamma):
        code, out, err = run_cli(capsys, "run", "--input", "01", "--gamma", gamma)
        assert code == 2
        assert out == ""
        assert "finite" in err

    def test_norm_drift_is_a_numerical_failure(self, capsys, monkeypatch):
        monkeypatch.setattr(dynamics, "evolve_cheb", lambda H, psi, t: 1.01 * psi)
        code, out, err = run_cli(capsys, "run", "--input", "0110", "--gamma", "4")
        assert code == 1
        assert out == ""
        assert "norm" in err


class TestSweep:
    def test_rows_and_summary(self, capsys):
        code, out, _ = run_cli(
            capsys, "sweep", "--n", "4", "--gamma", "4", "16",
            "--instances", "3", "--seed", "1",
        )
        assert code == 0
        lines = out.strip().split("\n")
        data = [ln for ln in lines if not ln.startswith("#")]
        assert data[0] == "N,instance_id,gamma,L,M,t_run,p_right,T0_sq,decision,nand,correct"
        assert len(data) == 1 + 3 * 2
        # decisions are reliable at gamma = 16; gamma = 4 may misclassify
        gamma16 = [ln for ln in data[1:] if ln.split(",")[2] == "16"]
        assert gamma16 and all(ln.split(",")[-1] == "1" for ln in gamma16)
        summaries = [ln for ln in lines if ln.startswith("# summary")]
        assert len(summaries) >= 2

    def test_byte_identical_reproducibility(self, capsys, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        for path in (a, b):
            code = cli_main(["sweep", "--n", "4", "--gamma", "8",
                             "--instances", "2", "--seed", "5", "--out", str(path)])
            assert code == 0
        strip = lambda p: [ln for ln in p.read_text().splitlines()
                           if not ln.startswith("# generated_at")]
        assert strip(a) == strip(b)

    def test_empty_grid_is_usage_error(self, capsys):
        code, _, err = run_cli(capsys, "sweep", "--n", "4", "--gamma", "8",
                               "--instances", "0")
        assert code == 2
        assert "empty" in err

    @pytest.mark.parametrize("args, name", [
        ((16.0, [4.0], 1, 0), "n_leaves"), ((16, [4.0], 1.5, 0), "instances"),
        ((16, [4.0], 1, 1.5), "seed"), ((16, [4.0], True, 0), "instances"),
    ], ids=["float_n", "float_instances", "float_seed", "bool_instances"])
    def test_rejects_non_integer_arguments(self, args, name):
        # the floats used to raise TypeError, and True ran as one instance
        with pytest.raises(ValueError, match=f"^{name} must be an integer"):
            sweep(*args)

    @pytest.mark.parametrize("argv, message", [
        (("--n", "4", "--instances", "-1"), "sweep grid is empty"),
        (("--n", "0", "--instances", "1"), "instance length 0 is not a power of two"),
        (("--n", "6", "--instances", "1"), "instance length 6 is not a power of two"),
        (("--n", "-1", "--instances", "1"), "n_leaves must be an integer >= 0, got -1"),
        (("--n", "4", "--instances", "1", "--seed", "-1"), "seed must be an integer >= 0, got -1"),
    ], ids=["instances_-1", "n_0", "n_6", "n_-1", "seed_-1"])
    def test_integer_usage_errors(self, capsys, argv, message):
        # n = -1 and seed = -1 used to print numpy's own messages
        code, out, err = run_cli(capsys, "sweep", "--gamma", "8", *argv)
        assert (code, out) == (2, "")
        assert err.startswith(f"error: {message}")

    def test_repeated_gamma_is_usage_error(self, capsys):
        code, out, err = run_cli(capsys, "sweep", "--n", "4", "--gamma", "16", "16",
                                 "--instances", "1")
        assert code == 2
        assert out == ""
        assert "repeat" in err
        with pytest.raises(ValueError, match="repeat"):
            sweep(4, [16.0, 4.0, 16], instances=1, seed=0)

    def test_non_finite_gamma_is_usage_error(self, capsys):
        code, out, err = run_cli(capsys, "sweep", "--n", "4", "--gamma", "inf",
                                 "--instances", "1")
        assert code == 2
        assert out == ""
        assert "finite" in err

    def test_parallel_matches_serial(self):
        rows_serial, _ = sweep(4, [8.0], instances=3, seed=9)
        try:
            os.environ["NANDWALK_WORKERS"] = "2"
            rows_par, _ = sweep(4, [8.0], instances=3, seed=9)
        finally:
            del os.environ["NANDWALK_WORKERS"]
        assert rows_serial == rows_par

    @pytest.mark.parametrize("workers", ["two", "0", "-3"])
    def test_malformed_worker_count_is_usage_error(self, capsys, monkeypatch, workers):
        monkeypatch.setenv("NANDWALK_WORKERS", workers)
        code, out, err = run_cli(capsys, "sweep", "--n", "4", "--gamma", "8",
                                 "--instances", "1")
        assert code == 2
        assert out == ""
        assert "NANDWALK_WORKERS" in err

    def test_summary_error_rate_shrinks(self):
        _, summary = sweep(4, [16.0, 4.0], instances=4, seed=3)
        assert list(summary.by_gamma) == [4.0, 16.0]
        assert summary.by_gamma[16.0]["mean_abs_err"] < summary.by_gamma[4.0]["mean_abs_err"]
        assert summary.fit_exponent < 0.0
        _, single = sweep(4, [8.0], instances=1, seed=3)
        assert single.fit_exponent is None

    def test_json_format(self, capsys):
        code, out, _ = run_cli(capsys, "sweep", "--n", "4", "--gamma", "8", "16",
                               "--instances", "2", "--seed", "5", "--format", "json")
        assert code == 0
        obj = json.loads(out)
        assert len(obj["rows"]) == 4
        assert set(obj["summary"]) == {"8", "16", "fit_exponent"}

    def test_error_rate_nonincreasing_in_gamma(self):
        # 16 random instances at N=16 across a 16x gamma span
        _, summary = sweep(16, [4.0, 16.0, 64.0], instances=16, seed=11)
        rates = [summary.by_gamma[g]["error_rate"] for g in (4.0, 16.0, 64.0)]
        assert rates[0] >= rates[1] >= rates[2]
        assert rates[2] == 0.0
        errs = [summary.by_gamma[g]["mean_abs_err"] for g in (4.0, 16.0, 64.0)]
        assert errs[0] > errs[1] > errs[2]
        # measured decay on these graphs; faster than the conservative -1/2
        assert -1.1 <= summary.fit_exponent <= -0.7


class TestEmbedParityCommand:
    def test_verifies(self, capsys):
        code, out, _ = run_cli(capsys, "embed-parity", "--k", "4")
        assert code == 0
        obj = json.loads(out)
        assert obj["verified"] is True
        assert obj["n_leaves"] == 16
        assert len(obj["blocks"]) == 4

    def test_instance_emission(self, capsys):
        code, out, _ = run_cli(capsys, "embed-parity", "--k", "2", "--bits", "10")
        assert code == 0
        obj = json.loads(out)
        assert obj["instance_value"] == 0  # (1 + 1 + 0) mod 2

    def test_bits_length_must_match_k(self, capsys):
        code, out, err = run_cli(capsys, "embed-parity", "--k", "4", "--bits", "01")
        assert code == 2
        assert out == ""
        assert "--bits" in err

    @pytest.mark.parametrize("k", ["-4", "0", "3"])
    def test_rejects_k_not_a_power_of_two(self, capsys, k):
        code, out, err = run_cli(capsys, "embed-parity", "--k", k)
        assert code == 2
        assert out == ""
        assert "power of two" in err


class TestDiagnose:
    def test_default_checks_pass(self, capsys):
        code, out, _ = run_cli(capsys, "diagnose", "--L", "16", "64", "--eps", "0.1", "0.3")
        assert code == 0
        lines = [ln for ln in out.strip().split("\n") if not ln.startswith("#")]
        assert lines[0] == "L,eps,quantity,value,bound,pass"
        assert all(ln.endswith(",true") for ln in lines[1:])
        quantities = {ln.split(",")[2] for ln in lines[1:]}
        assert quantities == {"band_total", "tail_mass", "alt_peak"}

    @pytest.mark.parametrize("L", ["0", "-16"])
    def test_nonpositive_length_is_usage_error(self, capsys, L):
        code, out, err = run_cli(capsys, "diagnose", "--L", L, "--eps", "0.1")
        assert code == 2
        assert out == ""
        assert "L must be" in err

    def test_failed_check_exits_one(self, capsys, monkeypatch):
        monkeypatch.setattr(harness, "parseval_total", lambda L: 0.5)
        code, out, err = run_cli(capsys, "diagnose", "--L", "16", "--eps", "0.1")
        assert code == 1
        assert ",band_total," in out and out.count(",false") == 1
        assert "violated" in err

    def test_json_format(self, capsys):
        code, out, _ = run_cli(capsys, "diagnose", "--L", "16", "--eps", "0.1",
                               "--format", "json")
        assert code == 0
        obj = json.loads(out)
        assert all(r["pass"] for r in obj["rows"])


class TestCsvJsonAgree:
    @pytest.mark.parametrize("argv", [
        ("scatter", "--input", "0110", "--points", "6"),
        ("sweep", "--n", "4", "--gamma", "4", "16", "--instances", "2", "--seed", "3"),
        ("diagnose", "--L", "16", "--eps", "0.1"),
    ])
    def test_same_rows_in_both_formats(self, capsys, argv):
        code, text, _ = run_cli(capsys, *argv, "--format", "csv")
        assert code == 0
        code, js, _ = run_cli(capsys, *argv, "--format", "json")
        assert code == 0
        obj = json.loads(js)
        schema = obj["schema"]
        lines = [ln for ln in text.splitlines() if not ln.startswith("#")]
        assert lines[0] == ",".join(schema)
        assert len(lines) == 1 + len(obj["rows"])
        for line, row in zip(lines[1:], obj["rows"]):
            assert sorted(row) == sorted(schema)
            assert line == ",".join(csv_cell(c, row[c]) for c in schema)


class TestFormatErrors:
    def test_run_rejects_csv(self, capsys):
        code, _, err = run_cli(capsys, "run", "--input", "01",
                               "--gamma", "8", "--format", "csv")
        assert code == 2
        assert "json" in err

    @pytest.mark.parametrize("argv", [
        ("eval", "--input", "0110"),
        ("embed-parity", "--k", "4"),
    ])
    def test_csv_is_usage_error(self, capsys, argv):
        code, out, err = run_cli(capsys, *argv, "--format", "csv")
        assert code == 2
        assert out == ""
        assert "invalid choice" in err


class TestUnwritableOut:
    @pytest.mark.parametrize("argv", [
        ("run", "--input", "01", "--gamma", "4"),
        ("sweep", "--n", "4", "--gamma", "8", "--instances", "1"),
    ])
    def test_is_usage_error(self, capsys, tmp_path, argv):
        path = tmp_path / "missing" / "x"
        code, out, err = run_cli(capsys, *argv, "--out", str(path))
        assert code == 2
        assert out == ""
        assert err.startswith(f"error: cannot write {path}")
        assert not path.parent.exists()

    @pytest.mark.parametrize("argv, counted", [
        (("sweep", "--n", "4", "--gamma", "8", "--instances", "1"), "_sweep_task"),
        (("scatter", "--input", "0110", "--points", "3"), "scan_bounds"),
    ])
    def test_fails_before_computing(self, capsys, monkeypatch, tmp_path, argv, counted):
        calls = []
        real = getattr(harness, counted)

        def counting(*args, **kwargs):
            calls.append(args)
            return real(*args, **kwargs)

        monkeypatch.setattr(harness, counted, counting)
        path = tmp_path / "missing" / "x.csv"
        code, _, err = run_cli(capsys, *argv, "--out", str(path))
        assert code == 2 and calls == []
        assert err.startswith(f"error: cannot write {path}: No such file or directory")
        code, _, _ = run_cli(capsys, *argv, "--out", str(tmp_path / "x.csv"))
        assert code == 0 and len(calls) == 1

    def test_check_leaves_files_alone(self, tmp_path):
        # a file the check creates is removed; an existing one keeps its bytes
        fresh, kept = tmp_path / "fresh.csv", tmp_path / "kept.csv"
        kept.write_text("old\n")
        harness._check_out(str(fresh))
        harness._check_out(str(kept))
        assert not fresh.exists() and kept.read_text() == "old\n"


class TestUsage:
    def test_no_command(self, capsys):
        assert cli_main([]) == 2

    def test_unknown_command(self, capsys):
        assert cli_main(["frobnicate"]) == 2

    def test_help_exits_zero(self, capsys):
        assert cli_main(["--help"]) == 0

    def test_one_parser_per_process(self, capsys):
        # the parser is built once, so every parse shares its list defaults,
        # which no handler may mutate
        harness.build_parser.cache_clear()
        for _ in range(2):
            assert cli_main(["sweep", "--n", "2", "--instances", "1"]) == 0
        assert harness.build_parser.cache_info()[:2] == (1, 1)  # hits, misses
        assert harness.build_parser().parse_args(["sweep", "--n", "2"]).gamma == [4.0, 16.0, 64.0]

    def test_other_exceptions_escape(self, monkeypatch):
        # only ValueError (exit 2) and ArithmeticError (exit 1) are mapped; a
        # KeyError from a programming slip used to be reported as a usage error
        def slip(tree):
            raise KeyError("missing column")

        monkeypatch.setattr(harness, "eval_nand", slip)
        with pytest.raises(KeyError, match="missing column"):
            cli_main(["eval", "--input", "01"])

    @pytest.mark.parametrize("command", ["eval", "scatter", "run", "sweep",
                                         "embed-parity", "diagnose"])
    def test_subcommand_help(self, capsys, command):
        code, out, _ = run_cli(capsys, command, "--help")
        assert code == 0
        assert "--format" in out
        assert "--m-factor" not in out

    @pytest.mark.parametrize("command", ["eval", "scatter", "run", "sweep",
                                         "embed-parity", "diagnose"])
    def test_help_states_each_default_once(self, capsys, command):
        _, out, _ = run_cli(capsys, command, "--help")
        assert "(default: None)" not in out
        assert out.count("(default: stdout)") == ("--out" in out)


class TestConfigHash:
    def test_hash_stable_and_canonical(self):
        a = config_hash("run", {"x": 1, "y": [2, 3]})
        b = config_hash("run", {"y": [2, 3], "x": 1})
        assert a == b
        assert len(a) == 16

    def test_hash_differs_with_params(self):
        assert config_hash("run", {"x": 1}) != config_hash("run", {"x": 2})
