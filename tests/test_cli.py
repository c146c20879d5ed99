import csv
import io
import json
import math
import warnings

import pytest

import cqmeans
from cqmeans import estimators
from cqmeans.cli import main


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write_samples(tmp_path, text, name="data.txt"):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return str(path)


class TestEstimate:
    def test_geometric_plus_minus_one(self, tmp_path, capsys):
        path = write_samples(tmp_path, "1\n-1\n")
        code, out, _ = run_cli(capsys, "estimate", "--input", path,
                               "--estimator", "geometric", "--alpha", "0,0")
        assert code == 0
        payload = json.loads(out)
        assert payload["estimator"] == "geometric"
        assert payload["mu_hat"] == 0.0
        assert payload["sigma_hat"] == 1.0
        assert payload["n"] == 2
        assert payload["degenerate_imaginary"] is False

    def test_mobius_opposite_pair(self, tmp_path, capsys):
        path = write_samples(tmp_path, "10\n-10\n")
        code, out, _ = run_cli(capsys, "estimate", "--input", path,
                               "--estimator", "mobius", "--alpha", "0,1")
        assert code == 0
        payload = json.loads(out)
        assert payload["mu_hat"] == pytest.approx(0.0, abs=1e-12)
        assert payload["sigma_hat"] == pytest.approx(100.0, rel=1e-12)

    def test_parse_error_names_line(self, tmp_path, capsys):
        path = write_samples(tmp_path, "abc\n")
        code, _, err = run_cli(capsys, "estimate", "--input", path)
        assert code == 2
        assert "line 1" in err

    def test_parse_error_line_number_skips_comments(self, tmp_path, capsys):
        path = write_samples(tmp_path, "# header\n1.5\n\noops\n")
        code, _, err = run_cli(capsys, "estimate", "--input", path)
        assert code == 2
        assert "line 4" in err

    def test_comments_and_blanks_skipped(self, tmp_path, capsys):
        path = write_samples(tmp_path, "# comment\n\n2\n   \n8\n")
        code, out, _ = run_cli(capsys, "estimate", "--input", path,
                               "--estimator", "geometric", "--alpha", "0,0")
        assert code == 0
        assert json.loads(out)["mu_hat"] == pytest.approx(4.0, rel=1e-14)

    def test_stdin_input(self, capsys, monkeypatch):
        monkeypatch.setattr("sys.stdin", io.StringIO("1\n4\n"))
        code, out, _ = run_cli(capsys, "estimate", "--estimator", "geometric",
                               "--alpha", "0,0")
        assert code == 0
        assert json.loads(out)["mu_hat"] == pytest.approx(2.0, rel=1e-14)

    def test_missing_input_file_is_config_exit(self, capsys):
        code, _, err = run_cli(capsys, "estimate", "--input", "/no/such/file")
        assert code == 3
        assert "config error" in err

    def test_estimator_domain_error_is_config_exit(self, tmp_path, capsys):
        path = write_samples(tmp_path, "1\n2\n")
        code, _, err = run_cli(capsys, "estimate", "--input", path,
                               "--estimator", "mobius", "--alpha", "0,0")
        assert code == 3
        assert "config error" in err

    def test_two_step_needs_six_samples(self, tmp_path, capsys):
        path = write_samples(tmp_path, "1\n2\n3\n")
        code, _, _ = run_cli(capsys, "estimate", "--input", path,
                             "--estimator", "two-step", "--alpha", "0,1")
        assert code == 3

    @pytest.mark.parametrize("kind", sorted(estimators.KINDS))
    def test_every_flag_matches_library(self, kind, tmp_path, capsys):
        row = estimators.KINDS[kind]
        samples = [3.25, -1.5, 0.75, 12.0, -0.125, 2.0, 5.5, -7.0]
        path = write_samples(tmp_path, "".join(f"{x!r}\n" for x in samples))
        code, out, _ = run_cli(capsys, "estimate", "--input", path,
                               "--estimator", row.flag, "--alpha", "0.5,1.5")
        assert code == 0
        payload = json.loads(out)
        want = getattr(estimators, row.function)(samples, 0.5 + 1.5j)
        assert payload["estimator"] == kind
        assert payload["mu_hat"] == want.mu_hat
        assert payload["sigma_hat"] == want.sigma_hat

    def test_csv_output(self, tmp_path, capsys):
        path = write_samples(tmp_path, "1\n-1\n")
        code, out, _ = run_cli(capsys, "estimate", "--input", path,
                               "--estimator", "geometric", "--alpha", "0,0",
                               "--format", "csv")
        assert code == 0
        rows = list(csv.DictReader(io.StringIO(out)))
        assert len(rows) == 1
        assert float(rows[0]["sigma_hat"]) == 1.0


class TestVarianceTable:
    def test_reference_rows(self, capsys):
        code, out, _ = run_cli(capsys, "variance-table", "--mu", "0",
                               "--sigma", "1", "--estimator", "geometric",
                               "--alpha", "0,0")
        assert code == 0
        row = json.loads(out)["results"][0]
        assert row["n_var_limit"] == pytest.approx(4.934802, abs=1e-6)
        assert row["cramer_rao"] == 4.0
        assert row["efficiency"] == pytest.approx(0.8106, abs=1e-4)

        code, out, _ = run_cli(capsys, "variance-table", "--estimator", "mobius",
                               "--alpha", "0,1", "0,2")
        rows = json.loads(out)["results"]
        assert rows[0]["n_var_limit"] == 4.0
        assert rows[0]["efficiency"] == 1.0
        assert rows[1]["n_var_limit"] == 4.5
        assert rows[1]["efficiency"] == pytest.approx(8.0 / 9.0, rel=1e-12)

    def test_quadrature_failure_exit(self, capsys):
        code, _, err = run_cli(capsys, "variance-table", "--estimator",
                               "geometric", "--alpha", "0,1",
                               "--quad-tol", "1e-30")
        assert code == 4
        assert "error estimate" in err

    def test_bad_alpha_is_config_error(self, capsys):
        code, _, _ = run_cli(capsys, "variance-table", "--estimator", "mobius",
                             "--alpha", "nope")
        assert code == 3

    def test_geometric_limit_at_large_shift_is_positive(self, capsys):
        code, out, _ = run_cli(capsys, "variance-table", "--estimator", "geometric",
                               "--alpha", "0,1e8")
        assert code == 0
        row = json.loads(out)["results"][0]
        # 2 |i + 1e8 i|^2 ln 4 / 1e8, the large-shift asymptote
        assert row["n_var_limit"] == pytest.approx(2 * (1 + 1e8) ** 2 * math.log(4) / 1e8,
                                                   rel=1e-3)
        assert 0.0 < row["efficiency"] < 1.0


class TestSimulate:
    def test_small_run_passes_and_echoes_seed(self, capsys):
        code, out, _ = run_cli(capsys, "simulate", "--estimator", "mobius",
                               "--alpha", "0,1", "--n", "200", "--reps", "2000",
                               "--seed", "42")
        assert code == 0
        payload = json.loads(out)
        assert payload["seed"] == 42
        assert payload["all_pass"] is True
        assert payload["results"][0]["n_var"] == pytest.approx(4.0, rel=0.1)

    @pytest.mark.parametrize("reps", ["500", "2000"])
    def test_geometric_target_at_large_shift_is_positive(self, capsys, reps):
        code, out, _ = run_cli(capsys, "simulate", "--estimator", "geometric",
                               "--alpha", "0,1e5", "--n", "200", "--reps", reps,
                               "--seed", "1")
        assert code in (0, 5)
        result = json.loads(out)["results"][0]
        assert result["target_n_var"] == pytest.approx(
            2 * (1 + 1e5) ** 2 * math.log(4) / 1e5, rel=1e-3)
        assert result["n_var_rel_err"] >= 0.0

    def test_replication_minimum_is_config_error(self, capsys):
        code, _, _ = run_cli(capsys, "simulate", "--reps", "10")
        assert code == 3

    def test_verification_failure_still_writes_report(self, tmp_path, capsys):
        out_path = tmp_path / "report.json"
        code, _, _ = run_cli(capsys, "simulate", "--estimator", "mobius",
                             "--alpha", "0,1", "--n", "100", "--reps", "500",
                             "--seed", "1", "--nvar-rtol", "1e-9",
                             "--out", str(out_path))
        assert code == 5
        payload = json.loads(out_path.read_text())
        assert payload["all_pass"] is False

    def test_json_round_trips_byte_identical(self, capsys):
        code, out, _ = run_cli(capsys, "simulate", "--n", "100", "--reps", "500",
                               "--seed", "9")
        assert code == 0
        payload = json.loads(out)
        again = json.dumps(payload, indent=2, sort_keys=True) + "\n"
        assert again == out

    def test_csv_and_json_agree_numerically(self, capsys):
        args = ("simulate", "--estimator", "mobius", "--alpha", "0.5,1.5",
                "--n", "150", "--reps", "600", "--seed", "31")
        code, json_out, _ = run_cli(capsys, *args)
        assert code == 0
        code, csv_out, _ = run_cli(capsys, *args, "--format", "csv")
        assert code == 0
        payload = json.loads(json_out)
        row = next(csv.DictReader(io.StringIO(csv_out)))
        result = payload["results"][0]
        assert float(row["alpha_im"]) == payload["alpha_im"]
        assert float(row["seed"]) == payload["seed"]
        assert float(row["n_var"]) == result["n_var"]
        assert float(row["mean_re"]) == result["mean_re"]
        assert float(row["mean_im"]) == result["mean_im"]
        assert float(row["cov_0_0"]) == result["cov"][0][0]
        assert float(row["cov_0_1"]) == result["cov"][0][1]
        assert float(row["target_n_var"]) == result["target_n_var"]
        # 17-significant-digit (shortest round-trip) textual equality
        assert row["n_var"] == repr(result["n_var"])

    def test_uniform_source_flags(self, capsys):
        code, out, _ = run_cli(capsys, "simulate", "--source", "uniform",
                               "--lo", "1", "--hi", "2", "--estimator",
                               "geometric", "--alpha", "0,0", "--n", "200",
                               "--reps", "1000", "--seed", "3")
        assert code == 0
        assert json.loads(out)["source"]["kind"] == "uniform"

    def test_uniform_source_quadrature_miss_is_numerical_exit(self, capsys):
        # the near-pole at alpha = 1e-8 i defeats the target's quadrature, which
        # must stop the run instead of yielding a target with negative variance
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run_cli(capsys, "simulate", "--source", "uniform",
                                     "--lo", "-1", "--hi", "1", "--estimator",
                                     "mobius", "--alpha", "0,1e-8", "--n", "100",
                                     "--reps", "500", "--seed", "1")
        assert code == 4
        assert out == ""
        assert err.count("\n") == 1
        assert err.startswith("cqmeans: numerical error: ")

    def test_byte_identical_across_worker_counts(self, capsys):
        base = ("simulate", "--n", "100", "--reps", "1200", "--seed", "12321")
        code1, out1, _ = run_cli(capsys, *base, "--workers", "1")
        code4, out4, _ = run_cli(capsys, *base, "--workers", "4")
        assert code1 == code4 == 0
        assert out1 == out4


class TestCltCheck:
    def test_small_run(self, capsys):
        code, out, _ = run_cli(capsys, "clt-check", "--estimator", "mobius",
                               "--alpha", "0,1", "--n", "300", "--reps", "4000",
                               "--seed", "8")
        assert code == 0
        payload = json.loads(out)
        assert all(payload["clt_verdicts"].values())
        diag = payload["results"][0]["diagnostics"]
        assert abs(diag["offdiag_correlation"]) < 0.05

    def test_requires_enough_replications(self, capsys):
        code, _, _ = run_cli(capsys, "clt-check", "--reps", "500")
        assert code == 3

    def test_undefined_diagnostics_is_numerical_exit(self, capsys):
        # positive uniform samples at alpha = 0 give real estimates, so the
        # imaginary axis has zero variance and the CLT shape is undefined
        code, out, err = run_cli(capsys, "clt-check", "--source", "uniform",
                                 "--lo", "1", "--hi", "2", "--estimator",
                                 "geometric", "--alpha", "0,0", "--n", "20",
                                 "--reps", "1000", "--seed", "1")
        assert code == 4
        assert out == ""
        assert err.count("\n") == 1
        assert err.startswith("cqmeans: numerical error: ")
        assert "undefined" in err


class TestProvenance:
    @pytest.mark.parametrize("fmt", ["json", "csv"])
    @pytest.mark.parametrize("command", [
        ("simulate", "--n", "10", "--reps", "100", "--seed", "2"),
        ("clt-check", "--n", "10", "--reps", "1000", "--seed", "2"),
        ("harmonic-check", "--n", "3", "--reps", "100", "--seed", "2"),
    ])
    def test_reports_name_stream_and_package_version(self, capsys, command, fmt):
        code, out, _ = run_cli(capsys, *command, "--format", fmt)
        assert code in (0, 5)
        if fmt == "json":
            row = json.loads(out)
        else:
            row = next(csv.DictReader(io.StringIO(out)))
        assert str(row["stream_version"]) == "2"
        assert row["cqmeans_version"] == cqmeans.__version__


class TestHarmonicCheck:
    def test_passes_for_standard_cauchy(self, capsys):
        code, out, _ = run_cli(capsys, "harmonic-check", "--n", "7",
                               "--reps", "5000", "--seed", "4")
        assert code == 0
        payload = json.loads(out)
        assert payload["passed"] is True
        assert payload["statistic"] < payload["critical_value_1pct"]

    def test_negative_control_exits_5(self, capsys):
        code, out, _ = run_cli(capsys, "harmonic-check", "--n", "7",
                               "--reps", "5000", "--seed", "4",
                               "--ref-sigma", "2")
        assert code == 5
        assert json.loads(out)["passed"] is False


class TestNegativeShift:
    """A shift with a negative real part given after ``--alpha`` as its own word."""

    @pytest.mark.parametrize("command", ["simulate", "clt-check", "estimate"])
    def test_separate_word_reads_like_the_equals_form(self, tmp_path, capsys, command):
        argv = {
            "simulate": ["--n", "10", "--reps", "200", "--seed", "2"],
            "clt-check": ["--n", "10", "--reps", "1000", "--seed", "2"],
            "estimate": ["--input", write_samples(tmp_path, "0.5\n-3\n2\n"),
                         "--estimator", "mobius"],
        }[command]
        spaced = run_cli(capsys, command, *argv, "--alpha", "-1,0.5")
        joined = run_cli(capsys, command, *argv, "--alpha=-1,0.5")
        assert spaced == joined
        code, out, _ = spaced
        assert code in (0, 5)
        payload = json.loads(out)
        assert (payload["alpha_re"], payload["alpha_im"]) == (-1.0, 0.5)

    def test_variance_table_lists_a_negative_shift_after_another(self, capsys):
        table = ("variance-table", "--estimator", "geometric")
        code, out, _ = run_cli(capsys, *table, "--alpha", "0,1", "-1,0.5")
        assert code == 0
        rows = json.loads(out)["results"]
        assert [(row["alpha_re"], row["alpha_im"]) for row in rows] == [(0.0, 1.0), (-1.0, 0.5)]
        singles = [json.loads(run_cli(capsys, *table, *flag)[1])["results"][0]
                   for flag in (["--alpha", "0,1"], ["--alpha=-1,0.5"])]
        assert rows == singles
