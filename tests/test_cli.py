import csv
import io
import json
import math
import sys
import warnings
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import cqmeans
from cqmeans import DomainError, estimators
from cqmeans.cli import ParseError, _read_samples, main


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

    @pytest.mark.parametrize("data, line", [
        (b"1\n2\n3\xe9\n", 3),
        (b"# caf\xe9\n1\n", 1),
        (b"1\r\n2\r\n\r\n\xff\r\n", 4),
        (b"1\n\xe2\x82", 2),
    ])
    def test_input_that_is_not_utf8_is_parse_exit(self, data, line, tmp_path, capsys,
                                                 monkeypatch):
        path = tmp_path / "latin1.txt"
        path.write_bytes(data)
        code, out, err = run_cli(capsys, "estimate", "--input", str(path))
        assert (code, out) == (2, "")
        assert err.startswith(f"cqmeans: parse error: line {line}: ")
        assert "UTF-8" in err
        monkeypatch.setattr("sys.stdin", io.TextIOWrapper(io.BytesIO(data)))
        assert run_cli(capsys, "estimate") == (code, out, err)


# a line the parser must read as the per-line loop of ``_oracle`` does
_PAD = st.sampled_from(["", " ", "\t", "\x0c", "  \t \x0c"])
_FINITE = st.floats(allow_nan=False, allow_infinity=False)
_NUMBER = st.one_of(
    _FINITE.map(repr),
    _FINITE.map(lambda x: "%.17g" % x),
    st.sampled_from(["1_000", "inf", "-Infinity", "nan", "-0", "+.5e-3"]),
)
_FILLER = st.one_of(
    _PAD,
    st.builds(lambda pad, text: pad + "#" + text, _PAD, st.text("abc 12#\t", max_size=8)),
)
_BAD = st.sampled_from(["1,5", "0x10", "1 2"])


def _padded(token):
    return st.builds(lambda a, x, b: a + x + b, _PAD, token, _PAD)


@st.composite
def _sample_files(draw):
    """The bytes of a UTF-8 sample file.

    Numbers lie between blocks of fillers that may be empty, as in
    ``np.savetxt``'s output, so the bulk read takes them at once; sometimes
    fillers and bad tokens lie among them, which the line-by-line walk reads.
    """
    body = draw(st.lists(_padded(_NUMBER), max_size=20))
    if draw(st.booleans()):
        for among in (_FILLER, _padded(_BAD)):
            for _ in range(draw(st.integers(0, 2))):
                body.insert(draw(st.integers(0, len(body))), draw(among))
    lines = draw(st.lists(_FILLER, max_size=3)) + body + draw(st.lists(_FILLER, max_size=3))
    ends = draw(st.lists(st.sampled_from(["\n", "\r\n"]), min_size=len(lines),
                         max_size=len(lines)))
    text = "".join(line + end for line, end in zip(lines, ends))
    if lines and draw(st.booleans()):
        text = text.rstrip("\r\n")
    return text.encode("utf-8")


def _oracle(path):
    """The per-line parsing loop that the bulk parser replaced."""
    with open(path, "r", encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    samples = []
    for lineno, raw in enumerate(lines, start=1):
        text = raw.strip()
        if not text or text.startswith("#"):
            continue
        try:
            samples.append(float(text))
        except ValueError:
            raise ParseError(lineno, text)
    if not samples:
        raise DomainError("no samples in input")
    return samples


def _parsed(read, source):
    """``read(source)`` as float64 bytes, or the error class and message it raises."""
    try:
        values = read(source)
    except (ParseError, DomainError) as exc:
        return type(exc), str(exc)
    return np.asarray(values, dtype=np.float64).tobytes()


class TestBulkParser:
    @settings(max_examples=300, deadline=None)
    @given(data=_sample_files())
    # np.savetxt's layout, read at once; then a blank and a comment among the samples
    @example(data=b"# C(0.0, 1.0) sample, 3 lines\n1.5\n-2.25e-3\n1_000\n\n")
    @example(data=b"1.5\r\n\r\n-2.25e-3\n# x\n1_000\n")
    def test_matches_the_per_line_loop(self, data, tmp_path_factory):
        path = tmp_path_factory.mktemp("parse") / "samples.txt"
        path.write_bytes(data)
        want = _parsed(_oracle, path)
        assert _parsed(_read_samples, str(path)) == want
        with mock.patch.object(sys, "stdin", io.TextIOWrapper(io.BytesIO(data))):
            assert _parsed(_read_samples, "-") == want

    def test_returns_a_float_array(self, tmp_path):
        values = _read_samples(write_samples(tmp_path, "# h\n1_000\n\x0c-inf \n"))
        assert isinstance(values, np.ndarray) and values.dtype == np.float64
        assert values.tolist() == [1000.0, -math.inf]


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

    def test_quad_tol_is_refused(self):
        # the Cauchy limits are closed forms; the flag is gone
        with pytest.raises(SystemExit) as excinfo:
            main(["variance-table", "--estimator", "geometric", "--alpha", "0,1",
                  "--quad-tol", "1e-30"])
        assert excinfo.value.code == 2

    def test_two_step_rows(self, capsys):
        code, out, _ = run_cli(capsys, "variance-table", "--estimator", "two-step",
                               "--alpha", "0,1", "3,0.5")
        assert code == 0
        for row in json.loads(out)["results"]:
            assert (row["estimator"], row["n_var_limit"], row["efficiency"]) == (
                "two_step_mobius", 8.0, 0.5)
        code, _, err = run_cli(capsys, "variance-table", "--estimator", "two-step",
                               "--alpha", "0,0")
        assert code == 3
        assert "config error" in err

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

    def test_uniform_source_bad_target_is_numerical_exit(self, capsys):
        # 1/(x + alpha) overflows next to alpha = 1e-320 i, so the target's moments
        # are not finite: the run stops instead of writing Infinity into a report
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run_cli(capsys, "simulate", "--source", "uniform",
                                     "--lo", "-1", "--hi", "1", "--estimator",
                                     "mobius", "--alpha", "0,1e-320", "--n", "100",
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
        assert str(row["stream_version"]) == "3"
        assert row["cqmeans_version"] == cqmeans.__version__

    def test_the_package_version_has_one_owner(self):
        """pyproject.toml reads the version that reports echo from ``_version``."""
        tomllib = pytest.importorskip("tomllib")
        path = Path(__file__).resolve().parents[1] / "pyproject.toml"
        project = tomllib.loads(path.read_text(encoding="utf-8"))
        assert "version" not in project["project"]
        assert "version" in project["project"]["dynamic"]
        assert project["tool"]["setuptools"]["dynamic"]["version"] == {
            "attr": "cqmeans._version.__version__"}


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


class TestExitCodes:
    @pytest.mark.parametrize("argv", [
        "variance-table --estimator geometric --alpha 1e308,1e308",
        "variance-table --estimator mobius --alpha 1e200,1",
        "simulate --estimator mobius --alpha 1e200,1 --n 10 --reps 100 --seed 1",
        "simulate --estimator two-step --sigma 1e200 --n 10 --reps 100 --seed 1",
        "simulate --estimator geometric --mu 1e200 --alpha 0,1 --n 10 --reps 100 --seed 1",
        "clt-check --estimator mobius --alpha 1e200,1 --n 10 --reps 1000 --seed 1",
        # the limit underflows to 0 and the efficiency divides by it
        "variance-table --estimator mobius --sigma 1e-200 --alpha 0,1e-200",
        # 1/(x + alpha) of a uniform source's target overflows next to alpha = 1e-320 i
        "simulate --source uniform --lo -1 --hi 1 --estimator mobius --alpha 0,1e-320 "
        "--n 10 --reps 100 --seed 1",
    ])
    def test_overflow_is_numerical_exit(self, capsys, argv):
        code, out, err = run_cli(capsys, *argv.split())
        assert code == 4
        assert out == ""
        assert "numerical error" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("argv, function", [
        ("variance-table --estimator geometric --alpha 1e308,1e308",
         "asymptotic_variance_geometric"),
        ("variance-table --estimator mobius --alpha 1e200,1", "asymptotic_variance_mobius"),
        ("simulate --estimator mobius --alpha 1e200,1 --n 10 --reps 100 --seed 1",
         "asymptotic_variance_mobius"),
        ("simulate --estimator two-step --sigma 1e200 --n 10 --reps 100 --seed 1",
         "asymptotic_variance_two_step"),
        ("simulate --estimator geometric --mu 1e200 --alpha 0,1 --n 10 --reps 100 --seed 1",
         "asymptotic_variance_geometric"),
        ("clt-check --estimator mobius --alpha 1e200,1 --n 10 --reps 1000 --seed 1",
         "asymptotic_variance_mobius"),
        ("variance-table --estimator mobius --sigma 1e-200 --alpha 0,1e-200",
         "asymptotic_variance_mobius"),
        ("variance-table --estimator mobius --sigma 1e200 --alpha 0,1", "cramer_rao_bound"),
        ("harmonic-check --n 3 --reps 100 --seed 1 --ref-sigma 1e308", "draw"),
    ])
    def test_overflow_message_names_its_function(self, capsys, argv, function):
        code, out, err = run_cli(capsys, *argv.split())
        assert code == 4
        assert out == ""
        assert err.startswith(f"cqmeans: numerical error: {function}: ")
        assert "flows" in err  # overflows, or underflows to 0

    @pytest.mark.parametrize("flag, alpha, transform", [
        ("geometric", "1e308,0", "ShiftedLog"),
        ("geometric", "1e308,1", "ShiftedLog"),
        ("mobius", "1e308,1", "MobiusReciprocal"),
        ("two-step", "1e308,1", "MobiusReciprocal"),
    ])
    def test_overflowing_shift_is_numerical_exit(self, tmp_path, capsys, flag, alpha, transform):
        path = write_samples(tmp_path, "1.0\n1.7e308\n" + "1.0\n" * 4)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run_cli(capsys, "estimate", "--input", path,
                                     "--estimator", flag, "--alpha", alpha)
        assert (code, out) == (4, "")
        assert err == f"cqmeans: numerical error: {transform}: x + alpha overflows at sample 1\n"

    @pytest.mark.parametrize("argv", [
        "simulate --nvar-rtol inf --n 10 --reps 200 --seed 1",
        "clt-check --max-corr nan --n 10 --reps 1000 --seed 1",
        "clt-check --min-qq inf --n 10 --reps 1000 --seed 1",
    ])
    def test_thresholds_that_json_cannot_hold_are_config_exit(self, capsys, argv):
        # the report would echo them as Infinity or NaN, which is not JSON
        code, out, err = run_cli(capsys, *argv.split())
        assert (code, out) == (3, "")
        assert err.startswith("cqmeans: config error: ")

    @pytest.mark.parametrize("sizes", ["1,x", ","])
    def test_bad_sample_sizes_are_config_exit(self, capsys, sizes):
        code, _, err = run_cli(capsys, "simulate", "--n", sizes)
        assert code == 3
        assert "config error" in err


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
