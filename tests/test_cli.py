import csv
import functools
import io
import json
import math
import sys
import tracemalloc
import warnings
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import cqmeans
from cqmeans import DomainError, _decimal, cli, estimators
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


def _midpoints():
    """Exact decimal midpoints between adjacent doubles, integers of 16-19 digits."""
    out = []
    for k in (53, 54, 57, 60, 63):
        for j in (0, 1, 2, 5):
            mid = 2**k + j * 2 ** (k - 52) + 2 ** (k - 53)
            text = str(mid)
            out += [text, f"{text[0]}.{text[1:]}e{len(text) - 1}", f"-{text}.000"]
    return out


def _powers_of_two():
    """Powers of two and their neighbours, to 17 digits: below a power of two the gap halves."""
    out = []
    for k in (-1022, -1000, -969, -960, -300, -60, -1, 0, 1, 52, 53, 60, 100, 960, 1000, 1023):
        x = 2.0**k
        out += ["%.17g" % y for y in (x, np.nextafter(x, 0.0), np.nextafter(x, math.inf))]
    return out


# lines the reader must read as ``_oracle`` does, one file each
_HARD = [
    # 17, 18 and 19 significant digits, and 20 (left to float())
    "1.2345678901234567", "12345678901234567", "-98765432109876543",
    "1.23456789012345678", "123456789012345678", "-0.123456789012345678",
    "1.234567890123456789", "9999999999999999999", "1844674407370955161",
    "0.1234567890123456789", "1.2345678901234567890", "12345678901234567891",
    # 20 to 25 digits, the first of them zeros
    "0.0015316186470433202", "0.00012345678901234567", "-0.000123456789012345678",
    "0.00000000000000000001234", "000000000000000000001", "0000000000000000000000001.5",
    "0.000000000000000000000001", "0.0000000000000000000000012",
    # exponents near the ends of the range, subnormals, underflow and overflow
    "1.7976931348623157e308", "1.7976931348623158e308", "1.7976931348623159e308",
    "-1e308", "9.9999999999999999e307", "2.2250738585072014e-308", "2.2250738585072011e-308",
    "2.2250738585072009e-308", "4.9406564584124654e-324", "2.4703282292062327e-324",
    "2.4703282292062328e-324", "1e-324", "1.23e-320", "1e-400", "1e400", "-1e400",
    "1e288", "1e-288", "1e289", "1e-289", "9.999999999999999e-289", "1.0000000000000001e288",
    # around 2**53 + 1, and 1e23, the classic hard case
    "9007199254740993", "9007199254740993.0", "9.007199254740993e15", "9007199254740992.9999",
    "9007199254740993.0001", "9007199254740995", "9007199254740994.5", "18014398509481986",
    "1e23", "1E23", "8.98846567431158e307", "1e22", "1e-22", "0.1", "0.3",
    # exact midpoints just below 2**51, 2**53 and 2**60, and the decimals next to them
    "2251799813685247.875", "2251799813685247.874", "2251799813685247.876",
    "9007199254740991.5", "-9.0071992547409915e15", "1152921504606846912",
    "1152921504606846911", "1152921504606846913",
    # grammar edges
    "-0", "+.5", "5.", "1e5", ".", "1e", "--1", "+-1", "1e+", "1.5e-", "1..5", "1e5e5",
    "1.5.", "e5", "-", "+", "1e+05", "1E-5", "-.5E+3", "0e999999", "-0.0e-999", "-0e0",
    "1e00000005", "1e000000005", "1.5e-0", "0.", "-.0", "1 5", "1_5", "0x1p3", "1,5",
    # blanks around a number, as fixed-width columns write it
    " 1.5", "\t-2.25e-3 ", "   -0.12345678901234567", "1e5\t\t", "   ", " 1.5 2", " \x0b1.5",
    " " * 40 + "1.2345678901234567e-300", " 12345678901234567 ",
    *_midpoints(), *_powers_of_two(),
]


@functools.cache
def _good_lines():
    """50,010 standard Cauchy samples to 17 digits."""
    return ["%.17g" % x for x in np.random.default_rng(11).standard_cauchy(50_010)]


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

    @pytest.mark.parametrize("line", _HARD)
    def test_hard_case(self, line, tmp_path):
        path = write_samples(tmp_path, line + "\n")
        assert _parsed(_read_samples, path) == _parsed(_oracle, path)

    def test_hard_cases_in_one_file(self, tmp_path):
        good = [line for line in _HARD
                if _parsed(_oracle, write_samples(tmp_path, line + "\n"))[0] is not ParseError]
        path = write_samples(tmp_path, "\n".join(good) + "\n")
        assert _parsed(_read_samples, path) == _parsed(_oracle, path)

    def test_proof_settles_plain_lines_and_leaves_midpoints_open(self):
        data = (b"1.5\n-2.25e-3\n+.5\n7e1\n  7e1\t\n9007199254740993\n"
                b"2251799813685247.875\n1152921504606846912\n")
        values, open_lines, _ = _decimal.parse(data)
        assert values[:4].tolist() == [1.5, -2.25e-3, 0.5, 70.0]
        # blanks are outside the grammar; ties, which only float() breaks, stay open,
        # also those just below 2**51 and 2**60, where the gap below is halved
        assert open_lines.tolist() == [4, 5, 6, 7]

    @pytest.mark.parametrize("case", ["long-number", "long-comment", "no-final-newline",
                                      "crlf", "bad-token", "non-ascii", "nbsp", "utf8-comment",
                                      "filler-among-open", "bad-after-filler", "one-exponent",
                                      "one-long-integer"])
    def test_block_boundaries(self, case, tmp_path):
        lines, tail = _good_lines()[:50_000], _good_lines()[50_000:]
        block = _decimal._BLOCK
        padded = [f"{line:>25}" for line in lines]  # blanks leave every line open
        # one marked line in the middle of the second of four blocks, none in the others
        plain = [line for line in lines if "e" not in line]
        middle = int(np.searchsorted(np.cumsum([len(line) + 1 for line in plain]), 1.5 * block))
        text = {
            "long-number": lines + ["0" * (2 * block) + "1.5"] + tail,
            "long-comment": lines[:100] + ["#" + "x" * (3 * block)] + lines[100:],
            "no-final-newline": lines + tail,
            "crlf": lines + tail,
            "bad-token": lines + ["1,5"] + tail,
            "non-ascii": lines + ["1.5é"] + tail,
            "nbsp": lines + ["1.5\u00a0"] + tail,
            # decoded, and read by one cast, as the comment is a filler at an end
            "utf8-comment": ["# C(μ=3, σ=2)"] + lines + tail,
            # every line open, and the cast fails on the comment between them
            "filler-among-open": padded[:25_000] + ["# half"] + padded[25_000:] + tail,
            "bad-after-filler": lines[:100] + ["# note"] + lines[100:] + ["1,5"] + tail,
            "one-exponent": plain[:middle] + ["1.2345678901234567e-05"] + plain[middle:],
            "one-long-integer": plain[:middle] + ["-123456789012.75"] + plain[middle:],
        }[case]
        end = "\r\n" if case in ("crlf", "bad-after-filler") else "\n"
        data = end.join(text) + ("" if case == "no-final-newline" else end)
        path = tmp_path / "block.txt"
        path.write_bytes(data.encode("utf-8"))
        if case.startswith("one-"):  # the blocks after the second hold no marked line
            assert len(data) > 2 * block
        want = _parsed(_oracle, path)
        assert _parsed(_read_samples, str(path)) == want
        if case in ("bad-token", "non-ascii"):
            assert want == (ParseError, f"line 50001: cannot parse {text[50_000]!r} as a number")
        if case == "bad-after-filler":
            assert want == (ParseError, "line 50002: cannot parse '1,5' as a number")

    @pytest.mark.parametrize("fmt", ["%.17g", "repr"])
    def test_benchmark_traffic(self, fmt, tmp_path):
        """200,000 C(mu, sigma) samples as the benchmark writes them, or with repr."""
        x = -1.4 + 1.5 * np.random.default_rng(2024).standard_cauchy(200_000)
        path = tmp_path / "traffic.txt"
        if fmt == "repr":
            path.write_text("".join(f"{v!r}\n" for v in x.tolist()), encoding="ascii")
        else:  # np.savetxt's layout, header included
            path.write_text("# C(-1.4, 1.5) sample, 200000 lines\n"
                            + "".join(f"{v:.17g}\n" for v in x.tolist()), encoding="ascii")
        data = path.read_bytes()
        lines = [line for line in data.decode("ascii").splitlines() if not line.startswith("#")]
        assert _read_samples(str(path)).tobytes() == np.array([float(v) for v in lines]).tobytes()
        assert len(_decimal.parse(data)[1]) == (1 if fmt == "%.17g" else 0)  # the header

    def test_a_block_of_benchmark_traffic_peaks_below_8_mb(self):
        """The temporaries of one default block of ``test_benchmark_traffic``'s
        ``%.17g`` file, as tracemalloc counts numpy's buffers (10.6 MB in 512 KiB blocks)."""
        x = -1.4 + 1.5 * np.random.default_rng(2024).standard_cauchy(200_000)
        data = ("# C(-1.4, 1.5) sample, 200000 lines\n"
                + "".join(f"{v:.17g}\n" for v in x.tolist())).encode("ascii")
        hi = data.find(b"\n", _decimal._BLOCK - 1) + 1
        tracemalloc.start()
        try:
            with np.errstate(all="ignore"):
                _decimal._block(data, 0, hi)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8e6


def _rounds_to(r, p, low):
    """Whether every real within E = 2**-98 p of p + low rounds to the double ``r``,
    in exact int arithmetic on the doubles scaled by 2**1200."""
    def scaled(v):
        num, den = v.as_integer_ratio()
        return num << (1200 - den.bit_length() + 1)
    centre, error = scaled(p) + scaled(low), scaled(p * 2.0**-98)
    below, above = scaled(math.nextafter(r, -math.inf)), scaled(math.nextafter(r, math.inf))
    # RN(y) = r for every y strictly between the midpoints to r's neighbours
    return 2 * (centre - error) > scaled(r) + below and 2 * (centre + error) < scaled(r) + above


class TestSettle:
    """``_decimal._settle``, the proof's test, on double-doubles p + low at the edges of
    a rounding interval.  Decimal lines cannot reach these edges: the 19-digit
    decimal nearest to a midpoint just below a power of two, exact ones aside, is
    2**-73 of it away, far more than E = 2**-98."""

    _KS = (-900, 0, 60, 1000)

    @staticmethod
    def _settle(p, low):
        r, settled = _decimal._settle(np.array([p]), np.array([low]))
        return r[0], bool(settled[0])

    @pytest.mark.parametrize("k", _KS)
    def test_gap_below_a_power_of_two_is_halved(self, k):
        # p + low lies above the midpoint below 2**k by E / 2: r = 2**k, but a real
        # within E of p + low may lie below the midpoint
        p, low = math.ldexp(1.0, k), -(math.ldexp(1.0, k - 54) - math.ldexp(1.0, k - 99))
        assert not _rounds_to(p, p, low)
        assert self._settle(p, low) == (p, False)
        # 2**8 E above the midpoint, it is settled
        low = -(math.ldexp(1.0, k - 54) - math.ldexp(1.0, k - 90))
        assert _rounds_to(p, p, low) and self._settle(p, low) == (p, True)

    @pytest.mark.parametrize("k", _KS)
    def test_strict_test(self, k):
        # |t| + E exceeds half the gap by 2**(k - 106) and rounds to it, a tie to even
        p = math.ldexp(1.5, k)
        low = -(math.ldexp(1.0, k - 53) - math.ldexp(3.0, k - 99) + math.ldexp(1.0, k - 106))
        half = math.ldexp(1.0, k - 53)
        assert abs(low) + p * 2.0**-98 == half and not _rounds_to(p, p, low)
        assert self._settle(p, low) == (p, False)

    @pytest.mark.parametrize("k", _KS)
    def test_settled_only_inside_the_rounding_interval(self, k):
        unit = math.ldexp(1.0, k)
        seen = set()
        for p in (unit, math.nextafter(unit, 0.0), math.nextafter(unit, math.inf),
                  1.5 * unit, 1.7 * unit):
            for sign in (1.0, -1.0):
                # half the gap on that side, and reals up to 2**6 E on either side of it
                gap = math.ulp(p) if sign > 0 or p != unit else math.ulp(p) / 2
                for j in range(-64, 65):
                    low = sign * (gap / 2 - math.ldexp(j, math.frexp(p)[1] - 1 - 98))
                    r, settled = self._settle(p, low)
                    assert r == p + low
                    assert not settled or _rounds_to(r, p, low), (p, low)
                    seen.add(settled)
        assert seen == {False, True}


class TestParserCache:
    """``main`` builds its argparse parser once; no value leaks from one call to the next."""

    _CALLS = [
        ["variance-table", "--alpha", "0,1", "0,2"],
        ["variance-table", "--estimator", "geometric", "--alpha", "0.5,1"],
        ["variance-table", "--alpha", "-1,0.5", "--mu", "2"],
        ["estimate", "--alpha", "0,1", "--estimator", "mobius", "--format", "csv"],
        ["estimate"],
        ["simulate", "--n", "5", "--reps", "200", "--alpha=-1,2"],
        ["clt-check", "--n", "20"],
        ["harmonic-check", "--n", "3"],
        ["estimate", "--input", "-"],
        ["variance-table", "--alpha", "0,3"],
    ]

    def test_same_namespace_as_a_fresh_parser(self, monkeypatch):
        seen = []
        monkeypatch.setattr(cli, "_COMMANDS", {name: seen.append for name in cli._COMMANDS})
        for argv in self._CALLS:
            main(list(argv))
        fresh = [cli._build_parser.__wrapped__().parse_args(argv) for argv in self._CALLS]
        assert [vars(args) for args in seen] == [vars(args) for args in fresh]
        assert cli._build_parser() is cli._build_parser()


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

    @pytest.mark.parametrize("samples, flag, alpha, transform", [
        # 1/w overflows at the subnormal average of 1/(x + alpha)
        ("1\n-1\n", "mobius", "0,1e-320", "MobiusReciprocal"),
        # 1/(x + alpha) overflows at x = 0
        ("0\n", "mobius", "0,1e-320", "MobiusReciprocal"),
        ("0\n1\n2\n3\n4\n5\n", "two-step", "0,1e-320", "MobiusReciprocal"),
        # the real-shift geometric mean overflows (at a complex shift the kernel
        # never forms |x + alpha|, and estimates 1.7e308 at 1.7e308 i finitely)
        ("-1.797e308\n" * 11 + "0.797e308\n", "geometric", "1e308,0", "ShiftedLog"),
    ])
    def test_overflowing_mean_is_numerical_exit(self, tmp_path, capsys, samples, flag, alpha,
                                                transform):
        path = write_samples(tmp_path, samples)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run_cli(capsys, "estimate", "--input", path,
                                     "--estimator", flag, "--alpha", alpha)
        assert (code, out) == (4, "")  # no NaN or Infinity in a report
        assert err == f"cqmeans: numerical error: {transform}.invert: the mean overflows\n"

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
