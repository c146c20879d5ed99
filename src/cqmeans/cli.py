"""Command-line front end.

Subcommands
-----------
estimate        point-estimate (mu, sigma) from samples read one-per-line
simulate        Monte Carlo check of n*Var convergence for one estimator
variance-table  theoretical n*Var limits vs the Cramer-Rao floor
clt-check       isotropy/normality diagnostics of scaled deviations
harmonic-check  KS check that harmonic means of standard Cauchy stay Cauchy

Input files are UTF-8 text, one decimal number per line; blank lines and
lines starting with '#' are skipped.  Reports are emitted as JSON (default)
or CSV with all numbers at full 64-bit round-trip precision, complex
quantities always as paired re/im fields, and the effective seed echoed so
any run can be reproduced from its own output; Monte Carlo reports also
name the ``stream_version`` and ``cqmeans_version`` that produced them.

Exit codes: 0 success, 2 input parse error, 3 config or domain error,
4 numerical failure (including CLT diagnostics that are undefined for the
run, float overflow and division by zero), 5 verification failure (report
still written).
"""

import argparse
import csv
import functools
import io
import json
import re
import sys

import numpy as np

from . import _decimal, cauchy
# the estimator functions are looked up here by name, KINDS[kind].function, on
# each call, so rebinding one of these module globals reaches every call
from .estimators import (  # noqa: F401
    KINDS, geometric_estimate, mobius_estimate, two_step_mobius,
)
from .exceptions import DomainError, NumericalError, _validate_positive, _validate_size
from .harness import (
    CauchySource,
    ExperimentConfig,
    UniformSource,
    _CLT_MIN,
    harmonic_identity_check,
    run_experiment,
)

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_CONFIG = 3
EXIT_NUMERICAL = 4
EXIT_VERIFICATION = 5

_KIND_OF_FLAG = {row.flag: kind for kind, row in KINDS.items()}


class ParseError(Exception):
    def __init__(self, line_number, text, expected="a number"):
        super().__init__(f"line {line_number}: cannot parse {text!r} as {expected}")
        self.line_number = line_number


class _Parser(argparse.ArgumentParser):
    """An argument parser that takes a word starting with '-' and a digit for a
    value, so that ``--alpha -1,0.5`` works like ``--alpha=-1,0.5``.

    argparse reads only plain negative numbers as values and takes -1,0.5 for
    an unknown option.  No option of cqmeans starts with '-' and a digit.
    Subcommand parsers are built from this class too.  The attribute set here
    is private to argparse; ``tests/test_cli.py::TestNegativeShift`` pins it.
    """

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = re.compile(r"-\.?\d")


def _parse_alpha(text):
    parts = [p.strip() for p in text.split(",")]
    try:
        if len(parts) == 1:
            return complex(float(parts[0]), 0.0)
        if len(parts) == 2:
            return complex(float(parts[0]), float(parts[1]))
    except ValueError:
        pass
    raise DomainError(f"cannot parse alpha {text!r}; expected RE,IM")


def _parse_n_list(text):
    try:
        values = [int(p) for p in text.split(",") if p.strip()]
    except ValueError:
        raise DomainError(f"cannot parse sample sizes {text!r}; expected a comma list")
    return values


def _decode(data):
    """UTF-8 ``data`` as text; ParseError naming the line of the first bad byte."""
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        lineno = len((data[:exc.start].decode("utf-8") + "x").splitlines())
        line = data.decode("utf-8", "replace").splitlines()[lineno - 1]
        raise ParseError(lineno, line.strip(), "UTF-8 text") from None


def _filler(line):
    """Whether ``line`` holds no sample: blank, or a '#' comment."""
    text = line.strip()
    return not text or text[0] == "#"


def _read_samples(path):
    """The samples of ``path`` (stdin for None or '-') as a float array.

    ASCII bytes go to the vectorised reader ``_decimal.parse``, in blocks of
    ``_decimal._BLOCK`` bytes.  It reads every line of the grammar
    ``[+-]digits[.digits][(e|E)[+-]digits]`` whose double its rounding proof
    settles and leaves the others open.  Other input is decoded, and all its
    lines are open; so is ASCII input whose open lines split into more lines
    than ``_decimal`` counts (a '\\r', '\\x0b', '\\x0c' or '\\x1c'-'\\x1e' in a
    line).  Else the numberings agree, as a settled line holds only grammar
    bytes.  ``_read_lines`` reads the open lines.
    """
    if path in (None, "-"):
        data = getattr(sys.stdin, "buffer", sys.stdin).read()
    else:
        with open(path, "rb") as fh:
            data = fh.read()
    lines = index = None
    if isinstance(data, bytes) and data.isascii():
        values, index, text = _decimal.parse(data)
        lines = text.decode("ascii").splitlines()
    if lines is None or len(lines) != len(index):
        lines = (_decode(data) if isinstance(data, bytes) else data).splitlines()
        values, index = np.empty(len(lines)), np.arange(len(lines))
    samples = np.delete(values, _read_lines(lines, index, values))
    if not len(samples):
        raise DomainError("no samples in input")
    return samples


def _read_lines(lines, index, values):
    """Cast ``lines``, the lines ``index`` of the input, into ``values`` at once, the
    fillers before and after them dropped; if that fails, read them one at a time and
    name the first that ``float()`` rejects.  Returns the indices of the fillers."""
    start, end = 0, len(lines)
    while start < end and _filler(lines[start]):
        start += 1
    while end > start and _filler(lines[end - 1]):
        end -= 1
    inner = []
    try:  # numpy calls float() on each str
        values[index[start:end]] = np.array(lines[start:end], dtype=float)
    except ValueError:  # a filler between two numbers, or a bad line
        for i in range(start, end):
            if _filler(lines[i]):
                inner.append(i)
                continue
            try:
                values[index[i]] = float(lines[i])
            except ValueError:
                raise ParseError(int(index[i]) + 1, lines[i].strip()) from None
    return np.concatenate([index[:start], index[inner], index[end:]])


def _effective_seed(seed):
    if seed is not None:
        return int(seed)
    return int(np.random.SeedSequence().entropy % (1 << 63))


def _csv_cell(value):
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    if value is None:
        return ""
    return str(value)


def _flatten(prefix, obj, out):
    if isinstance(obj, dict):
        for key, val in obj.items():
            _flatten(f"{prefix}{key}_" if prefix else f"{key}_", val, out)
    elif isinstance(obj, (list, tuple)):
        for idx, val in enumerate(obj):
            _flatten(f"{prefix}{idx}_", val, out)
    else:
        out[prefix[:-1]] = obj


def _to_csv(payload):
    """Flatten a report to CSV; one row per entry of 'results', else one row."""
    rows = payload.get("results")
    if rows is None:
        rows = [payload]
        base = {}
    else:
        base = {k: v for k, v in payload.items() if k != "results"}
    flat_rows = []
    for row in rows:
        flat = {}
        _flatten("", base, flat)
        _flatten("", row, flat)
        flat_rows.append(flat)
    header = sorted({k for row in flat_rows for k in row})
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    for row in flat_rows:
        writer.writerow([_csv_cell(row.get(k)) for k in header])
    return buf.getvalue()


def _emit(payload, fmt, out_path):
    if fmt == "csv":
        text = _to_csv(payload)
    else:
        text = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    if out_path:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _add_output_flags(sub):
    sub.add_argument("--format", choices=("json", "csv"), default="json")
    sub.add_argument("--out", default=None, help="write the report to this path")


def _add_simulation_flags(sub):
    sub.add_argument("--source", choices=("cauchy", "uniform"), default="cauchy")
    sub.add_argument("--mu", type=float, default=0.0)
    sub.add_argument("--sigma", type=float, default=1.0)
    sub.add_argument("--lo", type=float, default=0.0, help="uniform lower bound")
    sub.add_argument("--hi", type=float, default=1.0, help="uniform upper bound")
    sub.add_argument("--estimator", choices=sorted(_KIND_OF_FLAG), default="mobius")
    sub.add_argument("--alpha", default="0,1", help="shift as RE,IM")
    sub.add_argument("--reps", type=int, default=10000, help="Monte Carlo replications")
    sub.add_argument("--seed", type=int, default=None)
    sub.add_argument("--workers", type=int, default=1)


@functools.cache  # argparse parsers are reusable: each parse_args fills a new Namespace
def _build_parser():
    parser = _Parser(
        prog="cqmeans",
        description="Closed-form Cauchy location-scale estimation via "
        "complex-valued quasi-arithmetic means",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    est = subs.add_parser("estimate", help="estimate (mu, sigma) from samples")
    est.add_argument("--input", default=None, help="sample file, '-' or absent for stdin")
    est.add_argument("--estimator", choices=sorted(_KIND_OF_FLAG), default="geometric")
    est.add_argument("--alpha", default="0,0", help="shift as RE,IM")
    _add_output_flags(est)

    sim = subs.add_parser("simulate", help="Monte Carlo n*Var convergence check")
    _add_simulation_flags(sim)
    sim.add_argument("--n", default="1000", help="comma list of sample sizes")
    sim.add_argument("--nvar-rtol", type=float, default=0.10,
                     help="relative tolerance of n*Var against its limit")
    _add_output_flags(sim)

    tab = subs.add_parser("variance-table", help="theoretical variance limits")
    tab.add_argument("--mu", type=float, default=0.0)
    tab.add_argument("--sigma", type=float, default=1.0)
    tab.add_argument("--estimator", choices=sorted(_KIND_OF_FLAG), default="mobius")
    tab.add_argument("--alpha", nargs="+", required=True, help="shifts as RE,IM")
    _add_output_flags(tab)

    clt = subs.add_parser("clt-check", help="CLT isotropy diagnostics")
    _add_simulation_flags(clt)
    clt.add_argument("--n", type=int, default=500, help="sample size per replication")
    clt.add_argument("--max-corr", type=float, default=0.05)
    clt.add_argument("--ratio-rtol", type=float, default=0.15)
    clt.add_argument("--min-qq", type=float, default=0.99)
    _add_output_flags(clt)

    harm = subs.add_parser("harmonic-check", help="harmonic-mean distribution check")
    harm.add_argument("--n", type=int, default=7)
    harm.add_argument("--reps", type=int, default=20000)
    harm.add_argument("--seed", type=int, default=None)
    harm.add_argument("--ref-mu", type=float, default=0.0)
    harm.add_argument("--ref-sigma", type=float, default=1.0)
    _add_output_flags(harm)

    return parser


def _cmd_estimate(args):
    alpha = _parse_alpha(args.alpha)
    samples = _read_samples(args.input)
    kind = KINDS[_KIND_OF_FLAG[args.estimator]]
    record = globals()[kind.function](samples, alpha)
    payload = {
        "estimator": record.estimator,
        "alpha_re": record.alpha.real,
        "alpha_im": record.alpha.imag,
        "n": record.n,
        "mu_hat": record.mu_hat,
        "sigma_hat": record.sigma_hat,
        "degenerate_imaginary": record.degenerate_imaginary,
    }
    _emit(payload, args.format, args.out)
    return EXIT_OK


def _make_source(args):
    if args.source == "cauchy":
        return CauchySource(cauchy.CauchyParams(args.mu, args.sigma))
    return UniformSource(args.lo, args.hi)


def _experiment_config(args, parse_n, nvar_rtol=ExperimentConfig.nvar_rtol):
    """The ExperimentConfig of ``simulate`` or ``clt-check`` from their flags.

    ``parse_n`` maps ``args.n`` to the sample sizes.  Flags are parsed in the
    order source, alpha, n, so the same error wins whatever else is wrong.
    """
    return ExperimentConfig(
        source=_make_source(args),
        estimator=_KIND_OF_FLAG[args.estimator],
        alpha=_parse_alpha(args.alpha),
        n_values=parse_n(args.n),
        replications=args.reps,
        seed=_effective_seed(args.seed),
        workers=args.workers,
        nvar_rtol=nvar_rtol,
    )


def _cmd_simulate(args):
    cfg = _experiment_config(args, _parse_n_list, args.nvar_rtol)
    report = run_experiment(cfg)
    _emit(report.to_dict(), args.format, args.out)
    return EXIT_OK if report.all_pass else EXIT_VERIFICATION


def _cmd_variance_table(args):
    params = cauchy.CauchyParams(args.mu, args.sigma)
    floor = cauchy.cramer_rao_bound(params, 1)
    limit = getattr(cauchy, KINDS[_KIND_OF_FLAG[args.estimator]].limit)
    rows = []
    for text in args.alpha:
        alpha = _parse_alpha(text)
        asym = limit(params, alpha)
        rows.append(
            {
                "estimator": asym.estimator,
                "alpha_re": alpha.real,
                "alpha_im": alpha.imag,
                "n_var_limit": asym.nvar_limit,
                "cramer_rao": floor,
                "efficiency": floor / asym.nvar_limit,
            }
        )
    payload = {"mu": params.mu, "sigma": params.sigma, "results": rows}
    _emit(payload, args.format, args.out)
    return EXIT_OK


def _cmd_clt_check(args):
    _validate_size(args.reps, "clt-check: --reps", _CLT_MIN)
    _validate_positive(args.max_corr, "clt-check: --max-corr")
    _validate_positive(args.ratio_rtol, "clt-check: --ratio-rtol")
    if not -1.0 <= args.min_qq <= 1.0:
        raise DomainError(f"clt-check: --min-qq must lie in [-1, 1], got {args.min_qq!r}")
    report = run_experiment(_experiment_config(args, lambda n: (n,)))
    diag = report.results[0].diagnostics
    if diag is None:
        raise NumericalError(
            "clt-check: CLT diagnostics are undefined (zero variance on one axis)"
        )
    verdicts = {
        "offdiag_ok": abs(diag.offdiag_correlation) <= args.max_corr,
        "variance_re_ok": abs(diag.variance_ratio_re - 1.0) <= args.ratio_rtol,
        "variance_im_ok": abs(diag.variance_ratio_im - 1.0) <= args.ratio_rtol,
        "qq_re_ok": diag.qq_correlation_re >= args.min_qq,
        "qq_im_ok": diag.qq_correlation_im >= args.min_qq,
    }
    payload = report.to_dict()
    payload["clt_thresholds"] = {
        "max_corr": args.max_corr,
        "ratio_rtol": args.ratio_rtol,
        "min_qq": args.min_qq,
    }
    payload["clt_verdicts"] = verdicts
    _emit(payload, args.format, args.out)
    return EXIT_OK if all(verdicts.values()) else EXIT_VERIFICATION


def _cmd_harmonic_check(args):
    report = harmonic_identity_check(
        seed=_effective_seed(args.seed),
        n=args.n,
        replications=args.reps,
        reference=cauchy.CauchyParams(args.ref_mu, args.ref_sigma),
    )
    _emit(report.to_dict(), args.format, args.out)
    return EXIT_OK if report.passed else EXIT_VERIFICATION


_COMMANDS = {
    "estimate": _cmd_estimate,
    "simulate": _cmd_simulate,
    "variance-table": _cmd_variance_table,
    "clt-check": _cmd_clt_check,
    "harmonic-check": _cmd_harmonic_check,
}


def main(argv=None):
    args = _build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except ParseError as exc:
        print(f"cqmeans: parse error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except ArithmeticError as exc:  # NumericalError, float overflow, division by zero
        print(f"cqmeans: numerical error: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except (DomainError, ValueError, OSError) as exc:
        print(f"cqmeans: config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


def entry():
    sys.exit(main())


if __name__ == "__main__":
    entry()
