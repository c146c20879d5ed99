"""Command-line front end.

Subcommands
-----------
estimate        point-estimate (mu, sigma) from samples read one-per-line
simulate        Monte Carlo check of n*Var convergence for one estimator
variance-table  theoretical n*Var limits vs the Cramer-Rao floor
clt-check       isotropy/normality diagnostics of scaled deviations
harmonic-check  KS check that harmonic means of standard Cauchy stay Cauchy

Input files hold one decimal number per line; blank lines and lines starting
with '#' are skipped.  Reports are emitted as JSON (default) or CSV with all
numbers at full 64-bit round-trip precision, complex quantities always as
paired re/im fields, and the effective seed echoed so any run can be
reproduced from its own output; Monte Carlo reports also name the
``stream_version`` and ``cqmeans_version`` that produced them.

Exit codes: 0 success, 2 input parse error, 3 config or domain error,
4 numerical failure (including CLT diagnostics that are undefined for the
run), 5 verification failure (report still written).
"""

import argparse
import csv
import io
import json
import re
import sys

import numpy as np

from .cauchy import (
    CauchyParams,
    asymptotic_variance_geometric,
    asymptotic_variance_mobius,
    cramer_rao_bound,
)
# the estimator functions are looked up here by name, KINDS[kind].function, on
# each call, so rebinding one of these module globals reaches every call
from .estimators import (  # noqa: F401
    KINDS, geometric_estimate, mobius_estimate, two_step_mobius,
)
from .exceptions import DomainError, NumericalError, QuadratureError
from .harness import (
    CauchySource,
    ExperimentConfig,
    UniformSource,
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
    def __init__(self, line_number, text):
        super().__init__(f"line {line_number}: cannot parse {text!r} as a number")
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
    if not values:
        raise DomainError("empty sample-size list")
    return values


def _read_samples(path):
    if path in (None, "-"):
        lines = sys.stdin.read().splitlines()
    else:
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
    tab.add_argument("--estimator", choices=("geometric", "mobius"), default="mobius")
    tab.add_argument("--alpha", nargs="+", required=True, help="shifts as RE,IM")
    tab.add_argument("--quad-tol", type=float, default=1e-10)
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
        return CauchySource(CauchyParams(args.mu, args.sigma))
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
    params = CauchyParams(args.mu, args.sigma)
    floor = cramer_rao_bound(params, 1)
    rows = []
    for text in args.alpha:
        alpha = _parse_alpha(text)
        if args.estimator == "geometric":
            asym = asymptotic_variance_geometric(params, alpha, quad_tol=args.quad_tol)
        else:
            asym = asymptotic_variance_mobius(params, alpha)
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
    if args.reps < 1000:
        raise DomainError("clt-check: need at least 1000 replications")
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
        reference=CauchyParams(args.ref_mu, args.ref_sigma),
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
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except ParseError as exc:
        print(f"cqmeans: parse error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except QuadratureError as exc:
        print(
            f"cqmeans: numerical error: {exc} (best value {exc.value!r}, "
            f"error estimate {exc.error_estimate!r})",
            file=sys.stderr,
        )
        return EXIT_NUMERICAL
    except NumericalError as exc:
        print(f"cqmeans: numerical error: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except (DomainError, ValueError, OSError) as exc:
        print(f"cqmeans: config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


def entry():
    sys.exit(main())


if __name__ == "__main__":
    entry()
