"""Seeded, reproducible Monte Carlo verification of the limit theorems.

``run_experiment`` draws M independent sample sets for each requested sample
size n, applies one estimator, and aggregates the empirical mean and 2x2
covariance (axes: real part, imaginary part).  The scaled variance
n * trace(cov) is compared against its theoretical limit, and the normalized
deviations sqrt(n) * (estimate - limit point) are screened for the expected
isotropic normal shape.

Reproducibility contract: the random stream of replication r at sample size n
is derived by hashing (seed, n, r), never from a shared sequential stream, so
reports are bit-identical for any worker count and any chunking of the work.
Replications whose estimator hits a singular sample (a probability-zero event
that floating point can still produce) are redrawn from the sub-stream
(seed, n, r, attempt), counted, and capped at 0.01% of the total.
``harmonic_identity_check`` draws its harmonic means through the same
streams and the same resample loop.

Sources other than the Cauchy distribution are supported to exercise the
general variance limit Var(f(X)) / |f'(f^{-1}(E f(X)))|^2; their targets are
computed by quadrature of the explicit density integrals.
"""

import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, asdict

import numpy as np
from scipy.integrate import quad
from scipy.stats import ks_2samp, norm

from . import cauchy
# the estimator functions are looked up here by name, KINDS[kind].function, on
# each call, so rebinding one of these module globals reaches every call
from .estimators import (  # noqa: F401
    GEOMETRIC,
    KINDS,
    TWO_STEP_MOBIUS,
    geometric_estimate,
    kind_of,
    mobius_estimate,
    two_step_mobius,
)
from .exceptions import DomainError, ExperimentError, NumericalError, QuadratureError

_CHUNK = 1024            # replications per task; fixed so chunking never depends on workers
_MAX_RESAMPLE = 8        # attempts per replication before giving up
_FAILURE_CAP = 1.0e-4    # abort when more than this fraction of replications fail
_DIRECT_STREAM_TAG = 0x6D1EC7  # keeps reference draws off the replication streams


@dataclass(frozen=True)
class CauchySource:
    """Sample source C(mu, sigma)."""

    params: cauchy.CauchyParams

    def draw(self, rng, n):
        return cauchy.draw(self.params, rng, n)

    def describe(self):
        return {"kind": "cauchy", "mu": self.params.mu, "sigma": self.params.sigma}


@dataclass(frozen=True)
class UniformSource:
    """Sample source Uniform(lo, hi)."""

    lo: float
    hi: float

    def __post_init__(self):
        if not (math.isfinite(self.lo) and math.isfinite(self.hi)):
            raise DomainError("UniformSource: bounds must be finite")
        if not self.lo < self.hi:
            raise DomainError("UniformSource: need lo < hi")

    def draw(self, rng, n):
        return rng.uniform(self.lo, self.hi, n)

    def describe(self):
        return {"kind": "uniform", "lo": self.lo, "hi": self.hi}


def _point(function):
    """(samples, alpha) -> complex estimate of the estimator named ``function``."""
    return lambda samples, alpha: globals()[function](samples, alpha).estimate


def _harmonic_mean(samples, alpha):
    """n / sum_j 1/x_j; DomainError when a sample or the sum is 0 or not finite."""
    denom = np.sum(1.0 / samples)
    if np.all(samples != 0.0) and denom != 0.0 and math.isfinite(denom):
        return len(samples) / denom
    raise DomainError("harmonic mean: zero sample or zero or non-finite reciprocal sum")


_HARMONIC = "harmonic"  # harmonic_identity_check's kind; not an experiment estimator
_ESTIMATORS = {kind: _point(row.function) for kind, row in KINDS.items()}
_ESTIMATORS[_HARMONIC] = _harmonic_mean


@dataclass(frozen=True)
class ExperimentConfig:
    source: object
    estimator: str
    alpha: complex
    n_values: tuple
    replications: int
    seed: int
    workers: int = 1
    nvar_rtol: float = 0.10

    def __post_init__(self):
        object.__setattr__(self, "alpha", complex(self.alpha))
        object.__setattr__(self, "n_values", tuple(int(n) for n in self.n_values))
        kind = kind_of(self.estimator)
        kind.transform(self.alpha)
        if self.replications < 100:
            raise DomainError("ExperimentConfig: need at least 100 replications")
        if not self.n_values or any(n < kind.min_n for n in self.n_values):
            raise DomainError(
                f"ExperimentConfig: {self.estimator} needs sample sizes n >= {kind.min_n}"
            )
        if self.workers < 1:
            raise DomainError("ExperimentConfig: workers must be at least 1")
        if not 0 < self.nvar_rtol:
            raise DomainError("ExperimentConfig: nvar_rtol must be positive")


@dataclass(frozen=True)
class TargetSet:
    """Theoretical limit point and variance for one (source, estimator, alpha)."""

    mean: complex
    nvar_limit: float
    clt_scalar: float


def _uniform_generator_moments(source, generator, quad_tol=1e-10):
    """E[f(X)] and Var(f(X)) for X ~ Uniform(lo, hi) by direct quadrature.

    Raises QuadratureError when an integral misses its tolerance and
    NumericalError when the variance comes out non-positive.
    """
    lo, hi = source.lo, source.hi
    weight = 1.0 / (hi - lo)
    singular = -generator.alpha.real
    points = None
    if generator.alpha.imag == 0.0 and lo < singular < hi:
        points = [singular]

    def piece(f):
        # full_output keeps quad from warning; its error estimate is checked here
        val, err, *_ = quad(f, lo, hi, points=points, epsabs=quad_tol,
                            epsrel=1e-12, limit=500, full_output=1)
        tolerance = max(quad_tol, 1e-12 * abs(val))
        if err > tolerance:
            raise QuadratureError(
                f"uniform-source moment of {generator!r} on [{lo!r}, {hi!r}]: "
                f"error estimate {err:.3e} exceeds tolerance {tolerance:.3e}",
                value=val,
                error_estimate=err,
            )
        return val * weight

    mean = complex(
        piece(lambda x: generator.apply(x).real),
        piece(lambda x: generator.apply(x).imag),
    )
    second = piece(lambda x: abs(generator.apply(x)) ** 2)
    variance = second - abs(mean) ** 2
    if not variance > 0.0:
        raise NumericalError(
            f"uniform-source Var(f(X)) of {generator!r} on [{lo!r}, {hi!r}] "
            f"is {variance!r}, not positive"
        )
    return mean, variance


def theoretical_targets(source, kind, alpha):
    """Limit point, n*Var limit, and per-axis CLT variance for a configuration."""
    alpha = complex(alpha)
    transform = kind_of(kind).transform
    if isinstance(source, CauchySource):
        params = source.params
        if kind == TWO_STEP_MOBIUS:
            # second stage re-estimates on n/2 samples at the near-optimal
            # shift, so the scaled variance approaches twice the 4 sigma^2 floor
            floor = 4.0 * params.sigma**2
            return TargetSet(params.gamma, 2.0 * floor, floor)
        if kind == GEOMETRIC:
            asym = cauchy.asymptotic_variance_geometric(params, alpha)
        else:
            asym = cauchy.asymptotic_variance_mobius(params, alpha)
        return TargetSet(params.gamma, asym.nvar_limit, asym.clt_scalar)
    if isinstance(source, UniformSource):
        if kind == TWO_STEP_MOBIUS:
            raise DomainError(
                "theoretical_targets: the two-step estimator has no uniform-source target"
            )
        gen = transform(alpha)
        mean_f, var_f = _uniform_generator_moments(source, gen)
        limit_point = gen.invert(mean_f)
        deriv = gen.derivative(limit_point)
        nvar = var_f / abs(deriv) ** 2
        return TargetSet(limit_point, nvar, nvar / 2.0)
    raise DomainError(f"unknown source {source!r}")


@dataclass(frozen=True)
class CltDiagnostics:
    """Shape checks of normalized deviations against an isotropic normal."""

    offdiag_correlation: float
    variance_ratio_re: float
    variance_ratio_im: float
    qq_correlation_re: float
    qq_correlation_im: float


def _qq_correlation(values):
    m = len(values)
    quantiles = norm.ppf((np.arange(1, m + 1) - 0.5) / m)
    return float(np.corrcoef(np.sort(values), quantiles)[0, 1])


def clt_diagnostics(deviations, theoretical_scalar):
    """Diagnose sqrt(n)-scaled deviations against the predicted normal limit.

    The limiting law is an isotropic two-dimensional normal whose per-axis
    variance is ``theoretical_scalar``; accordingly the real/imaginary parts
    should be uncorrelated, each with variance near the scalar and straight
    normal QQ plots.
    """
    dev = np.asarray(deviations, dtype=complex)
    if dev.size < 1000:
        raise DomainError("clt_diagnostics: need at least 1000 deviations")
    if theoretical_scalar <= 0:
        raise DomainError("clt_diagnostics: theoretical scalar must be positive")
    re, im = dev.real, dev.imag
    var_re = float(np.var(re, ddof=1))
    var_im = float(np.var(im, ddof=1))
    if var_re == 0.0 or var_im == 0.0:
        raise NumericalError("clt_diagnostics: degenerate (zero-variance) deviations")
    cov = float(np.mean((re - re.mean()) * (im - im.mean())))
    return CltDiagnostics(
        offdiag_correlation=cov / math.sqrt(var_re * var_im),
        variance_ratio_re=var_re / theoretical_scalar,
        variance_ratio_im=var_im / theoretical_scalar,
        qq_correlation_re=_qq_correlation(re),
        qq_correlation_im=_qq_correlation(im),
    )


def _run_chunk(source, kind, alpha, seed, n, start, stop):
    """Estimates for replications [start, stop); streams keyed by (seed, n, r)."""
    estimate = _ESTIMATORS[kind]
    out = np.empty(stop - start, dtype=complex)
    failures = 0
    for i, rep in enumerate(range(start, stop)):
        attempt = 0
        while True:
            rng = np.random.default_rng(
                np.random.SeedSequence((seed, n, rep, attempt))
            )
            samples = source.draw(rng, n)
            try:
                out[i] = estimate(samples, alpha)
                break
            except DomainError as exc:
                failures += 1
                attempt += 1
                if attempt >= _MAX_RESAMPLE:
                    raise ExperimentError(
                        f"resampling cap hit: replication {rep} at n={n} failed "
                        f"{attempt} draws ({exc})"
                    ) from exc
    return out, failures


def _collect_estimates(source, kind, alpha, seed, n, replications, workers=1):
    """Estimates of replications 0..replications-1 and the count of redraws."""
    specs = [
        (source, kind, alpha, seed, n, s, min(s + _CHUNK, replications))
        for s in range(0, replications, _CHUNK)
    ]
    if workers == 1:
        parts = [_run_chunk(*spec) for spec in specs]
    else:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            parts = list(pool.map(_run_chunk, *zip(*specs)))
    estimates = np.concatenate([p[0] for p in parts])
    failures = sum(p[1] for p in parts)
    return estimates, failures


@dataclass(frozen=True)
class SampleSizeResult:
    """Aggregates for one sample size within an experiment."""

    n: int
    replications: int
    failed_replications: int
    mean_re: float
    mean_im: float
    cov: tuple            # ((rr, ri), (ri, ii)), axes = (re, im)
    n_var: float
    n_var_se: float
    se_mean_re: float
    se_mean_im: float
    target_n_var: float
    n_var_rel_err: float
    clt_scalar: float
    diagnostics: CltDiagnostics | None
    passed: bool


@dataclass(frozen=True)
class ExperimentReport:
    source: dict
    estimator: str
    alpha_re: float
    alpha_im: float
    n_values: tuple
    replications: int
    seed: int
    nvar_rtol: float
    target_mean_re: float
    target_mean_im: float
    results: tuple
    all_pass: bool

    def to_dict(self):
        return _jsonable(asdict(self))


def _jsonable(obj):
    if isinstance(obj, dict):
        return {k: _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    return obj


def _summarize(n, estimates, failures, targets, rtol):
    m = len(estimates)
    re, im = estimates.real, estimates.imag
    mean_re, mean_im = float(np.mean(re)), float(np.mean(im))
    dre, dim = re - mean_re, im - mean_im
    c_rr = float(np.sum(dre * dre) / (m - 1))
    c_ii = float(np.sum(dim * dim) / (m - 1))
    c_ri = float(np.sum(dre * dim) / (m - 1))
    n_var = n * (c_rr + c_ii)
    quad_dev = dre * dre + dim * dim
    n_var_se = n * float(np.std(quad_dev, ddof=1)) / math.sqrt(m)
    rel_err = abs(n_var - targets.nvar_limit) / targets.nvar_limit
    diagnostics = None
    if m >= 1000:
        deviations = math.sqrt(n) * (estimates - targets.mean)
        try:
            diagnostics = clt_diagnostics(deviations, targets.clt_scalar)
        except NumericalError:
            # sources whose transformed values are real give exactly
            # zero variance on one axis; diagnostics are then undefined
            diagnostics = None
    return SampleSizeResult(
        n=n,
        replications=m,
        failed_replications=failures,
        mean_re=mean_re,
        mean_im=mean_im,
        cov=((c_rr, c_ri), (c_ri, c_ii)),
        n_var=n_var,
        n_var_se=n_var_se,
        se_mean_re=math.sqrt(c_rr / m),
        se_mean_im=math.sqrt(c_ii / m),
        target_n_var=targets.nvar_limit,
        n_var_rel_err=rel_err,
        clt_scalar=targets.clt_scalar,
        diagnostics=diagnostics,
        passed=rel_err <= rtol,
    )


def run_experiment(cfg):
    """Run the configured Monte Carlo experiment and return its report.

    Raises :class:`~cqmeans.exceptions.ExperimentError` if more than 0.01% of
    replications fail with domain errors, or one replication still fails
    after its last resample.
    """
    targets = theoretical_targets(cfg.source, cfg.estimator, cfg.alpha)
    results = []
    for n in cfg.n_values:
        estimates, failures = _collect_estimates(
            cfg.source, cfg.estimator, cfg.alpha, cfg.seed, n, cfg.replications,
            cfg.workers,
        )
        if failures > _FAILURE_CAP * cfg.replications:
            raise ExperimentError(
                f"run_experiment: {failures} failed replications at n={n} "
                f"exceed the {_FAILURE_CAP:.2%} cap"
            )
        results.append(_summarize(n, estimates, failures, targets, cfg.nvar_rtol))
    return ExperimentReport(
        source=cfg.source.describe(),
        estimator=cfg.estimator,
        alpha_re=cfg.alpha.real,
        alpha_im=cfg.alpha.imag,
        n_values=cfg.n_values,
        replications=cfg.replications,
        seed=cfg.seed,
        nvar_rtol=cfg.nvar_rtol,
        target_mean_re=targets.mean.real,
        target_mean_im=targets.mean.imag,
        results=tuple(results),
        all_pass=all(r.passed for r in results),
    )


@dataclass(frozen=True)
class HarmonicCheckReport:
    """Distribution check of harmonic means of standard Cauchy samples.

    The harmonic mean n / sum_j (1/X_j) of standard Cauchy draws is again
    standard Cauchy for every n; the report carries a two-sample
    Kolmogorov-Smirnov comparison against direct draws from ``reference``.
    """

    n: int
    replications: int
    seed: int
    reference_mu: float
    reference_sigma: float
    statistic: float
    critical_value_1pct: float
    passed: bool

    def to_dict(self):
        return _jsonable(asdict(self))


def harmonic_identity_check(seed, n, replications, reference=None):
    """KS-compare harmonic means of standard Cauchy samples with direct draws.

    ``reference`` defaults to the standard Cauchy; passing other parameters
    turns the check into a negative control that should reject.
    """
    if n < 1 or replications < 100:
        raise DomainError("harmonic_identity_check: need n >= 1 and >= 100 replications")
    std = cauchy.CauchyParams(0.0, 1.0)
    reference = std if reference is None else reference
    estimates, _ = _collect_estimates(CauchySource(std), _HARMONIC, 0.0, seed, n,
                                      replications)
    harmonic = estimates.real
    direct_rng = np.random.default_rng(
        np.random.SeedSequence((seed, n, _DIRECT_STREAM_TAG))
    )
    direct = cauchy.draw(reference, direct_rng, replications)
    statistic = float(ks_2samp(harmonic, direct).statistic)
    # two-sample KS critical value at level a: sqrt(-ln(a/2)/2) * sqrt((m+k)/(m*k))
    critical = math.sqrt(-0.5 * math.log(0.005)) * math.sqrt(2.0 / replications)
    return HarmonicCheckReport(
        n=n,
        replications=replications,
        seed=seed,
        reference_mu=reference.mu,
        reference_sigma=reference.sigma,
        statistic=statistic,
        critical_value_1pct=critical,
        passed=statistic < critical,
    )
