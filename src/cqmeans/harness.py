"""Seeded, reproducible Monte Carlo verification of the limit theorems.

``run_experiment`` draws M independent sample sets for each requested sample
size n, applies one estimator, and aggregates the empirical mean and 2x2
covariance (axes: real part, imaginary part).  The scaled variance
n * trace(cov) is compared against its theoretical limit, and the normalized
deviations sqrt(n) * (estimate - limit point) are screened for the expected
isotropic normal shape.

Reproducibility contract, stream version 2 (``STREAM_VERSION``, echoed in
every report): replications are split into chunks of ``_CHUNK`` = 1024, a
fixed size, and chunk c at sample size n draws from its own stream, seeded
from the key (seed, n, T, c, T) with T = ``_CHUNK_STREAM_TAG``.  Replication
c*1024 + i is row i of that chunk: the n draws k = i*n ... i*n + n - 1 of
its stream.  The chunk is drawn and estimated in tiles of about
``_TILE_ELEMENTS`` samples, but a row never depends on the tile size:
nothing is redrawn into the chunk stream.  A row that fails (a Cauchy
uniform of exactly 0, a sample at a pole, a zero Mobius average, a harmonic
failure; probability-zero events that floating point can still produce) is
redrawn from its own sub-streams (seed, n, r, attempt) for attempt = 1, 2,
..., each drawn and estimated as a tile of one row; failed draws are
counted, at most 8 per replication, and capped at 0.01% of the total.  A
chunk key is one 32-bit word longer than every sub-stream key of the same
seed, so no redraw reuses a chunk stream.  Reports are therefore
bit-identical for any worker count.  ``harmonic_identity_check`` draws its
harmonic means through the same chunks and the same redraws.  Stream
version 1 seeded every replication from (seed, n, r, attempt).

Sources other than the Cauchy distribution are supported to exercise the
general variance limit Var(f(X)) / |f'(f^{-1}(E f(X)))|^2; their targets are
computed by quadrature of the explicit density integrals.
"""

import math
from dataclasses import dataclass, asdict

import numpy as np

from . import _buffers, cauchy
from ._version import __version__
# the estimator functions are looked up here by name, KINDS[kind].function, on
# each call, so rebinding one of these module globals reaches every call
from .estimators import (  # noqa: F401
    KINDS,
    TWO_STEP_MOBIUS,
    geometric_estimate,
    kind_of,
    mobius_estimate,
    two_step_mobius,
)
from .exceptions import DomainError, ExperimentError, NumericalError, QuadratureError

STREAM_VERSION = 2       # the random-stream contract of the module docstring
_CHUNK = 1024            # replications per task and stream; fixed, so never tied to workers
_TILE_ELEMENTS = 1 << 15  # samples drawn and estimated at once; bounds the temporaries
_MAX_RESAMPLE = 8        # draws per replication before giving up
_FAILURE_CAP = 1.0e-4    # abort when more than this fraction of replications fail
_DIRECT_STREAM_TAG = 0x6D1EC7  # keeps reference draws off the replication streams
_CHUNK_STREAM_TAG = 0xC4A1C0  # keeps chunk streams apart from the direct stream
_QUAD_TOL = 1e-10        # absolute tolerance of the uniform-source moment integrals


@dataclass(frozen=True)
class CauchySource:
    """Sample source C(mu, sigma)."""

    params: cauchy.CauchyParams

    def draw(self, rng, n):
        return cauchy.draw(self.params, rng, n)

    def draw_rows(self, rng, rows, n):
        """(rows, n) draws in stream order; a row that met a uniform of 0 holds nan."""
        return cauchy.draw(self.params, rng, rows * n, redraw=False).reshape(rows, n)

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

    def draw_rows(self, rng, rows, n):
        """(rows, n) draws in stream order."""
        return rng.uniform(self.lo, self.hi, rows * n).reshape(rows, n)

    def describe(self):
        return {"kind": "uniform", "lo": self.lo, "hi": self.hi}


def _estimator(function):
    """(x, alpha) -> (estimates, failed) of the rows of ``x`` by ``function``."""
    return lambda x, alpha: globals()[function](x, alpha, rows=True)


def _harmonic_rows(x, alpha):
    """n / sum_j 1/x_j for every row of ``x``, and the failed-row mask.

    A row fails when a sample or its reciprocal sum is 0, or the sum is not
    finite; its mean is then nan.
    """
    with np.errstate(all="ignore"):  # 1/0 and overflow; those rows fail below
        denom = np.sum(np.divide(1.0, x, out=_buffers.empty("harmonic", x.shape)), axis=1)
    failed = ~(np.all(x, axis=1) & (denom != 0.0) & np.isfinite(denom))
    denom[failed] = np.nan
    return x.shape[1] / denom, failed


_HARMONIC = "harmonic"  # harmonic_identity_check's kind; not an experiment estimator
# row estimators, for whole tiles and for single-row redraws alike
_ESTIMATORS = {kind: _estimator(row.function) for kind, row in KINDS.items()}
_ESTIMATORS[_HARMONIC] = _harmonic_rows


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


def _uniform_generator_moments(source, generator):
    """E[f(X)] and Var(f(X)) for X ~ Uniform(lo, hi) by direct quadrature.

    Raises QuadratureError when an integral misses its tolerance and
    NumericalError when the variance comes out non-positive (it is the
    integral of a square, so only underflow can do that).
    """
    from scipy.integrate import quad  # here, so that estimates load no scipy
    lo, hi = source.lo, source.hi
    weight = 1.0 / (hi - lo)
    singular = -generator.alpha.real
    points = None
    if generator.alpha.imag == 0.0 and lo < singular < hi:
        points = [singular]

    def piece(f):
        # full_output keeps quad from warning; its error estimate is checked here
        val, err, *_ = quad(f, lo, hi, points=points, epsabs=_QUAD_TOL,
                            epsrel=1e-12, limit=500, full_output=1)
        tolerance = max(_QUAD_TOL, 1e-12 * abs(val))
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
    # E|f - E f|^2 in a second pass: E|f|^2 - |E f|^2 cancels on narrow
    # intervals away from 0
    variance = piece(lambda x: abs(generator.apply(x) - mean) ** 2)
    if not variance > 0.0:
        raise NumericalError(
            f"uniform-source Var(f(X)) of {generator!r} on [{lo!r}, {hi!r}] "
            f"is {variance!r}, not positive"
        )
    return mean, variance


def theoretical_targets(source, kind, alpha):
    """Limit point, n*Var limit, and per-axis CLT variance for a configuration."""
    alpha = complex(alpha)
    row = kind_of(kind)
    if isinstance(source, CauchySource):
        # by name on each call, so that rebinding a limit in ``cauchy`` reaches it
        asym = getattr(cauchy, row.limit)(source.params, alpha)
        return TargetSet(source.params.gamma, asym.nvar_limit, asym.clt_scalar)
    if isinstance(source, UniformSource):
        if kind == TWO_STEP_MOBIUS:
            raise DomainError(
                "theoretical_targets: the two-step estimator has no uniform-source target"
            )
        gen = row.transform(alpha)
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
    from scipy.special import ndtri  # norm.ppf's bits, without scipy.stats
    m = len(values)
    quantiles = ndtri((np.arange(1, m + 1) - 0.5) / m)
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


def _tile_rows(n):
    """Rows per tile: as many as ``_TILE_ELEMENTS`` samples hold, at least one.

    Long rows share tiles too.  Three-row tiles at n = 10,000 once lost to
    one-row tiles, not to the cache but to minor page faults on freshly
    allocated temporaries.  With the thread's pool (``_buffers``), which
    frees nothing, they take 0.71-0.80 of the one-row time (12 interleaved
    rounds).
    """
    return max(1, _TILE_ELEMENTS // n)


def _redraw(source, kind, alpha, seed, n, rep):
    """Estimate of replication ``rep`` after its chunk row failed.

    Attempt a = 1, 2, ... draws one row from the sub-stream (seed, n, rep, a).
    Returns the estimate and the number of failed draws, the chunk row's
    included.
    """
    estimate_rows = _ESTIMATORS[kind]
    for attempt in range(1, _MAX_RESAMPLE):
        rng = np.random.default_rng(np.random.SeedSequence((seed, n, rep, attempt)))
        estimates, failed = estimate_rows(source.draw(rng, n)[np.newaxis], alpha)
        if not failed[0]:
            return estimates[0], attempt
    raise ExperimentError(
        f"resampling cap hit: replication {rep} at n={n} failed {_MAX_RESAMPLE} "
        "draws (a sample at a pole or an average outside the image)"
    )


def _run_chunk(source, kind, alpha, seed, n, start, stop):
    """Estimates for replications [start, stop) and the count of failed draws.

    [start, stop) lies in one chunk and starts it.  The chunk's stream,
    seeded from (seed, n, T, start // ``_CHUNK``, T) with T =
    ``_CHUNK_STREAM_TAG``, is drawn in tiles of ``_tile_rows(n)`` rows, each
    estimated in one call of the estimator of ``kind``; row i is the
    replication start + i whatever the tile size.
    Failed rows are redrawn from their sub-streams by ``_redraw``, and so are
    undrawn rows (holding nan), estimated on a finite stand-in and failed.
    Tiles and redraws take their temporaries from this thread's pool
    (``_buffers``), which keeps them for the chunks after this one.
    """
    chunk, offset = divmod(start, _CHUNK)
    if offset or not start < stop <= start + _CHUNK:
        raise ValueError(f"_run_chunk: [{start}, {stop}) is not the start of one chunk")
    rng = np.random.default_rng(
        np.random.SeedSequence((seed, n, _CHUNK_STREAM_TAG, chunk, _CHUNK_STREAM_TAG))
    )
    out = np.empty(stop - start, dtype=complex)
    failures = 0
    step = _tile_rows(n)
    with _buffers.chunk_buffers():
        for lo in range(0, stop - start, step):
            rows = min(step, stop - start - lo)
            x = source.draw_rows(rng, rows, n)
            undrawn = np.isnan(x, out=_buffers.empty("undrawn", x.shape, bool)).any(axis=1)
            x[undrawn] = 1.0  # every row kernel masks or estimates a finite row
            estimates, failed = _ESTIMATORS[kind](x, alpha)
            failed |= undrawn
            out[lo:lo + rows] = estimates
            for i in np.flatnonzero(failed).tolist():
                out[lo + i], redraws = _redraw(source, kind, alpha, seed, n, start + lo + i)
                failures += redraws
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
        from concurrent.futures import ProcessPoolExecutor
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
    # deterministic provenance: which code and which random streams
    stream_version: int = STREAM_VERSION
    cqmeans_version: str = __version__

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
    stream_version: int = STREAM_VERSION
    cqmeans_version: str = __version__

    def to_dict(self):
        return _jsonable(asdict(self))


def _ks_statistic(a, b):
    """Two-sample Kolmogorov-Smirnov statistic, ``scipy.stats.ks_2samp``'s bits.

    Up to 10,000 samples a side scipy takes its exact mode, which rounds the
    statistic to the nearest multiple of 1/lcm(m, k); so does this.
    """
    a, b = np.sort(a), np.sort(b)
    m, k = len(a), len(b)
    both = np.concatenate([a, b])
    diffs = np.searchsorted(a, both, side="right") / m - np.searchsorted(b, both, side="right") / k
    d = np.abs(diffs).max()
    if max(m, k) <= 10000:
        lcm = m // math.gcd(m, k) * k
        d = int(np.round(d * lcm)) / lcm
    return float(d)


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
    statistic = _ks_statistic(harmonic, direct)
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
