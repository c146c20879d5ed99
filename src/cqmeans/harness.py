"""Seeded, reproducible Monte Carlo verification of the limit theorems.

``run_experiment`` draws M independent sample sets for each requested sample
size n, applies one estimator, and aggregates the empirical mean and 2x2
covariance (axes: real part, imaginary part).  The scaled variance
n * trace(cov) is compared against its theoretical limit, and the normalized
deviations sqrt(n) * (estimate - limit point) are screened for the expected
isotropic normal shape.

Reproducibility contract, stream version 3 (``STREAM_VERSION``, echoed in
every report): replications are split into chunks of ``_CHUNK`` = 1024, a
fixed size, and chunk c at sample size n draws from its own stream, seeded
from the key (seed, n, T, c, T) with T = ``_CHUNK_STREAM_TAG``.  Replication
c*1024 + i is row i of that chunk: the n draws k = i*n ... i*n + n - 1 of
its stream.  A Cauchy draw k is mu + sigma * tan(pi * (u_k - 0.5)) for the
k-th uniform u_k, a uniform of exactly 0 included, so every row is drawn.
The chunk is drawn and estimated in tiles of about ``_TILE_ELEMENTS``
samples, but a row never depends on the tile size: nothing is redrawn into
the chunk stream.  A row that fails (a sample at a pole, a zero Mobius
average, a harmonic failure; probability-zero events that floating point
can still produce) is redrawn from its own sub-streams (seed, n, r, attempt)
for attempt = 1, 2, ..., each drawn and estimated as a tile of one row, at
most 8 draws a replication.  A report's ``failed_replications`` counts the
failed draws (a replication whose first redraw fails too counts 2); a run
stops when they pass 0.01% of the replications.  A chunk key is one 32-bit
word longer than every sub-stream key of the same seed, so no redraw reuses
a chunk stream.  Reports are therefore bit-identical for any worker count.
``harmonic_identity_check`` draws through the same chunks and redraws.

Stream version 2 redrew a uniform of exactly 0: in-stream for ``sample``
and the sub-streams, as a failed row in chunks.  Stream version 1 seeded
every replication from (seed, n, r, attempt).

Sources other than the Cauchy distribution are supported to exercise the
general variance limit Var(f(X)) / |f'(f^{-1}(E f(X)))|^2; their targets are
computed by one fixed Gauss-Legendre rule on panels graded toward a pole.
"""

import functools
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
from .exceptions import DomainError, ExperimentError, NumericalError
from .generators import _validate_positive, _validate_size

STREAM_VERSION = 3       # the random-stream contract of the module docstring
_CHUNK = 1024            # replications per task and stream; fixed, so never tied to workers
_TILE_ELEMENTS = 1 << 15  # samples drawn and estimated at once; bounds the temporaries
_MAX_RESAMPLE = 8        # draws per replication before giving up
_FAILURE_CAP = 1.0e-4    # abort when failed draws pass this fraction of the replications
_DIRECT_STREAM_TAG = 0x6D1EC7  # keeps reference draws off the replication streams
_CHUNK_STREAM_TAG = 0xC4A1C0  # keeps chunk streams apart from the direct stream
_MIN_REPLICATIONS = 100  # fewest replications of an experiment or a harmonic check
_CLT_MIN = 1000          # fewest replications (deviations) the CLT diagnostics run on


@dataclass(frozen=True)
class CauchySource:
    """Sample source C(mu, sigma)."""

    params: cauchy.CauchyParams

    def draw_rows(self, rng, rows, n):
        """(rows, n) draws in stream order."""
        return cauchy.draw(self.params, rng, rows * n).reshape(rows, n)

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
        if not isinstance(self.source, (CauchySource, UniformSource)):
            raise DomainError("ExperimentConfig: source must be a CauchySource or "
                              f"UniformSource, got {self.source!r}")
        object.__setattr__(self, "alpha", complex(self.alpha))
        kind = kind_of(self.estimator)
        kind.transform(self.alpha)
        try:
            n_values = tuple(self.n_values)
        except TypeError:
            raise DomainError("ExperimentConfig: n_values must be a sequence of sample sizes, "
                              f"got {self.n_values!r}") from None
        if not n_values:
            raise DomainError("ExperimentConfig: need at least one sample size")
        what = f"ExperimentConfig: {self.estimator} sample size n"
        n_values = tuple(_validate_size(n, what, kind.min_n) for n in n_values)
        object.__setattr__(self, "n_values", n_values)
        for name, minimum in (("replications", _MIN_REPLICATIONS), ("seed", 0), ("workers", 1)):
            size = _validate_size(getattr(self, name), f"ExperimentConfig: {name}", minimum)
            object.__setattr__(self, name, size)
        _validate_positive(self.nvar_rtol, "ExperimentConfig: nvar_rtol")


@dataclass(frozen=True)
class TargetSet:
    """Theoretical limit point and variance for one (source, estimator, alpha)."""

    mean: complex
    nvar_limit: float
    clt_scalar: float


def _uniform_generator_moments(source, generator):
    """E[f(X)] and Var(f(X)) for X ~ Uniform(lo, hi) by one fixed Gauss-Legendre rule.

    With u = x + Re alpha and b = Im alpha, f is the transform at the shift i b
    applied to u, singular only at u = -i b.  From each end the u-interval is
    halved toward c, its point nearest 0, ceil(log2(hi - lo) - log2|c + i b|) + 8
    times but at least 8, so that ``cauchy``'s 12-point rule is exact to rounding
    on every panel; at a real pole in the interval, 60 times.  Both moments are
    ``math.fsum`` of weight times value, the variance of the centred |f - E f|^2,
    which does not cancel on narrow intervals far from 0.  Raises NumericalError
    naming the generator and the interval if the u-interval's width overflows or
    rounds to 0, if f overflows (next to a subnormal b), or if the variance is
    not finite and positive.
    """
    b = generator.alpha.imag
    lo, hi = source.lo + generator.alpha.real, source.hi + generator.alpha.real
    what = f"uniform-source moments of {generator!r} on [{source.lo!r}, {source.hi!r}]"
    if not 0.0 < hi - lo < math.inf:
        raise NumericalError(f"{what}: [lo + Re alpha, hi + Re alpha] has width {hi - lo!r}")
    c = min(max(0.0, lo), hi)
    gap = math.hypot(c, b)
    # a difference of log2s: the quotient (hi - lo)/gap overflows at a subnormal b
    levels = 60 if gap == 0.0 else max(8, math.ceil(math.log2(hi - lo) - math.log2(gap)) + 8)
    # on a side of unit length panel k < levels is [2^-(k+1), 2^-k], the last [0, 2^-levels]
    widths = np.ldexp(1.0, -np.minimum(np.arange(1, levels + 2), levels))[:, np.newaxis]
    nodes = np.concatenate([np.negative(cauchy._GAUSS_NODES), cauchy._GAUSS_NODES])
    unit_nodes = (np.append(widths[:-1], 0.0)[:, np.newaxis] + widths * (1.0 + nodes) / 2.0).ravel()
    unit_weights = (widths * np.tile(cauchy._GAUSS_WEIGHTS, 2) / 2.0).ravel()
    sides = [end - c for end in (lo, hi) if end != c]
    u = np.concatenate([c + side * unit_nodes for side in sides])
    weights = np.concatenate([abs(side) * unit_weights for side in sides])
    weights /= math.fsum(weights.tolist())
    mean = variance = math.nan
    with np.errstate(all="ignore"):  # overflow next to the singularity is refused below
        values = type(generator)(1j * b).apply(u)
        if np.isfinite(values).all():  # then the mean, a convex combination, is finite
            mean = complex(math.fsum((weights * values.real).tolist()),
                           math.fsum((weights * values.imag).tolist()))
            # (sqrt(w) |f - E f|)^2: w |f - E f|^2 would overflow at |f| near 1e300
            variance = math.fsum(((np.sqrt(weights) * abs(values - mean)) ** 2).tolist())
    if not 0.0 < variance < math.inf:
        raise NumericalError(f"{what}: E f(X) = {mean!r} and Var f(X) = {variance!r}, "
                             "not finite and positive")
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


# Cephes ndtri (S. Moshier, Cephes Math Library): P0/Q0 for |y - 1/2| <= 3/8,
# P1/Q1 for z = sqrt(-2 log y) in [2, 8), P2/Q2 for z >= 8; cephes' p1evl
# implies each Q's leading 1, written out here
_NDTRI_P0 = (-5.99633501014107895267e1, 9.80010754185999661536e1, -5.66762857469070293439e1,
             1.39312609387279679503e1, -1.23916583867381258016e0)
_NDTRI_Q0 = (1.0, 1.95448858338141759834e0, 4.67627912898881538453e0, 8.63602421390890590575e1,
             -2.25462687854119370527e2, 2.00260212380060660359e2, -8.20372256168333339912e1,
             1.59056225126211695515e1, -1.18331621121330003142e0)
_NDTRI_P1 = (4.05544892305962419923e0, 3.15251094599893866154e1, 5.71628192246421288162e1,
             4.40805073893200834700e1, 1.46849561928858024014e1, 2.18663306850790267539e0,
             -1.40256079171354495875e-1, -3.50424626827848203418e-2, -8.57456785154685413611e-4)
_NDTRI_Q1 = (1.0, 1.57799883256466749731e1, 4.53907635128879210584e1, 4.13172038254672030440e1,
             1.50425385692907503408e1, 2.50464946208309415979e0, -1.42182922854787788574e-1,
             -3.80806407691578277194e-2, -9.33259480895457427372e-4)
_NDTRI_P2 = (3.23774891776946035970e0, 6.91522889068984211695e0, 3.93881025292474443415e0,
             1.33303460815807542389e0, 2.01485389549179081538e-1, 1.23716634817820021358e-2,
             3.01581553508235416007e-4, 2.65806974686737550832e-6, 6.23974539184983293730e-9)
_NDTRI_Q2 = (1.0, 6.02427039364742014255e0, 3.67983563856160859403e0, 1.37702099489081330271e0,
             2.16236993594496635890e-1, 1.34204006088543189037e-2, 3.28014464682127739104e-4,
             2.89247864745380683936e-6, 6.79019408009981274425e-9)
_EXP_M2 = 0.13533528323661269189  # exp(-2): the central branch holds y in (exp(-2), 1 - exp(-2)]
_SQRT_2PI = 2.50662827463100050242


def _polevl(x, coef):
    """coef[0] x^k + ... + coef[k] in cephes' Horner order."""
    value = coef[0]
    for c in coef[1:]:
        value = value * x + c
    return value


def _libm_log(values):
    # math.log calls the C library's log, as cephes does; np.log need not round the same
    return np.array(list(map(math.log, values.tolist())))


def _ndtri(y):
    """Standard normal quantiles of ``y`` in (0, 1), with scipy.special.ndtri's bits."""
    y = np.asarray(y, dtype=float)
    upper = y > 1.0 - _EXP_M2
    y = np.where(upper, 1.0 - y, y)
    out = np.empty_like(y)
    central = y > _EXP_M2
    c = y[central] - 0.5
    c2 = c * c
    out[central] = (c + c * (c2 * _polevl(c2, _NDTRI_P0) / _polevl(c2, _NDTRI_Q0))) * _SQRT_2PI
    tail = ~central
    z = np.sqrt(-2.0 * _libm_log(y[tail]))
    r = 1.0 / z
    x = z - _libm_log(z) / z - np.where(z < 8.0,
                                        r * _polevl(r, _NDTRI_P1) / _polevl(r, _NDTRI_Q1),
                                        r * _polevl(r, _NDTRI_P2) / _polevl(r, _NDTRI_Q2))
    out[tail] = np.where(upper[tail], x, -x)
    return out


@functools.lru_cache(maxsize=8)
def _qq_quantiles(m):
    """Normal quantiles of the QQ grid (i - 1/2)/m, i = 1..m; read-only, built once per m."""
    quantiles = _ndtri((np.arange(1, m + 1) - 0.5) / m)
    quantiles.flags.writeable = False
    return quantiles


def _qq_correlation(values):
    quantiles = _qq_quantiles(len(values))
    return float(np.corrcoef(np.sort(values), quantiles)[0, 1])


def clt_diagnostics(deviations, theoretical_scalar):
    """Diagnose sqrt(n)-scaled deviations against the predicted normal limit.

    The limiting law is an isotropic two-dimensional normal whose per-axis
    variance is ``theoretical_scalar``; accordingly the real/imaginary parts
    should be uncorrelated, each with variance near the scalar and straight
    normal QQ plots.
    """
    dev = np.asarray(deviations, dtype=complex)
    _validate_size(dev.size, "clt_diagnostics: number of deviations", _CLT_MIN)
    _validate_positive(theoretical_scalar, "clt_diagnostics: theoretical scalar")
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
        estimates, failed = estimate_rows(source.draw_rows(rng, 1, n), alpha)
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
    Rows the kernel fails are redrawn from their sub-streams by ``_redraw``.
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
            estimates, failed = _ESTIMATORS[kind](source.draw_rows(rng, rows, n), alpha)
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
    failed_replications: int  # failed draws: every failed attempt of a replication counts
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
    if m >= _CLT_MIN:
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

    Raises :class:`~cqmeans.exceptions.ExperimentError` if the failed draws
    at one n outnumber 0.01% of the replications, or one replication still
    fails after its last resample.
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
                f"run_experiment: {failures} failed draws at n={n} "
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
    seed = _validate_size(seed, "harmonic_identity_check: seed")
    n = _validate_size(n, "harmonic_identity_check: n", 1)
    replications = _validate_size(replications, "harmonic_identity_check: replications",
                                  _MIN_REPLICATIONS)
    std = cauchy.CauchyParams(0.0, 1.0)
    reference = std if reference is None else reference
    if not isinstance(reference, cauchy.CauchyParams):
        raise DomainError("harmonic_identity_check: reference must be CauchyParams or None, "
                          f"got {reference!r}")
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
