"""Cauchy distribution C(mu, sigma) and the theory behind its mean-based estimators.

The location mu and scale sigma > 0 are treated as the single complex
parameter gamma = mu + sigma*i.  Each quasi-arithmetic estimator of gamma
has an explicit limiting variance, one function per kind:

* the shifted geometric mean has
  n * Var -> 2 * ((mu + Re a)^2 + (sigma + Im a)^2) * Var(theta_X)
  where theta_x is the angle of x + a;
  at a = 0 this collapses to 2 r^2 theta (pi - theta) with gamma = r e^{i theta};
* the Mobius-reciprocal mean has n * Var -> (sigma / Im a) * |gamma + a|^2,
  minimized over a at a = -mu + sigma*i where it equals the joint
  Cramer-Rao floor 4 sigma^2;
* the two-step Mobius estimate has n * Var -> 8 sigma^2.

Var(theta_X) is in closed form at every shift: theta (pi - theta) for real
a, and through the complex dilogarithm otherwise, because twice the
arctangent of a Cauchy variable is wrapped Cauchy.  ``integrate_real_line``
integrates over the real line by adaptive quadrature.
"""

import cmath
import math
from dataclasses import dataclass

import numpy as np

from . import _buffers
from .branch import branch_arg
from .exceptions import DomainError, NumericalError, QuadratureError
from .generators import Generator, MobiusReciprocal, ShiftedLog, _validate_positive, _validate_size

_HALF_PI = 0.5 * math.pi
# B_2k / (2k + 1)! for k = 1, ..., 11: the Bernoulli series of Li2
_LI2_SERIES = (
    1 / 36, -1 / 3600, 4.72411186696901e-06, -9.185773074661964e-08, 1.8978869988971e-09,
    -4.0647616451442256e-11, 8.921691020456452e-13, -1.9939295860721074e-14,
    4.518980029619918e-16, -1.0356517612181247e-17, 2.395218621026187e-19,
)
# 12-point Gauss-Legendre rule on [-1, 1]: the positive nodes and their weights
_GAUSS_NODES = (0.1252334085114689, 0.3678314989981802, 0.5873179542866175,
                0.7699026741943047, 0.9041172563704749, 0.9815606342467192)
_GAUSS_WEIGHTS = (0.24914704581340277, 0.2334925365383548, 0.20316742672306592,
                  0.16007832854334622, 0.10693932599531843, 0.04717533638651183)


@dataclass(frozen=True)
class CauchyParams:
    """Location/scale pair, equivalently the complex parameter mu + sigma*i."""

    mu: float
    sigma: float

    def __post_init__(self):
        if not math.isfinite(self.mu):
            raise DomainError("CauchyParams: mu must be finite")
        _validate_positive(self.sigma, "CauchyParams: sigma")

    @property
    def gamma(self):
        return complex(self.mu, self.sigma)

    @property
    def r(self):
        """Modulus of gamma."""
        return abs(self.gamma)

    @property
    def theta(self):
        """Angle of gamma, in (0, pi)."""
        return math.atan2(self.sigma, self.mu)


def density(params, x):
    """Density (sigma/pi) / ((x - mu)^2 + sigma^2)."""
    x = np.asarray(x, dtype=float)
    out = (params.sigma / math.pi) / ((x - params.mu) ** 2 + params.sigma**2)
    if out.ndim == 0:
        return float(out)
    return out


def cdf(params, x):
    """P(X <= x) = 1/2 + arctan((x - mu)/sigma)/pi."""
    x = np.asarray(x, dtype=float)
    out = 0.5 + np.arctan((x - params.mu) / params.sigma) / math.pi
    if out.ndim == 0:
        return float(out)
    return out


def quantile(params, q):
    """Inverse CDF mu + sigma * tan(pi*(q - 1/2)) for q in (0, 1)."""
    q = np.asarray(q, dtype=float)
    if not np.all((q > 0) & (q < 1)):  # nan too
        raise DomainError("quantile: q must lie strictly between 0 and 1")
    out = params.mu + params.sigma * np.tan(math.pi * (q - 0.5))
    if out.ndim == 0:
        return float(out)
    return out


def draw(params, rng, count):
    """``count`` draws by inverse transform from an existing numpy Generator.

    Draw k is mu + sigma * tan(pi * (u_k - 0.5)) for the k-th uniform u_k of
    the stream, whatever u_k is: a uniform of exactly 0 gives the finite
    tan(-pi/2) = -1.633e16 in floating point, an ordinary draw.  Inside a
    Monte Carlo chunk the draws fill the thread's draw buffer (``_buffers``).
    Raises NumericalError naming ``params`` if a draw overflows.
    """
    u = rng.random(out=_buffers.empty("draw", (count,)))
    # mu + sigma * tan(pi * (u - 0.5)) in place, in that order, with its bits
    u -= 0.5
    u *= math.pi
    np.tan(u, out=u)
    try:
        with np.errstate(over="raise"):
            u *= params.sigma
            u += params.mu
    except FloatingPointError:
        raise NumericalError(
            f"draw: mu + sigma * tan(pi * (u - 0.5)) overflows at {params!r}") from None
    return u


def sample(params, seed, count):
    """Deterministic sample of ``count`` draws for a nonnegative integer ``seed``."""
    count = _validate_size(count, "sample: count")
    rng = np.random.default_rng(np.random.SeedSequence(_validate_size(seed, "sample: seed")))
    return draw(params, rng, count)


def expected_generator_value(params, generator):
    """E[f(X)] for any admissible transform f, which equals f(mu + sigma*i).

    The expectation of a transform of a Cauchy variable is the transform of
    the complex parameter itself; this is what makes the induced means
    unbiased estimators of gamma.
    """
    if not isinstance(generator, Generator):
        raise TypeError("expected_generator_value: need a Generator instance")
    return generator.apply(params.gamma)


def cramer_rao_bound(params, n):
    """Joint location-scale variance floor 4*sigma^2/n for unbiased estimators."""
    n = _validate_size(n, "cramer_rao_bound: n", 1)
    return _float_result(
        f"cramer_rao_bound: 4 sigma^2 / n at sigma = {params.sigma!r}, n = {n!r}",
        lambda: 4.0 * params.sigma**2 / n,
    )


def _float_result(what, compute, positive=False):
    """``compute()``, or NumericalError saying ``what`` overflows (or, if
    ``positive``, underflows to 0).

    A float power that overflows raises OverflowError; a product gives inf.
    """
    try:
        value = compute()
    except OverflowError:
        value = math.inf
    if value == math.inf:
        raise NumericalError(f"{what} overflows")
    if positive and value == 0.0:
        raise NumericalError(f"{what} underflows to 0")
    return value


def zolotarev_second_moment(params):
    """E[(log|X|)^2] = (log r)^2 + theta*(pi - theta) in polar gamma = r e^{i theta}."""
    r = params.r
    th = params.theta
    return math.log(r) ** 2 + th * (math.pi - th)


def integrate_real_line(integrand, tolerance, *, center=0.0, halfwidth=1.0):
    """Integrate an absolutely integrable function over the whole real line.

    The line is mapped to (-pi/2, pi/2) by x = center + halfwidth * tan(t)
    before adaptive Gauss-Kronrod refinement; choosing center/halfwidth equal
    to the location/scale of a Cauchy-like integrand equalizes the mass over
    the transformed interval.

    Returns
    -------
    (value, error_estimate) : tuple of float

    Raises
    ------
    DomainError
        If ``center`` is not finite, or ``tolerance`` or ``halfwidth`` is not
        positive and finite.
    QuadratureError
        If the error estimate is not at most ``tolerance`` (nan included); the
        exception carries the best value and the achieved estimate.
    """
    if not math.isfinite(center):
        raise DomainError(f"integrate_real_line: center must be finite, got {center!r}")
    _validate_positive(tolerance, "integrate_real_line: tolerance")
    _validate_positive(halfwidth, "integrate_real_line: halfwidth")

    def transformed(t):
        x = center + halfwidth * math.tan(t)
        return integrand(x) * halfwidth / math.cos(t) ** 2

    from scipy.integrate import quad  # here, so that no command loads scipy
    # full_output: a failure is the QuadratureError below, not an IntegrationWarning
    value, err = quad(transformed, -_HALF_PI, _HALF_PI, epsabs=tolerance, epsrel=1e-12,
                      limit=500, full_output=1)[:2]
    if not err <= tolerance:  # a nan estimate too
        raise QuadratureError(
            f"integrate_real_line: error estimate {err:.3e} exceeds tolerance "
            f"{tolerance:.3e}",
            value=value,
            error_estimate=err,
        )
    return value, err


@dataclass(frozen=True)
class TheoreticalAsymptotics:
    """Limiting variance data for one estimator at one shift alpha.

    ``nvar_limit`` is lim n * Var(estimate); ``clt_scalar`` is the per-axis
    variance of the limiting (isotropic) normal, half of the limit; and
    ``shifted_angle`` is the angle of gamma + alpha.
    """

    estimator: str
    alpha: complex
    nvar_limit: float
    shifted_angle: float
    clt_scalar: float


def _asymptotics(estimator, params, alpha, what, compute):
    """TheoreticalAsymptotics of the limit ``compute()``, checked as ``what``."""
    limit = _float_result(what, compute, positive=True)
    return TheoreticalAsymptotics(estimator, alpha, limit, branch_arg(params.gamma + alpha),
                                  limit / 2.0)


def _li2(t):
    """The dilogarithm Li2(t) of a complex t with Re t <= 1/2, to 1e-15 of max(1, |Li2|).

    Inversion for |t| > 1 brings t to where the Bernoulli series in
    u = -log(1 - t) converges fast, |u| <= pi/3.
    """
    if abs(t) > 1.0:
        return -math.pi**2 / 6.0 - 0.5 * cmath.log(-t) ** 2 - _li2(1.0 / t)
    u = -cmath.log(1.0 - t)
    u2 = u * u
    series = sum(coefficient * u2**k for k, coefficient in enumerate(_LI2_SERIES, start=1))
    return u - u2 / 4.0 + u * series


def _angle_variance(params, alpha):
    """Var(theta_X) for X ~ C(mu, sigma), theta_x the angle of x + alpha.

    With b = Im alpha, theta_X = pi/2 - atan Y for Y = (X + Re alpha)/b ~ C(m, s),
    m = (mu + Re alpha)/b and s = sigma/b.  2 atan Y is wrapped Cauchy (McCullagh,
    Ann. Statist. 1996), so its Fourier series and Landen's identity give
    Var = pi^2/12 - Re Li2(p0 - h) - |log(p0 + h)|^2 / 2, p0 = (1 + i m)/2, h = s/2.
    Where the terms nearly cancel, h <= |p0|/4, Var is the integral of its
    derivative in h from 0.  For Im alpha <= 1e-17 max(sigma, |mu + Re alpha|)
    the shift is taken as real.  The relative error is at most 1e-13 against
    a 120-digit reference.
    """
    b = alpha.imag
    location = params.mu + alpha.real
    if b <= 1e-17 * max(params.sigma, abs(location)):
        # the angle of x + Re alpha is pi with probability theta/pi, theta =
        # atan2(sigma, mu + Re alpha), else 0: Var = theta (pi - theta), with
        # pi - theta as atan2(sigma, -(mu + Re alpha)) so that nothing cancels
        return math.atan2(params.sigma, location) * math.atan2(params.sigma, -location)
    p0 = complex(0.5, location / b / 2.0)
    h = params.sigma / b / 2.0
    if h > abs(p0) / 4.0:
        variance = math.pi**2 / 12.0 - _li2(p0 - h).real - abs(cmath.log(p0 + h)) ** 2 / 2.0
    else:
        # dVar/dh = -Re[conj(log(p0 + h)) (1/(p0 - h) + 1/(p0 + h))], by Gauss-Legendre;
        # not 2 p0/(p0^2 - h^2), whose p0^2 overflows once |m| passes about 1e154
        half = h / 2.0
        variance = -half * sum(
            w * (cmath.log(p0 + k).conjugate() * (1.0 / (p0 - k) + 1.0 / (p0 + k))).real
            for x, w in zip(_GAUSS_NODES, _GAUSS_WEIGHTS) for k in (half - half * x, half + half * x)
        )
    if not variance > 0.0:
        raise NumericalError(
            f"asymptotic_variance_geometric: Var(angle) at alpha = {alpha!r} is "
            f"{variance!r}, not positive"
        )
    return variance


def asymptotic_variance_geometric(params, alpha):
    """Limiting n * Var of the shifted geometric-mean estimate at shift alpha.

    Requires Im(alpha) >= 0.  Raises NumericalError if the variance of the
    angle does not come out positive, or the limit overflows or underflows to 0.
    """
    alpha = ShiftedLog(alpha).alpha  # the transform checks the shift
    shifted = params.gamma + alpha
    return _asymptotics(
        "geometric", params, alpha,
        f"asymptotic_variance_geometric: the n*Var limit at {params}, alpha = {alpha!r}",
        lambda: 2.0 * (shifted.real**2 + shifted.imag**2) * _angle_variance(params, alpha),
    )


def asymptotic_variance_mobius(params, alpha):
    """Limiting n * Var of the Mobius-reciprocal estimate at shift alpha.

    Equals (sigma / Im alpha) * |gamma + alpha|^2 and requires Im(alpha) > 0.
    Raises NumericalError if it overflows or underflows to 0.
    """
    alpha = MobiusReciprocal(alpha).alpha  # the transform checks the shift
    shifted = params.gamma + alpha
    return _asymptotics(
        "mobius", params, alpha,
        f"asymptotic_variance_mobius: the n*Var limit at {params}, alpha = {alpha!r}",
        lambda: (params.sigma / alpha.imag) * (shifted.real**2 + shifted.imag**2),
    )


def asymptotic_variance_two_step(params, alpha):
    """Limiting n * Var of the two-step Mobius estimate at pilot shift alpha.

    8 sigma^2 at any alpha with Im(alpha) > 0: twice the 4 sigma^2 floor, as
    the second stage re-estimates on n/2 samples at the near-optimal shift.
    Raises NumericalError if it overflows or underflows to 0.
    """
    alpha = MobiusReciprocal(alpha).alpha  # the transform checks the shift
    return _asymptotics(
        "two_step_mobius", params, alpha,
        f"asymptotic_variance_two_step: the n*Var limit 8 sigma^2 at sigma = {params.sigma!r}",
        lambda: 2.0 * (4.0 * params.sigma**2),
    )
