"""Cauchy distribution C(mu, sigma) and the theory behind its mean-based estimators.

The location mu and scale sigma > 0 are treated as the single complex
parameter gamma = mu + sigma*i.  Both quasi-arithmetic estimators of gamma
have explicit limiting variances:

* the shifted geometric mean has
  n * Var -> 2 * ((mu + Re a)^2 + (sigma + Im a)^2) * (E[theta_X^2] - theta_a^2)
  where theta_x is the angle of x + a and theta_a the angle of gamma + a;
  at a = 0 this collapses to 2 r^2 theta (pi - theta) with gamma = r e^{i theta};
* the Mobius-reciprocal mean has n * Var -> (sigma / Im a) * |gamma + a|^2,
  minimized over a at a = -mu + sigma*i where it equals the joint
  Cramer-Rao floor 4 sigma^2.

E[theta_X^2] is an absolutely convergent integral over the real line and is
evaluated here by adaptive quadrature after a tangent substitution; for real
a the integrand degenerates to a step and the closed-form Cauchy CDF is used
instead.
"""

import math
from dataclasses import dataclass

import numpy as np
from scipy.integrate import quad

from .branch import branch_arg
from .exceptions import DomainError, QuadratureError
from .generators import Generator

_HALF_PI = 0.5 * math.pi


@dataclass(frozen=True)
class CauchyParams:
    """Location/scale pair, equivalently the complex parameter mu + sigma*i."""

    mu: float
    sigma: float

    def __post_init__(self):
        if not (math.isfinite(self.mu) and math.isfinite(self.sigma)):
            raise DomainError("CauchyParams: parameters must be finite")
        if self.sigma <= 0:
            raise DomainError("CauchyParams: sigma must be positive")

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
    if np.any(q <= 0) or np.any(q >= 1):
        raise DomainError("quantile: q must lie strictly between 0 and 1")
    out = params.mu + params.sigma * np.tan(math.pi * (q - 0.5))
    if out.ndim == 0:
        return float(out)
    return out


def draw(params, rng, count, redraw=True):
    """``count`` draws by inverse transform from an existing numpy Generator.

    Uniform variates exactly equal to 0 are redrawn so the tangent never sees
    the endpoints of its period.  With ``redraw=False`` they give nan instead,
    so that draw k always comes from the k-th variate of the stream.
    """
    u = rng.random(count)
    bad = u == 0.0
    while bad.any():
        u[bad] = rng.random(int(bad.sum())) if redraw else math.nan
        bad = u == 0.0
    return params.mu + params.sigma * np.tan(math.pi * (u - 0.5))


def sample(params, seed, count):
    """Deterministic sample of ``count`` draws for a 64-bit ``seed``."""
    if count < 0:
        raise DomainError("sample: count must be nonnegative")
    rng = np.random.default_rng(np.random.SeedSequence(seed))
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
    if n < 1:
        raise DomainError("cramer_rao_bound: n must be at least 1")
    return 4.0 * params.sigma**2 / n


def zolotarev_second_moment(params):
    """E[(log|X|)^2] = (log r)^2 + theta*(pi - theta) in polar gamma = r e^{i theta}."""
    r = params.r
    th = params.theta
    return math.log(r) ** 2 + th * (math.pi - th)


def integrate_real_line(integrand, tolerance, *, center=0.0, halfwidth=1.0,
                        split_points=()):
    """Integrate an absolutely integrable function over the whole real line.

    The line is mapped to (-pi/2, pi/2) by x = center + halfwidth * tan(t)
    before adaptive Gauss-Kronrod refinement; choosing center/halfwidth equal
    to the location/scale of a Cauchy-like integrand equalizes the mass over
    the transformed interval.  Known feature points of the integrand (kinks,
    peaks) can be passed through ``split_points`` to speed up refinement.

    Returns
    -------
    (value, error_estimate) : tuple of float

    Raises
    ------
    QuadratureError
        If the error estimate cannot be brought below ``tolerance``; the
        exception carries the best value and the achieved estimate.
    """
    if tolerance <= 0:
        raise DomainError("integrate_real_line: tolerance must be positive")
    if halfwidth <= 0:
        raise DomainError("integrate_real_line: halfwidth must be positive")

    def transformed(t):
        x = center + halfwidth * math.tan(t)
        return integrand(x) * halfwidth / math.cos(t) ** 2

    points = sorted(
        {math.atan2(s - center, halfwidth) for s in split_points}
    )
    points = [t for t in points if -_HALF_PI < t < _HALF_PI]
    value, err = quad(
        transformed,
        -_HALF_PI,
        _HALF_PI,
        points=points or None,
        epsabs=tolerance,
        epsrel=1e-12,
        limit=500,
        full_output=0,
    )
    if err > tolerance:
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


def _mean_square_angle(params, alpha, quad_tol):
    """E[angle(X + alpha)^2] for X ~ C(mu, sigma), alpha in the closed UHP."""
    shift_re = alpha.real
    c = alpha.imag
    m = params.mu + shift_re
    if c == 0.0:
        # the angle of x + alpha is exactly 0 or pi; closed-form CDF instead
        # of quadrature across the step
        return math.pi**2 * cdf(params, -shift_re), 0.0

    def integrand(x):
        return density(params, x - shift_re) * math.atan2(c, x) ** 2

    return integrate_real_line(
        integrand,
        quad_tol,
        center=m,
        halfwidth=params.sigma,
        split_points=(0.0, m),
    )


def asymptotic_variance_geometric(params, alpha, *, quad_tol=1e-10):
    """Limiting n * Var of the shifted geometric-mean estimate at shift alpha.

    Requires Im(alpha) >= 0.  For real alpha the closed-form expression
    through the Cauchy CDF is used; otherwise the mean square angle is found
    by adaptive quadrature with absolute tolerance ``quad_tol``.
    """
    alpha = complex(alpha)
    if alpha.imag < 0:
        raise DomainError(
            "asymptotic_variance_geometric: alpha must lie in the closed upper half plane"
        )
    shifted = params.gamma + alpha
    theta_shift = branch_arg(shifted)
    mean_sq, _ = _mean_square_angle(params, alpha, quad_tol)
    limit = 2.0 * (shifted.real**2 + shifted.imag**2) * (mean_sq - theta_shift**2)
    return TheoreticalAsymptotics(
        estimator="geometric",
        alpha=alpha,
        nvar_limit=limit,
        shifted_angle=theta_shift,
        clt_scalar=limit / 2.0,
    )


def asymptotic_variance_mobius(params, alpha):
    """Limiting n * Var of the Mobius-reciprocal estimate at shift alpha.

    Equals (sigma / Im alpha) * |gamma + alpha|^2 and requires Im(alpha) > 0.
    """
    alpha = complex(alpha)
    if alpha.imag <= 0:
        raise DomainError(
            "asymptotic_variance_mobius: alpha must lie strictly in the upper half plane"
        )
    shifted = params.gamma + alpha
    limit = (params.sigma / alpha.imag) * (shifted.real**2 + shifted.imag**2)
    return TheoreticalAsymptotics(
        estimator="mobius",
        alpha=alpha,
        nvar_limit=limit,
        shifted_angle=branch_arg(shifted),
        clt_scalar=limit / 2.0,
    )
