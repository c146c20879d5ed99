"""Complex logarithm and real powers on a branch cut along the nonpositive
imaginary axis.

The argument is taken in [-pi/2, 3pi/2), which makes the logarithm holomorphic
on the plane minus {Re z = 0, Im z <= 0}.  Every nonzero real number then has
a well-defined logarithm: log x = log|x| for x > 0 and log x = log|x| + i*pi
for x < 0.  Powers are defined through this logarithm, z**p = exp(p * log z),
so roots of negative reals are complex rather than undefined.  Note that with
this convention the product of two powers need not equal the power of the
product once negative numbers are involved, e.g.
(-1)**0.5 * (-1)**0.5 = -1 while ((-1) * (-1))**0.5 = 1.

All functions accept scalars or numpy arrays and raise
:class:`~cqmeans.exceptions.DomainError` on zero or non-finite input.
"""

import math

import numpy as np

from .exceptions import DomainError, _validate_number

_TWO_PI = 2.0 * math.pi
_ARG_MIN = -0.5 * math.pi
_ARG_SUP = 1.5 * math.pi
# largest float strictly below the excluded upper end of the argument range
_ARG_MAX = float(np.nextafter(_ARG_SUP, 0.0))


def _as_complex(z, what):
    arr = np.asarray(z, dtype=complex)
    if not np.isfinite(arr).all():
        raise DomainError(f"{what}: non-finite input")
    if not arr.all():
        raise DomainError(f"{what}: undefined at z = 0")
    return arr


def _theta(arr):
    """branch_arg of a validated complex array, as a new float array."""
    # adding +0.0 turns -0.0 components into +0.0, so axis points are
    # classified by value rather than by the sign of a zero
    theta = np.arctan2(arr.imag + 0.0, arr.real + 0.0, out=np.empty(arr.shape))
    np.add(theta, _TWO_PI, out=theta, where=theta < _ARG_MIN)
    # one ulp left of the cut the shift can round onto the excluded 3pi/2;
    # clamping to _ARG_MAX, the largest float below it, moves exactly those
    return np.minimum(theta, _ARG_MAX, out=theta)


def branch_arg(z):
    """Argument theta of z with z = |z| exp(i theta) and theta in [-pi/2, 3pi/2).

    Points exactly on the cut {Re z = 0, Im z < 0} return -pi/2, the closed
    end of the range.  Standard library conventions use (-pi, pi]; here the
    standard argument is shifted by 2*pi whenever it falls below -pi/2.
    """
    arr = _as_complex(z, "branch_arg")
    theta = _theta(arr)
    if arr.ndim == 0:
        return float(theta)
    return theta


def branch_log(z):
    """log z = log|z| + i*theta with theta = branch_arg(z)."""
    arr = _as_complex(z, "branch_log")
    out = np.empty(arr.shape, complex)
    # set, not added as 1j * theta, which turns an angle of -0.0 into +0.0
    out.imag = _theta(arr)
    out.real = np.log(np.abs(arr))
    if arr.ndim == 0:
        return complex(out)
    return out


def branch_pow(z, p):
    """z**p = exp(p * branch_log(z)) for real exponent p.

    For x < 0 this equals (-x)**p * exp(i*pi*p); for x > 0 it agrees with the
    real power and has exactly zero imaginary part.  An exponent that is not a
    finite real number (a string, None, a complex, nan) raises DomainError.
    """
    p = _validate_number(p, "branch_pow: exponent")
    if not math.isfinite(p):
        raise DomainError("branch_pow: non-finite exponent")
    out = np.exp(p * branch_log(z))
    if np.ndim(z) == 0:
        return complex(out)
    return out
