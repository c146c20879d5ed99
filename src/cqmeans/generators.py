"""Quasi-arithmetic means of real samples with complex-valued transforms.

A quasi-arithmetic mean applies an injective holomorphic transform f to each
sample, averages the transformed values, and maps the average back through
f^{-1}.  Because the transforms here take complex values on the real line,
the mean is defined for samples of either sign, and its imaginary part is
meaningful (for Cauchy data it estimates the scale).

Two transforms are provided:

``ShiftedLog(alpha)``
    f(x) = log(x + alpha) on the branch of :mod:`cqmeans.branch`.  With
    alpha = 0 the mean is the classical geometric mean, extended to negative
    samples.  Requires Im(alpha) >= 0.  The angle is found in real
    arithmetic, the modulus from the complex x + alpha, for its bits.

``MobiusReciprocal(alpha)``
    f(x) = 1/(x + alpha).  With real alpha this would be the harmonic mean,
    whose image is not convex, so Im(alpha) > 0 is required; the image is then
    the closed disk of radius 1/(2 Im alpha) centered at -i/(2 Im alpha),
    minus the origin.

The averaging bound min|x_i| <= |mean| <= max|x_i| familiar from the plain
geometric mean does NOT carry over to the Mobius transform: with alpha = i
the samples (b, -b) give a mean of magnitude b**2, which escapes the sample
range in both directions depending on b.

Every average is taken from the correctly rounded sum of its terms (real and
imaginary parts separately), the value ``math.fsum`` returns.  ``_row_means``
finds it for all rows of a block at once by two levels of error-free
extraction, and leaves to fsum only the rows (or small blocks) where that
does not pay; how a sum is found never changes its bits.

Means are computed for the rows of a 2-d sample matrix at once by
``Generator._rows``, with a mask of the rows that fail; a single sample is
the one-row case, so a row gives the same bits in a block and on its own.
A sample whose sum x + alpha overflows raises NumericalError.
"""

import math
import operator

import numpy as np

from . import _buffers
from .branch import branch_log
from .exceptions import DomainError, NumericalError

_IMAG_FLOOR = 1e-9  # relative rounding allowed below the real axis by _checked
_EXTRACT_MIN = 1024  # smaller blocks go to fsum row by row; the two break even near 1,024 terms


def _row_means(values):
    """Mean of every row of a 2-d float array, ``math.fsum(row) / n`` bit for bit.

    Two levels of error-free extraction (ExtractVector of Rump, Ogita and
    Oishi, "Accurate floating-point summation part I: faithful rounding",
    SISC 2008) run on all rows at once, each row with its own sigma, a power
    of two above (n + 2) * max|r| over that row.  Then q = (r + sigma) - sigma
    and r - q are exact, and sum(q) is exact in any order, so a row's two
    level sums and its remainders add up exactly to the row.  A row the two
    levels exhaust sums as tau0 + tau1, rounded correctly by that one
    addition; a row with remainders left ends with fsum of its taus and its
    nonzero remainders (a third level over all rows costs more than it
    saves).  A row on which no level can run (all zero, not finite or near
    overflow) goes to fsum whole, with fsum's signed zero and overflow error,
    and so does every row of a block of fewer than ``_EXTRACT_MIN`` terms.
    The method never changes the bits, so a row gives the same mean in a
    block of any height.

    A block of more rows than terms is worked on in a column-major copy, so
    that each reduction over the rows' terms runs as n - 1 operations on
    contiguous columns (about 4x faster at 2-7 terms); the bits stay, as each
    level's sum is exact in any order.  The levels write to the copy, never
    to ``values``; inside a Monte Carlo chunk the copy and the scratch array
    are views of the thread's pool (``_buffers``).
    """
    n = values.shape[1]
    if values.size < _EXTRACT_MIN:
        return np.array([math.fsum(row) for row in values.tolist()]) / n
    spread = (n + 2).bit_length()
    order = "F" if len(values) > n else "C"
    r = _buffers.empty("sum.r", values.shape, order=order)
    np.copyto(r, values)
    q = np.abs(r, out=_buffers.empty("sum.q", values.shape, order=order))
    top = q.max(axis=1)
    exponent = np.frexp(top)[1] + spread
    whole = ~((top > 0.0) & (top < math.inf) & (exponent <= 1023))
    exponent[whole] = 0
    r[whole] = 0.0
    taus = []
    for level in range(2):
        if level:
            np.abs(r, out=q)
            exponent = np.frexp(q.max(axis=1))[1] + spread
        sigma = np.ldexp(1.0, exponent)[:, np.newaxis]
        np.add(r, sigma, out=q)
        q -= sigma
        r -= q
        taus.append(q.sum(axis=1))
    sums = taus[0] + taus[1]
    for i in np.flatnonzero(r.any(axis=1)).tolist():
        rest = r[i]
        sums[i] = math.fsum([taus[0][i], taus[1][i]] + rest[rest != 0.0].tolist())
    for i in np.flatnonzero(whole).tolist():
        sums[i] = math.fsum(values[i].tolist())
    return sums / n


def _complex_row_means(values):
    """``_row_means`` of a 2-d complex array, real and imaginary parts apart."""
    out = np.empty(len(values), dtype=complex)
    out.real = _row_means(values.real)
    out.imag = _row_means(values.imag)
    return out


def _cos_sin_pi_fraction(k, n):
    """(cos, sin) of pi*k/n for integers 0 <= k <= n, exact on the axes.

    Exactness at k in {0, n} is what makes the imaginary part of a real-shift
    geometric mean vanish exactly when and only when all shifted samples
    share a sign.
    """
    if k == 0:
        return 1.0, 0.0
    if k == n:
        return -1.0, 0.0
    if 2 * k == n:
        return 0.0, 1.0
    if 2 * k > n:
        c, s = _cos_sin_pi_fraction(n - k, n)
        return -c, s
    ang = math.pi * (k / n)
    return math.cos(ang), math.sin(ang)


class Generator:
    """Base class for the transforms defining a quasi-arithmetic mean.

    A transform implements ``_check_alpha``, ``apply``, ``invert`` and
    ``derivative``.  The base ``_rows`` runs a (rows, n) block through them
    and raises where they raise; a transform may override it to mask failed rows.
    """

    def __init__(self, alpha):
        alpha = complex(alpha)
        if not (math.isfinite(alpha.real) and math.isfinite(alpha.imag)):
            raise DomainError(f"{type(self).__name__}: alpha must be finite")
        self.alpha = alpha
        self._check_alpha()

    def __repr__(self):
        return f"{type(self).__name__}(alpha={self.alpha!r})"

    def _add(self, x, shift, out):
        """``np.add(x, shift, out=out)``; NumericalError naming the first sample, (row,
        column) in a matrix of several rows, where it overflows.  numpy's overflow
        flag finds it without a pass of its own, and nothing warns."""
        try:
            with np.errstate(over="raise"):
                return np.add(x, shift, out=out)
        except FloatingPointError:
            with np.errstate(over="ignore"):
                where = np.argwhere(~np.isfinite(np.atleast_1d(np.add(x, shift))))[0].tolist()
        at = tuple(where) if np.ndim(x) > 1 and len(x) > 1 else where[-1]
        raise NumericalError(f"{type(self).__name__}: x + alpha overflows at sample {at}") from None

    def _shift(self, x, what):
        """x + alpha with a pole check naming the offending sample index.

        A real alpha keeps real samples in float arithmetic.
        """
        x = np.asarray(x)
        shift = self.alpha if self.alpha.imag else self.alpha.real
        z = self._add(x, shift, None)
        if not z.all():
            idx = int(np.flatnonzero(np.atleast_1d(z) == 0)[0])
            raise DomainError(
                f"{type(self).__name__}.{what}: singular input at sample {idx}"
            )
        if np.ndim(x) == 0:
            return complex(z)
        return z

    def _checked(self, out):
        """``out`` (scalar or array) after checking the invariant of every mean.

        An inverse maps the image's averages into the closed upper half plane;
        a result below it by more than relative rounding is a numerical fault.
        """
        if not np.all(np.imag(out) >= -_IMAG_FLOOR * np.maximum(1.0, np.abs(out))):
            raise NumericalError(
                f"{type(self).__name__}.invert: result leaves the upper half plane"
            )
        if np.ndim(out) == 0:
            return complex(out)
        return out

    def _rows(self, x):
        """Means of the rows of the 2-d sample array ``x``, and the failed-row mask.

        A row fails at a pole of f or when its average lies outside the
        image; an override masks it with the mean nan, this version raises.
        """
        return self.invert(_complex_row_means(self.apply(x))), np.zeros(len(x), dtype=bool)


class ShiftedLog(Generator):
    """f(x) = log(x + alpha), the (shifted) geometric mean transform.

    Its row kernel takes each angle in real arithmetic (0 or pi at a real
    shift) and the modulus from the complex abs(x + alpha), for its bits.
    """

    def _check_alpha(self):
        if self.alpha.imag < 0:
            raise DomainError("ShiftedLog: alpha must lie in the closed upper half plane")

    def apply(self, x):
        return branch_log(self._shift(x, "apply"))

    def invert(self, w):
        return self._checked(np.exp(np.asarray(w, dtype=complex)) - self.alpha)

    def derivative(self, z):
        return 1.0 / self._shift(z, "derivative")

    def _rows(self, x):
        shift = self.alpha.real
        moduli = self._add(x, shift, _buffers.empty("log.moduli", x.shape))
        if self.alpha.imag:
            return self._complex_rows(x, moduli)
        # real shift: every log has imaginary part exactly 0 or pi, so the
        # mean angle is pi * (#negatives)/n and can be exponentiated with
        # exact axis values instead of a rounded generic complex exp
        mask = np.less(moduli, 0.0, out=_buffers.empty("log.mask", x.shape, bool))
        negatives = mask.sum(axis=1)
        np.abs(moduli, out=moduli)
        pole = np.equal(moduli, 0.0, out=mask)
        failed = pole.any(axis=1)
        np.copyto(moduli, 1.0, where=pole)  # keeps log 0 out of the sums of the failed rows
        log_scales = _row_means(np.log(moduli, out=moduli))
        n = x.shape[1]
        # (cos, sin) indexed by the count, computed once per count present
        axes = np.empty((n + 1, 2))
        for k in set(negatives.tolist()):
            axes[k] = _cos_sin_pi_fraction(k, n)
        cos, sin = axes[negatives].T
        # math.exp row by row: numpy's vectorised exp need not round the same way
        scales = np.array(list(map(math.exp, log_scales.tolist())))
        means = np.empty(len(x), dtype=complex)
        means.real = scales * cos - shift
        imag = scales * sin
        # a row of both signs keeps Im > 0 where scale * sin underflows to 0
        imag[(imag == 0.0) & (sin > 0.0)] = math.ulp(0.0)
        means.imag = imag
        means[failed] = np.nan
        return means, failed

    def _complex_rows(self, x, angles):
        """``_rows`` at b = Im alpha > 0, ``angles`` holding u = x + Re alpha.

        arctan2(b, u) lies in (0, pi), where ``branch_log``'s wrap, clamp and
        ``+ 0.0`` change no bit (arctan2(b, -0.0) is pi/2).  log(hypot(u, b))
        would differ in bits from log(abs(x + alpha)), so the modulus stays complex.
        """
        # its real part is ``angles``, so this sum cannot overflow
        z = np.add(x, self.alpha, out=_buffers.empty("shift", x.shape, complex))
        logs = np.abs(z, out=_buffers.empty("log.abs", x.shape))
        means = np.empty(len(x), dtype=complex)
        means.real = _row_means(np.log(logs, out=logs))
        means.imag = _row_means(np.arctan2(self.alpha.imag, angles, out=angles))
        return self.invert(means), np.zeros(len(x), dtype=bool)


class MobiusReciprocal(Generator):
    """f(x) = 1/(x + alpha), the Mobius-transform mean with Im(alpha) > 0."""

    def _check_alpha(self):
        if self.alpha.imag <= 0:
            raise DomainError("MobiusReciprocal: alpha must lie strictly in the upper half plane")

    def apply(self, x):
        return 1.0 / self._shift(x, "apply")

    def invert(self, w):
        w = np.asarray(w, dtype=complex)
        if np.any(w == 0):
            raise DomainError("MobiusReciprocal.invert: 0 is not in the image")
        return self._checked(1.0 / w - self.alpha)

    def _rows(self, x, alpha=None):
        """Means of the rows of ``x`` and the mask of rows whose average is 0.

        ``alpha``, one shift per row in the open upper half plane, replaces
        the generator's own; the two-step estimator's second stage needs it.
        """
        shift = np.asarray(self.alpha if alpha is None else alpha)
        terms = self._add(x, shift[..., np.newaxis], _buffers.empty("mobius", x.shape, complex))
        w = _complex_row_means(np.divide(1.0, terms, out=terms))
        failed = w == 0
        w[failed] = 1.0  # any nonzero value; these rows' means are set to nan
        # a subnormal average overflows 1/w; _checked below raises NumericalError
        with np.errstate(over="ignore", invalid="ignore"):
            means = 1.0 / w - shift
        means[failed] = np.nan
        self._checked(means[~failed])
        return means, failed

    def derivative(self, z):
        return -1.0 / self._shift(z, "derivative") ** 2


def _validate_samples(samples, caller, ndim=1):
    """``samples`` as a float array of ``ndim`` dimensions, non-empty and finite.

    The one check of sample arrays: its DomainError names ``caller`` and the
    index of the first non-finite sample, (row, column) in a matrix.
    """
    x = np.asarray(samples, dtype=float)
    if x.ndim != ndim:
        words = ("one", "two")[ndim - 1]
        raise DomainError(f"{caller}: samples must be {words}-dimensional, got {x.ndim} dimensions")
    if x.size == 0:
        raise DomainError(f"{caller}: need at least one sample")
    finite = np.isfinite(x, out=_buffers.empty("finite", x.shape, bool))
    if not finite.all():
        where = tuple(np.argwhere(~finite)[0].tolist())
        raise DomainError(f"{caller}: non-finite sample at index {where if ndim > 1 else where[0]}")
    return x


def _validate_size(value, what, minimum=0):
    """The int ``operator.index(value)`` if at least ``minimum``, the one check of sizes,
    counts and seeds (2.5 and nan fail); else DomainError naming ``what`` and the value."""
    try:
        size = operator.index(value)
    except TypeError:
        raise DomainError(f"{what} must be an integer, got {value!r}") from None
    if size < minimum:
        raise DomainError(f"{what} must be at least {minimum}, got {size!r}")
    return size


def _validate_positive(value, what):
    """DomainError naming ``what`` and ``value`` unless 0 < value < inf (nan fails): the one
    check of scales, tolerances and thresholds."""
    if not 0 < value < math.inf:
        raise DomainError(f"{what} must be positive and finite, got {value!r}")


def qam(generator, samples):
    """Quasi-arithmetic mean f^{-1}((1/n) sum_j f(x_j)) of real samples.

    The transformed values are averaged from the exactly rounded sums of
    their real and imaginary parts, equal bit for bit to ``math.fsum``, so
    the result is reproducible and does not depend on summation order.  From
    ``_EXTRACT_MIN`` samples on the sums are computed by error-free
    extraction in numpy.  The samples are the one-row case of
    ``generator._rows``, which the Monte Carlo harness runs on whole tiles.

    Parameters
    ----------
    generator : Generator
        The transform f.
    samples : array_like
        Real samples of one dimension, at least one, all finite.

    Returns
    -------
    complex
        The mean, a point of the closed upper half plane (up to rounding).
    """
    x = _validate_samples(samples, "qam")[np.newaxis]
    means, failed = generator._rows(x)
    if failed[0]:  # the generic path raises, naming a sample at the pole or a mean off the image
        Generator._rows(generator, x)
    return complex(means[0])
