"""Quasi-arithmetic means of real samples with complex-valued transforms.

A quasi-arithmetic mean applies an injective holomorphic transform f to each
sample, averages the transformed values, and maps the average back through
f^{-1}.  Because the transforms here take complex values on the real line,
the mean is defined for samples of either sign, and its imaginary part is
meaningful (for Cauchy data it estimates the scale).

``ShiftedLog(alpha)``
    f(x) = log(x + alpha) on the branch of :mod:`cqmeans.branch`.  With
    alpha = 0 the mean is the classical geometric mean, extended to negative
    samples.  Requires Im(alpha) >= 0.  Its row kernel works in real
    arithmetic: at a real shift each angle is 0 or pi; since 0.3.0, at a
    complex shift, the means come from arctan and log1p of (x + Re alpha) /
    Im alpha (the tangent-angle form), with no complex value.

``MobiusReciprocal(alpha)``
    f(x) = 1/(x + alpha).  With real alpha this would be the harmonic mean,
    whose image is not convex, so Im(alpha) > 0 is required; the image is then
    the closed disk of radius 1/(2 Im alpha) centered at -i/(2 Im alpha),
    minus the origin.  Unlike a geometric mean, the mean may leave the
    sample range: at alpha = i the samples (b, -b) give a mean of size b**2.

``Generator._rows`` finds the means of the rows of a 2-d sample matrix at
once, with a mask of the rows that fail; a single sample is the one-row
case, so a row gives the same bits in a block and on its own.  Every average
is the correctly rounded sum of its terms (``cqmeans._sums``).  A sample
whose sum x + alpha overflows raises NumericalError.
"""

import contextlib
import math

import numpy as np

from . import _buffers
from ._sums import _BOUNDED_MIN, _complex_row_means, _part_row_means, _row_means
from .branch import branch_log
from .exceptions import DomainError, NumericalError, _validate_number

_IMAG_FLOOR = 1e-9  # rounding allowed below the real axis by _checked, relative to |mean| or |alpha|
_SCALED_BELOW = 2.0 ** -968  # 2**54 above the normals, where a subnormal u*u errs by < d * 2**-107
_ANGLE_BOUND = 1.6  # above every arctan in (-pi/2, pi/2), rounding included; see cqmeans._sums
_SQUARE_BELOW = 2.0 ** 511  # |t| up to which t*t stays finite


def _reciprocal(u, b, d, out=None):
    """1/(u + ib) in real arithmetic, Re into ``out`` (``u`` if None) and Im into ``d``;
    both, and if it rescaled.

    ``b`` broadcasts against ``u``, and ``d`` and ``out`` have its shape.  With d =
    u*u + b*b, Re = u/d and Im = -b/d, each operation correctly rounded, so
    the bits do not depend on numpy's SIMD dispatch.  Where d overflows, or
    falls below ``_SCALED_BELOW`` where the rounding of u*u and b*b stops
    being relative, u and b are first scaled by 2**-k, k the exponent of
    max(|u|, |b|), and the parts by 2**-k after: exact scalings, so those
    elements keep a relative error of a few ulp (down to the subnormals),
    and a part that overflows is inf.  numpy's overflow and underflow flags
    tell, without a pass of their own, whether any element needs that: where
    no product or sum in d overflows or rounds into the subnormals, d errs
    by about one ulp and neither quotient can overflow.  The caller holds
    ``np.errstate(all="ignore")`` for the rescaled elements' divisions.
    """
    try:
        with np.errstate(over="raise", under="raise"):
            np.multiply(u, u, out=d)
            d += b * b
        scaled = None
    except FloatingPointError:
        np.multiply(u, u, out=d)
        d += b * b
        scaled = ~((d >= _SCALED_BELOW) & (d < math.inf))
        us, bs = u[scaled], np.broadcast_to(b, u.shape)[scaled]
        k = -np.frexp(np.maximum(np.abs(us), np.abs(bs)))[1]
        us, bs = np.ldexp(us, k), np.ldexp(bs, k)
        ds = us * us + bs * bs
        re, im = np.ldexp(us / ds, k), np.ldexp(-bs / ds, k)
    out = np.divide(u, d, out=u if out is None else out)
    np.divide(-b, d, out=d)
    if scaled is not None:
        out[scaled] = re
        d[scaled] = im
    return out, d, scaled is not None


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
        alpha = _validate_number(alpha, f"{type(self).__name__}: alpha", complex)
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

    def _checked(self, out, shift=None):
        """``out`` (scalar or array) after checking the invariant of every mean.

        An inverse maps the image's averages into the closed upper half plane;
        a result that overflows, or lies below it by more than relative
        rounding, is a numerical fault.  f^{-1} rounds a value of about
        |result + shift| before the shift is subtracted, so that rounding is
        measured against max(1, |result|, |shift|).  ``shift``, a scalar or
        one per result, defaults to the generator's alpha.
        """
        # parts of at most 2**1023 bound |result| by 2**1023.5, so the complex abs
        # (hypot) runs only where a part is larger, inf or nan; a max or min is
        # False at nan, as np.all of the comparison is, and costs less
        z = np.ascontiguousarray(out)
        if not (np.abs(z.view(float)).max(initial=0.0) <= 2.0 ** 1023
                or np.all(np.abs(out) < math.inf)):
            raise NumericalError(f"{type(self).__name__}.invert: the mean overflows")
        imag = z.imag
        # else every result passes, as its scale is >= 1
        if not imag.min(initial=math.inf) >= -_IMAG_FLOOR:
            size = np.abs(out)
            scale = np.maximum(np.maximum(1.0, np.abs(self.alpha if shift is None else shift)), size)
            if not np.all(imag >= -_IMAG_FLOOR * scale):
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

    Its row kernel, which every estimate runs, works in real arithmetic: at a
    real shift each angle is exactly 0 or pi; at a complex shift it uses the
    tangent-angle form (``_complex_rows``), new in 0.3.0, whose estimates
    differ from 0.2.0's complex log, abs, arctan2 and exp in the low bits
    (they are closer to the exact mean) and never lie below the real axis.
    ``apply`` and ``invert``, for the targets and the generic path, stay
    complex.
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
        scratch = _buffers.empty("log.moduli", x.shape)
        if self.alpha.imag:
            return self._complex_rows(x, scratch)
        # real shift: every log has imaginary part exactly 0 or pi, so the
        # mean angle is pi * (#negatives)/n and can be exponentiated with
        # exact axis values instead of a rounded generic complex exp; at a shift
        # of 0 they come from x itself, as < 0 and abs ignore a zero's sign
        moduli = self._add(x, shift, scratch) if shift else x
        mask = np.less(moduli, 0.0, out=_buffers.empty("log.mask", x.shape, bool))
        negatives = mask.sum(axis=1)
        moduli = np.abs(moduli, out=scratch)
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
        with np.errstate(over="ignore"):  # _checked below refuses an overflowing mean
            means.real = scales * cos - shift
        imag = scales * sin
        # a row of both signs keeps Im > 0 where scale * sin underflows to 0
        imag[(imag == 0.0) & (sin > 0.0)] = math.ulp(0.0)
        means.imag = imag
        means[failed] = np.nan
        self._checked(means[~failed])
        return means, failed

    def _complex_rows(self, x, angles):
        """``_rows`` at b = Im alpha > 0, with ``angles`` of ``x``'s shape as scratch.

        Tangent-angle form: with t = u/b, phi_j = arctan t_j lies in (-pi/2,
        pi/2), below ``_ANGLE_BOUND``, and L_j = log1p(t_j**2)/2 = log|x_j +
        alpha| - log b.  With phi the mean angle, exp(mean log(x + alpha)) = b
        e**J (tan phi + i), J = mean L - log1p(tan(phi)**2)/2.  J is mean
        g(phi_j) - g(phi) for the convex g(p) = -log cos p, so J >= 0 by
        Jensen's inequality; clamping it at 0 removes only rounding and keeps
        sigma_hat = b expm1(J) >= 0.  No complex value is formed.  Where t*t
        overflows (|t| > 2**511) L = log|t| + log1p(1/t**2)/2, and where u/b
        overflows next to a tiny b, L = log|u| - log b; where e**J or e**J
        tan(phi) overflows, b e**J is e**(J + log b).  numpy's overflow flag
        tells, without a pass of its own, whether any element or row needs
        that.  At Re alpha = 0, t = x/b goes straight into ``angles``, and at
        b = 1 it is ``x`` itself: only a zero term's sign may differ, which no
        sum shows (``_sums``).  Every 2 L is >= 0, so their max bounds them.
        """
        b, re = self.alpha.imag, self.alpha.real
        logs = _buffers.empty("log.abs", x.shape)
        try:
            with np.errstate(over="raise"):
                u = self._add(x, re, angles) if re else x
                t = x if u is x and b == 1.0 else np.divide(u, b, out=angles)
                np.multiply(t, t, out=logs)
            large = None
        except FloatingPointError:
            with np.errstate(over="ignore"):
                t = np.divide(np.add(x, re, out=angles), b, out=angles)
                np.multiply(t, t, out=logs)
            large = ~(np.abs(t) <= _SQUARE_BELOW)
        np.log1p(logs, out=logs)  # 2 L
        if large is not None:
            wide = t[large]
            beyond = np.isinf(wide)  # u/b overflowed
            wide = 2.0 * np.log(np.abs(wide)) + np.log1p((1.0 / wide) ** 2)  # 1/t**2 may underflow
            wide[beyond] = 2.0 * (np.log(np.abs(x[large][beyond] + re)) - math.log(b))
            logs[large] = wide
        phi = _row_means(np.arctan(t, out=angles), _ANGLE_BOUND)
        tan = np.tan(phi)
        top = logs.max() if x.shape[1] >= _BOUNDED_MIN else None
        jensen = np.maximum((_row_means(logs, top) - np.log1p(tan * tan)) / 2, 0.0)
        # e**J tan(phi) <= |mean + alpha| / b overflows only next to a small b, and then
        # J > 672, so e**(J + log b) is b e**J and b expm1(J) to within e**-672;
        # _checked refuses a mean past the float range
        with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
            try:
                with np.errstate(over="raise"):
                    real, imag = b * (np.exp(jensen) * tan), b * np.expm1(jensen)
            except FloatingPointError:
                real, imag = b * (np.exp(jensen) * tan), b * np.expm1(jensen)
                far = ~(np.isfinite(real) & np.isfinite(imag))
                shifted = jensen[far] + math.log(b)
                real[far] = np.copysign(np.exp(shifted + np.log(np.abs(tan[far]))), tan[far])
                imag[far] = np.exp(shifted)
            means = np.empty(len(x), dtype=complex)
            means.real = real - re
        means.imag = imag
        return self._checked(means), np.zeros(len(x), dtype=bool)


class MobiusReciprocal(Generator):
    """f(x) = 1/(x + alpha), the Mobius-transform mean with Im(alpha) > 0.

    Since 0.2.0 the row kernel, which every estimate runs, divides in real
    arithmetic (``_reciprocal``; low bits about 1e-15 from 0.1.0's complex
    division), the same bits at every numpy SIMD dispatch level.  ``apply``
    and ``invert``, for the targets and the generic path, divide as complex.
    """

    def _check_alpha(self):
        if self.alpha.imag <= 0:
            raise DomainError("MobiusReciprocal: alpha must lie strictly in the upper half plane")

    def apply(self, x):
        with np.errstate(over="ignore", invalid="ignore"):  # as in ``_rows``
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
        The terms and the inverse are found by ``_reciprocal``, in real
        arithmetic, so no complex temporary exists.  Unless it rescaled a
        term, the sums take the parts' bounds, 1/(2b) and 1/b (``_sums``).
        At one shift of Re 0, u is a C-contiguous ``x`` itself, not x + 0 (only
        a zero term's sign may differ, which no sum shows); a strided half
        would cost more read twice than copied once.
        """
        shift = np.asarray(self.alpha if alpha is None else alpha)
        # Im alpha, a column of one per row or a numpy float (cheaper than a 0-d array)
        b = shift.imag[:, np.newaxis] if shift.ndim else shift.imag[()]
        terms = _buffers.empty("mobius", (2, *x.shape))  # Re and Im of 1/(x + alpha)
        u = x if not (shift.ndim or shift.real) and x.flags.c_contiguous else self._add(
            x, shift.real[..., np.newaxis], terms[0])
        # 1/(x + alpha) overflows next to a subnormal shift, and 1/w at a subnormal
        # average; _checked below refuses a mean that is not finite
        with np.errstate(all="ignore"):
            rescaled = _reciprocal(u, b, terms[1], terms[0])[2]
            bounds = (None, None) if rescaled else ((0.5 + 2.0**-50) / b, (1.0 + 2.0**-49) / b)
            try:  # fsum refuses a row holding inf and -inf, or summing past the largest double
                w_re, w_im = _part_row_means(terms, bounds)
            except (OverflowError, ValueError):
                raise NumericalError(f"{type(self).__name__}: the mean of 1/(x + alpha) "
                                     "overflows") from None
            failed = (w_re == 0.0) & (w_im == 0.0)
            w_re[failed] = 1.0  # any nonzero value; these rows' means are set to nan
            inv_re, inv_im, _ = _reciprocal(w_re, w_im, np.empty(len(x)))
            means = np.empty(len(x), dtype=complex)
            np.subtract(inv_re, shift.real, out=means.real)
            np.subtract(inv_im, shift.imag, out=means.imag)
        means[failed] = np.nan
        kept = ~failed
        self._checked(means[kept], shift[kept] if shift.ndim else shift)
        return means, failed

    def derivative(self, z):
        return -1.0 / self._shift(z, "derivative") ** 2


def _validate_samples(samples, caller, ndim=1):
    """``samples`` as a float array of ``ndim`` dimensions, non-empty and finite.

    The one check of sample arrays: its DomainError names ``caller`` and the
    index of the first non-finite sample, (row, column) in a matrix.  Complex
    or text samples are refused by their dtype, so a float array costs nothing.
    """
    x = np.asarray(samples)
    if x.dtype.kind in "biufO":  # complex, text or times would cast silently or not at all
        with contextlib.suppress(TypeError, ValueError):  # an object holding a complex or text
            x = x.astype(float, copy=False)
    if x.dtype != float:
        raise DomainError(f"{caller}: samples must be real numbers, got {x.dtype} values")
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


def qam(generator, samples):
    """Quasi-arithmetic mean f^{-1}((1/n) sum_j f(x_j)) of real samples.

    The transformed values are averaged from the exactly rounded sums of
    their real and imaginary parts, equal bit for bit to ``math.fsum``, so
    the result is reproducible and does not depend on summation order.  From
    1,024 samples on the sums are computed by error-free extraction in
    numpy (``_sums``).  The samples are the one-row case of
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
    if failed[0]:
        # the generic path names a sample at the pole of a real shift; its complex
        # arithmetic need not find the average 0 the kernel found, so raise after it
        Generator._rows(generator, x)
        raise DomainError(f"{type(generator).__name__}.invert: 0 is not in the image")
    return complex(means[0])
