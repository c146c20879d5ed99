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
finds it for all rows of a block at once, with a proof of each row's
rounding: rows of two or three terms by TwoSum steps (a complex block's two
parts as one real block of twice the rows), longer rows by one level of
error-free extraction.  It leaves to fsum the rows that proof leaves open and
the small blocks where neither pays; how a sum is found never changes its
bits.

Means are computed for the rows of a 2-d sample matrix at once by
``Generator._rows``, with a mask of the rows that fail; a single sample is
the one-row case, so a row gives the same bits in a block and on its own.
A sample whose sum x + alpha overflows raises NumericalError.

Version 0.2.0 changed the Mobius arithmetic: the row kernel finds the terms
1/(x + alpha) and the inverse 1/w - alpha of every Mobius and two-step
estimate in real arithmetic (``_reciprocal``), where 0.1.0 used numpy's
complex division, so their low bits moved (by about 1e-15 relative).  A
Mobius or two-step estimate of given samples is now exact sums and correctly
rounded + - * /, the same bits at every numpy SIMD dispatch level; the
geometric kernels still call log, arctan2, abs and exp, whose bits may
depend on it.  ``MobiusReciprocal.apply`` and ``invert`` keep the complex
division; they serve the targets and the generic path.
"""

import contextlib
import math

import numpy as np

from . import _buffers
from .branch import branch_log
from .exceptions import DomainError, NumericalError, _validate_number

_IMAG_FLOOR = 1e-9  # rounding allowed below the real axis by _checked, relative to |mean| or |alpha|
_EXTRACT_MIN = 1024  # smaller blocks go to fsum row by row; the two break even near 1,024 terms
_SCALED_BELOW = 2.0 ** -968  # 2**54 above the normals, where a subnormal u*u errs by < d * 2**-107


def _row_means(values):
    """Mean of every row of a 2-d float array, ``math.fsum(row) / n`` bit for bit.

    A block of fewer than ``_EXTRACT_MIN`` terms goes to fsum row by row.

    Rows of two or three terms go to ``_short_row_means``, which sums them
    with TwoSum (Knuth; the building block of Ogita, Rump and Oishi,
    "Accurate sum and dot product", SISC 2005): s = fl(a + b) and e = a + b -
    s, both found exactly.  Two terms: one IEEE addition rounds the exact sum
    once, to fsum's value.  Three terms a, b, c: TwoSum gives (s1, e1) for a
    + b, (s2, e2) for s1 + c and (t, et) for e1 + e2, so a + b + c = s2 + e1
    + e2 exactly; where et = 0 that is s2 + t, so fl(s2 + t) rounds the
    exact sum once, to fsum's value.  A row goes to fsum whole where a sum
    is not finite (a term or a step overflowed; fsum keeps its own
    OverflowError, ValueError and nan), where a sum is 0 (fsum's signed zero
    is its own: fsum([-0.0, -0.0]) is 0.0) and where et is not 0; no
    benchmark block has such a row.

    Longer rows take error-free extraction (ExtractVector of Rump, Ogita and
    Oishi, "Accurate floating-point summation part I: faithful rounding",
    SISC 2008), run on all rows at once, each row with its own sigma = 2**e
    above (n + 2) * max|x|.  Then q = (x + sigma) - sigma and r = x - q are
    exact, tau = sum(q) is exact in any order, and |r_j| <= 2**(e - 53).
    With spread = (n + 2).bit_length() and rest = sum(r), so that |rest| <
    2**(e + spread - 53), one level settles a row (the idea of NearSum in
    part II: decide the rounding once it is certain) by either of two tests:

    * (A) no term is zero and the smallest |x_j| has frexp exponent
      f >= e + spread - 53.  Every r_j is a multiple of 2**(f - 53) and
      every partial sum is below 2**f, so rest is exact and tau + rest
      rounds once, to fsum's value, ties included.  frexp(0) has exponent
      0, hence the zero guard.
    * (B) rest errs by less than delta / 2, delta = 2**(e + 2 spread - 105),
      and fl(rest - delta) and fl(rest + delta) round by at most delta / 2,
      their ulp being at most 2**(e + spread - 105); so the exact sum lies
      between tau + fl(rest - delta) and tau + fl(rest + delta).  Rounding
      is monotone, so if both round to one value that is fsum's.  delta
      underflows to 0 only where every sum is exact.

    A settled row sums as tau + rest.  A row neither test settles goes to
    fsum whole (no benchmark block has one; adversarial rows such as exact
    ties with a zero term do), and so does a row on which the level cannot
    run (all zero, not finite or near overflow), with fsum's signed zero and
    overflow error.  No method changes the bits, so a row gives the same
    mean in a block of any height.

    A block of more rows than terms is worked on in a column-major copy, so
    that each reduction over the rows' terms runs as n - 1 operations on
    contiguous columns (about 4x faster at 4-7 terms); the bits stay, as tau
    is exact and both tests hold in any order.  The level writes to the
    copy, never to ``values``; inside a Monte Carlo chunk the copy and the
    scratch array are views of the thread's pool (``_buffers``).
    """
    n = values.shape[1]
    if values.size < _EXTRACT_MIN:
        return np.array([math.fsum(row) for row in values.tolist()]) / n
    if n in (2, 3):
        return _short_row_means(values)
    spread = (n + 2).bit_length()
    order = "F" if len(values) > n else "C"
    r = _buffers.empty("sum.r", values.shape, order=order)
    np.copyto(r, values)
    q = np.abs(r, out=_buffers.empty("sum.q", values.shape, order=order))
    top = q.max(axis=1)
    low = q.min(axis=1)
    exponent = np.frexp(top)[1] + spread
    whole = ~((top > 0.0) & (top < math.inf) & (exponent <= 1023))
    exponent[whole] = 0
    r[whole] = 0.0
    sigma = np.ldexp(1.0, exponent)[:, np.newaxis]
    np.add(r, sigma, out=q)
    q -= sigma
    r -= q
    tau = q.sum(axis=1)
    rest = r.sum(axis=1)
    # the tests (A) and (B) of the docstring; (B)'s ends and the sums take over
    # top, low and rest, as a fresh array per row each would page-fault on
    # blocks of tens of thousands of rows
    settled = (low > 0.0) & (np.frexp(low)[1] >= exponent + (spread - 53))
    delta = np.ldexp(1.0, exponent + (2 * spread - 105))
    lower = np.subtract(rest, delta, out=top)
    upper = np.add(rest, delta, out=low)
    lower += tau
    upper += tau
    settled |= lower == upper
    sums = np.add(tau, rest, out=rest)
    for i in np.flatnonzero(whole | ~settled).tolist():
        sums[i] = math.fsum(values[i].tolist())
    return sums / n


def _two_sum(a, b, s, err):
    """s = fl(a + b) into ``s`` and its error a + b - s into ``err`` (TwoSum, Knuth).

    The error is exact unless a step overflows, which leaves it or s not
    finite.  Neither output may be an input.
    """
    np.add(a, b, out=s)
    np.subtract(s, a, out=err)  # b' = s - a, the part of s that b brought
    low = s - err               # a' = s - b'
    np.subtract(a, low, out=low)
    np.subtract(b, err, out=err)
    err += low                  # (b - b') + (a - a')
    return s


def _short_row_means(values):
    """``_row_means`` of a float block of rows of two or three terms.

    The TwoSum steps and the rows left to fsum are those of ``_row_means``'s
    docstring.  Nothing is written to ``values``.
    """
    rows, n = values.shape
    # inf - inf and overflow in the steps only send their rows to fsum
    with np.errstate(over="ignore", invalid="ignore"):
        if n == 2:
            sums = values[:, 0] + values[:, 1]
        else:
            s1, e1, sums, e2, et = np.empty((5, rows))
            _two_sum(values[:, 0], values[:, 1], s1, e1)
            _two_sum(s1, values[:, 2], sums, e2)
            sums += _two_sum(e1, e2, s1, et)
        # a sum over an inf or a nan is not finite, so sums.sum() checks every row
        certified = sums.all() and math.isfinite(sums.sum()) and (n == 2 or not et.any())
    if not certified:
        open_rows = ~np.isfinite(sums) | (sums == 0.0)
        if n == 3:
            open_rows |= et != 0.0
        sums[open_rows] = [math.fsum(row) for row in values[open_rows].tolist()]
    return sums / n


def _part_row_means(parts):
    """``_row_means`` of ``parts[0]`` and of ``parts[1]``, two blocks of one shape.

    Rows of two or three terms are summed as one block of twice the rows, in
    one pass of TwoSum steps.  Longer rows are summed part by part, so that
    the extraction's pool slots keep the size of one part: stacked, they
    made Mobius requests 3-6% faster but raised the peak RSS of twelve
    n = 10,000 requests by 0.6 MB.
    """
    _, rows, n = parts.shape
    if n in (2, 3):
        return _row_means(parts.reshape(2 * rows, n)).reshape(2, rows)
    return _row_means(parts[0]), _row_means(parts[1])


def _complex_row_means(values):
    """``_row_means`` of a 2-d complex array, real and imaginary parts apart."""
    out = np.empty(len(values), dtype=complex)
    out.real, out.imag = _part_row_means(np.stack((values.real, values.imag)))
    return out


def _reciprocal(u, b, d):
    """1/(u + ib) in real arithmetic: Re into ``u`` and Im into ``d``, which it returns.

    ``b`` broadcasts against ``u``, and ``d`` has ``u``'s shape.  With d =
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
    np.divide(u, d, out=u)
    np.divide(-b, d, out=d)
    if scaled is not None:
        u[scaled] = re
        d[scaled] = im
    return u, d


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
    """f(x) = 1/(x + alpha), the Mobius-transform mean with Im(alpha) > 0.

    Since 0.2.0 the row kernel, which every estimate runs, divides in real
    arithmetic; ``apply`` and ``invert`` keep numpy's complex division.
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
        arithmetic, so no complex temporary exists.
        """
        shift = np.asarray(self.alpha if alpha is None else alpha)
        terms = _buffers.empty("mobius", (2, *x.shape))  # Re and Im of 1/(x + alpha)
        self._add(x, shift.real[..., np.newaxis], terms[0])
        # 1/(x + alpha) overflows next to a subnormal shift, and 1/w at a subnormal
        # average; _checked below refuses a mean that is not finite
        with np.errstate(all="ignore"):
            _reciprocal(terms[0], shift.imag[..., np.newaxis], terms[1])
            try:  # fsum refuses a row holding inf and -inf, or summing past the largest double
                w_re, w_im = _part_row_means(terms)
            except (OverflowError, ValueError):
                raise NumericalError(f"{type(self).__name__}: the mean of 1/(x + alpha) "
                                     "overflows") from None
            failed = (w_re == 0.0) & (w_im == 0.0)
            w_re[failed] = 1.0  # any nonzero value; these rows' means are set to nan
            inv_re, inv_im = _reciprocal(w_re, w_im, np.empty(len(x)))
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
    if failed[0]:
        # the generic path names a sample at the pole of a real shift; its complex
        # arithmetic need not find the average 0 the kernel found, so raise after it
        Generator._rows(generator, x)
        raise DomainError(f"{type(generator).__name__}.invert: 0 is not in the image")
    return complex(means[0])
