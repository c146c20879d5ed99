"""Exact row sums: the mean of every row of a float block, ``math.fsum(row) / n`` bit for bit.

How a sum is found never changes its bits, so a row gives the same mean in a
block of any height.  A block of fewer than ``_EXTRACT_MIN`` terms goes to
fsum row by row.

Rows of two or three terms are summed with TwoSum (Knuth; the building block
of Ogita, Rump and Oishi, "Accurate sum and dot product", SISC 2005): s =
fl(a + b) and e = a + b - s, both found exactly.  Two terms: one IEEE
addition rounds the exact sum once, to fsum's value.  Three terms a, b, c:
TwoSum gives (s1, e1) for a + b, (s2, e2) for s1 + c and (t, et) for e1 + e2,
so a + b + c = s2 + e1 + e2 exactly; where et = 0 that is s2 + t, so fl(s2 +
t) rounds the exact sum once, to fsum's value.  A row goes to fsum whole
where a sum is not finite (a term or a step overflowed; fsum keeps its own
OverflowError, ValueError and nan), where a sum is 0 (fsum's signed zero is
its own: fsum([-0.0, -0.0]) is 0.0) and where et is not 0.

Longer rows take one level of error-free extraction (ExtractVector of Rump,
Ogita and Oishi, "Accurate floating-point summation part I: faithful
rounding", SISC 2008) on the whole block at one sigma = 2**e above (n + 2) *
M, M >= every |x_j| of the block.  Then q = (x + sigma) - sigma and r = x - q
are exact, so x = q + r, tau = sum(q) is exact in any order, and |r_j| <=
2**(e - 53).  With spread = (n + 2).bit_length() and rest = sum(r), so that
|rest| < 2**(e + spread - 53), one level settles a row (the idea of NearSum
in part II) by either of two tests:

* (A) no term is zero and the smallest |x_j| has frexp exponent f >= e +
  spread - 53.  Every r_j is a multiple of 2**(f - 53) and every partial
  sum is below 2**f, so rest is exact and tau + rest rounds once, to fsum's
  value, ties included.  frexp(0) has exponent 0, hence the zero guard.
* (B) rest errs by less than delta / 2, delta = 2**(e + 2 spread - 105), and
  fl(rest - delta) and fl(rest + delta) round by at most delta / 2, their
  ulp being at most 2**(e + spread - 105); so the exact sum lies between tau
  + fl(rest - delta) and tau + fl(rest + delta).  Rounding is monotone, so
  if both round to one value that is fsum's.  delta underflows to 0 only
  where every sum is exact.  (B) needs only |r_j| <= 2**(e - 53).

The block is the caller's scratch, which the level writes over; a settled
row sums as tau + rest.  With a bound and rows of ``_BOUNDED_MIN`` terms or
more, M is the largest bound and (B) runs alone.  Otherwise the level
measures the block: an abs pass, its max for M and each row's min for (A),
over a column-major copy for rows shorter than ``_BOUNDED_MIN`` (tall
blocks, whose column reductions run about 4x faster at 4-7 terms).  A block
whose max is 0, not finite or near overflow goes to fsum whole.  Open rows
(exact ties, zero terms, terms far below M) and rows whose sum is 0 are
rebuilt exactly as q + r (r where q is 0, a zero's sign kept) for fsum, or,
``_EXTRACT_MIN`` terms or more left open by a bound, for the measured level.
fsum of zeros is +0.0 on CPython 3.11, whatever their signs, so no sum shows
a zero term's sign.

The callers' bounds exceed the exact ones by more than the rounding, and a
finite one keeps every term finite and every sum below n * M < 2**1023.
Mobius terms (u - ib) / d, d = u*u + b*b (``generators._reciprocal``): |u| /
d <= 1/(2b) and b / d <= 1/b.  Where no product or sum of d overflows or
underflows (else no bound is passed), d >= (u*u + b*b)(1 - 2**-53)**2, so a
rounded part exceeds its bound by a factor below 1 + 2**-51, and (1/2 +
2**-50)/b and (1 + 2**-49)/b, rounded, stay above.  Angles arctan(u/b)
(``generators.ShiftedLog._complex_rows``) lie in (-pi/2, pi/2), pi/2 <
1.5708; 1.6 leaves room for any rounding, and only a bound's binade, here
[1, 2), sets sigma.  Log moduli 2 L (the same kernel) and their overflow
forms are never negative, so their block's max is the M the level measures.
"""

import math

import numpy as np

from . import _buffers

_EXTRACT_MIN = 1024  # smaller blocks go to fsum row by row; the two break even near 1,024 terms
_BOUNDED_MIN = 32  # below it, C-order reductions over short rows cost more than the passes saved


def _row_means(values, bound=None):
    """Mean of every row of the 2-d float scratch ``values``, ``math.fsum(row) / n`` bit
    for bit; ``bound``, a float or one per row, is at least |x| of its rows' terms."""
    n = values.shape[1]
    if values.size < _EXTRACT_MIN:
        return _fsums(values) / n
    if n in (2, 3):
        return _short_row_means(values)
    top = _usable_top(bound, n) if bound is not None and n >= _BOUNDED_MIN else None
    return _level_sums(values, top) / n


def _fsums(values):
    """``math.fsum`` of every row."""
    return np.array([math.fsum(row) for row in values.tolist()])


def _usable_top(bound, n):
    """The largest of ``bound``, or None where one is not positive or sigma overflows."""
    low, top = (bound.min(), bound.max()) if getattr(bound, "ndim", 0) else (bound, bound)
    usable = low > 0.0 and top < math.inf and math.frexp(top)[1] + (n + 2).bit_length() <= 1023
    return top if usable else None


def _level_sums(values, top=None):
    """Row sums of the scratch ``values`` by one level: sigma from ``top``, at least
    every |x|, and (B) alone, or else from the block's max|x|, and (A) and (B)."""
    spread = (values.shape[1] + 2).bit_length()
    tall = top is None and values.shape[1] < _BOUNDED_MIN  # F order: contiguous columns
    r, low = values, None
    q = _buffers.empty("sum.q", values.shape, order="F" if tall else "C")
    if tall:
        r = _buffers.empty("sum.r", values.shape, order="F")
        np.copyto(r, values)
    if top is None:
        top = np.abs(r, out=q).max()
        if not (0.0 < top < math.inf and math.frexp(top)[1] + spread <= 1023):
            return _fsums(values)
        low = q.min(axis=1)
    exponent = math.frexp(top)[1] + spread
    sigma = math.ldexp(1.0, exponent)
    np.add(r, sigma, out=q)
    q -= sigma
    r -= q
    tau, rest = q.sum(axis=1), r.sum(axis=1)
    delta = math.ldexp(1.0, exponent + 2 * spread - 105)
    settled = (rest - delta) + tau == (rest + delta) + tau
    if low is not None:  # (A): frexp(low)[1] >= exponent + spread - 53 and low > 0
        settled |= low >= max(math.ldexp(1.0, exponent + spread - 54), 5e-324)
    sums = np.add(tau, rest, out=rest)
    settled &= sums != 0.0
    if not settled.all():
        terms = _restored(q, r, np.flatnonzero(~settled))
        again = low is None and terms.size >= _EXTRACT_MIN
        sums[~settled] = _level_sums(terms) if again else _fsums(terms)
    return sums


def _restored(q, r, rows):
    """The terms x = q + r of ``rows``, exact; where q is 0 (never -0.0), x is r itself."""
    terms = r[rows]
    np.add(terms, q[rows], out=terms, where=q[rows] != 0.0)
    return terms


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
    """``_row_means`` of rows of two or three terms; nothing is written to ``values``."""
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
        sums[open_rows] = _fsums(values[open_rows])
    return sums / n


def _part_row_means(parts, bounds=(None, None)):
    """``_row_means`` of the scratch ``parts[0]`` and ``parts[1]``, under ``bounds``.

    Rows of two or three terms are summed as one block of twice the rows, in
    one pass of TwoSum steps; longer rows part by part, which keeps the pool
    slots the size of one part (stacked, Mobius requests ran 3-6% faster but
    twelve at n = 10,000 peaked 0.6 MB higher).
    """
    _, rows, n = parts.shape
    if n in (2, 3):
        return _row_means(parts.reshape(2 * rows, n)).reshape(2, rows)
    return _row_means(parts[0], bounds[0]), _row_means(parts[1], bounds[1])


def _complex_row_means(values):
    """``_row_means`` of a 2-d complex array, real and imaginary parts apart."""
    out = np.empty(len(values), dtype=complex)
    out.real, out.imag = _part_row_means(np.stack((values.real, values.imag)))
    return out
