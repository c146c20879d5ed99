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
rounding", SISC 2008) on all rows at once, each row with a sigma = 2**e above
(n + 2) * M, M >= max|x_j|.  Then q = (x + sigma) - sigma and r = x - q are
exact, so x = q + r, tau = sum(q) is exact in any order, and |r_j| <= 2**(e
- 53).  With spread = (n + 2).bit_length() and rest = sum(r), so that |rest|
< 2**(e + spread - 53), one level settles a row (the idea of NearSum in part
II) by either of two tests:

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

The block is the caller's scratch, which the sums may write over.  A settled
row sums as tau + rest.  The max path takes M = max|x_j| (abs, max and min
passes, in place, or over a column-major copy for more rows than terms, so
that each reduction runs on contiguous columns: about 4x faster at 4-7 terms)
and runs both tests.  Rows neither settles (such as ties with a zero term) go
to fsum, as do rows the level cannot run on (all zero, not finite or near
overflow), before the level writes over them.  With a bound, rows of
``_BOUNDED_MIN`` terms or more take M from it: no abs, max or min pass, and
(B) alone.  A row the bound leaves open (an exact tie, or a row far below a
loose bound) or whose sum is 0 is rebuilt exactly as q + r (r where q is 0, a
zero's sign included) for the max path.

The callers' bounds exceed the exact ones by more than the rounding, and a
finite one keeps every term finite and every sum below n * M < 2**1023.
Mobius terms (u - ib) / d, d = u*u + b*b (``generators._reciprocal``): |u| /
d <= 1/(2b) and b / d <= 1/b.  Where no product or sum of d overflows or
underflows (else no bound is passed), d >= (u*u + b*b)(1 - 2**-53)**2, so a
rounded part exceeds its bound by a factor below 1 + 2**-51, and (1/2 +
2**-50)/b and (1 + 2**-49)/b, rounded, stay above.  Angles arctan2(b, u), b >
0, lie in (0, pi); 3.5 leaves room for any rounding, and only a bound's
binade, here [2, 4), sets sigma.
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
    sums = _bounded_sums(values, bound) if bound is not None and n >= _BOUNDED_MIN else None
    return (_max_sums(values) if sums is None else sums) / n


def _fsums(values):
    """``math.fsum`` of every row."""
    return np.array([math.fsum(row) for row in values.tolist()])


def _level(q, r, sigma, delta, lower, upper):
    """One level on ``r`` (x in, remainders out) at ``sigma`` and ``delta``: the sums
    tau + rest and the mask of the rows (B) settles, its ends in ``lower``, ``upper``."""
    np.add(r, sigma, out=q)
    q -= sigma
    r -= q
    tau = q.sum(axis=1)
    rest = r.sum(axis=1)
    np.subtract(rest, delta, out=lower)
    np.add(rest, delta, out=upper)
    lower += tau
    upper += tau
    return np.add(tau, rest, out=rest), lower == upper


def _restored(q, r, rows):
    """The terms x = q + r of ``rows``, exact; where q is 0 (never -0.0), x is r itself."""
    terms = r[rows]
    np.add(terms, q[rows], out=terms, where=q[rows] != 0.0)
    return terms


def _bounded_sums(values, bound):
    """Row sums of the scratch ``values``, in place, at one sigma from the largest
    bound (a third of a column's cost; a two-step stage's bounds lie within a
    binade or two), or None where no sigma below overflow bounds every row."""
    rows, n = values.shape
    spread = (n + 2).bit_length()
    low, top = (bound.min(), bound.max()) if getattr(bound, "ndim", 0) else (bound, bound)
    exponent = math.frexp(top)[1] + spread
    if not (low > 0.0 and top < math.inf and exponent <= 1023):
        return None
    q = _buffers.empty("sum.q", values.shape)
    sums, settled = _level(q, values, math.ldexp(1.0, exponent),
                           math.ldexp(1.0, exponent + 2 * spread - 105),
                           np.empty(rows), np.empty(rows))
    settled &= sums != 0.0
    if not settled.all():
        terms = _restored(q, values, np.flatnonzero(~settled))
        sums[~settled] = _fsums(terms) if terms.size < _EXTRACT_MIN else _max_sums(terms)
    return sums


def _max_sums(values):
    """Row sums of the scratch ``values`` by the max path."""
    rows, n = values.shape
    spread = (n + 2).bit_length()
    order = "F" if rows > n else "C"
    r = values
    if order == "F":
        r = _buffers.empty("sum.r", values.shape, order=order)
        np.copyto(r, values)
    q = np.abs(r, out=_buffers.empty("sum.q", values.shape, order=order))
    top = q.max(axis=1)
    low = q.min(axis=1)
    exponent = np.frexp(top)[1] + spread
    whole = ~((top > 0.0) & (top < math.inf) & (exponent <= 1023))
    fsums = None
    if whole.any():  # to fsum before the level writes over them
        fsums = _fsums(r[whole])
        exponent[whole] = 0
        r[whole] = 0.0
    # test (A), or fsum's; (B)'s ends and the sums take over top, low and rest, as
    # fresh arrays would page-fault on blocks of tens of thousands of rows
    exact = whole | (low > 0.0) & (np.frexp(low)[1] >= exponent + (spread - 53))
    sums, settled = _level(q, r, np.ldexp(1.0, exponent)[:, np.newaxis],
                           np.ldexp(1.0, exponent + (2 * spread - 105)), top, low)
    settled |= exact
    if fsums is not None:
        sums[whole] = fsums
    if not settled.all():
        sums[~settled] = _fsums(_restored(q, r, np.flatnonzero(~settled)))
    return sums


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
