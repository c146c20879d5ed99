"""Decimal lines of ASCII bytes read into doubles in numpy, bit for bit as ``float()``.

``parse(data)`` reads the bytes of a sample file in blocks of about
``_BLOCK`` bytes (256 KiB, about 2**14 lines of 16 bytes), each ending at a
line break; it builds no str and no list of lines.  A block of ``%.17g``
samples peaks at 5.3 MB of temporaries (tracemalloc) whatever the file's
size.  Blocks of 512 KiB, at 10.6 MB, took 1.12x the time, and blocks of
128 KiB 1.06x, as the calls made per block add up.  A line ends at '\\n',
and a '\\r' before it, or at the end of the data, is part of the break.  A
line is read here when it is

    [+-]digits[.digits][(e|E)[+-]digits]

with at least one mantissa digit, every byte of the line one of these parts
(no blank, no '_', no 'inf'), at most 56 bytes, at most 24 digits on each
side of the '.', at most 19 of them significant, and at most 8 exponent
digits, and when the rounding proof below settles its double.  Every other
line is left open.  ``cli._read_lines`` reads the open lines: it drops the
fillers before and after them and casts the rest with numpy, which calls
``float()`` on each; only if that fails does it read those lines one at a
time, to skip fillers and name the bad line.

Fields.  The '.' and 'e'/'E' bytes of a block are packed into bit masks
(``np.packbits``); each line takes its window of 56 bits from one unaligned
64-bit load.  ``m & (m - 1)`` is zero when a window holds at most one dot and
one mark, and the position of a single one is the exponent of its exact
double.

Digits.  A digit run is read as 8-byte words ending at the run's end, the
bytes before the run counted as '0'.  One test checks that all 8 bytes of a
word are digits, and SWAR arithmetic (several bytes handled in one 64-bit
integer; Lemire, "Number parsing at a gigabyte per second", Software:
Practice and Experience 51(8), 2021) turns the word into its 8-digit value.
One 32-byte load ending at the fraction's end gives its three words, and one
more word the integer part's last 8 digits; the rare longer integer parts
and the exponents are read on the lines that have them.  Leading zeros add
nothing, so the mantissa w, the digits read as one integer, is exact in
uint64 when at most 19 digits follow its first nonzero one.

Rounding.  The line's value is x = w * 10**q, q the exponent less the count
of fraction digits, with |q| <= 288, so that x lies in [1e-288, 1e307], far
from underflow and overflow (a zero mantissa is settled apart, below).
``_powers`` holds 10**q as Ph + Pl, Ph = RN(10**q) and Pl = RN(10**q - Ph),
from exact int arithmetic, with Ph's Dekker halves.  With u = 2**-53,
wh = RN(w) and wl = w - wh (exact, |wl| <= u wh), Dekker's product (no FMA)
gives p + e = wh Ph exactly: the exponents of wh >= 1 and Ph >= 1e-288 sum
to at least -957, above the -970 below which its error term can lose bits.
Then lo = (e + wh Pl) + wl Ph.  Against M = wh Ph, the parts dropped or
rounded are 10**q - Ph - Pl and wl Pl (u**2 M each), the products wh Pl and
wl Ph (u**2 M each) and the two sums (2 u**2 M and 3 u**2 M), so that
|x - (p + lo)| <= 9 u**2 M (1 + 4u), far below E = 2**-98 p.  E is
subnormal below p = 2**-924, but loses at most 2**-1075 there, far less
than its margin.

Then r = RN(p + lo), and Fast2Sum's tail t = lo - (r - p) is exact: p + lo
= r + t.  Let g be the gap from r to its neighbour on t's side (below a
power of two the gap below is half the gap above).  If |t| + E < g / 2,
strictly, x lies strictly inside r's rounding interval on t's side; on the
other side it is nearer to r than E, far less than half of either gap.  So
RN(x) = r, which is what ``float()`` returns.  The test is strict: g / 2 is
a power of two, so the rounded sum |t| + E reaches it whenever the exact sum
does, and the test in floating point implies the exact one; with '<=', a
rounded sum equal to g / 2 could hide an exact one above it.  As E > 0, an
exact midpoint between two doubles, where RN breaks the tie to even, stays
open, below a power of two too.  ``_settle`` holds this test.  A zero
mantissa gives a zero of the line's sign whatever its exponent.  The sign of
the line is applied last, as RN is odd.
"""

import functools

import numpy as np

_BLOCK = 1 << 18  # bytes per block, about 2**14 lines of 16 bytes
_FRONT = 32       # pad before a block: a line's 32-byte window may start 32 bytes before it
_BACK = 64        # pad after it: a line's mask load reads 8 packed bytes past its start
_WIDTH = 56       # longest line read here, the bits of one mask load after its shift
_Q_MAX = 288      # |q| limit: x in [1e-288, 1e307] stays normal and finite

_ZEROS = np.uint64(0x3030303030303030)
_HIGH = np.uint64(0x8080808080808080)
_OVER = np.uint64(0x7676767676767676)  # a byte above 9 plus this sets its high bit
_POW10 = np.array([10 ** k % (1 << 64) for k in range(25)], np.uint64)
# an integer part below _LIMIT[k] keeps k fraction digits within 19 significant ones
_LIMIT = np.array([10 ** max(19 - k, 0) for k in range(25)], np.uint64)
# _KEEP[k]: the last k bytes of a word (k = 0 ... 8); _KEEPS[25 i + f]: those of the four
# words read for an integer part of i digits (its last word) and f fraction digits
_KEEP = np.array([(1 << 64) - (1 << (64 - 8 * k)) for k in range(9)], np.uint64)
_KEEPS = _KEEP[np.clip([[i, f - 16, f - 8, f] for i in range(9) for f in range(25)], 0, 8)]
_EXPONENT = np.uint64(0x7FF0000000000000)
_MANTISSA = np.uint64(0x000FFFFFFFFFFFFF)
_SPLIT = 134217729.0  # 2**27 + 1, Dekker's splitter
# SWAR: byte pairs, then pairs of those, then of those: v = (v * factor + (v >> shift)) & mask
_STEPS = [(np.uint64(factor), np.uint64(shift), np.uint64(mask)) for factor, shift, mask in
          ((10, 8, 0x00FF00FF00FF00FF), (100, 16, 0x0000FFFF0000FFFF), (10000, 32, 0xFFFFFFFF))]


@functools.cache
def _powers():
    """10**q for q in [-_Q_MAX, _Q_MAX] as the columns Ph, Pl, and Ph's Dekker halves.

    Ph = RN(10**q) and Pl = RN(10**q - Ph) come from exact int arithmetic:
    CPython rounds int / int and int -> float correctly.
    """
    rows = []
    for q in range(-_Q_MAX, _Q_MAX + 1):
        num, den = (10 ** q, 1) if q >= 0 else (1, 10 ** -q)
        hi = num / den
        hnum, hden = hi.as_integer_ratio()
        lo = (num * hden - hnum * den) / (den * hden)
        big = _SPLIT * hi
        top = big - (big - hi)
        rows.append((hi, lo, top, hi - top))
    return tuple(np.array(column) for column in zip(*rows))


def _loads(buffer, offsets):
    """The little-endian 64-bit words of the uint8 array ``buffer`` at the byte ``offsets``."""
    words = np.ndarray((len(buffer) - 7,), "<u8", buffer, strides=(1,))
    return words[offsets]


def _digits(words, keep):
    """The 8-digit values of ``words``, each the last bytes of a digit run, and a
    nonzero byte wherever a byte of the run is not a digit; ``words`` is
    overwritten, as in-place steps halve the time on a block's words.

    The bytes outside the mask ``keep`` lie before the run and count as '0';
    the first byte of a word is its most significant digit.
    """
    # XOR with '0' maps a digit byte to its value and only a digit to 0 ... 9
    v = np.bitwise_xor(words, _ZEROS, out=words)
    v &= keep
    # a byte above 9 sets its high bit (Lemire's test); only a byte above 0x89,
    # which sets its own, carries into the next
    bad = v + _OVER
    bad |= v
    bad &= _HIGH
    low = v >> np.uint64(8)
    for factor, shift, mask in _STEPS:
        if shift != 8:
            np.right_shift(v, shift, out=low)
        v *= factor
        v += low
        v &= mask
    return v, bad


def _run(buffer, end, length, count):
    """Each digit run of ``length`` bytes ending at ``end`` from its last ``count`` words:
    (value mod 2**64, all its bytes digits, the value of the highest word)."""
    total = np.zeros(len(end), np.uint64)
    bad = np.zeros(len(end), np.uint64)
    for j in range(count):
        keep = _KEEP[np.clip(length - 8 * j, 0, 8)]
        value, wrong = _digits(_loads(buffer, end - 8 * (j + 1)), keep)
        total += value * _POW10[8 * j]
        bad |= wrong
    return total, bad == 0, value


def _mask(packed, starts, length):
    """Bit j of a line's word is that of its byte j in ``packed``, a little-endian
    ``np.packbits`` mask of the block, for j below the line's ``length``."""
    inside = (np.uint64(1) << length.astype(np.uint64)) - np.uint64(1)
    return (_loads(packed, starts >> 3) >> (starts & 7).astype(np.uint64)) & inside


def _bit(m):
    """The index of the one set bit of each ``m`` below 2**56, from the exponent of
    its exact double (-1023 where ``m`` is 0)."""
    return (m.astype(np.float64).view(np.int64) >> 52) - 1023


def _settle(p, low):
    """(r, settled) for the double-doubles p + low, p > 0 and |low| <= p:
    r = RN(p + low), and settled where every real within E = 2**-98 p of
    p + low rounds to r, the test of the module docstring."""
    r = p + low
    tail = low - (r - p)
    bits = r.view(np.uint64)
    half = (bits & _EXPONENT).view(np.float64) * 2.0 ** -53  # half the gap above r
    half[(tail < 0) & ((bits & _MANTISSA) == 0)] *= 0.5  # below a power of two
    return r, np.abs(tail) + p * 2.0 ** -98 < half


def _block(data, lo, hi):
    """``parse`` of the lines in ``data[lo:hi]``, their indices counted from the first."""
    n = hi - lo
    b = np.empty(_FRONT + n + _BACK, np.uint8)
    b[:_FRONT] = b[_FRONT + n:] = ord("0")
    b[_FRONT:_FRONT + n] = np.frombuffer(data, np.uint8, n, lo)
    ends = np.flatnonzero(b == 10)
    if data[hi - 1] != 10:  # the last line of the data has no newline
        ends = np.append(ends, _FRONT + n)
    starts = np.empty_like(ends)
    starts[0] = _FRONT
    starts[1:] = ends[:-1] + 1
    ends -= b[ends - 1] == 13
    dots = np.packbits(b == 46, bitorder="little")
    marks = np.packbits((b | 32) == 101, bitorder="little")
    r, ok = _lines(b, dots, marks, starts, ends)
    # the bytes of the open lines, breaks included, gathered in one index array
    shut = np.flatnonzero(~ok)
    if len(shut) == len(ok):
        return r, shut, data[lo:hi]
    size = np.append(starts[1:], _FRONT + n)[shut] - starts[shut]  # to the next line
    at = np.repeat(starts[shut] - (np.cumsum(size) - size), size) + np.arange(size.sum())
    return r, shut, b[at].tobytes()


def _lines(b, dots, marks, starts, ends):
    """(values, read) of the lines ``b[starts:ends]``; a value is nan where not read.

    ``dots`` and ``marks`` are the packed masks of the block's '.' and 'e'/'E'.
    """
    length = ends - starts
    ok = (length >= 0) & (length <= _WIDTH)
    length *= ok
    dots = _mask(dots, starts, length)
    marks = _mask(marks, starts, length)
    one = np.uint64(1)
    ok &= ((dots & (dots - one)) == 0) & ((marks & (marks - one)) == 0)  # one bit at most
    has_e = marks != 0
    x = np.where(has_e, _bit(marks), length)
    has_dot = dots != 0
    d = np.where(has_dot, _bit(dots), x)
    first = b[starts]
    neg = first == 45
    int_len = d - (neg | (first == 43))
    frac_len = x - d - has_dot
    after = b[starts + x + 1]
    exp_neg = has_e & (after == 45)
    exp_start = x + 1 + (exp_neg | (has_e & (after == 43)))
    exp_len = np.where(has_e, length - exp_start, 0)
    ok &= ((int_len + frac_len >= 1) & (int_len <= 24) & (frac_len >= 0) & (frac_len <= 24)
           & (exp_len <= 8) & (has_e <= (exp_len >= 1)))
    # a line starts with a sign, a digit or '.' and ends with a digit or '.'; a block
    # with no line left, a column of blank-padded or long numbers, skips the digits
    last = b[ends - 1]
    ok &= (((first - 48 < 10) | neg | (first == 43) | (first == 46))
           & ((last - 48 < 10) | (last == 46)))
    if not ok.any():
        return np.full(len(ok), np.nan), ok

    # one 32-byte window ending at the fraction's end holds its three words;
    # the integer part's last word takes the window's first column
    window = np.ndarray((len(b) - 31,), "V32", b, strides=(1,))[starts + x - 32]
    words = window.view("<u8").reshape(-1, 4)
    words[:, 0] = _loads(b, starts + d - 8)
    keep = np.take(_KEEPS, np.clip(int_len, 0, 8) * 25 + np.clip(frac_len, 0, 24), axis=0)
    value, bad = _digits(words, keep)
    ok &= (bad[:, 0] | bad[:, 1] | bad[:, 2] | bad[:, 3]) == 0
    ok &= value[:, 1] < 1000  # at most 19 significant fraction digits
    ipart = value[:, 0]
    fpart = value[:, 1] * _POW10[16] + value[:, 2] * _POW10[8] + value[:, 3]
    # the few integer parts of more than 8 digits, and the exponents, one line set each
    marked = np.flatnonzero(ok & (int_len > 8))
    if len(marked):
        ipart[marked], good, top = _run(b, (starts + d)[marked], int_len[marked], 3)
        ok[marked] = good & (top < 1000)
    marked = np.flatnonzero(ok & has_e)
    expo = np.zeros(len(ok), np.int64)
    if len(marked):
        value, ok[marked], _ = _run(b, ends[marked], exp_len[marked], 1)
        expo[marked] = np.where(exp_neg[marked], -value.astype(np.int64), value.astype(np.int64))
    frac_len = np.clip(frac_len, 0, 24)
    ok &= ipart < _LIMIT[frac_len]
    w = ipart * _POW10[frac_len] + fpart
    q = expo - frac_len
    ok &= (np.abs(q) <= _Q_MAX) | (w == 0)

    row = np.clip(q, -_Q_MAX, _Q_MAX) + _Q_MAX
    ph, pl, phh, phl = (column[row] for column in _powers())
    wh = w.astype(np.float64)
    wl = (w - wh.astype(np.uint64)).view(np.int64).astype(np.float64)
    big = wh * _SPLIT
    whh = big - (big - wh)
    whl = wh - whh
    p = wh * ph
    err = ((whh * phh - p) + whh * phl + whl * phh) + whl * phl
    r, settled = _settle(p, (err + wh * pl) + wl * ph)
    ok &= settled | (w == 0)

    r[~ok] = np.nan
    return np.copysign(r, 0.5 - neg), ok


def parse(data):
    """Read ``data``, ASCII bytes, line by line.

    Returns (values, index, text): values holds one float per line, nan at
    the open lines, whose indices are ``index``; ``text`` holds the bytes of
    the open lines in order, each with its line break.
    """
    parts = []
    lo = 0
    with np.errstate(all="ignore"):
        while lo < len(data):
            hi = data.find(b"\n", lo + _BLOCK - 1) + 1 or len(data)
            parts.append(_block(data, lo, hi))
            lo = hi
    if not parts:
        return np.empty(0), np.empty(0, np.int64), b""
    offsets = np.cumsum([0] + [len(part[0]) for part in parts[:-1]])
    return (np.concatenate([part[0] for part in parts]),
            np.concatenate([part[1] + off for part, off in zip(parts, offsets)]),
            b"".join(part[2] for part in parts))
