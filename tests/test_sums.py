"""The exact row sums of ``cqmeans._sums``: ``math.fsum``'s bits on every path."""

import itertools
import math
import struct
import types

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cqmeans import (
    MobiusReciprocal,
    NumericalError,
    ShiftedLog,
    _buffers,
    _sums,
    estimators,
    generators,
    harness,
)
from cqmeans.cauchy import CauchyParams
from cqmeans._sums import _BOUNDED_MIN, _EXTRACT_MIN, _row_means


def _bits(x):
    """The bytes of a float, so that 0.0 and -0.0 differ."""
    return struct.pack("<d", x)


def _fsum_mean(values):
    return math.fsum(values.tolist()) / len(values)


def _one_row_mean(values):
    """``_row_means`` of a 1-d array, as a block of one row that the sums may write over."""
    return _row_means(values[np.newaxis].copy())[0]


def _outcome(mean, values):
    """The bits of ``mean(values)``, or the overflow it raises."""
    try:
        return _bits(mean(values))
    except OverflowError as exc:
        return repr(exc)


@st.composite
def _float_arrays(draw, n=None):
    """Arrays of any finite floats, by default long enough to be extracted.

    The terms spread over a drawn range of binary exponents, from subnormals
    to the edge of overflow, and a few are replaced by arbitrary floats.
    """
    if n is None:
        n = draw(st.integers(_EXTRACT_MIN, 3 * _EXTRACT_MIN))
    low = draw(st.integers(-1080, 1023))
    high = draw(st.integers(low, 1023))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    x = np.ldexp(rng.uniform(-1.0, 1.0, n), rng.integers(low, high + 1, n))
    finite = st.floats(allow_nan=False, allow_infinity=False)
    for i, v in draw(st.lists(st.tuples(st.integers(0, n - 1), finite), max_size=8)):
        x[i] = v
    return x


@st.composite
def _float_matrices(draw):
    """Blocks of rows of one length, of sizes on both sides of ``_EXTRACT_MIN``."""
    lengths = [1, 7, 63, 64, _EXTRACT_MIN - 1, _EXTRACT_MIN]
    n = draw(st.one_of(st.sampled_from(lengths), st.integers(1, _EXTRACT_MIN + 64)))
    # the largest block below the threshold, the smallest at or above it
    edges = [max(1, (_EXTRACT_MIN - 1) // n), -(-_EXTRACT_MIN // n)]
    rows = draw(st.one_of(st.sampled_from(edges), st.integers(1, 64)))
    if rows <= 64 and draw(st.booleans()):  # each row its own exponent range
        x = np.array([draw(_float_arrays(n)) for _ in range(rows)])
    else:
        x = draw(_float_arrays(rows * n)).reshape(rows, n)
    # terms of one sign make partial sums grow with n, which tests sigma's bound
    return np.abs(x) if draw(st.booleans()) else x


_CANCELLING = np.random.default_rng(30).standard_cauchy(_EXTRACT_MIN)


def _tall_block(n, special_rows):
    """Rows of n Cauchy terms, more rows than terms and ``_EXTRACT_MIN`` terms in
    all, with ``special_rows`` spread through it (the kernel copies such a block
    column by column)."""
    x = np.random.default_rng(n).standard_cauchy((-(-_EXTRACT_MIN // n) + 5, n))
    for i, row in enumerate(special_rows):
        x[(2 * i + 1) * len(x) // (2 * len(special_rows))] = row
    return x


def _one_level(row):
    """``_row_means``'s extraction level redone on ``row`` alone: the exponent e of
    its sigma, spread, tau = sum(q) and rest, the float sum of the remainders."""
    spread = (len(row) + 2).bit_length()
    e = math.frexp(np.abs(row).max())[1] + spread
    sigma = math.ldexp(1.0, e)
    q = (row + sigma) - sigma
    return e, spread, q.sum(), (row - q).sum()


def _settled_by(row):
    """Whether ``_row_means``'s tests (A), exact remainders, and (B), the interval,
    settle ``row`` after its one extraction level."""
    e, spread, tau, rest = _one_level(row)
    low = np.abs(row).min()
    exact = bool(low > 0.0 and math.frexp(low)[1] >= e + spread - 53)
    delta = math.ldexp(1.0, e + 2 * spread - 105)
    return exact, bool(tau + (rest - delta) == tau + (rest + delta))


def _rows_to_fsum(monkeypatch):
    """A list that gets the length of every row ``_row_means`` hands to ``math.fsum``."""
    rows = []

    def fsum(terms):
        rows.append(len(terms))
        return math.fsum(terms)

    monkeypatch.setattr(_sums, "math", types.SimpleNamespace(**{**vars(math), "fsum": fsum}))
    return rows


def _edge_row(f):
    """2,045 nonzero terms, the largest 1.0 and the smallest of frexp exponent ``f``,
    whose exact sum is the tie 1 + 2**-53 plus 2**(f - 53), so fsum rounds it up.
    One level (sigma = 2**12) leaves 1,100 remainders of 2**-41, past 2**(f - 1) in
    all, and one of 2**(f - 53); pairs of +-2**-30 fill the row and leave none."""
    half = math.ldexp(1.0, f - 1)
    terms = [1.0] + [half + 2.0**-41] * 1100 + [half + math.ldexp(1.0, f - 53)]
    terms += [2.0**-30, -2.0**-30] * ((2044 - len(terms)) // 2)
    # the term that brings the sum to the tie, exact as the other terms are
    # multiples of 2**-61 below 2**-20
    terms.insert(1, 2.0**-53 - (math.fsum(terms) - 1.0) + math.ldexp(1.0, f - 53))
    return np.array(terms)


def _sweep_blocks(rng, shape):
    """Blocks of ``shape`` without end, one of each data kind in turn: Cauchy
    draws, the terms of the geometric and Mobius kernels (log1p(t*t) and
    arctan t, t = x + Re alpha at Im alpha = 1, and both Mobius parts), terms
    over a wide range of exponents, terms on a 1/8
    grid, and rows whose two halves cancel."""
    while True:
        x = rng.standard_cauchy(shape)
        yield x
        yield np.log1p(x * x)
        yield np.arctan(x + rng.uniform(-2.0, 2.0))
        terms = 1.0 / (x + complex(rng.uniform(-2.0, 2.0), rng.uniform(0.1, 4.0)))
        yield terms.real
        yield terms.imag
        low = int(rng.integers(-1074, 0))
        high = int(rng.integers(low, 1000))
        yield np.ldexp(rng.uniform(-1.0, 1.0, shape), rng.integers(low, high + 1, shape))
        yield np.round(rng.normal(0.0, 100.0, shape) * 8.0) / 8.0
        mirrored = x.copy()
        half = shape[1] // 2
        mirrored[:, half:2 * half] = -x[:, half - 1::-1]
        yield mirrored


class TestExactMean:
    @settings(max_examples=300, deadline=None)
    @given(_float_arrays())
    @example(np.full(2 * _EXTRACT_MIN, -0.0))
    @example(np.concatenate([_CANCELLING, -_CANCELLING[::-1]]))
    @example(np.array([1.7e308, -1.7e308] + [1.0] * 2 * _EXTRACT_MIN))
    # with 2,050 terms sigma = 2**1024 (skipped) and 2**1023 (the largest used)
    @example(np.array([2.0**1011, -(2.0**1010)] + [1.0] * 2048))
    @example(np.array([2.0**1010, -(2.0**1009)] + [1.0] * 2048))
    @example(np.array([5e-324, -2.5e-308, 3e-310] * _EXTRACT_MIN))
    @example(np.array([1e300] + [1e-300] * 3000 + [-1e300]))
    @example(np.concatenate([[2.0**53, 1.0, 2.0**-60], np.zeros(2 * _EXTRACT_MIN)]))
    @example(np.array([2.0**53, 1.0, 2.0**-60]))
    def test_same_bits_as_fsum(self, x):
        assert _outcome(_one_row_mean, x) == _outcome(_fsum_mean, x)

    @settings(max_examples=200, deadline=None)
    @given(_float_matrices())
    # rows of _EXTRACT_MIN terms, so that each block reaches the extraction
    @example(np.array([[-0.0] * _EXTRACT_MIN, [1.0, -1.0] * (_EXTRACT_MIN // 2)]))
    @example(np.array([[1.7e308, 1.7e308] + [1.0] * (_EXTRACT_MIN - 2), [1.0] * _EXTRACT_MIN]))
    @example(np.array([
        [1e300] + [1e-300] * (_EXTRACT_MIN - 2) + [-1e300],
        [5e-324, -3e-310] * (_EXTRACT_MIN // 2),
    ]))
    @example(np.array([[2.0**53, 1.0, 2.0**-60] + [0.0] * (_EXTRACT_MIN - 3)]))
    @example(np.random.default_rng(1).uniform(0.5, 1.0, (8, _EXTRACT_MIN - 1)))
    # one block: a row two levels exhaust, a row with remainders left after
    # them, and rows no level can run on (not finite, near overflow, zero)
    @example(np.array([
        np.random.default_rng(2).standard_cauchy(1200).tolist(),
        [1e300] + [1e-300] * 1198 + [-1e300],
        [math.nan] + [1.0] * 1199,
        [2.0**1012, -(2.0**1011)] + [1.0] * 1198,
        [-0.0] * 1200,
        [1.0, -1.0] * 600,
    ]))
    @example(np.array([[1.7e308, 1.7e308] + [1.0] * 1198, [1e300] + [1e-300] * 1198 + [-1e300]]))
    # blocks of many short rows: exhausted rows around a row with remainders
    # left, a nan row, rows above and at the overflow guard, an all -0.0 row
    # and a row whose sum overflows
    @example(_tall_block(3, [[1e300, 1e-300, -1e300], [math.nan, 1.0, 1.0],
                             [2.0**1021, -(2.0**1020), 1.0], [-0.0] * 3,
                             [2.0**1019, -(2.0**1018), 2.0**-1000]]))
    @example(_tall_block(2, [[1.7e308, -1.7e308], [-0.0, -0.0], [1e300, 1e-300],
                             [1.0, math.inf]]))
    @example(_tall_block(7, [[2.0**1018, -(2.0**1017)] + [1.0] * 5,
                             [2.0**1019, -(2.0**1018)] + [1.0] * 5,
                             [1e300, 1e-300, -1e300, 1e-310, 0.0, -0.0, 3.0]]))
    @example(_tall_block(2, [[1e300, 1e-300], [1.7e308, 1.7e308], [-0.0, -0.0]]))
    # rows of two and three terms, summed by TwoSum steps: signed zeros (fsum's
    # zero is 0.0), inf and nan, a step that overflows (fsum raises) and
    # [2**53, 1, 2**-60], whose error terms 1 and 2**-60 do not add exactly
    @example(_tall_block(2, [[-0.0, -0.0], [-0.0, 0.0], [0.0, -0.0], [-1.7e308, 1.7e308],
                             [math.inf, 1.0], [math.nan, -0.0], [-math.inf, -math.inf]]))
    @example(_tall_block(2, [[1.7e308, 1.7e308], [1.0, 2.0]]))
    @example(_tall_block(3, [[-0.0] * 3, [-0.0, 0.0, -0.0], [1e308, -1e308, 1e308],
                             [math.inf, 1.0, 1.0], [1.0, math.nan, 2.0],
                             [2.0**53, 1.0, 2.0**-60], [2.0**-60, 1.0, 2.0**53]]))
    @example(_tall_block(3, [[1e308, 1e308, -1e308]]))
    @example(_tall_block(3, [[1.7e308, 1.7e308, -1.7e308], [1.7e308, -1.7e308, 1.7e308]]))
    def test_row_means_same_bits_as_fsum(self, x):
        expected = [_outcome(_fsum_mean, row) for row in x]
        if any(isinstance(e, str) for e in expected):
            with pytest.raises(OverflowError):
                _row_means(x.copy())
        else:
            assert [_bits(m) for m in _row_means(x.copy())] == expected

    def test_short_rows_go_to_fsum_only_where_uncertified(self, monkeypatch):
        # the benchmark's geometric-n2 and mobius-n3 tiles: C(2, 3) at 1 + 2i
        x = 2.0 + 3.0 * np.random.default_rng(11).standard_cauchy((1024, 3))
        to_fsum = _rows_to_fsum(monkeypatch)
        ShiftedLog(1 + 2j)._rows(x[:, :2])
        MobiusReciprocal(1 + 2j)._rows(x)
        assert to_fsum == []
        # TwoSum leaves 1 + 2**-60 as the error terms' sum, which does not round exactly
        x[500] = [2.0**53, 1.0, 2.0**-60]
        assert [_bits(m) for m in _row_means(x.copy())] == [_bits(_fsum_mean(row)) for row in x]
        assert to_fsum == [3]

    @pytest.mark.parametrize("n", [2, 3])
    def test_complex_short_rows_same_bits_as_fsum_part_by_part(self, monkeypatch, n):
        # one pass of TwoSum steps over both parts stacked, and fsum for the parts it
        # cannot certify: zero parts, a nan part, an inf part, an inexact error sum
        rng = np.random.default_rng(n)
        blocks = [1.0 / (rng.standard_cauchy((1024, n)) + complex(rng.uniform(-2.0, 2.0),
                                                                 rng.uniform(0.1, 4.0)))
                  for _ in range(50)]
        special = blocks[0]
        special[[3, 7, 9, 600], :] = 0.0
        special[3, 0] = -0.0j
        special[7, 0] = 1.0 + 2.0j
        special[7, 1] = -1.0 + 0.5j  # real part cancels to 0
        special[9, 0] = complex(math.nan, 1.0)
        special[600, 1] = complex(2.0, math.inf)
        if n == 3:
            special[50] = [complex(1.0, 2.0**53), complex(2.0, 1.0), complex(3.0, 2.0**-60)]
        to_fsum = _rows_to_fsum(monkeypatch)
        for block in blocks:
            before = block.tobytes()
            means = _sums._complex_row_means(block)
            assert block.tobytes() == before
            for part, terms in ((means.real, block.real), (means.imag, block.imag)):
                expected = np.array([math.fsum(row) for row in terms.tolist()]) / n
                np.testing.assert_array_equal(part.view(np.int64), expected.view(np.int64))
        # each uncertified part, and no other: both parts of row 3, the real part of
        # rows 7 and 9, the imaginary part of row 600 and, at n = 3, of row 50
        assert to_fsum == [n] * (5 + (n == 3))

    def test_a_zero_term_keeps_its_row_open(self):
        # frexp(0) has exponent 0: a min |x| of 0 would pass test (A), and the
        # mean of this row would come out 0.0009765625, the tie 1 + 2**-53 rounded down
        row = np.array([1.0, 2.0**-53, 2.0**-113] + [0.0] * (_EXTRACT_MIN - 3))
        assert _settled_by(row) == (False, False)
        assert _outcome(_one_row_mean, row) == _outcome(_fsum_mean, row)

    @pytest.mark.parametrize("below", [0, 1], ids=["at-the-bound", "one-below"])
    def test_exact_remainders_at_the_bound_of_test_a(self, monkeypatch, below):
        # at f = e + spread - 53 the remainders' sum is exact and test (A) settles
        # the row; one exponent lower it passes 2**f, loses the 2**(f - 53) that
        # breaks the tie, and only fsum gets the row right
        e, spread = 12, 11
        row = _edge_row(e + spread - 53 - below)
        assert _one_level(row)[:2] == (e, spread)
        assert _settled_by(row) == (not below, False)
        _, _, tau, rest = _one_level(row)
        assert (tau + rest == math.fsum(row)) == (not below)
        to_fsum = _rows_to_fsum(monkeypatch)
        assert _outcome(_one_row_mean, row) == _outcome(_fsum_mean, row)
        assert to_fsum == [len(row)] * below

    def test_exact_remainders_settle_ties_in_one_level(self, monkeypatch):
        # Mobius real parts of rows of 100, as in the two-step halves at n = 200:
        # three rows sum exactly to a tie, which no interval can settle
        x = np.random.default_rng(3).standard_cauchy((163, 100))
        block = (1.0 / (x + 1j)).real
        assert (True, False) in [_settled_by(row) for row in block]
        to_fsum = _rows_to_fsum(monkeypatch)
        assert [_bits(m) for m in _row_means(block.copy())] == [
            _bits(_fsum_mean(row)) for row in block]
        assert to_fsum == []

    def test_interval_settles_a_row_of_far_apart_terms(self, monkeypatch):
        row = np.random.default_rng(7).standard_cauchy(_EXTRACT_MIN)
        row[0] = 1e-30
        assert _settled_by(row) == (False, True)
        to_fsum = _rows_to_fsum(monkeypatch)
        assert _outcome(_one_row_mean, row) == _outcome(_fsum_mean, row)
        assert to_fsum == []

    def test_only_the_open_row_goes_to_fsum(self, monkeypatch):
        block = np.random.default_rng(8).standard_cauchy((4, _EXTRACT_MIN))
        block[2] = [1.0, 2.0**-53] + [0.0] * (_EXTRACT_MIN - 2)  # a tie with zero terms
        assert [_settled_by(row) for row in block] == [(True, True)] * 2 + [(False, False)] + [
            (True, True)]
        to_fsum = _rows_to_fsum(monkeypatch)
        assert [_bits(m) for m in _row_means(block.copy())] == [
            _bits(_fsum_mean(row)) for row in block]
        assert to_fsum == [_EXTRACT_MIN]

    def test_an_underflowing_delta_settles_a_row_of_exact_sums(self, monkeypatch):
        # every partial sum of the remainders is a multiple of 2**-1074 below
        # 2**-1021, so exact, where delta = 2**(e + 2 spread - 105) underflows to 0
        row = np.ldexp(np.random.default_rng(4).uniform(-1.0, 1.0, _EXTRACT_MIN), -1010)
        row[5] = 5e-324  # fails test (A)
        spread = (_EXTRACT_MIN + 2).bit_length()
        e = math.frexp(np.abs(row).max())[1] + spread
        assert math.ldexp(1.0, e + 2 * spread - 105) == 0.0
        assert _settled_by(row) == (False, True)
        to_fsum = _rows_to_fsum(monkeypatch)
        assert _outcome(_one_row_mean, row) == _outcome(_fsum_mean, row)
        assert to_fsum == []

    # 600 blocks in all, fewer of the shapes whose fsum oracle costs more
    @pytest.mark.parametrize("shape, blocks", [
        pytest.param(shape, blocks, id="x".join(map(str, shape))) for shape, blocks in
        [((1024, 2), 150), ((10_922, 3), 50), ((163, 100), 125), ((163, 200), 125),
         ((3, 10_000), 125), ((1, 200_000), 25)]])
    def test_oracle_sweep_at_the_harness_shapes(self, shape, blocks):
        rng = np.random.default_rng(shape[1])
        with _buffers.chunk_buffers():  # the kernel's scratch as in a Monte Carlo chunk
            for block in itertools.islice(_sweep_blocks(rng, shape), blocks):
                expected = np.array([math.fsum(row) for row in block.tolist()]) / shape[1]
                # as integers, so that a mismatch of one bit or of a zero's sign shows;
                # summed in a copy, which the sums write over as they do a kernel's scratch
                np.testing.assert_array_equal(_row_means(block.copy()).view(np.int64),
                                              expected.view(np.int64))

    @pytest.mark.parametrize(
        "estimate, alpha",
        [
            (estimators.mobius_estimate, 1j),
            (estimators.geometric_estimate, 0.0),
            (estimators.geometric_estimate, 1j),
        ],
    )
    def test_estimates_at_n_10000_match_fsum(self, monkeypatch, estimate, alpha):
        x = np.random.default_rng(31).standard_cauchy(10_000)
        fast = estimate(x, alpha).estimate

        def fsum_means(values, bound=None):
            return np.array([_fsum_mean(row) for row in values])

        # the kernels' own calls and those of _part_row_means
        monkeypatch.setattr(generators, "_row_means", fsum_means)
        monkeypatch.setattr(_sums, "_row_means", fsum_means)
        reference = estimate(x, alpha).estimate
        assert (_bits(fast.real), _bits(fast.imag)) == (
            _bits(reference.real),
            _bits(reference.imag),
        )


def _bounded_mean_outcome(x, bound):
    """The bits of the bounded means of ``x``, summed in a copy the sums overwrite."""
    return [_bits(m) for m in _row_means(x.copy(), bound)]


@st.composite
def _bounded_blocks(draw):
    """(block, bound): rows at and around ``_BOUNDED_MIN`` terms, enough of them to
    reach the extraction, under a bound, one float or one per row.

    Terms fill (-bound, bound) and some reach it; loose bounds hold terms of
    2**-20 to 2**-40 of it.  Blocks may sit on a coarse grid, where sums are
    exact and often ties, mirror each row's first half into its second, so
    that the row cancels exactly, and hold rows of signed zeros."""
    n = draw(st.sampled_from([_BOUNDED_MIN - 1, _BOUNDED_MIN, 100, 200, 1100])
             | st.integers(_BOUNDED_MIN - 1, 300))
    rows = draw(st.integers(-(-_EXTRACT_MIN // n), max(-(-_EXTRACT_MIN // n), 40)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    per_row = draw(st.booleans())
    exponents = rng.integers(draw(st.integers(-1000, 1000)), 1024, rows if per_row else 1)
    bound = np.ldexp(rng.uniform(0.5, 1.0, len(exponents)), exponents)
    top = bound[:, np.newaxis]
    x = rng.uniform(-1.0, 1.0, (rows, n)) * top
    loose = draw(st.sampled_from([0, 0, 20, 30, 40]))
    if loose:
        x = np.ldexp(x, -rng.integers(20, 41, (rows, n)))
    else:  # terms that reach the bound
        at = rng.integers(0, n, (rows, 3))
        np.put_along_axis(x, at, np.where(rng.random((rows, 3)) < 0.5, -top, top), axis=1)
    kind = draw(st.sampled_from(["plain", "grid", "mirror"]))
    if kind == "grid":  # multiples of 2**-k of the bound's binade, or the bound
        step = np.ldexp(1.0, np.frexp(top)[1] - draw(st.integers(2, 60)))
        x = np.clip(np.round(x / step) * step, -top, top)
    elif kind == "mirror":
        half = n // 2
        x[:, half:2 * half] = -x[:, half - 1::-1]
    for i in draw(st.lists(st.integers(0, rows - 1), max_size=2)):
        x[i] = np.where(rng.random(n) < 0.5, -0.0, 0.0)
    return x, (bound if per_row else float(bound[0]))


# the largest bound at ``_BOUNDED_MIN`` terms: sigma = 2**(frexp exponent + spread) = 2**1023
_TOP_BOUND = 2.0 ** (1022 - (_BOUNDED_MIN + 2).bit_length())


def _sums_spy(monkeypatch):
    """Lists, for each block of ``_BOUNDED_MIN`` terms or more that comes with a bound,
    of whether the bound served (True) or the level measured the block (False), and
    of the number of rows each level leaves open."""
    ran, opened = [], []
    usable_top, restored = _sums._usable_top, _sums._restored

    def bounded(bound, n):
        top = usable_top(bound, n)
        ran.append(top is not None)
        return top

    def counted(q, r, rows):
        opened.append(len(rows))
        return restored(q, r, rows)

    monkeypatch.setattr(_sums, "_usable_top", bounded)
    monkeypatch.setattr(_sums, "_restored", counted)
    return ran, opened


class TestBoundedSums:
    """The level that takes sigma from the caller's bound instead of the max."""

    @settings(max_examples=250, deadline=None)
    @given(_bounded_blocks())
    # one row on the bound's binade edge, one of signed zeros, one cancelling exactly
    @example((np.tile([[1.0] + [-1.0] * 62 + [2.0**-60],
                       [-0.0] * 64,
                       [0.75, -0.5, 0.25] * 21 + [-0.5]], (6, 1)), 1.0))
    # the largest sigma, 2**1023, and one binade above it, where the level measures the block
    @example((np.full((40, _BOUNDED_MIN), _TOP_BOUND), _TOP_BOUND))
    @example((np.full((40, _BOUNDED_MIN), 2 * _TOP_BOUND), 2 * _TOP_BOUND))
    # subnormal terms, where delta underflows to 0 and every sum is exact
    @example((np.ldexp(np.random.default_rng(5).uniform(-1.0, 1.0, (16, 80)), -1060), 2.0**-1060))
    def test_same_bits_as_fsum(self, block):
        x, bound = block
        expected = [_outcome(_fsum_mean, row) for row in x]
        if any(isinstance(e, str) for e in expected):  # a sum past the largest double
            with pytest.raises(OverflowError):
                _bounded_mean_outcome(x, bound)
        else:
            assert _bounded_mean_outcome(x, bound) == expected

    def test_open_rows_are_rebuilt_and_summed_again(self, monkeypatch):
        # Mobius real parts at i: the exact sum of about one row in 60 is a tie,
        # which (B) cannot settle; the few rows go to fsum.  Terms of 2**-40 of
        # the bound leave every row to (B)'s wide interval; those 1,600 terms go
        # to the measured level, whose tight sigma settles them
        x = np.random.default_rng(3).standard_cauchy((163, 100))
        ties = (1.0 / (x + 1j)).real
        loose = np.ldexp(np.random.default_rng(4).uniform(-1.0, 1.0, (16, 100)), -40)
        ran, opened = _sums_spy(monkeypatch)
        to_fsum = _rows_to_fsum(monkeypatch)
        for block, bound in ((ties, 0.5 + 2.0**-50), (loose, 1.0)):
            assert _bounded_mean_outcome(block, bound) == [_bits(_fsum_mean(row)) for row in block]
        assert ran == [True, True]
        assert opened[0] >= 1 and opened[1] == 16
        assert to_fsum == [100] * (sum(opened) - 16)

    @pytest.mark.parametrize("below", [0, 1], ids=["at-the-crossover", "one-below"])
    def test_the_bound_is_used_from_the_crossover_on(self, monkeypatch, below):
        n = _BOUNDED_MIN - below
        x = (1.0 / (np.random.default_rng(n).standard_cauchy((40, n)) + 1j)).imag
        ran, _ = _sums_spy(monkeypatch)
        assert _bounded_mean_outcome(x, 1.0 + 2.0**-49) == [_bits(_fsum_mean(row)) for row in x]
        assert ran == [True] * (not below)

    @pytest.mark.parametrize("bound", [math.inf, math.nan, 0.0, -1.0, 2 * _TOP_BOUND],
                             ids=["inf", "nan", "zero", "negative", "sigma-overflows"])
    def test_an_unusable_bound_takes_the_measured_level(self, monkeypatch, bound):
        x = np.random.default_rng(9).uniform(-1.0, 1.0, (40, _BOUNDED_MIN))
        ran, _ = _sums_spy(monkeypatch)
        assert _bounded_mean_outcome(x, bound) == [_bits(_fsum_mean(row)) for row in x]
        per_row = np.full(40, 1.0)
        per_row[5] = bound
        assert _bounded_mean_outcome(x, per_row) == [_bits(_fsum_mean(row)) for row in x]
        assert ran == [False, False]

    def test_a_block_the_level_cannot_run_on_goes_to_fsum_whole(self):
        # in place (a C-ordered block of no more rows than terms): a block whose max
        # is 0 or near overflow reaches fsum before the level writes over it, with
        # its overflow error and signed zero
        zeros = np.zeros((2, _EXTRACT_MIN))
        zeros[1] = -0.0
        assert [_bits(m) for m in _row_means(zeros.copy())] == [
            _bits(_fsum_mean(row)) for row in zeros]
        big = np.ones((2, _EXTRACT_MIN))
        big[1, :2] = 1.7e308
        with pytest.raises(OverflowError):
            _row_means(big)


def _harness_tiles(shape, count, seed):
    source = harness.CauchySource(CauchyParams(0.0, 1.0))
    rng = np.random.default_rng(seed)
    return [source.draw_rows(rng, *shape).copy() for _ in range(count)]


class TestKernelBounds:
    """The kernels hand their bounds to the sums: the fast path is taken on the
    benchmark's tiles, and where a bound cannot serve the bits and errors stay."""

    @pytest.mark.parametrize("kernel, shape, blocks", [
        ("mobius", (163, 200), 2), ("mobius", (163, 100), 2), ("two_step", (163, 200), 4),
        ("mobius", (3, 10_000), 2), ("geometric", (3, 10_000), 1)])
    def test_the_bounded_level_leaves_at_most_one_row_a_block_open(self, monkeypatch, kernel,
                                                                   shape, blocks):
        run = {"mobius": MobiusReciprocal(1j)._rows, "geometric": ShiftedLog(1j)._rows,
               "two_step": lambda x: estimators._two_step_rows(x, MobiusReciprocal(1j))}[kernel]
        tiles = _harness_tiles(shape, 50 if shape[0] > 3 else 10, shape[1])
        ran, opened = _sums_spy(monkeypatch)
        with _buffers.chunk_buffers():
            for x in tiles:
                run(x)
        # every Mobius part and every angle block of a tile takes the bound; the
        # tiles' open rows are exact ties (see above), about 0.8 a Mobius block
        assert ran == [True] * blocks * len(tiles)
        assert sum(opened) <= len(ran)

    def test_a_subnormal_shift_raises_as_before(self, monkeypatch):
        # 1/b overflows; b*b underflows, so _reciprocal rescales and no bound is used
        x = _arithmetic_samples((8, 200))
        ran, _ = _sums_spy(monkeypatch)
        gen = MobiusReciprocal(5e-320j)
        assert MobiusReciprocal(1j)._rows(x)[1].tolist() == [False] * 8
        x[2, 7] = 0.0  # the term -i/b is inf
        with pytest.raises(NumericalError, match=r"^MobiusReciprocal.invert: the mean "
                                                 r"overflows$"):
            gen._rows(x)
        x[2, 7], x[2, 9] = 1e-320, -1e-320  # real parts of +inf and -inf
        with pytest.raises(NumericalError, match=r"^MobiusReciprocal: the mean of 1/\(x \+ alpha\) "
                                                 r"overflows$"):
            gen._rows(x)
        assert ran == [True, True]  # only the first, unrescaled block at i

    @pytest.mark.parametrize("case", ["rescaled-i", "rescaled-1+2i", "loose-1e6"])
    def test_fallbacks_keep_the_bits(self, monkeypatch, case):
        x = _arithmetic_samples((2400,), 1e6 if case == "loose-1e6" else 1.0)
        alpha = 1 + 2j if case == "rescaled-1+2i" else 1j
        if case.startswith("rescaled"):  # u*u overflows
            x[::9] = 1.7e308
            x[4::9] = -1.7e308
        ran, opened = _sums_spy(monkeypatch)
        estimates = [estimators.mobius_estimate(x, alpha).estimate,
                     estimators.two_step_mobius(x, alpha).estimate]
        assert [_hex(z) for z in estimates] == _PARENT_BITS[case]
        if case.startswith("rescaled"):
            assert ran == []
        else:  # the bound 1/2 is 2**20 above terms of about 1e-6, so rows go to the measured level
            assert ran == [True] * 6 and sum(opened) > 0

    def test_angles_near_zero_keep_the_bits(self, monkeypatch):
        # samples of about 1e-6 at i: arctan of about 1e-6, far under the bound 1.6
        x = _arithmetic_samples((3, 10_000), 1e-6)
        fast = ShiftedLog(1j)._rows(x)[0]

        def fsum_means(values, bound=None):
            return np.array([_fsum_mean(row) for row in values])

        monkeypatch.setattr(generators, "_row_means", fsum_means)
        assert [_hex(z) for z in fast] == [_hex(z) for z in ShiftedLog(1j)._rows(x)[0]]


def _open_by_b_alone(block):
    """The rows of ``block`` that test (B) alone leaves open after one level at the
    block's sigma, as the level measures it."""
    spread = (block.shape[1] + 2).bit_length()
    e = math.frexp(np.abs(block).max())[1] + spread
    sigma = math.ldexp(1.0, e)
    q = (block + sigma) - sigma
    tau, rest = q.sum(axis=1), (block - q).sum(axis=1)
    delta = math.ldexp(1.0, e + 2 * spread - 105)
    return int(((rest - delta) + tau != (rest + delta) + tau).sum())


_KERNELS = {"mobius-i": MobiusReciprocal(1j)._rows, "geometric-0": ShiftedLog(0.0)._rows,
            "geometric-i": ShiftedLog(1j)._rows}


class TestMeasuredLevel:
    """The level that measures the block keeps test (A): short rows tie often."""

    @pytest.mark.parametrize("kernel, least", [("mobius-i", 500), ("geometric-0", 300),
                                               ("geometric-i", 100)])
    def test_exact_ties_of_short_rows_settle_without_fsum(self, monkeypatch, kernel, least):
        # harness tiles at n = 7: Mobius real parts and log moduli sit on coarse
        # grids, so hundreds of rows a tile sum exactly to a tie, which (B) alone
        # leaves open (about 600 Mobius rows a tile); (A) settles every one
        tiles = _harness_tiles((4681, 7), 2, 7)
        blocks, level = [], _sums._level_sums

        def copied(values, top=None):
            blocks.append(values.copy())
            return level(values, top)

        monkeypatch.setattr(_sums, "_level_sums", copied)
        to_fsum = _rows_to_fsum(monkeypatch)
        with _buffers.chunk_buffers():
            for x in tiles:
                _KERNELS[kernel](x)
        assert sum(_open_by_b_alone(block) for block in blocks) >= least * len(tiles)
        assert to_fsum == []

    @pytest.mark.parametrize("shape, count", [((3, 10_000), 10), ((1, 200_000), 3)])
    @pytest.mark.parametrize("kernel", ["geometric-0", "geometric-i"])
    def test_long_log_sums_leave_at_most_one_row_a_block_open(self, monkeypatch, kernel, shape,
                                                             count):
        tiles = _harness_tiles(shape, count, shape[1])
        _, opened = _sums_spy(monkeypatch)
        with _buffers.chunk_buffers():
            for x in tiles:
                _KERNELS[kernel](x)
        assert all(rows <= 1 for rows in opened)


def _arithmetic_samples(shape, scale=1.0):
    """Heavy-tailed samples made by correctly rounded + - * / only, the same bits
    on every platform: (u - 1/2) / (u (1 - u)) over the golden-ratio sequence u."""
    u = (np.arange(1, math.prod(shape) + 1) * 0.6180339887498949) % 1.0
    return (scale * (u - 0.5) / (u * (1.0 - u))).reshape(shape)


def _hex(z):
    return complex(z).real.hex(), complex(z).imag.hex()


# Mobius and two-step estimates of ``_arithmetic_samples((2400,))`` by cqmeans
# 0.2.0 before the bounded sums, dispatch-free
_PARENT_BITS = {
    "rescaled-i": [("-0x1.656de04219af2p-10", "0x1.fed096dace542p+0"),
                   ("-0x1.482d9e92c2895p-8", "0x1.288c88fe259d2p+1")],
    "rescaled-1+2i": [("0x1.47860db12a6b4p-2", "0x1.29f5b98b279ccp+1"),
                      ("-0x1.aef6bc4bc5940p-4", "0x1.365e6dab338e4p+1")],
    "loose-1e6": [("-0x1.c5eb2dcfb1613p+19", "0x1.ae256147e853bp+11"),
                  ("0x1.6d38d63a68b80p+17", "0x1.447966f17251dp+19")],
}
