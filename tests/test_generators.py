import math
import os
import struct
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import cqmeans
from cqmeans import (
    DomainError,
    MobiusReciprocal,
    NumericalError,
    ShiftedLog,
    branch_arg,
    branch_log,
    estimators,
    generators,
    qam,
)
from cqmeans import _buffers
from cqmeans.generators import _EXTRACT_MIN, _row_means


def central_difference(gen, z, h=1e-6):
    """Complex derivative of gen.apply from central differences on both axes."""
    dx = (gen.apply(z + h) - gen.apply(z - h)) / (2 * h)
    dy = (gen.apply(z + 1j * h) - gen.apply(z - 1j * h)) / (2j * h)
    return dx, dy


class TestApply:
    def test_shifted_log_of_negative_real(self):
        assert ShiftedLog(0.0).apply(-1.0) == complex(0.0, math.pi)

    def test_mobius_at_zero(self):
        assert MobiusReciprocal(1j).apply(0.0) == -1j

    def test_singularity_names_sample_index(self):
        with pytest.raises(DomainError, match="sample 2"):
            ShiftedLog(1.0).apply(np.array([0.0, 2.0, -1.0]))


class TestInvert:
    def test_shifted_log(self):
        assert ShiftedLog(0.0).invert(complex(0.0, math.pi / 2)) == pytest.approx(1j)

    def test_mobius(self):
        assert MobiusReciprocal(1j).invert(-1j) == pytest.approx(0.0, abs=1e-15)

    def test_excluded_image_points_raise(self):
        with pytest.raises(DomainError):
            MobiusReciprocal(1j).invert(0.0)

    @pytest.mark.parametrize(
        "gen, w",
        # each w maps below the real axis: exp(-i) - 0, 1/0.5 - i
        [(ShiftedLog(0.0), -1j), (MobiusReciprocal(1j), 0.5)],
    )
    def test_result_below_real_axis_is_numerical_error(self, gen, w):
        with pytest.raises(NumericalError, match="upper half plane"):
            gen.invert(w)
        with pytest.raises(NumericalError):
            gen.invert(np.array([gen.apply(1.0), w]))

    def test_invariant_check_survives_optimize_flag(self):
        # python -O strips assert statements; the check must not be one
        script = (
            "from cqmeans import MobiusReciprocal, NumericalError\n"
            "try:\n"
            "    print(MobiusReciprocal(1j).invert(0.5))\n"
            "except NumericalError:\n"
            "    print('NumericalError')\n"
        )
        src = str(Path(cqmeans.__file__).resolve().parents[1])
        path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
        run = subprocess.run([sys.executable, "-O", "-c", script], capture_output=True,
                             text=True, env={**os.environ, "PYTHONPATH": path}, check=True)
        assert run.stdout.strip() == "NumericalError"

    @pytest.mark.parametrize(
        "gen",
        [ShiftedLog(0.0), ShiftedLog(1 + 2j), MobiusReciprocal(1j),
         MobiusReciprocal(-2 + 0.5j)],
    )
    def test_round_trip(self, gen):
        rng = np.random.default_rng(5)
        x = rng.standard_cauchy(500)
        if gen.alpha.imag == 0.0:
            x = x[np.abs(x + gen.alpha.real) > 1e-6]
        back = np.array([gen.invert(gen.apply(xi)) for xi in x])
        assert np.allclose(back, x, rtol=1e-12, atol=1e-12)


class TestDerivative:
    def test_shifted_log_values(self):
        assert ShiftedLog(0.0).derivative(1j) == pytest.approx(-1j)
        assert ShiftedLog(1j).derivative(1j) == pytest.approx(-0.5j)

    def test_mobius_value(self):
        assert MobiusReciprocal(1j).derivative(1j) == pytest.approx(0.25)

    def test_matches_central_differences(self):
        gens = [ShiftedLog(0.0), ShiftedLog(1 + 1j), MobiusReciprocal(2j)]
        rng = np.random.default_rng(3)
        for gen in gens:
            for _ in range(25):
                z = complex(rng.uniform(-3, 3), rng.uniform(0.5, 3))
                want = gen.derivative(z)
                dx, dy = central_difference(gen, z)
                assert dx == pytest.approx(want, rel=1e-6)
                assert dy == pytest.approx(want, rel=1e-6)


class TestQam:
    def test_geometric_of_plus_minus_one(self):
        assert qam(ShiftedLog(0.0), [1.0, -1.0]) == 1j

    def test_constant_samples_are_fixed_points(self):
        for gen in (ShiftedLog(0.0), ShiftedLog(1j), MobiusReciprocal(1j)):
            assert qam(gen, [3.5] * 7) == pytest.approx(3.5, rel=1e-12)

    def test_mobius_escapes_the_sample_range(self):
        # (b, -b) with alpha = i has mean b^2 * i: above max|x| for b = 10 ...
        big = qam(MobiusReciprocal(1j), [10.0, -10.0])
        assert big == pytest.approx(100j, rel=1e-12)
        assert abs(big) > 10.0
        # ... and below min|x| for small b
        small = qam(MobiusReciprocal(1j), [0.1, -0.1])
        assert abs(small) == pytest.approx(0.01, rel=1e-10)
        assert abs(small) < 0.1

    def test_plain_geometric_mean_respects_min_max(self):
        rng = np.random.default_rng(17)
        for _ in range(200):
            x = rng.standard_cauchy(rng.integers(1, 20))
            x = x[x != 0]
            if x.size == 0:
                continue
            m = abs(qam(ShiftedLog(0.0), x))
            lo, hi = np.min(np.abs(x)), np.max(np.abs(x))
            assert lo * (1 - 1e-12) <= m <= hi * (1 + 1e-12)

    def test_mean_stays_in_upper_half_plane(self):
        rng = np.random.default_rng(23)
        gens = [ShiftedLog(0.0), ShiftedLog(2.0), ShiftedLog(-1 + 1j),
                MobiusReciprocal(1j), MobiusReciprocal(3 + 0.25j)]
        for _ in range(300):
            x = rng.standard_cauchy(rng.integers(1, 30))
            for gen in gens:
                if gen.alpha.imag == 0.0 and np.any(x + gen.alpha.real == 0.0):
                    continue
                assert qam(gen, x).imag >= -1e-12

    def test_permutation_invariance(self):
        rng = np.random.default_rng(31)
        x = rng.standard_cauchy(1000)
        for gen in (ShiftedLog(0.0), MobiusReciprocal(1j)):
            base = qam(gen, x)
            for _ in range(5):
                shuffled = rng.permutation(x)
                assert qam(gen, shuffled) == pytest.approx(base, rel=1e-13)

    def test_empty_and_nonfinite_samples_rejected(self):
        with pytest.raises(DomainError):
            qam(ShiftedLog(0.0), [])
        with pytest.raises(DomainError, match="index 1"):
            qam(ShiftedLog(0.0), [1.0, math.nan])

    def test_sample_matrix_rejected_not_flattened(self):
        with pytest.raises(DomainError, match="one-dimensional, got 2 dimensions"):
            qam(ShiftedLog(0.0), [[1.0, 2.0], [3.0, 4.0]])

    def test_singular_sample_rejected_not_perturbed(self):
        with pytest.raises(DomainError, match="^ShiftedLog.apply: singular input at sample 1$"):
            qam(ShiftedLog(-2.0), [1.0, 2.0, 3.0])


class TestGenericPathResults:
    """The generic path returns arrays of its own, inside a Monte Carlo chunk too."""

    @pytest.mark.parametrize("function", [
        pytest.param(branch_log, id="branch_log"),
        pytest.param(branch_arg, id="branch_arg"),
        *(pytest.param(getattr(gen, name), id=f"{gen!r}.{name}")
          for gen in (ShiftedLog(0.5), ShiftedLog(0.5 + 1j), MobiusReciprocal(0.5 + 1j))
          for name in ("apply", "derivative")),
    ])
    def test_a_second_call_leaves_the_first_result(self, function):
        with _buffers.chunk_buffers():
            first = function(np.array([1.0, -2.0, 3.5]))
            kept = first.tobytes()
            second = function(np.array([0.25, 4.0, -7.0]))
        assert not np.shares_memory(first, second)
        assert first.tobytes() == kept


class _PlainMobius(cqmeans.Generator):
    """The Mobius transform with only what a transform must implement."""

    def _check_alpha(self):
        if self.alpha.imag <= 0:
            raise DomainError("_PlainMobius: alpha must lie strictly in the upper half plane")

    def apply(self, x):
        return 1.0 / self._shift(x, "apply")

    def invert(self, w):
        return self._checked(1.0 / np.asarray(w, dtype=complex) - self.alpha)

    def derivative(self, z):
        return -1.0 / self._shift(z, "derivative") ** 2


class TestGenericRows:
    """A transform without a row kernel of its own gets the base ``_rows``."""

    @pytest.mark.parametrize("n", [1, 7, 2500])
    def test_mean_has_the_bits_of_the_mobius_kernel(self, n):
        x = np.random.default_rng(n).standard_cauchy(n)
        for alpha in (1j, -2 + 0.5j):
            got = qam(_PlainMobius(alpha), x)
            assert np.complex128(got).tobytes() == np.complex128(
                qam(MobiusReciprocal(alpha), x)).tobytes()

    def test_rows_fail_none_and_refuse_bad_samples(self):
        x = np.random.default_rng(3).standard_cauchy((4, 9))
        means, failed = _PlainMobius(1j)._rows(x)
        assert not failed.any()
        assert means.tolist() == [qam(MobiusReciprocal(1j), row) for row in x]
        with pytest.raises(DomainError, match="^qam: non-finite sample at index 2$"):
            qam(_PlainMobius(1j), [1.0, 2.0, math.inf])
        with pytest.raises(DomainError, match="_PlainMobius: alpha"):
            _PlainMobius(1.0)


# samples at the edges of the angle and modulus: signed zeros, subnormals, huge
_EDGE_SAMPLES = [0.0, -0.0, 5e-324, -5e-324, 2.2e-308, -1e-310, 1e300, -1e300]


@st.composite
def _sample_blocks(draw):
    """Cauchy blocks of 1x1 to 40x300 with a few edge samples spread through them."""
    rows, n = draw(st.integers(1, 40)), draw(st.integers(1, 300))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    x = rng.standard_cauchy((rows, n)) * 10.0 ** rng.integers(-8, 9, (rows, n))
    cells = st.tuples(st.integers(0, rows - 1), st.integers(0, n - 1),
                      st.sampled_from(_EDGE_SAMPLES))
    for i, j, v in draw(st.lists(cells, max_size=8)):
        x[i, j] = v
    return x


def _rows_outcome(rows, x):
    """The bytes of the means and the mask ``rows(x)`` returns, or the error it raises."""
    try:
        means, failed = rows(x)
    except (DomainError, NumericalError) as exc:
        return repr(exc)
    return means.tobytes(), failed.tobytes()


class TestComplexShiftRows:
    """ShiftedLog's own kernel at Im alpha > 0 against the generic path through ``branch_log``."""

    @settings(max_examples=200, deadline=None)
    @given(_sample_blocks(), st.floats(-1e6, 1e6), st.floats(5e-324, 1e300))
    @example(np.random.default_rng(7).standard_cauchy((3, 10_000)), 0.0, 1.0)
    @example(2.0 + 3.0 * np.random.default_rng(8).standard_cauchy((1024, 2)), 1.0, 2.0)
    def test_same_bits_as_the_generic_rows(self, x, re, im):
        gen = ShiftedLog(complex(re, im))
        assert _rows_outcome(gen._rows, x) == _rows_outcome(
            lambda block: cqmeans.Generator._rows(gen, block), x)


class TestOverflowingShift:
    @pytest.mark.parametrize("gen", [ShiftedLog(1e308), ShiftedLog(1e308 + 1j),
                                     MobiusReciprocal(1e308 + 1j)])
    def test_row_kernel_names_the_first_overflowing_sample(self, gen):
        x = np.array([[1.0, 2.0, 3.0], [4.0, 1.7e308, 1.7e308]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NumericalError, match=rf"^{type(gen).__name__}: x \+ alpha "
                                                      r"overflows at sample \(1, 1\)$"):
                gen._rows(x)
            with pytest.raises(NumericalError, match="overflows at sample 1$"):
                qam(gen, x[1])
            with pytest.raises(NumericalError, match="overflows at sample 2$"):
                gen.apply(np.array([1.0, 2.0, 1.7e308]))

    def test_a_large_sum_that_stays_finite_is_kept(self):
        assert qam(ShiftedLog(-1e308), [1.7e308, 1.6e308]).real > 0


class TestAlphaValidation:
    def test_shifted_log_needs_closed_upper_half_plane(self):
        ShiftedLog(1.0)
        ShiftedLog(2 + 0j)
        with pytest.raises(DomainError):
            ShiftedLog(-1j)

    def test_mobius_needs_open_upper_half_plane(self):
        with pytest.raises(DomainError):
            MobiusReciprocal(1.0)
        with pytest.raises(DomainError):
            MobiusReciprocal(1 - 2j)

    def test_nonfinite_alpha_rejected(self):
        with pytest.raises(DomainError):
            ShiftedLog(complex(math.inf, 1.0))


def _bits(x):
    """The bytes of a float, so that 0.0 and -0.0 differ."""
    return struct.pack("<d", x)


def _fsum_mean(values):
    return math.fsum(values.tolist()) / len(values)


def _one_row_mean(values):
    """``_row_means`` of a 1-d array, as a block of one row."""
    return _row_means(values[np.newaxis])[0]


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
    def test_row_means_same_bits_as_fsum(self, x):
        before = x.copy()
        expected = [_outcome(_fsum_mean, row) for row in x]
        if any(isinstance(e, str) for e in expected):
            with pytest.raises(OverflowError):
                _row_means(x)
        else:
            assert [_bits(m) for m in _row_means(x)] == expected
        assert x.tobytes() == before.tobytes()

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
        monkeypatch.setattr(
            generators, "_row_means", lambda values: np.array([_fsum_mean(row) for row in values])
        )
        reference = estimate(x, alpha).estimate
        assert (_bits(fast.real), _bits(fast.imag)) == (
            _bits(reference.real),
            _bits(reference.imag),
        )
