import math
import os
import subprocess
import sys
import warnings
from fractions import Fraction
from pathlib import Path

import mpmath
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

    def test_rounding_below_the_axis_is_measured_against_the_shift(self):
        # exp(log(z)) and 1/(1/z) round at |z| = |alpha| before - alpha cancels, so an
        # estimate of the sample 0 may lie about 1e-15 |alpha| below the axis
        for k in range(60, 121):  # shifts 1e6 i to 1e12 i
            alpha = 10.0 ** (k / 10) * 1j
            for estimate in (estimators.geometric_estimate, estimators.mobius_estimate):
                assert abs(estimate([0.0], alpha).estimate) < 1e-14 * abs(alpha)
        # the generic path's complex exp rounds below; the kernel's J >= 0 cannot
        gen = ShiftedLog(2e7j)
        assert gen.invert(gen.apply(0.0)).imag < 0.0
        assert estimators.geometric_estimate([0.0], 2e7j).estimate == 0.0
        assert estimators.mobius_estimate([0.0], 1.7e308j).estimate.imag < 0.0
        # the two-step's second stage: each row against its own shift (1/(1/z) rounds
        # below the axis at 1e8 i, not at 1e9 i, since the kernel divides in real arithmetic)
        means, _ = MobiusReciprocal(1j)._rows(np.zeros((2, 1)), np.array([1j, 1e8j]))
        assert means[1].imag < -1e-9

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

    def test_a_row_the_kernel_fails_raises_where_the_generic_path_returns(self, monkeypatch):
        # the kernel's real arithmetic can find the average 0 where the generic
        # path's complex division does not; the one-sample mean must not be nan
        def failing_rows(self, x, alpha=None):
            return np.full(len(x), np.nan + 0j), np.ones(len(x), dtype=bool)

        monkeypatch.setattr(MobiusReciprocal, "_rows", failing_rows)
        with pytest.raises(DomainError, match="^MobiusReciprocal.invert: 0 is not in the image$"):
            qam(MobiusReciprocal(1j), [1.0, 2.0, 3.0])


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
    def test_mean_agrees_with_the_mobius_kernel(self, n):
        # the generic path divides in complex, the kernel in real arithmetic; both
        # round 1/w at |mean + alpha|, before alpha is subtracted
        x = np.random.default_rng(n).standard_cauchy(n)
        for alpha in (1j, -2 + 0.5j):
            want = qam(MobiusReciprocal(alpha), x)
            assert abs(qam(_PlainMobius(alpha), x) - want) <= 1e-15 * abs(want + alpha)

    def test_rows_fail_none_and_refuse_bad_samples(self):
        x = np.random.default_rng(3).standard_cauchy((4, 9))
        means, failed = _PlainMobius(1j)._rows(x)
        assert not failed.any()
        assert means.tolist() == [qam(_PlainMobius(1j), row) for row in x]
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


def _exact_estimate(row, alpha):
    """exp(mean log(x_j + alpha)) - alpha to 50 digits, each log's angle in (0, pi).

    The angles sum to arg(prod(x_j + alpha)) plus whole turns, which the float
    angles, off by far less than a turn, count."""
    with mpmath.workdps(50):
        a = mpmath.mpc(alpha.real, alpha.imag)
        product = mpmath.fprod(mpmath.mpf(v) + a for v in row.tolist())
        angles = np.arctan2(alpha.imag, row + alpha.real).sum()
        turns = round((angles - float(mpmath.arg(product))) / (2 * math.pi))
        return mpmath.exp((mpmath.log(product) + 2j * mpmath.pi * turns) / len(row)) - a


def _relative_errors(means, x, alpha):
    """|mean - exact| / |exact| of every row of ``x``."""
    errors = []
    with mpmath.workdps(50):
        for z, row in zip(means, x):
            exact = _exact_estimate(row, alpha)
            errors.append(float(abs(mpmath.mpc(z.real, z.imag) - exact) / abs(exact)))
    return np.array(errors)


class TestComplexShiftRows:
    """ShiftedLog's own kernel at Im alpha > 0, in tangent-angle form since 0.3.0, against
    an exact oracle and the generic path through ``branch_log`` and the complex exp."""

    def test_as_accurate_as_the_generic_rows(self):
        # Cauchy rows of n = 2 to 10,000 at magnitudes 1e-300 to 1e300, with shifts
        # from 1e-12 to 1e3 times the magnitude
        rng = np.random.default_rng(31)
        kernel, generic = [], []
        for n, rows in [(2, 8), (7, 4), (200, 2), (10_000, 1)]:
            for k in (-300, -100, 0, 100, 300):
                scale = 10.0 ** k
                for re, im in [(0.0, 1.0), (1.0, 1e-3), (-2.0, 1e3), (0.25, 0.5), (-1.0, 1e-12)]:
                    alpha = complex(re * scale, im * scale)
                    gen = ShiftedLog(alpha)
                    x = scale * rng.standard_cauchy((rows, n))
                    kernel.append(_relative_errors(gen._rows(x)[0], x, alpha))
                    generic.append(_relative_errors(cqmeans.Generator._rows(gen, x)[0], x, alpha))
        kernel, generic = np.concatenate(kernel), np.concatenate(generic)
        # here: kernel median 2.3e-16, max 5.8e-14; generic 2.4e-14 and 6.5e-9
        assert np.median(kernel) <= np.median(generic)
        assert kernel.max() <= generic.max()
        assert np.median(kernel) < 1e-15 and kernel.max() < 1e-12

    @pytest.mark.parametrize("x, alpha", [
        ([1e200, -3e200, 2e199], 1j),                  # t*t overflows
        ([1.0, -3.0, 0.5], 5e-324j),                   # u/b overflows
        ([1e10, 3e10], 5e-324j),                       # e**J overflows too
        ([1.7976931348623157e308] * 2, 1e-300j),
        ([-1e300, 1e-300, 1e300], 2.0 + 1e-10j),       # both signs, t*t overflows
    ])
    def test_overflow_fallbacks_are_accurate(self, x, alpha):
        x = np.array([x])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            means = ShiftedLog(alpha)._rows(x)[0]
        assert means.imag[0] >= 0.0
        # mean L reaches about 1,450 here: its ulp, 2.3e-13, bounds what e**J keeps
        assert _relative_errors(means, x, alpha)[0] < 4e-13

    @settings(max_examples=150, deadline=None)
    @given(_sample_blocks(), st.floats(-1e6, 1e6), st.floats(5e-324, 1e300))
    @example(np.random.default_rng(7).standard_cauchy((3, 10_000)), 0.0, 1.0)
    @example(2.0 + 3.0 * np.random.default_rng(8).standard_cauchy((1024, 2)), 1.0, 2.0)
    @example(np.array([[1.0, 1e200], [1e300, -1e300], [2.0, 3.0]]), 0.0, 5e-324)
    def test_a_row_gives_the_same_bits_in_a_block_and_alone(self, x, re, im):
        gen = ShiftedLog(complex(re, im))
        block = _rows_outcome(gen._rows, x)
        alone = [_rows_outcome(gen._rows, row[np.newaxis]) for row in x]
        if isinstance(block, str):  # a block raises the error of one of its rows
            assert block in alone
        else:
            assert (b"".join(m for m, _ in alone), b"".join(f for _, f in alone)) == block


_MAGNITUDES = st.just(0.0) | st.floats(1e-320, 1.7e308) | st.floats(-1.7e308, -1e-320)


def _within_a_few_ulp(got, exact):
    """|got - exact| <= 4 * 2**-53 * |exact| plus two subnormal ulp, in exact rationals;
    a part beyond the largest double may be inf of its sign."""
    if math.isinf(got):
        largest = Fraction(sys.float_info.max)
        return (got > 0) == (exact > 0) and abs(exact) >= largest * (1 - Fraction(4, 2**53))
    return abs(Fraction(got) - exact) <= Fraction(4, 2**53) * abs(exact) + Fraction(2, 2**1074)


def _signed_zero_rows(shape, seed):
    """Rows of -0.0, rows of +0.0 and -0.0 mixed, and Cauchy rows with -0.0 among them."""
    rng = np.random.default_rng(seed)
    x = rng.standard_cauchy(shape)
    x[0::3] = -0.0
    x[1::3] = np.where(rng.random(x[1::3].shape) < 0.5, -0.0, 0.0)
    x[2::3, ::5] = -0.0
    return x


class TestSignedZeros:
    """At Re alpha = 0 the kernels read x itself, not a copy x + 0, so a -0.0 sample
    gives a -0.0 term; a zero sum is fsum's +0.0 (``_sums``), so every row keeps the
    bits it has with +0.0 in place of -0.0, in a block and alone.  On an interpreter
    whose fsum keeps -0.0 this fails."""

    @pytest.mark.parametrize("shape", [(512, 2), (342, 3), (30, 40), (6, 400), (3, 10_000)])
    @pytest.mark.parametrize("alpha, generator", [
        (0.0, ShiftedLog), (1j, ShiftedLog), (2.5j, ShiftedLog), (1j, MobiusReciprocal)])
    def test_a_negative_zero_gives_the_bits_of_a_positive_one(self, shape, alpha, generator):
        rows = generator(alpha)._rows
        x = _signed_zero_rows(shape, shape[1])
        positive, before = x + 0.0, x.tobytes()  # -0.0 + 0.0 is +0.0
        with _buffers.chunk_buffers():
            assert _rows_outcome(rows, x) == _rows_outcome(rows, positive)
            for row, row_positive in zip(x[:3], positive[:3]):
                assert (_rows_outcome(rows, row[np.newaxis])
                        == _rows_outcome(rows, row_positive[np.newaxis]))
        assert x.tobytes() == before  # read, never written


class TestMobiusKernel:
    """MobiusReciprocal's row kernel: its terms and inverse in real arithmetic."""

    @settings(max_examples=300, deadline=None)
    @given(st.lists(_MAGNITUDES, min_size=1, max_size=12), st.floats(1e-320, 1.7e308))
    @example([1e200, -1e200, 1.0], 1.0)             # u*u overflows
    @example([1.7e308, 0.0], 1.7e308)               # so does b*b
    @example([1e-320, -1e-170, 0.0, 3.0], 1e-320)   # d below 2**-968, the subnormals
    @example([1e-300, 2.0**-490], 2.0**-490)        # d normal but below 2**-968
    def test_terms_within_a_few_ulp_of_exact(self, u, b):
        with np.errstate(all="ignore"):
            re, im, _ = generators._reciprocal(np.array(u), np.array([b]), np.empty(len(u)))
        for v, got_re, got_im in zip(u, re.tolist(), im.tolist()):
            d = Fraction(v) ** 2 + Fraction(b) ** 2
            assert _within_a_few_ulp(got_re, Fraction(v) / d)
            assert _within_a_few_ulp(got_im, -Fraction(b) / d)

    def test_the_average_0_of_a_rescaled_pair_is_outside_the_image(self):
        # u*u overflows at +-1e200, and the rescaled terms cancel to exactly 0
        means, failed = MobiusReciprocal(1j)._rows(np.array([[1e200, -1e200], [1.0, 2.0]]))
        assert failed.tolist() == [True, False]
        assert np.isnan(means[0]) and means[1] == qam(MobiusReciprocal(1j), [1.0, 2.0])

    def test_same_bytes_without_avx512_dispatch(self):
        # only correctly rounded + - * / and exact sums: numpy's SIMD level cannot
        # change a bit of a Mobius or two-step estimate of given samples
        script = (
            "import hashlib, numpy as np\n"
            "from cqmeans import mobius_estimate, two_step_mobius\n"
            "rng = np.random.default_rng(2024)\n"
            "out = []\n"
            "for n, alpha in ((3, 1 + 2j), (7, 1j), (200, 1j), (1000, -0.3 + 0.02j)):\n"
            "    x = rng.standard_cauchy(n)\n"
            "    out.append(mobius_estimate(x, alpha).estimate)\n"
            "    if n >= 6:\n"
            "        out.append(two_step_mobius(x, alpha).estimate)\n"
            "block = 2.0 + 3.0 * rng.standard_cauchy((163, 200))\n"
            "digest = hashlib.sha256(np.array(out).tobytes())\n"
            "for estimate in (mobius_estimate, two_step_mobius):\n"
            "    digest.update(estimate(block, 1 + 2j, rows=True)[0].tobytes())\n"
            "print(digest.hexdigest())\n"
        )
        src = str(Path(cqmeans.__file__).resolve().parents[1])
        path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
        digests = []
        for disabled in ("", "AVX512_SPR AVX512_ICL X86_V4", "AVX512_SPR AVX512_ICL X86_V4 X86_V3"):
            env = {**os.environ, "PYTHONPATH": path, "NPY_DISABLE_CPU_FEATURES": disabled}
            run = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                                 env=env, timeout=120)
            if disabled and run.returncode and "NPY_DISABLE_CPU_FEATURES" in run.stderr:
                pytest.skip("this numpy build cannot turn those features off")
            assert run.returncode == 0, run.stderr
            digests.append(run.stdout.strip())
        assert digests[1:] == digests[:1] * 2


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
