import math
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cqmeans import (
    CauchyParams,
    DomainError,
    MobiusReciprocal,
    NumericalError,
    estimators,
    geometric_estimate,
    mobius_estimate,
    sample,
    sign_dichotomy,
    two_step_mobius,
)
from cqmeans.estimators import KINDS
from cqmeans.generators import _IMAG_FLOOR

STANDARD = CauchyParams(0.0, 1.0)


def draws(params, seed, shape):
    rng = np.random.default_rng(seed)
    u = rng.random(shape)
    return params.mu + params.sigma * np.tan(math.pi * (u - 0.5))


@st.composite
def _near_constant(draw, least=1):
    """Samples c (1 + e z_j) of ``least`` to 7 terms, |c| 1e-10 to 1e10, e 1e-17 to 1e-12
    and |z_j| <= 1, and a shift of Im 1e-2 to 1e2 times |c|."""
    n = draw(st.integers(least, 7))
    c = draw(st.sampled_from([-1.0, 1.0])) * 10.0 ** draw(st.floats(-10, 10))
    jitter = 10.0 ** draw(st.floats(-17, -12))
    z = np.array(draw(st.lists(st.floats(-1, 1), min_size=n, max_size=n)))
    alpha = complex(draw(st.floats(-2, 2)) * abs(c), 10.0 ** draw(st.floats(-2, 2)) * abs(c))
    return c * (1.0 + jitter * z), alpha


class TestGeometric:
    def test_plus_minus_one_gives_i(self):
        rec = geometric_estimate([1.0, -1.0], 0.0)
        assert rec.estimate == 1j
        assert rec.mu_hat == 0.0
        assert rec.sigma_hat == 1.0
        assert not rec.degenerate_imaginary

    def test_all_positive_has_exactly_zero_imaginary(self):
        rng = np.random.default_rng(1)
        for _ in range(100):
            x = np.exp(rng.standard_normal(rng.integers(1, 12)))
            rec = geometric_estimate(x, 0.0)
            assert rec.estimate.imag == 0.0
            assert rec.degenerate_imaginary

    def test_all_negative_has_exactly_zero_imaginary(self):
        rec = geometric_estimate([-1.0, -2.0], 0.0)
        assert rec.estimate.imag == 0.0
        assert rec.estimate.real == pytest.approx(-math.sqrt(2.0), rel=1e-15)

    @pytest.mark.parametrize("n", [1, 2, 3, 7, 12])
    @pytest.mark.parametrize("shift", [0.0, -0.75])
    def test_real_shift_rows_equal_one_sample_estimates(self, n, shift):
        # every count 0..n of negative shifted samples, several rows each, so
        # that the rows share their (cos, sin) of pi * count / n
        rng = np.random.default_rng(n)
        counts = np.arange(6 * (n + 1)) % (n + 1)
        signs = np.where(np.arange(n) < counts[:, np.newaxis], -1.0, 1.0)
        signs = rng.permuted(signs, axis=1)
        block = signs * 10.0 ** rng.uniform(-3, 3, signs.shape) - shift
        means, failed = geometric_estimate(block, shift, rows=True)
        assert not failed.any()
        assert ((block + shift < 0).sum(axis=1) == counts).all()
        for row, mean in zip(block, means):
            single = geometric_estimate(row, shift).estimate
            assert mean.tobytes() == np.complex128(single).tobytes()

    def test_constant_samples_with_complex_shift(self):
        rec = geometric_estimate([2.5] * 4, 1j)
        assert rec.estimate == pytest.approx(2.5, rel=1e-12)

    def test_positive_scale_unless_constant(self):
        rng = np.random.default_rng(6)
        for _ in range(200):
            x = rng.standard_cauchy(rng.integers(2, 10))
            if np.all(x == x[0]):
                continue
            rec = geometric_estimate(x, 1j)
            assert rec.estimate.imag > 0.0

    @settings(max_examples=300, deadline=None)
    @given(_near_constant())
    @example((np.array([1.0, 1.0 + 2.0**-52]), 0.01j))
    def test_near_constant_samples_keep_a_scale_of_at_least_0(self, case):
        # J = mean L - log1p(tan(phi)**2)/2 >= 0 by Jensen; rounding cancels it, and
        # the kernel's clamp keeps sigma_hat = b expm1(J) off the negative axis
        x, alpha = case
        assert geometric_estimate(x, alpha).sigma_hat >= 0.0
        assert geometric_estimate(x[np.newaxis], alpha, rows=True)[0].imag[0] >= 0.0

    def test_record_metadata(self):
        rec = geometric_estimate([1.0, 2.0, 3.0], 0.0)
        assert rec.estimator == "geometric"
        assert rec.n == 3
        assert rec.alpha == 0.0
        assert rec.meets_unbiased_n
        assert not geometric_estimate([1.0], 0.0).meets_unbiased_n

    def test_translation_equivariance(self):
        rng = np.random.default_rng(9)
        for alpha in (0.0, 1.0, 1j, 2 - 0j):
            for _ in range(50):
                x = rng.standard_cauchy(8)
                c = rng.uniform(-5, 5)
                lhs = geometric_estimate(x + c, alpha).estimate
                rhs = geometric_estimate(x, alpha + c).estimate + c
                assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-12)

    def test_unbiased_at_n2(self):
        m_reps = 20_000
        for params, alpha in ((STANDARD, 1j), (CauchyParams(2.0, 3.0), 1 + 2j)):
            x = draws(params, 101, (m_reps, 2))
            z = x + alpha
            logs = np.log(np.abs(z)) + 1j * np.arctan2(z.imag, z.real)
            ests = np.exp(logs.mean(axis=1)) - alpha
            for axis, target in ((ests.real, params.mu), (ests.imag, params.sigma)):
                se = axis.std(ddof=1) / math.sqrt(m_reps)
                assert abs(axis.mean() - target) < 4 * se

    def test_strong_consistency_along_one_trajectory(self):
        x = sample(STANDARD, 56, 100_000)
        errors = [abs(geometric_estimate(x[:n], 0.0).estimate - 1j)
                  for n in (100, 1_000, 10_000, 100_000)]
        assert errors[-2] < 0.1 and errors[-1] < 0.1
        assert errors[-1] < errors[-2]


class TestMobius:
    def test_opposite_pair_escapes_range(self):
        rec = mobius_estimate([10.0, -10.0], 1j)
        assert rec.estimate == pytest.approx(100j, rel=1e-12)
        assert rec.sigma_hat == pytest.approx(100.0, rel=1e-12)

    def test_single_sample_is_identity(self):
        assert mobius_estimate([0.0], 1j).estimate == 0.0
        assert mobius_estimate([3.0], 2j).estimate == pytest.approx(3.0, rel=1e-14)

    def test_constant_samples(self):
        assert mobius_estimate([-1.5] * 5, 1j).estimate == pytest.approx(-1.5,
                                                                         rel=1e-12)

    def test_requires_strictly_complex_alpha(self):
        with pytest.raises(DomainError):
            mobius_estimate([1.0, 2.0], 0.0)
        with pytest.raises(DomainError):
            mobius_estimate([1.0, 2.0], 1 - 1j)

    def test_zero_average_is_outside_the_image(self):
        # 1/(x + i) of +-1e200 cancel to exactly 0
        with pytest.raises(DomainError, match="^MobiusReciprocal.invert: 0 is not in the image$"):
            mobius_estimate([1e200, -1e200], 1j)

    @pytest.mark.parametrize("estimate", [
        lambda m: mobius_estimate([m] * 3, 1j),
        lambda m: two_step_mobius([m] * 3 + [0.0] * 3, 1j),  # the pilot overflows
    ])
    def test_overflowing_average_raises_without_a_warning(self, estimate):
        # at the float limit the average is subnormal and 1/w overflows
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NumericalError, match="^MobiusReciprocal.invert: the mean overflows"):
                estimate(1.7976931348623157e308)

    def test_matches_ratio_form(self):
        rng = np.random.default_rng(12)
        for _ in range(100):
            x = rng.standard_cauchy(rng.integers(1, 40))
            alpha = complex(rng.uniform(-3, 3), rng.uniform(0.1, 3))
            got = mobius_estimate(x, alpha).estimate
            ratio = np.sum(x / (x + alpha)) / np.sum(1.0 / (x + alpha))
            assert got == pytest.approx(complex(ratio), rel=1e-12, abs=1e-12)

    @pytest.mark.parametrize("scale", [1.0, 1e3, 1e6, 1e9])
    def test_matches_exact_rational_mean(self, scale):
        # n / sum_j 1/(x_j + i) - i in exact rationals, 1/(x + i) = (x - i)/(x^2 + 1);
        # the largest error over these samples is 1.7e-14 * |ref|, at scale 1e6
        rng = np.random.default_rng(41)
        for _ in range(200):
            x = scale * rng.standard_cauchy(7)
            terms = [Fraction(v) for v in x.tolist()]
            re = sum(v / (v * v + 1) for v in terms)
            im = sum(-1 / (v * v + 1) for v in terms)
            norm = re * re + im * im
            ref = complex(len(x) * re / norm, -len(x) * im / norm - 1)
            got = mobius_estimate(x, 1j).estimate
            assert abs(got - ref) <= 1e-13 * abs(ref)

    def test_unbiased_at_n3(self):
        m_reps = 20_000
        for params, alpha in ((STANDARD, 1j), (CauchyParams(2.0, 3.0), 1 + 2j)):
            x = draws(params, 202, (m_reps, 3))
            ests = 1.0 / np.mean(1.0 / (x + alpha), axis=1) - alpha
            for axis, target in ((ests.real, params.mu), (ests.imag, params.sigma)):
                se = axis.std(ddof=1) / math.sqrt(m_reps)
                assert abs(axis.mean() - target) < 4 * se

    def test_strong_consistency_along_one_trajectory(self):
        x = sample(STANDARD, 56, 100_000)
        errors = [abs(mobius_estimate(x[:n], 1j).estimate - 1j)
                  for n in (100, 1_000, 10_000, 100_000)]
        assert errors[-2] < 0.1 and errors[-1] < 0.1
        assert errors[-1] < errors[-2]


class TestTwoStep:
    def test_constant_samples(self):
        rec = two_step_mobius([4.0] * 6, 1j)
        assert rec.estimate == pytest.approx(4.0, rel=1e-12)
        assert rec.estimator == "two_step_mobius"
        assert rec.n == 6
        # the pilot's scale is 0 up to rounding, so the second stage takes the floor
        assert two_step_mobius([4.0] * 6, 3 + 2j).alpha == complex(-4.0, 2.0**-25)

    def test_minimum_sample_count(self):
        with pytest.raises(DomainError):
            two_step_mobius([1.0] * 5, 1j)

    def test_pilot_alpha_constraint(self):
        with pytest.raises(DomainError):
            two_step_mobius([1.0] * 6, 1.0)

    def test_zero_stage_average_is_outside_the_image(self):
        with pytest.raises(DomainError, match="a stage's average is 0"):
            two_step_mobius([1e200, -1e200, 1e201, -1e201, 1, 2, 3, 4], 1j)

    @settings(max_examples=300, deadline=None)
    @given(_near_constant(3), st.booleans(), st.integers(0, 2**32 - 1))
    def test_a_pilot_one_ulp_away_moves_the_estimate_by_rounding(self, case, odd, seed):
        # a near-constant first half puts the pilot's scale at 0 up to rounding; the
        # second-stage scale max(Im pilot, 2**-26 Im alpha) has no cliff there, where
        # a switch on Im pilot > 0 moved estimates by up to 300 times their size
        first, alpha = case
        rng = np.random.default_rng(seed)
        second = first[0] * (1.0 + rng.standard_cauchy(len(first) + odd))
        x = np.concatenate([first, second])
        y = x.copy()
        j = int(rng.integers(len(first)))
        y[j] = np.nextafter(x[j], math.inf)
        before, after = (two_step_mobius(s, alpha).estimate for s in (x, y))
        assert abs(after - before) <= 1e-10 * max(abs(before), abs(alpha))

    def test_estimates_standard_parameters(self):
        x = sample(STANDARD, 321, 10_000)
        rec = two_step_mobius(x, 1j)
        assert abs(rec.estimate - 1j) < 0.1
        # second-stage shift sits near the variance-optimal -mu + sigma*i
        assert abs(rec.alpha - 1j) < 0.1

    def test_near_optimal_variance(self):
        # with a far-off pilot shift the adapted second stage still reaches
        # (n/2) * Var within 15% of the 4 sigma^2 floor
        m_reps, n = 20_000, 2_000
        x = draws(STANDARD, 999, (m_reps, n))
        ests = np.empty(m_reps, dtype=complex)
        pilot = 5 + 5j
        # 256-row blocks of the row kernel, the one-sample estimates' bits
        for i in range(0, m_reps, 256):
            ests[i:i + 256] = two_step_mobius(x[i:i + 256], pilot, rows=True)[0]
        half_n_var = (n / 2) * (ests.real.var(ddof=1) + ests.imag.var(ddof=1))
        assert abs(half_n_var - 4.0) < 0.15 * 4.0


class TestSignDichotomy:
    def test_basic_cases(self):
        assert sign_dichotomy([1.0, 2.0, 3.0], 0.0)
        assert not sign_dichotomy([1.0, -2.0, 3.0], 0.0)
        assert sign_dichotomy([-1.0, -2.0], 0.0)

    def test_shift_moves_the_split(self):
        assert sign_dichotomy([1.0, 2.0], -0.5)
        assert not sign_dichotomy([1.0, 2.0], -1.5)

    def test_singular_sample_rejected(self):
        message = "^ShiftedLog.apply: singular input at sample 1$"  # the estimate's message
        with pytest.raises(DomainError, match=message):
            geometric_estimate([1.0, -2.0], 2.0)
        with pytest.raises(DomainError, match=message):
            sign_dichotomy([1.0, -2.0], 2.0)

    @pytest.mark.parametrize("samples", [[1.0, math.nan], [1.0, math.inf],
                                         [[1.0, 2.0], [3.0, 4.0]], []])
    def test_refuses_what_the_estimators_refuse(self, samples):
        with pytest.raises(DomainError):
            geometric_estimate(samples, 0.0)
        with pytest.raises(DomainError):
            sign_dichotomy(samples, 0.0)

    @pytest.mark.parametrize("samples, alpha", [([1.0, 2.0], math.nan),
                                                ([1.0, -2.0], math.inf)])
    def test_refuses_the_shifts_the_estimators_refuse(self, samples, alpha):
        with pytest.raises(DomainError, match="^ShiftedLog: alpha must be finite$"):
            geometric_estimate(samples, alpha)
        with pytest.raises(DomainError, match="^ShiftedLog: alpha must be finite$"):
            sign_dichotomy(samples, alpha)

    def test_refuses_an_overflowing_shift_as_the_estimator_does(self):
        message = "^ShiftedLog: x \\+ alpha overflows at sample 1$"
        with pytest.raises(NumericalError, match=message):
            geometric_estimate([1.0, 1.7e308], 1e308)
        with pytest.raises(NumericalError, match=message):
            sign_dichotomy([1.0, 1.7e308], 1e308)

    def test_equivalent_to_exact_zero_imaginary(self):
        rng = np.random.default_rng(18)
        for _ in range(2_000):
            n = rng.integers(2, 7)
            x = rng.standard_cauchy(n)
            same_sign = sign_dichotomy(x, 0.0)
            rec = geometric_estimate(x, 0.0)
            assert same_sign == (rec.estimate.imag == 0.0)

    @settings(max_examples=100, deadline=None)
    @given(st.integers(2, 7), st.integers(0, 2**32 - 1), st.integers(-324, 100),
           st.integers(-324, 100), st.one_of(st.just(0.0), st.floats(1e-100, 1e100),
                                             st.floats(-1e100, -1e-100), st.just("pole")))
    # rows such as [-5e-324, 5e-324, ..., 5e-324], whose scale times the sine
    # of pi/7 underflows
    @example(7, 2, -324, -323, 0.0)
    def test_rows_have_zero_imaginary_iff_one_sign(self, n, seed, low, high, shift):
        """Blocks of many short rows, so that the real-shift rows are summed in
        column order.  Magnitudes reach down to the subnormals (and to 0, a
        pole at shift 0), where the scale times the sine part can underflow,
        and up to 1e100, so that the mean of the logs cannot round past the
        float range."""
        rng = np.random.default_rng(seed)
        rows = -(-1024 // n) + int(rng.integers(0, 64))
        low, high = min(low, high), max(low, high)
        # a sign probability per row, so that rows of one sign occur at every n
        negative = rng.random((rows, n)) < rng.random((rows, 1))
        x = np.where(negative, -1.0, 1.0) * 10.0 ** rng.uniform(low, high, (rows, n))
        shift = -x[rows // 2, n // 2] if shift == "pole" else shift
        means, failed = geometric_estimate(x, shift, rows=True)
        assert failed.tolist() == ((x + shift) == 0.0).any(axis=1).tolist()
        for row, mean in zip(x[~failed], means[~failed]):
            assert (mean.imag == 0.0) == sign_dichotomy(row, shift)

    def test_degeneracy_frequency_at_n2(self):
        m_reps = 10_000
        x = draws(STANDARD, 404, (m_reps, 2))
        frac = np.mean(np.sign(x[:, 0]) == np.sign(x[:, 1]))
        se = math.sqrt(0.25 / m_reps)
        assert abs(frac - 0.5) < 3 * se
        # and the estimator view agrees
        degenerate = [geometric_estimate(row, 0.0).estimate.imag == 0.0
                      for row in x[:2000]]
        assert abs(np.mean(degenerate) - 0.5) < 4 * math.sqrt(0.25 / 2000)


class TestSampleShape:
    @pytest.mark.parametrize("kind", sorted(KINDS))
    @pytest.mark.parametrize("samples", [np.full((4, 50), 3.0), 3.0])
    def test_rejects_samples_that_are_not_one_dimensional(self, kind, samples):
        estimate = getattr(estimators, KINDS[kind].function)
        with pytest.raises(DomainError, match="one-dimensional"):
            estimate(samples, 1j)

    @pytest.mark.parametrize("kind", sorted(KINDS))
    @pytest.mark.parametrize("samples", [np.full(50, 3.0), np.full((2, 4, 50), 3.0)])
    def test_rows_must_be_a_matrix(self, kind, samples):
        estimate = getattr(estimators, KINDS[kind].function)
        with pytest.raises(DomainError, match="two-dimensional"):
            estimate(samples, 1j, rows=True)

    @pytest.mark.parametrize("kind, alpha", [(kind, 1j) for kind in sorted(KINDS)]
                             + [("geometric", 0.0)])
    @pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan, "no columns", "no rows"])
    def test_rows_refuse_a_block_without_finite_samples(self, kind, alpha, bad):
        """The block is refused before any arithmetic, so that no kernel returns
        inf, nan or a finite wrong estimate for it, or fails in its own way."""
        function = KINDS[kind].function
        message = "need at least one sample"
        if bad == "no columns":
            x = np.empty((3, 0))
        elif bad == "no rows":
            x = np.empty((0, 8))
        else:
            x = np.full((3, 8), 2.0)
            x[1, 4] = bad
            message = r"non-finite sample at index \(1, 4\)"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DomainError, match=f"^{function}: {message}$"):
                getattr(estimators, function)(x, alpha, rows=True)

    @pytest.mark.parametrize("call, caller", [
        pytest.param(lambda: sign_dichotomy([1.0, math.nan]), "sign_dichotomy", id="sign-nan"),
        pytest.param(lambda: sign_dichotomy([[1.0, 2.0]]), "sign_dichotomy", id="sign-matrix"),
        pytest.param(lambda: two_step_mobius([[1.0] * 6], 1j), "two_step_mobius",
                     id="two-step-matrix"),
        pytest.param(lambda: two_step_mobius([1.0] * 5 + [math.inf], 1j), "two_step_mobius",
                     id="two-step-inf"),
        pytest.param(lambda: geometric_estimate([math.nan], 1j), "qam", id="geometric-nan"),
        pytest.param(lambda: mobius_estimate([], 1j), "qam", id="mobius-empty"),
        pytest.param(lambda: geometric_estimate(np.array([1 + 2j, 3.0, 4.0]), 1j), "qam",
                     id="geometric-complex-array"),
        pytest.param(lambda: geometric_estimate([1 + 2j, 3.0], 1j), "qam",
                     id="geometric-complex-list"),
        pytest.param(lambda: sign_dichotomy(["x", 1.0]), "sign_dichotomy", id="sign-text"),
        pytest.param(lambda: two_step_mobius(np.array([1.0] * 5 + [2j], dtype=object), 1j),
                     "two_step_mobius", id="two-step-complex-object"),
        pytest.param(lambda: mobius_estimate(np.array([[1 + 2j, 3.0]]), 1j, rows=True),
                     "mobius_estimate", id="mobius-rows-complex"),
        pytest.param(lambda: geometric_estimate([["x", "1.5"]], 1j, rows=True),
                     "geometric_estimate", id="geometric-rows-text"),
    ])
    def test_errors_name_the_function_called(self, call, caller):
        # a complex sample is refused, not cast to its real part with a ComplexWarning
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DomainError, match=f"^{caller}: "):
                call()


@st.composite
def _samples_and_seed(draw):
    """Samples of 6 or more values and a seed for their permutation.

    Half the cases are drawn floats of any finite size, half are seeded
    Cauchy rows long enough to reach the extraction kernel of the exact sums.
    """
    if draw(st.booleans()):
        floats = st.floats(allow_nan=False, allow_infinity=False)
        x = np.array(draw(st.lists(floats, min_size=6, max_size=40)))
    else:
        rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
        n = draw(st.sampled_from([6, 7, 64, 1023, 1024, 1025, 2500]))
        x = 10.0 ** draw(st.integers(-200, 200)) * rng.standard_cauchy(n)
    return x, draw(st.integers(0, 2**32 - 1))


_UPPER = st.builds(complex, st.floats(-5, 5), st.floats(0.01, 5))


def _bits(estimate, x, alpha):
    """The estimate of ``x`` as complex128 bytes, or the error class it raises."""
    try:
        return np.complex128(estimate(x, alpha).estimate).tobytes()
    except (DomainError, NumericalError) as exc:
        return type(exc)


class TestPermutationInvariance:
    """The sums are exact, so reordering the samples cannot change a bit."""

    @settings(max_examples=150, deadline=None)
    @given(_samples_and_seed(), st.floats(-5, 5), _UPPER)
    def test_one_stage_estimates(self, case, real_shift, alpha):
        x, seed = case
        y = x[np.random.default_rng(seed).permutation(len(x))]
        for estimate, shift in ((geometric_estimate, real_shift),
                                (geometric_estimate, alpha), (mobius_estimate, alpha)):
            assert _bits(estimate, y, shift) == _bits(estimate, x, shift)

    @settings(max_examples=150, deadline=None)
    @given(_samples_and_seed(), _UPPER)
    def test_two_step_within_each_half(self, case, alpha):
        x, seed = case
        rng = np.random.default_rng(seed)
        half = len(x) // 2
        order = np.concatenate([rng.permutation(half), half + rng.permutation(len(x) - half)])
        assert _bits(two_step_mobius, x[order], alpha) == _bits(two_step_mobius, x, alpha)



# reals of magnitude 0 or 1e-320 to 1.7e308, subnormals and the edge of overflow included
_EXTREME = st.just(0.0) | st.floats(1e-320, 1.7e308) | st.floats(-1.7e308, -1e-320)
_EXTREME_SHIFT = st.builds(complex, _EXTREME, st.floats(5e-324, 1.7e308))


def _in_closed_upper_half_plane(estimates, shift):
    """Finite, and below the real axis by no more than the rounding of the inverse,
    which is made before ``- shift`` cancels: relative to max(1, |estimate|, |shift|),
    ``shift`` being that of the stage that gave the estimates (one per row or one)."""
    z = np.asarray(estimates, dtype=complex)
    scale = np.maximum(np.maximum(1.0, np.abs(shift)), np.abs(z))
    return bool(np.all(np.isfinite(z)) and np.all(z.imag >= -_IMAG_FLOOR * scale))


def _each_estimate(x, alpha, real_shift, **kwargs):
    """The result of every estimator on ``x`` at ``alpha``, and the geometric one at
    ``real_shift`` too, under warnings as errors; None where DomainError or
    NumericalError is raised."""
    calls = [(geometric_estimate, alpha), (mobius_estimate, alpha),
             (two_step_mobius, alpha), (geometric_estimate, real_shift)]
    results = []
    for estimate, shift in calls:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            try:
                results.append(estimate(np.array(x), shift, **kwargs))
            except (DomainError, NumericalError):
                results.append(None)
    return results


class TestFiniteOrRaises:
    """At any finite samples and shift an estimate is finite and in the closed upper half
    plane, or the call raises DomainError or NumericalError; no warning escapes."""

    @settings(max_examples=300, deadline=None)
    @given(st.lists(_EXTREME, min_size=1, max_size=8), _EXTREME_SHIFT, _EXTREME)
    @example([1.0, -1.0], 1e-320j, 0.0)
    @example([0.0], 1e-320j, 0.0)
    @example([1.7e308], 1.7e308j, 0.0)
    @example([-1.797e308] * 11 + [0.797e308], 1e-320j, 1e308)  # real-shift mean overflows
    @example([1e-320, -1e-320], 1e-320j, 0.0)  # terms inf and -inf
    @example([0.0], 1843849j, 0.0)  # an estimate 1.2e-9 below the axis, 6e-16 |alpha|
    @example([1e200, -3e200], 1j, 0.0)  # the geometric t*t overflows
    @example([1.0, -3.0, 1e10], 5e-324j, 0.0)  # the geometric u/b and e**J overflow
    def test_one_sample(self, x, alpha, real_shift):
        # a record's alpha is the shift of its last stage, the two-step's second one
        for record in _each_estimate(x, alpha, real_shift):
            assert record is None or _in_closed_upper_half_plane(record.estimate, record.alpha)

    @settings(max_examples=200, deadline=None)
    @given(st.integers(1, 7).flatmap(
        lambda n: st.lists(st.lists(_EXTREME, min_size=n, max_size=n), min_size=1, max_size=3)),
        _EXTREME_SHIFT, _EXTREME)
    def test_rows(self, x, alpha, real_shift):
        results = _each_estimate(x, alpha, real_shift, rows=True)
        for result, shift in zip(results, [alpha, alpha, None, real_shift]):
            if result is not None:
                estimates, failed = result
                if shift is None:  # the two-step: each row's second-stage shift
                    stage = MobiusReciprocal(alpha)
                    shift = estimators._two_step_rows(np.array(x), stage)[2][~failed]
                assert np.all(np.isnan(estimates[failed]))
                assert _in_closed_upper_half_plane(estimates[~failed], shift)
