import math

import numpy as np
import pytest

from cqmeans import (
    CauchyParams,
    CayleyDisk,
    DomainError,
    estimators,
    geometric_estimate,
    mobius_estimate,
    qam,
    sample,
    sign_dichotomy,
    two_step_mobius,
)
from cqmeans.estimators import KINDS

STANDARD = CauchyParams(0.0, 1.0)


def draws(params, seed, shape):
    rng = np.random.default_rng(seed)
    u = rng.random(shape)
    return params.mu + params.sigma * np.tan(math.pi * (u - 0.5))


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

    def test_matches_ratio_form(self):
        rng = np.random.default_rng(12)
        for _ in range(100):
            x = rng.standard_cauchy(rng.integers(1, 40))
            alpha = complex(rng.uniform(-3, 3), rng.uniform(0.1, 3))
            got = mobius_estimate(x, alpha).estimate
            ratio = np.sum(x / (x + alpha)) / np.sum(1.0 / (x + alpha))
            assert got == pytest.approx(complex(ratio), rel=1e-12, abs=1e-12)

    def test_matches_cayley_path(self):
        rng = np.random.default_rng(14)
        for _ in range(100):
            x = rng.standard_cauchy(rng.integers(1, 25))
            alpha = complex(rng.uniform(-2, 2), rng.uniform(0.2, 2))
            a = mobius_estimate(x, alpha).estimate
            b = qam(CayleyDisk(alpha), x)
            assert a == pytest.approx(b, rel=1e-10, abs=1e-10)

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

    def test_minimum_sample_count(self):
        with pytest.raises(DomainError):
            two_step_mobius([1.0] * 5, 1j)

    def test_pilot_alpha_constraint(self):
        with pytest.raises(DomainError):
            two_step_mobius([1.0] * 6, 1.0)

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
        for i in range(m_reps):
            ests[i] = two_step_mobius(x[i], pilot).estimate
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
        with pytest.raises(DomainError):
            sign_dichotomy([1.0, -2.0], 2.0)

    def test_equivalent_to_exact_zero_imaginary(self):
        rng = np.random.default_rng(18)
        for _ in range(2_000):
            n = rng.integers(2, 7)
            x = rng.standard_cauchy(n)
            same_sign = sign_dichotomy(x, 0.0)
            rec = geometric_estimate(x, 0.0)
            assert same_sign == (rec.estimate.imag == 0.0)

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
