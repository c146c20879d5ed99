import math
import re

import mpmath
import numpy as np
import pytest

from cqmeans import cauchy
from cqmeans.cauchy import draw
from cqmeans import (
    CauchyParams,
    DomainError,
    MobiusReciprocal,
    NumericalError,
    QuadratureError,
    ShiftedLog,
    asymptotic_variance_geometric,
    asymptotic_variance_mobius,
    asymptotic_variance_two_step,
    cdf,
    cramer_rao_bound,
    density,
    expected_generator_value,
    integrate_real_line,
    quantile,
    sample,
    zolotarev_second_moment,
)

STANDARD = CauchyParams(0.0, 1.0)


def trapezoid_mean_square_angle(mu, sigma, alpha, k=2**21):
    """Independent oracle for E[angle(X + alpha)^2], X ~ C(mu, sigma).

    Tangent substitution x = m + sigma*tan(t) turns the Cauchy weight into
    1/pi on (-pi/2, pi/2); plain high-resolution trapezoid from there.
    """
    m = mu + alpha.real
    c = alpha.imag
    t = np.linspace(-math.pi / 2, math.pi / 2, k + 1)[1:-1]
    vals = np.arctan2(c, m + sigma * np.tan(t)) ** 2 / math.pi
    endpoint_avg = 0.5 * (0.0 + math.pi**2 / math.pi)
    return (math.pi / k) * (vals.sum() + endpoint_avg)


class TestParams:
    def test_polar_form(self):
        p = CauchyParams(1.0, 1.0)
        assert p.gamma == 1 + 1j
        assert p.r == pytest.approx(math.sqrt(2.0), rel=1e-15)
        assert p.theta == pytest.approx(math.pi / 4, rel=1e-15)

    def test_validation(self):
        with pytest.raises(DomainError):
            CauchyParams(0.0, 0.0)
        with pytest.raises(DomainError):
            CauchyParams(0.0, -1.0)
        with pytest.raises(DomainError):
            CauchyParams(math.nan, 1.0)


class TestDensityCdfQuantile:
    def test_density_values(self):
        assert density(STANDARD, 0.0) == pytest.approx(1.0 / math.pi, rel=1e-15)
        assert density(STANDARD, 1.0) == pytest.approx(1.0 / (2 * math.pi), rel=1e-15)
        assert density(CauchyParams(2.0, 3.0), 2.0) == pytest.approx(
            1.0 / (3 * math.pi), rel=1e-15
        )

    def test_cdf_quantile_round_trip(self):
        p = CauchyParams(-1.5, 0.7)
        q = np.linspace(0.01, 0.99, 41)
        assert np.allclose(cdf(p, quantile(p, q)), q, atol=1e-12)

    def test_quantile_domain(self):
        with pytest.raises(DomainError):
            quantile(STANDARD, 0.0)
        with pytest.raises(DomainError):
            quantile(STANDARD, 1.0)

    def test_scalars_give_floats_and_arrays_arrays(self):
        p = CauchyParams(1.0, 2.0)
        x = np.array([-1.0, 1.0, 3.0])
        assert density(p, x).tolist() == [density(p, v) for v in x.tolist()]
        for f in (cdf, quantile):
            assert type(f(p, 0.5)) is float
        assert cdf(p, 3.0) == 0.75
        assert quantile(p, 0.75) == pytest.approx(3.0, rel=1e-15)

    def test_quantile_rejects_nan(self):
        with pytest.raises(DomainError):
            quantile(STANDARD, math.nan)
        with pytest.raises(DomainError):
            quantile(STANDARD, [0.5, math.nan])

    def test_quantile_overflow_names_the_params(self):
        huge = CauchyParams(0.0, 1e308)
        message = (r"^quantile: mu \+ sigma \* tan\(pi \* \(q - 1/2\)\) overflows at "
                   r"CauchyParams\(mu=0.0, sigma=1e\+308\)$")
        with pytest.raises(NumericalError, match=message):
            quantile(huge, 0.99)
        with pytest.raises(NumericalError, match=message):
            quantile(huge, [0.5, 0.01])
        assert quantile(huge, 0.75) == pytest.approx(1e308, rel=1e-15)

    def test_density_at_a_tiny_scale(self):
        tiny = CauchyParams(0.0, 1e-200)
        assert density(tiny, 0.0) == 1.0 / (math.pi * 1e-200)
        assert density(tiny, 1e-100) == pytest.approx(1.0 / math.pi, rel=1e-15)
        # t = (x - mu)/sigma overflows, and x - mu too
        assert density(tiny, np.array([1e200, -1.7e308])).tolist() == [0.0, 0.0]
        # t^2 would overflow but t does not: (sigma/pi)/x^2, a normal float
        assert density(CauchyParams(0.0, 1e-10), 1e145) == pytest.approx(
            1e-10 / math.pi / 1e290, rel=1e-15)
        with pytest.raises(NumericalError, match=r"^density: 1/\(pi sigma\) at "
                                                 r"CauchyParams\(mu=0.0, sigma=1e-310\) overflows$"):
            density(CauchyParams(0.0, 1e-310), 0.0)


class TestSampling:
    def test_zero_count(self):
        assert len(sample(STANDARD, 3, 0)) == 0

    def test_negative_count(self):
        with pytest.raises(DomainError, match="^sample: count must be at least 0, got -1$"):
            sample(STANDARD, 3, -1)

    def test_determinism(self):
        a = sample(CauchyParams(2.0, 3.0), 12345, 1000)
        b = sample(CauchyParams(2.0, 3.0), 12345, 1000)
        assert np.array_equal(a, b)

    def test_median_near_location(self):
        x = sample(STANDARD, 1, 100_000)
        assert abs(np.median(x)) < 0.02

    def test_quartiles_near_scale(self):
        # IQR of C(mu, sigma) is 2*sigma
        x = sample(CauchyParams(0.0, 2.0), 9, 100_000)
        q25, q75 = np.quantile(x, [0.25, 0.75])
        assert (q75 - q25) / 2 == pytest.approx(2.0, rel=0.03)


class _ZeroFirst:
    """Stand-in numpy Generator whose first variate is exactly 0."""

    def __init__(self):
        self.requests = []

    def random(self, *, out):
        """``numpy.random.Generator.random`` filling ``out``."""
        out[:] = 0.75
        if not self.requests:
            out[0] = 0.0
        self.requests.append(len(out))
        return out


class TestDraw:
    def test_zero_uniform_is_an_ordinary_draw(self):
        rng = _ZeroFirst()
        x = draw(STANDARD, rng, 3)
        assert rng.requests == [3]
        assert x[0] == math.tan(math.pi * -0.5)  # finite in floating point
        assert np.all(x[1:] == math.tan(math.pi * 0.25))

    @pytest.mark.parametrize("params", [
        CauchyParams(0.0, 1e308),  # sigma * tan overflows at the zero uniform
        CauchyParams(1.7e308, 1e307),  # mu + sigma * tan overflows at tan(pi/4) = 1
    ])
    def test_overflowing_draw_raises(self, params):
        message = f"draw: mu + sigma * tan(pi * (u - 0.5)) overflows at {params!r}"
        with pytest.raises(NumericalError, match=f"^{re.escape(message)}$"):
            draw(params, _ZeroFirst(), 3)


class TestExpectedGeneratorValue:
    def test_log_of_standard_parameter(self):
        got = expected_generator_value(STANDARD, ShiftedLog(0.0))
        assert got == pytest.approx(complex(0.0, math.pi / 2), rel=1e-15)

    def test_mobius_of_standard_parameter(self):
        got = expected_generator_value(STANDARD, MobiusReciprocal(1j))
        assert got == pytest.approx(-0.5j, rel=1e-15)

    def test_log_at_shifted_parameter(self):
        got = expected_generator_value(CauchyParams(1.0, 1.0), ShiftedLog(0.0))
        assert got == pytest.approx(complex(math.log(math.sqrt(2.0)), math.pi / 4),
                                    rel=1e-14)

    def test_needs_a_generator(self):
        with pytest.raises(TypeError, match="need a Generator instance"):
            expected_generator_value(STANDARD, lambda z: z)

    def test_reciprocal_expectation_inverts_to_gamma(self):
        rng = np.random.default_rng(2)
        for _ in range(50):
            p = CauchyParams(rng.uniform(-5, 5), rng.uniform(0.1, 4))
            alpha = complex(rng.uniform(-5, 5), rng.uniform(0.05, 4))
            w = expected_generator_value(p, MobiusReciprocal(alpha))
            assert 1.0 / w - alpha == pytest.approx(p.gamma, rel=1e-12)


class TestIntegrateRealLine:
    def test_normalization_of_standard_density(self):
        val, err = integrate_real_line(lambda x: density(STANDARD, x), 1e-10)
        assert abs(val - 1.0) < 1e-10
        assert err <= 1e-10

    def test_normalization_of_narrow_shifted_density(self):
        p = CauchyParams(5.0, 0.1)
        val, _ = integrate_real_line(
            lambda x: density(p, x), 1e-10, center=p.mu, halfwidth=p.sigma
        )
        assert abs(val - 1.0) < 1e-10

    def test_failure_carries_best_value(self):
        with pytest.raises(QuadratureError) as excinfo:
            integrate_real_line(lambda x: density(STANDARD, x), 1e-30)
        assert excinfo.value.value == pytest.approx(1.0, rel=1e-8)
        assert excinfo.value.error_estimate > 1e-30
        assert str(excinfo.value).endswith(f"(best value {excinfo.value.value!r}, "
                                           f"error estimate {excinfo.value.error_estimate!r})")

    def test_tolerance_below_the_rounding_floor_stops_early(self):
        # the floor 50 eps |value| alone passes 1e-30, and no bisection can lower it
        calls = []

        def integrand(x):
            calls.append(x)
            return density(STANDARD, x)

        with pytest.raises(QuadratureError) as excinfo:
            integrate_real_line(integrand, 1e-30)
        assert excinfo.value.value == pytest.approx(1.0, rel=1e-8)
        assert len(calls) < 100

    def test_nan_error_estimate_is_quadrature_error(self):
        # a nan integrand gives every panel a nan error estimate, which is no pass
        with pytest.raises(QuadratureError, match="error estimate nan"):
            integrate_real_line(lambda x: math.nan, 1e-10)

    def test_invalid_tolerance(self):
        with pytest.raises(DomainError):
            integrate_real_line(lambda x: 0.0, 0.0)

    def test_narrow_density_off_the_default_center(self):
        # in t the mass of C(1e3, 0.1) sits within 1e-7 of t = atan(1e3), 1e-3 from pi/2
        p = CauchyParams(1e3, 0.1)
        val, err = integrate_real_line(lambda x: density(p, x), 1e-10)
        assert abs(val - 1.0) < 1e-10
        assert err <= 1e-10

    @pytest.mark.parametrize("integrand, exact", [
        (lambda x: math.exp(-x * x), math.sqrt(math.pi)),
        (lambda x: 1.0 / (1.0 + x**4), math.pi / math.sqrt(2.0)),
    ], ids=["gaussian", "quartic"])
    def test_smooth_integrands(self, integrand, exact):
        val, _ = integrate_real_line(integrand, 1e-12)
        assert abs(val - exact) < 1e-12

    def test_invalid_halfwidth(self):
        for halfwidth in (0.0, -1.0):
            with pytest.raises(DomainError, match="halfwidth must be positive"):
                integrate_real_line(lambda x: 0.0, 1e-10, halfwidth=halfwidth)


class TestGeometricVarianceLimit:
    def test_standard_alpha_zero_closed_form(self):
        got = asymptotic_variance_geometric(STANDARD, 0.0)
        assert abs(got.nvar_limit - math.pi**2 / 2) < 1e-9
        assert got.shifted_angle == pytest.approx(math.pi / 2, rel=1e-15)
        assert got.clt_scalar == pytest.approx(got.nvar_limit / 2, rel=1e-15)

    def test_shifted_location_closed_form(self):
        # gamma = 1 + i has r^2 = 2, theta = pi/4: limit 2 r^2 theta (pi-theta)
        got = asymptotic_variance_geometric(CauchyParams(1.0, 1.0), 0.0)
        assert got.nvar_limit == pytest.approx(3 * math.pi**2 / 4, rel=1e-12)

    def test_real_alpha_matches_polar_special_case(self):
        rng = np.random.default_rng(4)
        for _ in range(50):
            p = CauchyParams(rng.uniform(-4, 4), rng.uniform(0.2, 3))
            a = rng.uniform(-4, 4)
            got = asymptotic_variance_geometric(p, a).nvar_limit
            # shifting the location by a real alpha is the alpha = 0 case of
            # the shifted distribution: 2 r'^2 theta' (pi - theta')
            r2 = (p.mu + a) ** 2 + p.sigma**2
            th = math.atan2(p.sigma, p.mu + a)
            assert got == pytest.approx(2 * r2 * th * (math.pi - th), rel=1e-10)

    def test_quadrature_path_approaches_real_alpha_limit(self):
        got = asymptotic_variance_geometric(STANDARD, 1e-8j)
        assert abs(got.nvar_limit - math.pi**2 / 2) < 1e-6

    def test_quadrature_path_converges_to_closed_form(self):
        closed = asymptotic_variance_geometric(CauchyParams(0.5, 2.0), 1.0).nvar_limit
        gaps = [
            abs(asymptotic_variance_geometric(CauchyParams(0.5, 2.0),
                                              1.0 + eps * 1j).nvar_limit - closed)
            for eps in (1e-2, 1e-4, 1e-6, 1e-8)
        ]
        assert gaps[0] > gaps[1] > gaps[2] > gaps[3]
        assert gaps[3] < 1e-5

    def test_mean_square_angle_against_trapezoid_oracle(self):
        for mu, sigma, alpha in ((0.0, 1.0, 1j), (1.0, 1.0, 0.5 + 2j),
                                 (-2.0, 0.5, -1 + 1j)):
            p = CauchyParams(mu, sigma)
            got = asymptotic_variance_geometric(p, alpha)
            oracle_sq = trapezoid_mean_square_angle(mu, sigma, complex(alpha))
            shifted = p.gamma + alpha
            oracle = 2 * abs(shifted) ** 2 * (oracle_sq - got.shifted_angle**2)
            assert got.nvar_limit == pytest.approx(oracle, rel=1e-9)

    @pytest.mark.parametrize("params", [STANDARD, CauchyParams(2.0, 3.0)])
    @pytest.mark.parametrize("ratio", [1e5, 1e6, 1e8])
    def test_large_shift_approaches_asymptote(self, params, ratio):
        # Var(angle) -> ln 4 * sigma / Im alpha as Im alpha / sigma grows; an
        # independent quadrature gives 1.386284e-5 at 1e5 and 1.386294e-8 at
        # 1e8 for C(0, 1), against ln 4 * 1e-5 and ln 4 * 1e-8
        alpha = ratio * params.sigma * 1j
        shifted = params.gamma + alpha
        asymptote = 2 * abs(shifted) ** 2 * math.log(4) / ratio
        got = asymptotic_variance_geometric(params, alpha).nvar_limit
        assert got == pytest.approx(asymptote, rel=1e-3)

    @pytest.mark.parametrize("ratio, before", [
        (1.0, 6.57973626739291), (1e2, 280.8076691022518), (1e4, 27729.43243608525),
    ])
    def test_moderate_shift_keeps_earlier_values(self, ratio, before):
        # reference values from E theta^2 - theta_a^2, which does not cancel
        # at these shifts
        got = asymptotic_variance_geometric(STANDARD, ratio * 1j).nvar_limit
        assert got == pytest.approx(before, rel=1e-9)

    def test_nonpositive_angle_variance_is_numerical_error(self, monkeypatch):
        # at alpha = i on C(0, 1), h = 1/2 > |p0|/4: the Li2 form, here forced below 0
        monkeypatch.setattr(cauchy, "_li2", lambda t: complex(1.0, 0.0))
        with pytest.raises(NumericalError, match="not positive"):
            asymptotic_variance_geometric(STANDARD, 1j)

    def test_alpha_below_axis_rejected(self):
        with pytest.raises(DomainError):
            asymptotic_variance_geometric(STANDARD, -1j)

    def test_never_below_cramer_rao(self):
        rng = np.random.default_rng(8)
        for _ in range(30):
            p = CauchyParams(rng.uniform(-3, 3), rng.uniform(0.2, 3))
            alpha = complex(rng.uniform(-3, 3), rng.uniform(0.0, 3))
            got = asymptotic_variance_geometric(p, alpha).nvar_limit
            assert got >= cramer_rao_bound(p, 1) - 1e-7


def fourier_angle_variance(mu, sigma, alpha):
    """Var(angle(X + alpha)), X ~ C(mu, sigma), at 120 digits, from the Fourier
    series of the wrapped Cauchy 2 atan Y (before Landen's identity):
    pi^2/12 + Re Li2(-z) - arg(1 + z)^2 with z = (1 + i g)/(1 - i g) and
    g = (mu + Re alpha + i sigma)/Im alpha, all on the exact float inputs;
    at |g| = 1e20 the terms cancel to 1e-35 of Var, so 50 digits are too few.
    """
    with mpmath.workdps(120):
        b = mpmath.mpf(alpha.imag)
        g = mpmath.mpc(mpmath.mpf(mu) + mpmath.mpf(alpha.real), sigma) / b
        z = (1 + 1j * g) / (1 - 1j * g)
        return mpmath.pi**2 / 12 + mpmath.re(mpmath.polylog(2, -z)) - mpmath.arg(1 + z) ** 2


class TestAngleVarianceClosedForm:
    @pytest.mark.parametrize("sigma", [1e-3, 1.0, 1e3])
    def test_against_120_digit_reference(self, sigma):
        # Im alpha / sigma over 1e-8..1e12, (mu + Re alpha) / Im alpha 0 or
        # +-1e-8..1e6, 1e12, 9e16 and past the real-shift edge at 1e17; both
        # branches of the closed form and the real-shift form are on this grid
        offsets = [*np.geomspace(1e-8, 1e6, 8), 1e12, 9e16, 1e17, 1e20]
        worst = 0.0
        for ratio in np.geomspace(1e-8, 1e12, 15):
            for offset in [0.0] + [sign * o for o in offsets for sign in (1, -1)]:
                mu, b = 0.3 * sigma, float(ratio) * sigma
                alpha = complex(float(offset) * b - mu, b)
                got = cauchy._angle_variance(CauchyParams(mu, sigma), alpha)
                want = fourier_angle_variance(mu, sigma, alpha)
                worst = max(worst, float(abs(got - want) / want))
        assert worst <= 1e-13

    def test_li2_against_mpmath(self):
        # relative to max(1, |Li2|): near t = 0, 1 - t rounds and Li2 ~ t is
        # only absolutely accurate, which is all the closed form needs
        rng = np.random.default_rng(12)
        points = [complex(re, im) for re, im in zip(rng.uniform(-30, 0.5, 300),
                                                     rng.uniform(-30, 30, 300))]
        points += [0j, 1e-300 + 0j, -1.0 + 0j, 0.5 + 0.866j, 0.5 - 2j, -1e12 + 1e-3j]
        for t in points:
            want = mpmath.polylog(2, t)
            assert abs(cauchy._li2(t) - complex(want)) <= 1e-15 * max(abs(want), 1.0)

    def test_tiny_scale_at_unit_shift(self):
        # sigma^2 underflows to 0 at the centre; Var(angle) ~ ln 4 * sigma here
        got = asymptotic_variance_geometric(CauchyParams(0.0, 1e-300), 1j).nvar_limit
        assert got == pytest.approx(2 * math.log(4) * 1e-300, rel=1e-12, abs=0)

    def test_far_location_at_small_shift(self):
        # (mu + Re alpha)/Im alpha = 1e170, so p0^2 would overflow; Var ~ pi s/m
        # there, and the limit 2 |gamma + alpha|^2 pi s/m is 2 pi sigma mu
        got = asymptotic_variance_geometric(CauchyParams(1e100, 1e-80), 1e-70j).nvar_limit
        assert got == pytest.approx(2 * math.pi * 1e20, rel=1e-12)

    @pytest.mark.parametrize("mu", [1e10, 1e15])
    def test_real_shift_far_from_the_origin(self, mu):
        # pi^2 cdf - theta^2 cancelled here: 2e-7 off at 1e10, 13% at 1e15
        with mpmath.workdps(120):
            theta = mpmath.atan2(1, mu)
            want = theta * (mpmath.pi - theta)
        got = cauchy._angle_variance(CauchyParams(mu, 1.0), 0j)
        assert abs(got - want) <= 1e-15 * want

    def test_far_location_at_a_shift_far_below_it(self):
        # Im alpha = 1e-310 (mu + Re alpha), so (mu + Re alpha) / Im alpha would
        # overflow; the shift is real to double precision, and the limit
        # 2 |gamma + alpha|^2 theta (pi - theta) is about 2 pi sigma mu
        got = asymptotic_variance_geometric(CauchyParams(1e150, 1e-150), 1e-160j).nvar_limit
        assert got == pytest.approx(2 * math.pi, rel=1e-15)

    @pytest.mark.parametrize("params, alpha, before", [
        (STANDARD, 1e-320j, 4.934802200544679),
        (CauchyParams(0.0, 1e10), 1e-300j, 4.934802200544679e+20),
    ])
    def test_tiny_shift_keeps_real_shift_values(self, params, alpha, before):
        assert asymptotic_variance_geometric(params, alpha).nvar_limit == before


class TestTwoStepVarianceLimit:
    def test_eight_sigma_squared_at_any_pilot(self):
        for alpha in (1j, 3 + 0.5j, -2 + 7j):
            got = asymptotic_variance_two_step(CauchyParams(1.0, 1.5), alpha)
            assert (got.nvar_limit, got.clt_scalar) == (18.0, 9.0)
            assert got.estimator == "two_step_mobius"

    def test_pilot_on_axis_rejected(self):
        with pytest.raises(DomainError):
            asymptotic_variance_two_step(STANDARD, 1.0)


class TestMobiusVarianceLimit:
    def test_reference_values(self):
        assert asymptotic_variance_mobius(STANDARD, 1j).nvar_limit == 4.0
        assert asymptotic_variance_mobius(STANDARD, 2j).nvar_limit == 4.5
        assert asymptotic_variance_mobius(CauchyParams(1.0, 1.0), 1j).nvar_limit == 5.0

    def test_alpha_on_or_below_axis_rejected(self):
        with pytest.raises(DomainError):
            asymptotic_variance_mobius(STANDARD, 1.0)
        with pytest.raises(DomainError):
            asymptotic_variance_mobius(STANDARD, 1 - 1j)

    def test_diverges_as_alpha_approaches_real_axis(self):
        got = asymptotic_variance_mobius(STANDARD, 1e-6j).nvar_limit
        assert got > 1e5

    def test_cramer_rao_attained_only_at_optimum(self):
        rng = np.random.default_rng(10)
        for _ in range(20):
            p = CauchyParams(rng.uniform(-3, 3), rng.uniform(0.2, 3))
            floor = cramer_rao_bound(p, 1)
            best = complex(-p.mu, p.sigma)
            assert asymptotic_variance_mobius(p, best).nvar_limit == pytest.approx(
                floor, rel=1e-14
            )
            for _ in range(20):
                alpha = complex(rng.uniform(-4, 4), rng.uniform(0.05, 4))
                got = asymptotic_variance_mobius(p, alpha).nvar_limit
                assert got >= floor * (1 - 1e-14)
                if abs(alpha - best) > 1e-3:
                    assert got > floor

    def test_optimum_is_stationary(self):
        p = CauchyParams(1.5, 0.8)
        best = complex(-p.mu, p.sigma)
        h = 1e-6

        def v(a):
            return asymptotic_variance_mobius(p, a).nvar_limit

        d_re = (v(best + h) - v(best - h)) / (2 * h)
        d_im = (v(best + 1j * h) - v(best - 1j * h)) / (2 * h)
        assert abs(d_re) < 1e-6
        assert abs(d_im) < 1e-6


class TestScalarTheory:
    def test_cramer_rao_values(self):
        assert cramer_rao_bound(STANDARD, 1) == 4.0
        assert cramer_rao_bound(CauchyParams(0.0, 3.0), 100) == pytest.approx(0.36)
        # n * bound is constant in n
        assert 10**6 * cramer_rao_bound(STANDARD, 10**6) == pytest.approx(4.0)
        with pytest.raises(DomainError):
            cramer_rao_bound(STANDARD, 0)

    def test_zolotarev_values(self):
        assert zolotarev_second_moment(STANDARD) == pytest.approx(math.pi**2 / 4,
                                                                  rel=1e-15)
        want = math.log(math.sqrt(2.0)) ** 2 + 3 * math.pi**2 / 16
        assert zolotarev_second_moment(CauchyParams(1.0, 1.0)) == pytest.approx(
            want, rel=1e-14
        )

    def test_zolotarev_monte_carlo_cross_check(self):
        x = sample(STANDARD, 2024, 1_000_000)
        values = np.log(np.abs(x)) ** 2
        se = values.std(ddof=1) / math.sqrt(len(values))
        assert abs(values.mean() - math.pi**2 / 4) < 3 * se

    def test_small_moment_trend_toward_log_scale(self):
        # E[|X|^x]^(1/x) decreases to exp(E[log|X|]) = r = 1 as x -> 0+
        x = np.abs(sample(STANDARD, 77, 1_000_000))
        values = [np.mean(x**e) ** (1.0 / e) for e in (0.1, 0.05, 0.025)]
        assert values[0] > values[1] > values[2] > 1.0
        assert values[2] < 1.05
