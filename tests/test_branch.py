import math
import struct

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cqmeans import DomainError, branch_arg, branch_log, branch_pow

QUARTER_TURN = math.pi / 2
RANGE_SUP = 1.5 * math.pi


def ulps(x, n=4):
    return n * np.spacing(np.maximum(1.0, np.abs(x)))


def random_nonzero_complex(rng, size):
    """Random points covering all four quadrants and both axes."""
    z = rng.standard_cauchy(size) + 1j * rng.standard_cauchy(size)
    axis = rng.random(size)
    z[axis < 0.1] = z[axis < 0.1].real
    z[axis > 0.9] = 1j * z[axis > 0.9].imag
    return z[z != 0]


def test_arg_axis_values():
    assert branch_arg(1.0) == 0.0
    assert branch_arg(-1.0) == math.pi
    assert branch_arg(1j) == QUARTER_TURN
    assert branch_arg(-1j) == -QUARTER_TURN


def test_arg_cut_is_closed_left_end():
    # anywhere on the cut {Re z = 0, Im z < 0} returns exactly -pi/2
    for im in (-1e-300, -1.0, -3.5e200):
        assert branch_arg(complex(0.0, im)) == -QUARTER_TURN
        assert branch_arg(complex(-0.0, im)) == -QUARTER_TURN


def test_arg_signed_zero_normalization():
    assert branch_arg(complex(1.0, -0.0)) == 0.0
    assert branch_arg(complex(-1.0, -0.0)) == math.pi
    assert branch_arg(complex(-0.0, 1.0)) == QUARTER_TURN


def test_arg_range_property():
    rng = np.random.default_rng(20240811)
    z = random_nonzero_complex(rng, 100_000)
    theta = branch_arg(z)
    assert np.all(theta >= -QUARTER_TURN)
    assert np.all(theta < RANGE_SUP)
    # reconstruction z = |z| exp(i theta)
    recon = np.abs(z) * np.exp(1j * theta)
    assert np.allclose(recon, z, rtol=1e-14, atol=0)


def test_arg_one_ulp_left_of_cut_stays_in_range():
    z = complex(-5e-324, -1.0)
    theta = branch_arg(z)
    assert -QUARTER_TURN <= theta < RANGE_SUP


def test_arg_upper_half_plane_within_0_pi():
    rng = np.random.default_rng(42)
    z = rng.standard_normal(20_000) + 1j * np.abs(rng.standard_normal(20_000))
    z = z[z != 0]
    theta = branch_arg(z)
    assert np.all(theta >= 0.0)
    assert np.all(theta <= math.pi)


def bits(x):
    """The float's bytes, so that 0.0 and -0.0 differ."""
    return struct.pack("<d", float(x))


_TINY = 5e-324  # smallest subnormal: one ulp either side of zero
# axis coordinates, signed zeros and the coordinates of points one ulp either
# side of the cut {Re z = 0, Im z < 0}
_EDGE = st.sampled_from([0.0, -0.0, _TINY, -_TINY, 1.0, -1.0, 2.5, -2.5, 1e300, -1e300])
_FINITE = st.floats(allow_nan=False, allow_infinity=False)
_POINTS = st.one_of(
    st.builds(complex, _FINITE, _FINITE),
    st.builds(complex, _EDGE, _FINITE),
    st.builds(complex, _FINITE, _EDGE),
    st.builds(complex, _EDGE, _EDGE),
).filter(lambda z: z != 0)


@settings(max_examples=400, deadline=None)
@given(_POINTS)
@example(complex(0.0, -1.0))
@example(complex(-0.0, -1.0))
@example(complex(_TINY, -1.0))
@example(complex(-_TINY, -1.0))
@example(complex(-1.0, 0.0))
@example(complex(-1.0, -0.0))
@example(complex(2.0, -_TINY))
def test_log_is_log_modulus_plus_i_arg_bit_for_bit(z):
    # evaluated in numpy as branch_log does: 1j * -0.0 has imaginary part +0.0,
    # so at arg = -0.0 (just below the positive real axis) Im log z is +0.0
    want = np.log(np.abs(np.asarray(z))) + 1j * np.asarray(branch_arg(z))
    out = branch_log(z)
    assert type(out) is complex
    assert (bits(out.real), bits(out.imag)) == (bits(want.real), bits(want.imag))


@settings(max_examples=100, deadline=None)
@given(st.lists(_POINTS, min_size=1, max_size=20))
def test_log_is_log_modulus_plus_i_arg_on_arrays(zs):
    z = np.array(zs, dtype=complex)
    want = np.log(np.abs(z)) + 1j * branch_arg(z)
    assert branch_log(z).tobytes() == want.tobytes()


def test_log_values():
    assert branch_log(-1.0) == complex(0.0, math.pi)
    assert branch_log(1.0) == 0.0
    assert branch_log(1j) == complex(0.0, QUARTER_TURN)


def test_log_negative_reals_match_real_log_plus_i_pi():
    for x in (-0.25, -1.0, -7.5, -1e8):
        got = branch_log(x)
        assert got.real == pytest.approx(math.log(abs(x)), rel=1e-15)
        assert got.imag == math.pi


def test_exp_log_round_trip():
    # angles reach 3*pi/2 on this branch, so the representable-angle rounding
    # alone contributes ~2*pi*eps*|z|; 16 ulps of |z| is the honest ulp-scale
    # bound (measured maximum is ~8.5)
    rng = np.random.default_rng(7)
    z = random_nonzero_complex(rng, 50_000)
    back = np.exp(branch_log(z))
    assert np.all(np.abs(back - z) <= 16 * np.spacing(np.abs(z)))


def test_pow_square_root_of_minus_one_is_i():
    got = branch_pow(-1.0, 0.5)
    assert abs(got - 1j) <= ulps(1.0)


def test_pow_positive_reals_are_real():
    rng = np.random.default_rng(11)
    x = np.exp(rng.uniform(-8, 8, 5000))
    p = rng.uniform(-1, 1, 5000)
    got = branch_pow(x, 0.37)
    assert np.all(got.imag == 0.0)
    for xi, pi_ in zip(x[:200], p[:200]):
        assert branch_pow(xi, pi_).real == pytest.approx(xi**pi_, rel=1e-13)


def test_pow_four_to_half_is_two():
    assert branch_pow(4.0, 0.5).real == pytest.approx(2.0, rel=4e-16)
    assert branch_pow(4.0, 0.5).imag == 0.0


def test_pow_negative_real_formula():
    # x < 0: x^p = (-x)^p * exp(i pi p)
    for x, p in ((-2.0, 0.3), (-5.5, -0.7), (-1.0, 1.0 / 3.0)):
        expected = (-x) ** p * complex(math.cos(math.pi * p), math.sin(math.pi * p))
        assert branch_pow(x, p) == pytest.approx(expected, rel=1e-14)


def test_product_of_roots_differs_from_root_of_product():
    root = branch_pow(-1.0, 0.5)
    prod_of_roots = root * root
    root_of_prod = branch_pow((-1.0) * (-1.0), 0.5)
    assert prod_of_roots == pytest.approx(-1.0, abs=1e-15)
    assert root_of_prod == pytest.approx(1.0, abs=1e-15)
    assert abs(prod_of_roots - root_of_prod) > 1.0


def test_pow_modulus_identity():
    rng = np.random.default_rng(13)
    z = random_nonzero_complex(rng, 10_000)
    for p in (-0.8, 0.5, 0.25, 2.0):
        got = np.abs(branch_pow(z, p))
        want = np.abs(z) ** p
        assert np.allclose(got, want, rtol=1e-12)


def test_zero_and_nonfinite_inputs_raise():
    with pytest.raises(DomainError):
        branch_arg(0.0)
    with pytest.raises(DomainError):
        branch_log(0j)
    with pytest.raises(DomainError):
        branch_pow(0.0, 0.5)
    with pytest.raises(DomainError):
        branch_log(complex(math.inf, 0.0))
    with pytest.raises(DomainError):
        branch_arg(complex(math.nan, 1.0))
    with pytest.raises(DomainError):
        branch_arg(np.array([1.0, 0.0, 2.0]))
