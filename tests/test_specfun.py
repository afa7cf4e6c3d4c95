import math
import warnings

import mpmath as mp
import numpy as np
import pytest

from neumann_sici import specfun as sf
from neumann_sici.specfun import (
    CONSTANTS,
    bessel_j,
    bessel_j_all,
    bessel_y,
    ci,
    clausen_odd,
    eta,
    gamma_log_minus_ci,
    si,
    zeta,
)

mp.mp.dps = 40


# ---------------------------------------------------------------------------
# constants
# ---------------------------------------------------------------------------

def test_named_constants_full_double_precision():
    assert CONSTANTS.euler_gamma == pytest.approx(float(mp.euler), abs=1e-16)
    assert CONSTANTS.catalan_g == pytest.approx(float(mp.catalan), abs=1e-16)
    assert CONSTANTS.log2 == pytest.approx(math.log(2.0), abs=1e-16)
    assert CONSTANTS.zeta3 == pytest.approx(float(mp.zeta(3)), abs=1e-16)
    assert CONSTANTS.pi == math.pi


# ---------------------------------------------------------------------------
# Bessel J
# ---------------------------------------------------------------------------

def test_bessel_j_at_zero_argument():
    assert bessel_j(0, 0.0) == 1.0
    assert bessel_j(1, 0.0) == 0.0
    assert bessel_j(7, 0.0) == 0.0


def _j_series_oracle(order, x, terms=50):
    # brute-force power series in 40-digit arithmetic
    with mp.workdps(50):
        half = mp.mpf(x) / 2
        total = mp.mpf(0)
        for k in range(terms):
            total += (-1) ** k * half ** (2 * k + order) / (mp.factorial(k) * mp.factorial(k + order))
        return float(total)


def test_bessel_j_small_argument_matches_series_oracle():
    assert abs(bessel_j(0, 2.0) - _j_series_oracle(0, 2.0)) <= 1e-13


@pytest.mark.parametrize("order", [0, 1, 2, 5, 13, 20, 50, 120, 200])
@pytest.mark.parametrize("x", [0.05, 0.7, 2.0, 7.9, 8.1, 16.0, 25.5, 47.0, 100.0])
def test_bessel_j_absolute_accuracy(order, x):
    assert abs(bessel_j(order, x) - float(mp.besselj(order, x))) <= 1e-13


def test_bessel_j_domain_errors():
    with pytest.raises(ValueError):
        bessel_j(-1, 1.0)
    with pytest.raises(ValueError):
        bessel_j(0, -0.5)


def _close_to_mpmath(value, ref, rel):
    # relative to the reference, or within two subnormal steps of it
    return abs(value - ref) <= rel * abs(ref) or abs(value - ref) <= 1e-323


@pytest.mark.parametrize("x", [1e-100, 1e-60, 5e-324])
@pytest.mark.parametrize("nmax", [0, 3, 161])
def test_bessel_j_all_tiny_arguments_match_mpmath(nmax, x):
    # the Miller recurrence overflowed to nan below about 1e-57
    j = bessel_j_all(nmax, x)
    assert len(j) == nmax + 1
    for n, v in enumerate(j):
        ref = float(mp.besselj(n, mp.mpf(x)))
        # the series' first term goes through log/exp: ~1e-13 relative here
        assert _close_to_mpmath(v, ref, 2e-13), (n, v, ref)
        assert v == bessel_j(n, x)


@pytest.mark.parametrize("order", [0, 1, 3, 20])
def test_bessel_j_subnormal_argument(order):
    # x / 2 underflows to 0, which used to reach math.log
    x = 5e-324
    ref = float(mp.besselj(order, mp.mpf(x)))
    assert bessel_j(order, x) == ref
    assert bessel_j(order, np.array([x, 1e-100]))[0] == ref


@pytest.mark.parametrize("nmax", [0, 30])
def test_bessel_j_all_on_both_sides_of_its_range_limits(nmax):
    # (x/2)^2 = 2^-53 (first terms below, Miller above) and the Hankel
    # threshold max(25, nmax^2/2) (Miller below, bessel_j's Hankel above)
    tiny = 2.0**-25.5
    hankel = max(25.0, 0.5 * nmax * nmax)
    for x in (tiny * (1 - 1e-9), tiny * (1 + 1e-9), hankel * (1 - 1e-9), hankel):
        for n, v in enumerate(bessel_j_all(nmax, x)):
            assert abs(v - float(mp.besselj(n, x))) <= 1e-13, (x, n)


@pytest.mark.parametrize("a", [0.5, 1.0, 2.0, 5.0, 10.0, 20.0])
def test_even_order_normalization(a):
    # J_0(a) + 2 sum_{n=1..N} J_{2n}(a) = 1 with N = ceil(a) + 40
    n_top = math.ceil(a) + 40
    j = bessel_j_all(2 * n_top, a)
    total = j[0] + 2.0 * math.fsum(j[2 * n] for n in range(1, n_top + 1))
    assert abs(total - 1.0) <= 1e-12


@pytest.mark.parametrize("x", [0.1, 1.0, 5.0, 17.3, 50.0])
def test_three_term_recurrence(x):
    j = bessel_j_all(101, x)
    for n in range(1, 100):
        lhs = j[n - 1] + j[n + 1]
        rhs = (2.0 * n / x) * j[n]
        scale = max(abs(j[n - 1]), abs(j[n]), abs(j[n + 1]))
        if scale == 0.0:  # underflowed to zero far above the order
            continue
        assert abs(lhs - rhs) <= 1e-11 * scale


# ---------------------------------------------------------------------------
# Bessel Y
# ---------------------------------------------------------------------------

def test_bessel_y_small_x_log_behaviour():
    # Y_0(x) - (2/pi)(log(x/2) + gamma) -> 0 like x^2 log x
    for x in (1e-6, 1e-4, 1e-2, 0.1):
        rem = bessel_y(0, x) - (2.0 / math.pi) * (math.log(0.5 * x) + CONSTANTS.euler_gamma)
        assert abs(rem) <= x * x * (abs(math.log(x)) + 2.0)


def test_bessel_y0_first_zero_by_bisection():
    lo, hi = 0.5, 1.5
    assert bessel_y(0, lo) < 0 < bessel_y(0, hi)
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        if bessel_y(0, mid) < 0:
            lo = mid
        else:
            hi = mid
    zero = 0.5 * (lo + hi)
    assert abs(bessel_y(0, zero)) <= 1e-10
    assert bessel_y(0, zero - 1e-8) < 0 < bessel_y(0, zero + 1e-8)


def test_bessel_y1_is_negative_derivative_of_y0():
    x, h = 5.0, 1e-5
    fd = (bessel_y(0, x + h) - bessel_y(0, x - h)) / (2.0 * h)
    assert abs(bessel_y(1, x) + fd) <= 1e-6


@pytest.mark.parametrize("order", [0, 1])
@pytest.mark.parametrize("x", [1e-4, 0.3, 1.0, 4.0, 8.9, 9.1, 12.0, 16.9, 17.1, 30.0, 64.0, 100.0])
def test_bessel_y_absolute_accuracy(order, x):
    assert abs(bessel_y(order, x) - float(mp.bessely(order, x))) <= 1e-12


@pytest.mark.parametrize("x", [5e-324, 1.5e-323, 1e-310])
def test_bessel_y_subnormal_argument(x):
    # halving x rounds (to 0 at 5e-324, where math.log raised "math domain
    # error"); Y_0 keeps its log-series value and Y_1's -2/(pi x) overflows
    # to -inf, for a float and an array alike
    ref = float(mp.bessely(0, mp.mpf(x)))
    assert abs(bessel_y(0, x) - ref) <= 2e-16 * abs(ref)
    assert bessel_y(1, x) == -math.inf
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        y0 = bessel_y(0, np.array([x, 1.0]))
        y1 = bessel_y(1, np.array([x, 1.0]))
    assert y0[0] == bessel_y(0, x) and y0[1] == bessel_y(0, 1.0)
    assert y1[0] == -math.inf and y1[1] == bessel_y(1, 1.0)


def test_bessel_y_domain_errors():
    with pytest.raises(ValueError):
        bessel_y(2, 1.0)
    with pytest.raises(ValueError):
        bessel_y(0, 0.0)
    with pytest.raises(ValueError):
        bessel_y(1, -1.0)


# ---------------------------------------------------------------------------
# sine / cosine integrals
# ---------------------------------------------------------------------------

def test_si_at_zero():
    assert si(0.0) == 0.0


def test_si_at_pi_matches_quadrature_oracle():
    from neumann_sici.quad import integrate_finite

    oracle = integrate_finite(lambda t: np.sin(t) / t, 0.0, math.pi, 1e-14)
    assert abs(si(math.pi) - oracle.value) <= 1e-12


def test_glmc_vanishes_at_zero():
    assert gamma_log_minus_ci(0.0) == 0.0
    for x in (1e-10, 1e-6, 1e-3):
        v = gamma_log_minus_ci(x)
        assert 0.0 <= v <= 0.26 * x * x


def test_si_series_is_odd():
    # the series evaluator itself is odd in x (bitwise, odd powers only)
    for x in (0.3, 1.7, 5.0, 7.9):
        assert sf._sici_series(-x, 0) == -sf._sici_series(x, 0)


def test_glmc_nonnegative_and_increasing():
    grid = np.linspace(1e-3, 2.0, 40)
    vals = [gamma_log_minus_ci(float(x)) for x in grid]
    assert all(v >= 0.0 for v in vals)
    grid2 = np.linspace(1e-3, math.pi, 60)
    vals2 = [gamma_log_minus_ci(float(x)) for x in grid2]
    assert all(b > a for a, b in zip(vals2, vals2[1:]))


@pytest.mark.parametrize("x", [0.01, 0.5, 1.0, 3.0, 7.9, 8.1, 12.0, 16.0, 25.0, 50.0])
def test_si_ci_absolute_accuracy(x):
    assert abs(si(x) - float(mp.si(x))) <= 1e-13
    assert abs(ci(x) - float(mp.ci(x))) <= 1e-13
    glmc_ref = float(mp.euler + mp.log(x) - mp.ci(x))
    assert abs(gamma_log_minus_ci(x) - glmc_ref) <= 1e-13


def test_si_ci_domain_errors():
    with pytest.raises(ValueError):
        si(-0.1)
    with pytest.raises(ValueError):
        ci(0.0)
    with pytest.raises(ValueError):
        gamma_log_minus_ci(-1.0)


_SCALAR_KERNELS = [
    lambda v: bessel_j(3, v),
    lambda v: bessel_j_all(3, v),
    lambda v: bessel_y(0, v),
    lambda v: bessel_y(1, v),
    si,
    ci,
    gamma_log_minus_ci,
]


@pytest.mark.parametrize("x", [math.nan, math.inf, -math.inf])
def test_scalar_kernels_reject_nonfinite_argument(x):
    # nan used to leak int()'s conversion error or come back as nan; the
    # array path already raised the same error
    for fn in _SCALAR_KERNELS:
        with pytest.raises(ValueError, match="x must be finite"):
            fn(x)


def test_orders_take_only_integers():
    # 2.5 used to leak a TypeError; numpy integers are integers
    for bad in (2.5, 3.0, "3", None):
        with pytest.raises(ValueError, match="order"):
            bessel_j(bad, 20.0)
        with pytest.raises(ValueError, match="order"):
            bessel_j(bad, np.array([20.0]))
        with pytest.raises(ValueError, match="nmax"):
            bessel_j_all(bad, 20.0)
    with pytest.raises(ValueError, match="order"):
        bessel_y(0.0, 1.0)
    assert bessel_j(np.int64(3), 20.0) == bessel_j(3, 20.0)
    assert bessel_j_all(np.int64(3), 20.0) == bessel_j_all(3, 20.0)
    assert bessel_y(np.int64(1), 2.0) == bessel_y(1, 2.0)


# ---------------------------------------------------------------------------
# array arguments agree with the scalar kernels
# ---------------------------------------------------------------------------

def _branch_grid(order=0):
    # both sides of every branch boundary (x = 8, 17, 25, order^2/2 and
    # (x/2)^2 = order + 1) plus a log-spaced sweep
    edges = [8.0, 17.0, 25.0, 0.5 * order * order, 2.0 * math.sqrt(order + 1.0)]
    near = [e * s for e in edges if e > 0.0 for s in (1.0 - 1e-9, 1.0, 1.0 + 1e-9)]
    return np.array(sorted(near + list(np.geomspace(1e-3, 3000.0, 160))))


def _assert_matches_scalar(fn, x):
    values = fn(x)
    assert isinstance(values, np.ndarray) and values.shape == x.shape
    for xi, v in zip(x.tolist(), values.tolist()):
        ref = fn(xi)
        assert abs(v - ref) <= 1e-14 * max(1.0, abs(ref)), (xi, v, ref)


@pytest.mark.parametrize("order", list(range(22)) + [60])
def test_bessel_j_array_matches_scalar(order):
    x = np.concatenate([[0.0], _branch_grid(order)])
    _assert_matches_scalar(lambda v: bessel_j(order, v), x)


@pytest.mark.parametrize("order", [0, 1])
def test_bessel_y_array_matches_scalar(order):
    _assert_matches_scalar(lambda v: bessel_y(order, v), _branch_grid())


@pytest.mark.parametrize("fn", [si, gamma_log_minus_ci])
def test_si_glmc_array_matches_scalar(fn):
    _assert_matches_scalar(fn, np.concatenate([[0.0], _branch_grid()]))


def test_ci_array_matches_scalar():
    _assert_matches_scalar(ci, _branch_grid())


def test_array_kernels_single_element_and_mixed_branches():
    one = np.array([12.5])
    mixed = np.array([30.0, 0.5, 12.0, 8.0, 100.0, 17.0, 3.0, 25.0])
    kernels = [
        lambda v: bessel_j(3, v),
        lambda v: bessel_j(20, v),
        lambda v: bessel_y(0, v),
        lambda v: bessel_y(1, v),
        si,
        ci,
        gamma_log_minus_ci,
    ]
    for fn in kernels:
        _assert_matches_scalar(fn, one)
        _assert_matches_scalar(fn, mixed)


def test_array_kernels_domain_errors():
    with pytest.raises(ValueError):
        bessel_j(1, np.array([1.0, -0.5]))
    with pytest.raises(ValueError):
        bessel_y(0, np.array([2.0, 0.0]))
    with pytest.raises(ValueError):
        bessel_y(1, np.array([-1.0]))
    with pytest.raises(ValueError):
        si(np.array([3.0, -0.1]))
    with pytest.raises(ValueError):
        ci(np.array([0.0, 1.0]))
    with pytest.raises(ValueError):
        gamma_log_minus_ci(np.array([-1.0]))
    with pytest.raises(ValueError):
        bessel_j(0, np.array([1.0, np.nan]))
    # zero is in the domain wherever the scalar kernel accepts it
    assert bessel_j(0, np.array([0.0]))[0] == 1.0
    assert bessel_j(2, np.array([0.0]))[0] == 0.0
    assert si(np.array([0.0]))[0] == 0.0
    assert gamma_log_minus_ci(np.array([0.0]))[0] == 0.0


# ---------------------------------------------------------------------------
# Clausen functions
# ---------------------------------------------------------------------------

def test_clausen_at_zero_is_zeta():
    assert clausen_odd(3, 0.0) == zeta(3)
    assert clausen_odd(5, 2.0 * math.pi) == zeta(5)
    for weight in (3, 5, 7, 21, 63):
        assert clausen_odd(weight, 0.0) == zeta(weight)
        assert clausen_odd(weight, np.array([0.0]))[0] == zeta(weight)


def test_clausen_at_pi_is_minus_eta():
    # cos(n pi) = (-1)^n turns the sum into -eta(weight)
    assert abs(clausen_odd(3, math.pi) + eta(3)) <= 1e-13
    assert abs(clausen_odd(7, math.pi) + eta(7)) <= 1e-13


def test_clausen_matches_brute_force_partial_sum():
    # 10^6-term partial sum plus an integral-test tail bound
    weight, theta = 5, 0.5 * math.pi
    n = np.arange(1.0, 1e6 + 1.0)
    partial = float(np.dot(np.cos(theta * n), n ** -float(weight)))
    tail_bound = (1e6) ** (1 - weight) / (weight - 1)
    assert abs(clausen_odd(weight, theta) - partial) <= 1e-12 + tail_bound


@pytest.mark.parametrize("weight", [3, 5])
@pytest.mark.parametrize("theta", [0.3, 1.0, 2.5, 3.1])
def test_clausen_symmetries(weight, theta):
    v = clausen_odd(weight, theta)
    assert clausen_odd(weight, -theta) == pytest.approx(v, abs=1e-13)
    assert clausen_odd(weight, 2.0 * math.pi - theta) == pytest.approx(v, abs=1e-13)


@pytest.mark.parametrize("weight,theta", [(3, 0.01), (3, 1.0), (5, 2.0), (7, 3.0), (9, 5.5)])
def test_clausen_absolute_accuracy(weight, theta):
    with mp.workdps(30):
        ref = float(mp.re(mp.polylog(weight, mp.exp(1j * theta))))
    assert abs(clausen_odd(weight, theta) - ref) <= 1e-12


def test_clausen_domain_errors():
    with pytest.raises(ValueError):
        clausen_odd(4, 1.0)
    with pytest.raises(ValueError):
        clausen_odd(1, 1.0)
    # the weight must be an integer type; a numpy integer is one
    for weight in (3.0, 2.5, "3", None):
        with pytest.raises(ValueError):
            clausen_odd(weight, 1.0)
    assert clausen_odd(np.int64(5), 1.0) == clausen_odd(5, 1.0)


@pytest.mark.parametrize("theta", [math.nan, math.inf, -math.inf])
def test_clausen_rejects_nonfinite_angle(theta):
    with pytest.raises(ValueError):
        clausen_odd(3, theta)
    with pytest.raises(ValueError):
        clausen_odd(3, np.array([1.0, theta]))


_CLAUSEN_EDGE_ANGLES = [
    1e-300, 1e-12, math.pi - 1e-9, math.pi, math.pi + 1e-9, 2.0 * math.pi - 1e-10,
]


def _clcos(weight, theta):
    with mp.workdps(40):
        return float(mp.clcos(weight, mp.mpf(theta)))


# 63 and 201 run the cut series of weights above 61
@pytest.mark.parametrize("weight", [3, 5, 7, 9, 15, 21, 63, 201])
def test_clausen_matches_mpmath_clcos(weight):
    thetas = np.linspace(0.0, 2.0 * math.pi, 98)[1:-1].tolist() + _CLAUSEN_EDGE_ANGLES
    for theta in thetas:
        assert abs(clausen_odd(weight, theta) - _clcos(weight, theta)) <= 1e-14, theta


@pytest.mark.parametrize("weight", [3, 5, 9, 21])
def test_clausen_array_equals_scalar_calls(weight):
    one = np.array([1.3])
    assert clausen_odd(weight, one)[0] == clausen_odd(weight, 1.3)
    mixed = np.array(
        [0.0, -0.0, 1e-300, 1e-12, 0.7, -2.0, math.pi, 4.0, 2.0 * math.pi, 7.5, -99.0]
        + _CLAUSEN_EDGE_ANGLES
    )
    out = clausen_odd(weight, mixed)
    assert out.shape == mixed.shape
    assert out.tolist() == [clausen_odd(weight, t) for t in mixed.tolist()]
    assert isinstance(clausen_odd(weight, 0.7), float)


def test_clausen_property_symmetries_and_mpmath():
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies

    @hypothesis.settings(max_examples=150, deadline=None, database=None)
    @hypothesis.given(
        weight=st.integers(1, 10).map(lambda m: 2 * m + 1),
        theta=st.floats(-100.0, 100.0, allow_nan=False),
    )
    def check(weight, theta):
        v = clausen_odd(weight, theta)
        assert abs(v - _clcos(weight, theta)) <= 1e-14
        assert clausen_odd(weight, -theta) == v
        # 2 pi - theta is itself rounded; |d Cl / d theta| <= 1.02 bounds the shift
        mirrored = 2.0 * math.pi - theta
        slack = 1e-14 + 2.0 * math.ulp(mirrored)
        assert abs(clausen_odd(weight, mirrored) - v) <= slack

    check()


# ---------------------------------------------------------------------------
# zeta / eta
# ---------------------------------------------------------------------------

def test_zeta_two_classical_value():
    assert abs(zeta(2) - math.pi ** 2 / 6.0) <= 1e-15


@pytest.mark.parametrize("s", [3, 17, 30, 31, 45])
def test_zeta_table_and_direct_summation(s):
    assert zeta(s) == pytest.approx(float(mp.zeta(s)), abs=1e-16)


def test_eta_one_is_log_two():
    assert eta(1) == CONSTANTS.log2


def test_eta_three_against_direct_alternating_sum():
    # independent oracle: direct alternating summation with first-omitted-term bound
    n = np.arange(1.0, 20001.0)
    partial = float(np.dot(np.where(np.arange(1, 20001) % 2 == 1, 1.0, -1.0), n ** -3.0))
    bound = (20001.0) ** -3
    assert abs(eta(3) - partial) <= 1e-13 + bound
    assert eta(3) == pytest.approx(0.75 * zeta(3), abs=1e-15)


def test_zeta_eta_domain_errors():
    with pytest.raises(ValueError):
        zeta(1)
    with pytest.raises(ValueError):
        eta(0)
    # s must be an integer type; a numpy integer is one
    assert zeta(np.int64(3)) == zeta(3)
    assert eta(np.int64(1)) == eta(1)


@pytest.mark.parametrize("s", [2.5, 3.0, "3", None])
def test_zeta_eta_reject_non_integer_at_once(s):
    # a non-integer s used to fall through to a direct sum of ~1e12 terms
    with pytest.raises(ValueError):
        zeta(s)
    with pytest.raises(ValueError):
        eta(s)
