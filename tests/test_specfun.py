import ast
import functools
import math
import os
import subprocess
import sys
import warnings

import mpmath as mp
import numpy as np
import pytest

import neumann_sici
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


@pytest.mark.parametrize("x", [1e6, 1e10, 1e15, 1e300, 1.7e308])
def test_hankel_phase_holds_at_huge_arguments(x):
    # x - (2n + 1) pi / 4 used to be rounded before its cosine was taken:
    # J_3(1e10) was off by 9e-8 of its amplitude.  The amplitude itself
    # used to be 0 above ~5.7e307, where pi x overflows.
    amp = math.sqrt(2.0 / math.pi / x)
    for value, ref in (
        (bessel_j(3, x), mp.besselj(3, x)),
        (bessel_j(3, np.array([x]))[0], mp.besselj(3, x)),
        (bessel_y(0, x), mp.bessely(0, x)),
        (bessel_y(0, np.array([x]))[0], mp.bessely(0, x)),
    ):
        assert abs(value - float(ref)) <= 1e-14 * amp


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


def test_bessel_j_all_is_linear_in_nmax():
    # Each Miller rescale used to multiply every stored entry by 1e-250, so a
    # pass was quadratic in nmax: 1.6 s at 4e4, about 40 s at 2e5.  In a
    # subprocess, so that a regression fails here instead of hanging the suite.
    code = "from neumann_sici import specfun; print(repr(specfun.bessel_j_all(200000, 2.0)[:4]))"
    env = dict(os.environ, PYTHONPATH=os.path.dirname(neumann_sici.__path__[0]))
    done = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=5
    )
    assert done.returncode == 0, done.stderr
    for n, v in enumerate(ast.literal_eval(done.stdout)):
        ref = float(mp.besselj(n, 2))
        assert abs(v - ref) <= 1e-15 * abs(ref), (n, v, ref)


def test_bessel_j_returns_at_once_where_it_underflows():
    # |J_n(x)| <= (x/2)^n / n! (DLMF 10.14.4).  Where that first term is below
    # e^-745, J rounds to 0; these calls used to run a Miller pass of
    # n + 1.5 x + 40 steps first, 7.3 s for J_(10^7)(10^4).  In a subprocess, so
    # that a regression fails here instead of hanging the suite.
    code = (
        "import numpy as np; from neumann_sici.specfun import bessel_j; "
        "print([bessel_j(10**7, 1e4), bessel_j(10**6, 1e4), bessel_j(10**7, 7.3e6), "
        "*bessel_j(10**7, np.array([1e4, 3.0])).tolist()])"
    )
    env = dict(os.environ, PYTHONPATH=os.path.dirname(neumann_sici.__path__[0]))
    done = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=5
    )
    assert done.returncode == 0, done.stderr
    assert ast.literal_eval(done.stdout) == [0.0] * 5


def test_bessel_j_returns_at_once_where_kapteyns_bound_underflows():
    # |J_n(n z)| <= (z e^s / (1 + s))^n, s = sqrt(1 - z^2) (DLMF 10.14.8), is
    # below e^-746 at J_(10^6)(7.4e5) and J_(10^6)(9.9e5), whose first terms
    # are about e^5500 and e^293,000: the first ran a Miller pass of 2.1e6
    # steps to return 0, 0.42 s for a float and 8.8 s for a one-element
    # array.  In a subprocess, so that a regression fails here instead of
    # hanging the suite.
    code = (
        "import time; import numpy as np; from neumann_sici.specfun import bessel_j\n"
        "start = time.perf_counter()\n"
        "values = [bessel_j(10**6, 7.4e5), *bessel_j(10**6, np.array([7.4e5, 9.9e5])).tolist()]\n"
        "print([time.perf_counter() - start, values])"
    )
    env = dict(os.environ, PYTHONPATH=os.path.dirname(neumann_sici.__path__[0]))
    done = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=20
    )
    assert done.returncode == 0, done.stderr
    seconds, values = ast.literal_eval(done.stdout)
    assert values == [0.0, 0.0, 0.0]
    assert seconds < 0.05


def test_miller_pass_is_bounded():
    # A Miller pass runs order + 1.5 x + 40 steps: bessel_j(10**7, 1e10) ran
    # for about an hour.  Past sf._MILLER_MAX_STEPS it raises at once, for a
    # float and an array, and bessel_j_all before it allocates a list.  The
    # last two calls below the bound take about 0.3 and 0.15 s (J_(10^6)(7.4e5)
    # underflows, and returns at once).  In a subprocess, so that a
    # regression fails here instead of hanging the suite.
    code = (
        "import numpy as np; from neumann_sici.specfun import bessel_j, bessel_j_all\n"
        "for call in ('bessel_j(10**7, 1e10)', 'bessel_j(10**7, np.array([1e10]))',\n"
        "             'bessel_j_all(10**8, 1.0)'):\n"
        "    try:\n"
        "        eval(call)\n"
        "    except ValueError as exc:\n"
        "        assert '_MILLER_MAX_STEPS' in str(exc), exc\n"
        "    else:\n"
        "        raise AssertionError(call)\n"
        "print([bessel_j(10**6, 7.4e5), bessel_j(10**5, 1e6), len(bessel_j_all(200000, 2.0))])"
    )
    env = dict(os.environ, PYTHONPATH=os.path.dirname(neumann_sici.__path__[0]))
    done = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=20
    )
    assert done.returncode == 0, done.stderr
    zero, value, count = ast.literal_eval(done.stdout)
    assert zero == 0.0 and 0.0 < abs(value) < 1e-3  # the amplitude is about 8e-4
    assert count == 200001


def test_bessel_j_all_bounds_nmax_on_every_branch():
    # The tiny-x series and the large-x branch used to build nmax + 1 entries
    # for any nmax up to 2^53; past sf._MILLER_MAX_STEPS they raise before
    # they allocate.  In a subprocess, so that a regression fails here
    # instead of filling the memory.
    code = (
        "from neumann_sici.specfun import bessel_j_all\n"
        "for x in (1e-10, 1.0, 1e12):\n"
        "    try:\n"
        "        bessel_j_all(10**8, x)\n"
        "    except ValueError as exc:\n"
        "        assert '_MILLER_MAX_STEPS' in str(exc), exc\n"
        "    else:\n"
        "        raise AssertionError(x)\n"
    )
    env = dict(os.environ, PYTHONPATH=os.path.dirname(neumann_sici.__path__[0]))
    done = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=10
    )
    assert done.returncode == 0, done.stderr


def test_huge_orders_run_the_upward_recurrence():
    # Above max(25, order) J_order comes from order upward steps, however
    # large x is: a Miller pass for J_(10^6)(1e9) would run 1.5e9 steps, and
    # bessel_j_all(10**5, 1e12) took 7 s as 10^5 Hankel calls.  mpmath gives
    # no reference at these orders, so J_(10^6) is held to its amplitude
    # sqrt(2 / (pi x)); J_n(1e12) for n <= 10^5 is bessel_j's Hankel value.
    code = (
        "import time; from neumann_sici.specfun import bessel_j, bessel_j_all\n"
        "start = time.perf_counter(); j = bessel_j_all(10**5, 1e12)\n"
        "print([bessel_j(10**6, 1e9), time.perf_counter() - start, j[:4], j[::997], j[-1]])"
    )
    env = dict(os.environ, PYTHONPATH=os.path.dirname(neumann_sici.__path__[0]))
    done = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=10
    )
    assert done.returncode == 0, done.stderr
    value, seconds, first, sampled, last = ast.literal_eval(done.stdout)
    assert math.isfinite(value) and abs(value) <= 1.01 * math.sqrt(2.0 / math.pi / 1e9)
    assert seconds < 1.0
    amp = math.sqrt(2.0 / math.pi / 1e12)
    for n, v in enumerate(first):
        assert abs(v - float(mp.besselj(n, 1e12))) <= 1e-15 * amp, (n, v)
    for n, v in [*zip(range(0, 10**5 + 1, 997), sampled), (10**5, last)]:
        assert abs(v - bessel_j(n, 1e12)) <= 1e-13 * amp, (n, v)


def test_bessel_j_upward_band_matches_mpmath():
    # max(25, order) <= x < max(25, order^2/2) runs the upward recurrence
    # from the Hankel J_0 and J_1 (empty for order <= 7), where a Miller
    # pass was off by up to 1.6e-14 on this grid: both sides of both edges
    # and 16 points between them, for a float and an array.
    for order in range(61):
        up, hankel = max(25.0, order), max(25.0, 0.5 * order * order)
        xs = [e * s for e in (up, hankel) for s in (1.0 - 1e-9, 1.0, 1.0 + 1e-9)]
        xs += np.geomspace(up, hankel, 18)[1:-1].tolist() if hankel > up else []
        for xi, a in zip(xs, bessel_j(order, np.array(xs)).tolist()):
            v = bessel_j(order, xi)
            with mp.workdps(30):
                ref = mp.besselj(order, xi)
            scale = max(abs(float(ref)), math.sqrt(2.0 / math.pi / xi))
            assert float(abs(v - ref)) <= 4e-15 * scale, (order, xi, v)
            assert abs(a - v) <= 1e-14 * max(1.0, abs(v)), (order, xi, a, v)


@pytest.mark.parametrize("order", [400, 1000])
def test_bessel_j_series_takes_exactly_the_underflowing_arguments(order):
    # The series takes x up to the last double whose first term is 0, and a
    # Miller pass the next one, for a float and an array alike
    last = sf._j_series_max(order)
    up = math.nextafter(last, math.inf)
    assert last > 2.0 * math.sqrt(order + 1.0)
    assert sf._j_first_term(0.5 * last, order) == 0.0 < sf._j_first_term(0.5 * up, order)
    for xi, v in zip((last, up), bessel_j(order, np.array([last, up])).tolist()):
        assert v == bessel_j(order, xi) == float(mp.besselj(order, xi)) == 0.0


@pytest.mark.parametrize("order", [1000, 10**4])
def test_bessel_j_series_takes_kapteyns_underflowing_arguments(order):
    # Kapteyn's bound takes the series on past the first term's e^-745, to the
    # last double at which it is below e^-746, and a Miller pass the next
    # one; J rounds to 0 at both, for a float and an array alike
    last = sf._j_series_max(order)
    up = math.nextafter(last, math.inf)
    assert order * math.log(0.5 * last) - math.lgamma(order + 1) >= -745.0
    assert sf._j_log_bound(0.5 * last, order) == -math.inf < -745.0 <= sf._j_log_bound(0.5 * up, order)
    for xi, v in zip((last, up), bessel_j(order, np.array([last, up])).tolist()):
        assert v == bessel_j(order, xi) == float(mp.besselj(order, xi)) == 0.0


@pytest.mark.parametrize("order", [40, 60])
def test_bessel_j_first_term_is_relative_at_small_x(order):
    # The first series term is pow(x/2, order) over the factorial; from logs it
    # was off by 7.5e-14 (J_40) and 1.1e-13 (J_60) relative on (1e-3, 3e-3)
    x = np.random.default_rng(order).uniform(1e-3, 3e-3, 60)
    for xi, v in zip(x.tolist(), bessel_j(order, x).tolist()):
        assert v == bessel_j(order, xi)
        assert _close_to_mpmath(v, mp.besselj(order, xi), 5e-16), (xi, v)


@pytest.mark.parametrize("order", [100, 150, 200, 225])
def test_bessel_j_series_is_relative_below_1e300(order):
    # The series used to stop on |term| < 1e-17 max(|sum|, 1e-300), an
    # absolute test once |J| < 1e-300: J_225(6.706658604501104) came out
    # 1.289418145e-315 against mpmath's 1.289391026e-315
    x = np.concatenate([np.linspace(6.0, 8.0, 21), [6.706658604501104]])
    for xi, v in zip(x.tolist(), bessel_j(order, x).tolist()):
        ref = float(mp.besselj(order, xi))
        assert _close_to_mpmath(v, ref, 2e-13), (xi, v, ref)
        assert v == bessel_j(order, xi)


@pytest.mark.parametrize("order", [0, 1, 3, 20])
def test_bessel_j_subnormal_argument(order):
    # x / 2 underflows to 0, which used to reach math.log
    x = 5e-324
    ref = float(mp.besselj(order, mp.mpf(x)))
    assert bessel_j(order, x) == ref
    assert bessel_j(order, np.array([x, 1e-100]))[0] == ref


@pytest.mark.parametrize("nmax", [0, 30])
def test_bessel_j_all_on_both_sides_of_its_range_limits(nmax):
    # (x/2)^2 = 2^-53 (first terms below, Miller above), max(25, nmax)
    # (Miller below, the upward recurrence above) and bessel_j's Hankel
    # threshold max(25, nmax^2/2)
    tiny = 2.0**-25.5
    up, hankel = max(25.0, nmax), max(25.0, 0.5 * nmax * nmax)
    for x in (tiny * (1 - 1e-9), tiny * (1 + 1e-9), up * (1 - 1e-9), up * (1 + 1e-9),
              hankel * (1 - 1e-9), hankel):
        for n, v in enumerate(bessel_j_all(nmax, x)):
            assert abs(v - float(mp.besselj(n, x))) <= 1e-13, (x, n)


def test_bessel_j_all_first_terms_end_at_the_largest_x_below_two_to_the_minus_53():
    # (x/2)^2 < 2^-53 takes each order's first term up to the edge, and the
    # next float on takes Miller, for a float and in an array alike
    edge = sf._J_ALL_TINY
    above = math.nextafter(edge, math.inf)
    assert 0.25 * edge * edge < 2.0**-53 <= 0.25 * above * above
    rows = bessel_j_all(3, np.array([edge, above]))
    assert rows[:, 0].tolist() == bessel_j_all(3, edge) == [bessel_j(n, edge) for n in range(4)]
    assert rows[:, 1].tolist() == bessel_j_all(3, above) == sf._miller(3, above)


@pytest.mark.parametrize("nmax", [0, 1, 21, 30])
def test_bessel_j_all_on_an_array_takes_each_elements_branch(nmax):
    # One row per order; each element on the float's branch (first terms,
    # Miller, upward), so every column equals the float's list within rounding
    # and the Miller and first-term columns exactly
    x = np.array([0.0, 1e-9, 0.003, 2.0, 8.0, 24.9, 25.0, 29.9, 30.0, 31.0, 221.0, 3e3])
    rows = bessel_j_all(nmax, x)
    assert rows.shape == (nmax + 1, x.size)
    for i, v in enumerate(x.tolist()):
        ref = bessel_j_all(nmax, v)
        if v < max(25.0, nmax):
            assert rows[:, i].tolist() == ref, v
        else:
            assert np.allclose(rows[:, i], ref, rtol=0.0, atol=1e-16), v
    # a 2-D array is masked like its 1-D ravel, element for element
    square = bessel_j_all(nmax, x.reshape(3, 4))
    assert square.shape == (nmax + 1, 3, 4)
    assert np.array_equal(square, rows.reshape(nmax + 1, 3, 4))


def test_bessel_j_all_bounds_an_arrays_values():
    # (nmax + 1) values per element, at most _MILLER_MAX_STEPS in all with an
    # array counted as at least 32 elements, checked before any allocation
    # (one element at nmax = 2e5 took 6 s); a bad element is rejected like a
    # bad float
    for nmax, size in ((sf._MILLER_MAX_STEPS // 64, 64), (sf._MILLER_MAX_STEPS // 32, 1)):
        with pytest.raises(ValueError, match="x.size"):
            bessel_j_all(nmax, np.ones(size))
    with pytest.raises(ValueError, match="must be finite and nonnegative"):
        bessel_j_all(3, np.array([1.0, -1.0]))


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


def _y_series_lines(order, x):
    # bessel_y(order, x) and the line events traced inside _bessel_y_series
    code, count = sf._bessel_y_series.__code__, 0

    def local(frame, event, arg):
        nonlocal count
        count += event == "line"
        return local

    previous = sys.gettrace()
    sys.settrace(lambda frame, event, arg: local if frame.f_code is code else None)
    try:
        value = bessel_y(order, x)
    finally:
        sys.settrace(previous)
    return value, count


@pytest.mark.parametrize("x", [1e-200, 5e-324])
def test_bessel_y0_series_stops_at_a_zero_term(x):
    # Below x ~ 3e-162, u = x^2/4 underflows to 0, so every term and the sum
    # s are 0 and the stop test t >= 1e-18 |s| reads 0 >= 0: without a stop
    # at a zero term the series runs all 501 iterations (about 3,000 line
    # events).  It takes no more than at x = 1e-100 (two terms, the second
    # underflows), and with J_0 = 1 and s = 0 its value is the log term alone.
    value, lines = _y_series_lines(0, x)
    assert lines <= _y_series_lines(0, 1e-100)[1] < 50
    assert value == (2.0 / math.pi) * (sf._log_half(x) + CONSTANTS.euler_gamma)


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

    oracle = integrate_finite(lambda t: np.sin(t) / t, 0.0, math.pi)
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


@pytest.mark.parametrize(
    "x", [0.01, 0.5, 1.0, 3.0, 7.9, 8.1, 12.0, 16.0, 25.0, 49.9, 50.0, 50.1, 1e3, 1e6]
)
def test_si_ci_absolute_accuracy(x):
    assert abs(si(x) - float(mp.si(x))) <= 1e-13
    assert abs(ci(x) - float(mp.ci(x))) <= 1e-13
    glmc_ref = float(mp.euler + mp.log(x) - mp.ci(x))
    assert abs(gamma_log_minus_ci(x) - glmc_ref) <= 1e-13


@pytest.mark.parametrize("x", [1e-8, 1e-6, 1e-5, 1e-3, 0.1])
def test_si_glmc_series_are_relatively_accurate_at_small_x(x):
    # The series used to stop on |term| < 1e-18 max(1, |sum|), an absolute
    # test while the sum is below 1: gamma_log_minus_ci(1e-5) was off by
    # 4.2e-12 relative and si(1e-6) by 5.6e-14.
    eps = np.finfo(float).eps
    for fn, ref in ((si, mp.si(x)), (gamma_log_minus_ci, mp.euler + mp.log(x) - mp.ci(x))):
        ref = float(ref)
        for v in (fn(x), fn(np.array([x]))[0]):
            assert abs(v - ref) <= 4.0 * eps * abs(ref), (fn.__name__, x, v, ref)


def test_si_ci_asymptotic_branch_matches_mpmath():
    # x >= 50, where the E_1(ix) continued fraction takes 7 steps or fewer,
    # float and array.
    # gamma + log x - Ci is ~12 at 1e5, where one ulp is 1.8e-15; the sum
    # log x + (gamma - Ci) rounds to within one ulp of its value.
    x = np.concatenate([np.geomspace(50.0, 1e5, 300), np.linspace(50.0, 51.0, 40)])
    refs = [(mp.si(v), mp.ci(v), mp.euler + mp.log(v) - mp.ci(v)) for v in x.tolist()]
    for fn, pick in ((si, 0), (ci, 1), (gamma_log_minus_ci, 2)):
        values = fn(x)
        for xi, v, ref in zip(x.tolist(), values.tolist(), refs):
            ref = float(ref[pick])
            bound = 1e-15 + (math.ulp(ref) if pick == 2 else 0.0)
            assert abs(v - ref) <= bound, (fn.__name__, xi, v, ref)
            assert abs(fn(xi) - ref) <= bound, (fn.__name__, xi, fn(xi), ref)


def test_continued_fraction_steps_at_a_smaller_argument_suffice():
    # An array runs every continued-fraction element for the steps the float
    # path takes at the smallest element of its octave.  That count is not
    # monotone in x: the stopping test sits at the rounding floor, so the
    # float path waits a few steps more or fewer by chance (24 to 26 near
    # x = 8).  What the array relies on is that the truncation error after n
    # steps falls with x: here every x in [8, 50], on a log grid to 10^6 and
    # at the huge arguments runs the fewest steps taken anywhere in [8, x].
    grid = np.concatenate([np.linspace(8.0, 50.0, 4201), np.geomspace(50.0, 1e6, 401)[1:]])
    grid = grid.tolist() + list(_HUGE)
    steps = [sf._lentz(v, 299)[1] for v in grid]
    assert steps[0] >= 25 and steps[-1] <= 8
    fewest = 0
    for i, x in enumerate(grid):
        if steps[i] < steps[fewest]:
            fewest = i
        value = sf._lentz(np.array([x]), steps[fewest])[0][0]
        ref = sf._lentz(x, 299)[0]
        assert abs(value - ref) <= 3e-15 * abs(ref), (x, grid[fewest], value, ref)


def test_continued_fraction_steps_are_per_octave():
    # Each octave of an array runs the steps of its own smallest element: a
    # smaller element elsewhere (x = 8, 25 steps) no longer makes the octave
    # [512, 1024) run 25, and its values are the ones it takes alone
    big = np.array([600.0, 1000.0])
    alone = sf._sici_fraction(big)
    mixed = sf._sici_fraction(np.array([8.0, 600.0, 1000.0]))
    assert sf._lentz(600.0, 299)[1] < 10 <= sf._lentz(8.0, 299)[1]
    assert [v[1:].tolist() for v in mixed] == [v.tolist() for v in alone]
    e1 = sf._lentz(big, sf._lentz(600.0, 299)[1])[0]
    assert [v.tolist() for v in alone] == [(e1.imag + 0.5 * math.pi).tolist(), (-e1.real).tolist()]


def test_a_cold_si_pass_does_not_import_numpy_ma():
    # The octaves are listed without np.unique, whose first call imports
    # numpy.ma (14-20 ms) while the first Si table is built.  In a fresh
    # interpreter, as the import happens once per process
    code = (
        "import os, sys\n"
        "from neumann_sici import cli\n"
        "status = cli.main(['--check', 'si_coeff_integral.*', '--out', os.devnull])\n"
        "print(status, 'numpy.ma' in sys.modules)\n"
    )
    env = dict(os.environ, PYTHONPATH=os.path.dirname(neumann_sici.__path__[0]))
    done = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=30
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == ["0", "False"]


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


def test_huge_orders_raise_a_value_error():
    # These leaked an OverflowError from math.sqrt, math.lgamma and nmax^2 / 2
    for order in (2**53 + 1, 2**1023, 10**400):
        with pytest.raises(ValueError, match="order"):
            bessel_j(order, 1.0)
        with pytest.raises(ValueError, match="order"):
            bessel_j(order, np.array([1.0, 2.0]))
        with pytest.raises(ValueError, match="nmax"):
            bessel_j_all(order, 1.0)
    # up to 2^53 J underflows at these arguments, which the series returns
    assert bessel_j(2**53, 1.0) == 0.0
    assert bessel_j(2**53, np.array([1.0, 1e10])).tolist() == [0.0, 0.0]


# ---------------------------------------------------------------------------
# array arguments agree with the scalar kernels
# ---------------------------------------------------------------------------

@functools.cache
def _j_zeros_below_8():
    # J_n has at most two zeros below 8, and none for n >= 8
    zeros = (mp.besseljzero(v, k) for v in range(8) for k in (1, 2))
    return sorted(float(z) for z in zeros if z < 8)


def _branch_grid(order=0):
    # both sides of every branch boundary (x = 8, 17, 25, 50, order^2/2 and
    # (x/2)^2 = order + 1), the zeros of J below 8, where J's relative stop
    # test runs the series longest, the smallest subnormal, 1e-300 and a
    # log-spaced sweep
    edges = [8.0, 17.0, 25.0, 50.0, 0.5 * order * order, 2.0 * math.sqrt(order + 1.0)]
    near = [e * s for e in edges if e > 0.0 for s in (1.0 - 1e-9, 1.0, 1.0 + 1e-9)]
    extra = _j_zeros_below_8() + [5e-324, 1e-300]
    return np.array(sorted(near + extra + list(np.geomspace(1e-3, 3000.0, 160))))


def _assert_matches_scalar(fn, x, exact=lambda xi: xi <= 8.0):
    # exact where exact(xi) (Y_1 is -inf at 5e-324), to rounding elsewhere
    values = fn(x)
    assert isinstance(values, np.ndarray) and values.shape == x.shape
    for xi, v in zip(x.ravel().tolist(), values.ravel().tolist()):
        ref = fn(xi)
        if exact(xi):
            assert v == ref, (xi, v, ref)
        else:
            assert abs(v - ref) <= 1e-14 * max(1.0, abs(ref)), (xi, v, ref)


@pytest.mark.parametrize("order", list(range(22)) + [60, 225])
def test_bessel_j_array_matches_scalar(order):
    # Exact on the series and Miller nodes.  J_225 is below 1e-300 between 6
    # and 8, where the series runs until its terms underflow: an array element
    # runs the float's series, so it stops at the float's term.  A Miller
    # element starts at its own depth and adds zeros before it.
    x = np.concatenate([[0.0], _branch_grid(order)])
    _assert_matches_scalar(
        lambda v: bessel_j(order, v), x, lambda xi: xi < max(25.0, 0.5 * order * order)
    )


@pytest.mark.parametrize("order", [0, 1])
def test_bessel_y_array_matches_scalar(order):
    # exact on the series and bridge nodes: an array runs the float bridge
    # element by element, each with its own Miller pass and ceil(x) + 30 terms
    x = np.concatenate([_branch_grid(), np.linspace(8.0, 17.0, 201)])
    _assert_matches_scalar(lambda v: bessel_y(order, v), x, lambda xi: xi < 17.0)


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


@pytest.mark.parametrize(
    "fn,exact",
    [(functools.partial(bessel_j, n), False) for n in (0, 3, 20)]
    + [(functools.partial(bessel_y, n), False) for n in (0, 1)]
    + [(fn, False) for fn in (si, ci, gamma_log_minus_ci)]
    + [(functools.partial(clausen_odd, w), True) for w in (3, 7, 63)],
)
def test_array_kernels_keep_empty_and_2d_shapes(fn, exact):
    # An empty array keeps its shape; a 2-D one is masked like a 1-D one, and
    # a 0-d one gives a 0-d array, Clausen's included.  The
    # second grid has no element in [8, 50), so the E_1 continued fraction's
    # branch is empty inside a nonempty call.
    for shape in ((0,), (0, 3), (2, 0)):
        out = fn(np.empty(shape))
        assert isinstance(out, np.ndarray) and out.shape == shape
    grids = (
        np.array([[0.5, 8.0, 12.0, 30.0], [49.0, 50.0, 100.0, 3.0], [17.0, 25.0, 1e3, 9.0]]),
        np.array([[0.5, 3.0], [60.0, 1e3]]),
        np.array(0.5),
        np.array(12.0),
        np.array(60.0),
    )
    for x in grids:
        _assert_matches_scalar(fn, x, (lambda xi: True) if exact else (lambda xi: xi <= 8.0))


_HUGE = (1e200, 1e300, 1.7e308)


@pytest.mark.parametrize(
    "kernel,order,x",
    [(bessel_j, n, x) for n in (0, 3) for x in _HUGE]
    + [(bessel_y, n, 1.7e308) for n in (0, 1)]
    + [(fn, None, x) for fn in (si, ci, gamma_log_minus_ci) for x in _HUGE],
)
def test_array_kernels_are_silent_at_huge_arguments(kernel, order, x):
    # 0.25 x x in the J series mask and (m + 1) 8 x in the Hankel terms used to
    # emit overflow RuntimeWarnings that the float path never gave; the Si/Ci
    # continued fraction forms no power of x
    if order is not None:
        kernel = functools.partial(kernel, order)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert kernel(np.array([x]))[0] == kernel(x)


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


def test_clausen_coefficient_cache_is_bounded():
    # The coefficients are cached per weight, the caller's: an unbounded cache
    # held 20,000 entries (22.5 MB) after the odd weights 3 .. 40001
    assert sf._clausen_coefficients.cache_parameters()["maxsize"] == 128
    for weight in range(3, 3 + 2 * 300, 2):
        clausen_odd(weight, 1.0)
    assert sf._clausen_coefficients.cache_info().currsize == 128


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


def test_zeta_eta_and_clausen_take_an_s_past_the_double_range():
    # zeta(s) is 1.0 from s = 53 on and eta(s) from 55 on; an integer s past
    # the double range used to leak OverflowError from the float powers
    assert zeta(2**1024) == eta(10**400) == zeta(53) == eta(55) == 1.0
    assert eta(54) < 1.0
    # every zeta in the cut series is 1.0 there, which leaves cos theta
    weight = 10**400 + 1
    theta = np.array([1.0, 2.0, -5.0])
    expected = [clausen_odd(10**6 + 1, t) for t in theta.tolist()]
    assert clausen_odd(weight, 1.0) == expected[0]
    assert clausen_odd(weight, theta).tolist() == expected
    assert np.allclose(expected, np.cos(theta), rtol=0.0, atol=1e-15)


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
