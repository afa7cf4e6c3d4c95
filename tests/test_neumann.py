import math
import os
import subprocess
import sys

import mpmath as mp
import pytest

import neumann_sici
from neumann_sici import quad
from neumann_sici import specfun as sf
from neumann_sici.neumann import (
    addition_theorem_check,
    ci_neumann,
    convergence_table,
    corollary5_series,
    si_neumann,
)

GRID = (0.1, 0.5, 1.0, 2.0, 5.0, 10.0, 20.0)


def test_si_neumann_at_zero():
    r = si_neumann(0.0, 1e-12)
    assert r.value == 0.0 and r.converged and r.tail_bound == 0.0


def test_si_neumann_matches_kernel():
    assert abs(si_neumann(2.0, 1e-12).value - sf.si(2.0)) <= 1e-11
    assert abs(si_neumann(10.0, 1e-12).value - sf.si(10.0)) <= 1e-10


def test_ci_neumann_matches_kernel():
    assert abs(ci_neumann(1.0, 1e-12).value - sf.ci(1.0)) <= 1e-11
    assert abs(ci_neumann(15.0, 1e-12).value - sf.ci(15.0)) <= 1e-10


def test_ci_neumann_small_a_reduces_to_log_term():
    for a in (1e-8, 1e-4):
        r = ci_neumann(a, 1e-13)
        assert abs(r.value - (sf.CONSTANTS.euler_gamma + math.log(a))) <= a * a


@pytest.mark.parametrize("a", GRID)
def test_expansions_on_grid(a):
    tol = 1e-11
    assert abs(si_neumann(a, tol).value - sf.si(a)) <= 10 * tol
    assert abs(ci_neumann(a, tol).value - sf.ci(a)) <= 10 * tol


def test_domain_rejections():
    with pytest.raises(ValueError):
        si_neumann(-1.0)
    with pytest.raises(ValueError):
        ci_neumann(0.0)
    with pytest.raises(ValueError):
        corollary5_series(math.inf)


@pytest.mark.parametrize("fn", (si_neumann, ci_neumann))
@pytest.mark.parametrize("a", (math.nan, math.inf, -math.inf))
def test_expansions_reject_nonfinite_argument(fn, a):
    # nan used to leak int()'s conversion error and inf an OverflowError
    with pytest.raises(ValueError, match="a must be finite"):
        fn(a)


@pytest.mark.parametrize(
    "call",
    [
        "specfun.bessel_j_all(3, 1e300)",
        "neumann.si_neumann(1e300)",
        "neumann.ci_neumann(1e300)",
        "neumann.corollary5_series(1e300)",
        "neumann.addition_theorem_check(1e300, 1.0)",
        "neumann.si_neumann(1e5)",
    ],
)
def test_huge_arguments_return(call):
    # A Miller pass used to start 1.5 a steps deep, and each truncation's
    # tail bound summed 10^4 infinite majorant terms.  In a subprocess, so
    # that a regression fails here instead of hanging the suite.
    code = f"from neumann_sici import neumann, specfun; print(repr({call}))"
    env = dict(os.environ, PYTHONPATH=os.path.dirname(neumann_sici.__path__[0]))
    done = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=10
    )
    assert done.returncode == 0, done.stderr
    assert "nan" not in done.stdout


@pytest.mark.parametrize("a", (1e-100, 1e-60, 5e-324))
def test_expansions_at_tiny_arguments_match_mpmath(a):
    # J_n(a) from the Miller pass was nan below about 1e-57, and 0.5 a
    # underflowed to 0 before math.log at 5e-324
    def close(value, ref):
        return abs(value - ref) <= 1e-13 * abs(ref) or abs(value - ref) <= 1e-323

    with mp.workdps(40):
        x = mp.mpf(a)
        r = si_neumann(a)
        assert r.converged and close(r.value, float(mp.si(x)))
        r = ci_neumann(a)
        assert r.converged and close(r.value, float(mp.ci(x)))
        # beta_1 = 1 and beta_2 = 2, so the series starts -J_2(a) + J_4(a)
        r = corollary5_series(a)
        assert r.converged and close(r.value, float(-mp.besselj(2, x) + mp.besselj(4, x)))
        lhs, rhs = addition_theorem_check(a, 1.0)
        ref = float(mp.besselj(0, mp.sqrt(x * x + 1)) - mp.besselj(0, x) * mp.besselj(0, 1))
        assert abs(lhs - ref) <= 1e-16 and abs(rhs - ref) <= 1e-16


@pytest.mark.parametrize("a", (0.5, 2.0, 10.0))
def test_tail_bound_soundness(a):
    # the remainder actually observed against a much deeper evaluation never
    # exceeds the reported bound
    coarse = si_neumann(a, 1e-6)
    fine = si_neumann(a, 1e-14)
    assert abs(coarse.value - fine.value) <= coarse.tail_bound
    coarse_ci = ci_neumann(a, 1e-6)
    fine_ci = ci_neumann(a, 1e-14)
    assert abs(coarse_ci.value - fine_ci.value) <= coarse_ci.tail_bound


def test_converged_flag_consistent_with_bound():
    r = si_neumann(5.0, 1e-12)
    assert r.converged == (r.tail_bound <= 1e-12)


@pytest.mark.parametrize("fn", (si_neumann, ci_neumann, corollary5_series))
def test_expansions_stop_at_the_term_cap(fn):
    # min(400, int(a) + 80) terms: at a = 1e5 the tail bound is still
    # infinite when the cap is reached
    r = fn(1e5)
    assert r.terms_used == 400 and r.converged is False


def test_corollary5_series_basics():
    assert corollary5_series(0.0).value == 0.0
    r = corollary5_series(1.0)
    assert r.converged
    # |sum| <= sum (1/2)^{2n}/(2n)! (H_n + A_n + 1/n)/n from the term moduli
    from neumann_sici.coeffs import alt_harmonic, harmonic

    bound = sum(
        0.5 ** (2 * n) / math.factorial(2 * n)
        * (float(harmonic(n) + alt_harmonic(n)) + 1.0 / n) / n
        for n in range(1, 40)
    )
    assert abs(r.value) <= bound


def test_corollary5_series_matches_integral():
    series = corollary5_series(3.0)
    integral = quad.corollary5_rhs(3.0)
    assert abs(series.value - integral.value) <= 1e-6


def test_corollary5_series_even_in_a():
    assert corollary5_series(2.5).value == corollary5_series(-2.5).value


def test_addition_theorem_trivial_points():
    lhs, rhs = addition_theorem_check(0.0, 3.0)
    assert lhs == 0.0 and rhs == 0.0
    lhs, rhs = addition_theorem_check(3.0, 0.0)
    assert lhs == 0.0 and rhs == 0.0


@pytest.mark.parametrize("a,t", [(2.0, 3.0), (1.0, 5.0), (4.0, 0.5)])
def test_addition_theorem_spot_checks(a, t):
    lhs, rhs = addition_theorem_check(a, t)
    assert abs(lhs - rhs) <= 1e-12


def test_convergence_table_contract():
    rows = convergence_table([5.0, 0.0, 10.0], [10, 2, 30])
    assert len(rows) == 9
    assert rows == sorted(rows, key=lambda r: (r[0], r[1]))
    for a, n, err, bound in rows:
        if a == 0.0:
            assert err == 0.0
    # errors shrink with more terms once past the turning point
    errs_a5 = [err for a, n, err, _ in rows if a == 5.0]
    assert errs_a5[0] >= errs_a5[1] >= errs_a5[2]
    err_10_30 = [err for a, n, err, _ in rows if a == 10.0 and n == 30][0]
    assert err_10_30 <= 1e-10


def test_convergence_table_monotone_beyond_threshold():
    n_grid = list(range(8, 26))  # past ceil(5/2) + 5
    rows = convergence_table([5.0], n_grid)
    errs = [err for _, _, err, _ in rows]
    # monotone nonincreasing down to the double-precision floor
    assert all(b <= max(a, 1e-15) for a, b in zip(errs, errs[1:]))


def test_convergence_table_rejects_empty_grid():
    with pytest.raises(ValueError):
        convergence_table([], [1])
    with pytest.raises(ValueError):
        convergence_table([1.0], [])
