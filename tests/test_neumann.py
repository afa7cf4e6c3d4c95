import math
import os
import subprocess
import sys

import mpmath as mp
import pytest

import neumann_sici
from neumann_sici import coeffs, neumann, quad
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
    r = si_neumann(0.0)
    assert r.value == 0.0 and r.converged and r.tail_bound == 0.0


def test_si_neumann_matches_kernel():
    assert abs(si_neumann(2.0).value - sf.si(2.0)) <= 1e-11
    assert abs(si_neumann(10.0).value - sf.si(10.0)) <= 1e-10


def test_ci_neumann_matches_kernel():
    assert abs(ci_neumann(1.0).value - sf.ci(1.0)) <= 1e-11
    assert abs(ci_neumann(15.0).value - sf.ci(15.0)) <= 1e-10


def test_ci_neumann_small_a_reduces_to_log_term():
    for a in (1e-8, 1e-4):
        r = ci_neumann(a)
        assert abs(r.value - (sf.CONSTANTS.euler_gamma + math.log(a))) <= a * a


@pytest.mark.parametrize("a", GRID)
def test_expansions_on_grid(a):
    # within 10 times the module's tolerance of the independent kernels
    assert abs(si_neumann(a).value - sf.si(a)) <= 10 * neumann._TOL
    assert abs(ci_neumann(a).value - sf.ci(a)) <= 10 * neumann._TOL


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


_TRUNCATIONS = ("neumann.si_neumann", "neumann.ci_neumann", "neumann.corollary5_series")


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
    # tail bound summed 10^4 infinite majorant terms; the truncations then
    # summed 400 J orders to a wrong value, and now raise ValueError past
    # their domain.  In a subprocess, so that a regression fails here
    # instead of hanging the suite.
    code = (
        "from neumann_sici import neumann, specfun\n"
        f"try:\n    print(repr({call}))\n"
        "except ValueError as exc:\n    print('ValueError:', exc)"
    )
    env = dict(os.environ, PYTHONPATH=os.path.dirname(neumann_sici.__path__[0]))
    done = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=10
    )
    assert done.returncode == 0, done.stderr
    if call.startswith(_TRUNCATIONS):
        assert done.stdout.startswith("ValueError: a must be finite"), done.stdout
    else:
        assert "nan" not in done.stdout and "ValueError" not in done.stdout


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


@pytest.mark.parametrize("a", (0.5, 2.0, 10.0, 20.0))
def test_tail_bound_soundness(a):
    # the actual error against mpmath never exceeds the reported bound
    with mp.workdps(30):
        x = mp.mpf(a)
        beta = [mp.mpf(b.numerator) / b.denominator for b in map(coeffs.beta, range(1, 80))]
        cor5 = mp.fsum((-1) ** n * mp.besselj(2 * n, x) * beta[n - 1] / n for n in range(1, 80))
        cases = [
            (si_neumann(a), mp.si(x)),
            (ci_neumann(a), mp.ci(x)),
            (corollary5_series(a), cor5),
        ]
        for r, ref in cases:
            assert r.converged and abs(r.value - ref) <= r.tail_bound


def test_terms_used_on_the_registry_grid():
    # the term counts of the registry's si_expansion, ci_expansion and
    # corollary5 checks, which run on the same grid at the module's tolerance
    assert [si_neumann(a).terms_used for a in GRID] == [3, 5, 6, 8, 11, 16, 24]
    assert [ci_neumann(a).terms_used for a in GRID] == [3, 5, 6, 7, 11, 15, 23]
    assert [corollary5_series(a).terms_used for a in (0.0, 2.0, 5.0)] == [0, 7, 10]


@pytest.mark.parametrize(
    "fn,first,parity", [(si_neumann, 0, 1), (ci_neumann, 1, 0), (corollary5_series, 1, 0)]
)
@pytest.mark.parametrize("a", (0.5, 10.0, 62.0))
def test_truncation_computes_only_the_orders_it_sums(monkeypatch, fn, first, parity, a):
    # J used to be computed up to order 2 (int(a) + 80 + first) + parity
    requested = []

    def spy(nmax, x):
        requested.append(nmax)
        return sf.bessel_j_all(nmax, x)

    monkeypatch.setattr(neumann, "bessel_j_all", spy)
    r = fn(a)
    assert r.converged and requested
    assert max(requested) <= 2 * (r.terms_used + first) + parity


def _tails(monkeypatch):
    # the tail functions that the truncations build, in call order
    tails, tail_bounds = [], neumann._tail_bounds

    def spy(*args):
        tails.append(tail_bounds(*args))
        return tails[-1]

    monkeypatch.setattr(neumann, "_tail_bounds", spy)
    return tails


def test_converged_flag_consistent_with_bound(monkeypatch):
    # every truncation in the domain meets _TOL (at _MAX_A as well, below),
    # so converged is always True; the reported bound is that tail plus the
    # sum's rounding
    tails = _tails(monkeypatch)
    for fn in (si_neumann, ci_neumann, corollary5_series):
        for a in (1e-300, 5.0, 100.0):
            r = fn(a)
            tail = tails[-1](r.terms_used)
            assert r.converged and tail <= neumann._TOL and tail <= r.tail_bound, (fn, a)


@pytest.mark.parametrize("fn", (si_neumann, ci_neumann, corollary5_series))
def test_expansions_stop_at_the_term_cap(monkeypatch, fn):
    # at _MAX_A each truncation meets _TOL within _MAX_TERMS terms (399, 400
    # and 396); ci_neumann is the first to miss, at a ~ 571.1.  Past _MAX_A
    # they summed 400 terms to values off by 1.6 and 7.8 with converged False
    tails = _tails(monkeypatch)
    r = fn(neumann._MAX_A)
    assert r.converged and r.terms_used <= neumann._MAX_TERMS
    assert tails[0](r.terms_used) <= neumann._TOL


@pytest.mark.parametrize("fn", (si_neumann, ci_neumann, corollary5_series))
@pytest.mark.parametrize("a", (neumann._MAX_A + 1, 1e300))
def test_expansions_past_their_bound_raise_before_any_call(monkeypatch, fn, a):
    calls = []
    monkeypatch.setattr(neumann, "bessel_j_all", lambda *args: calls.append(args))
    with pytest.raises(ValueError, match=r"a must be finite .*570\]?$"):
        fn(a)
    if fn is corollary5_series:
        with pytest.raises(ValueError, match="570"):
            fn(-a)
    assert calls == []


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


@pytest.mark.parametrize(
    "a_grid,n_grid,named",
    [([1.0], [2.5], "n_grid"), ([1.0], [-3], "n_grid"), ([-1.0], [2], "a_grid"),
     ([math.nan], [2], "a_grid"), ([math.inf], [2], "a_grid")],
)
def test_convergence_table_rejects_bad_grid_values(a_grid, n_grid, named):
    # N = 2.5 used to fail inside bessel_j_all with a message about nmax
    with pytest.raises(ValueError, match=named):
        convergence_table(a_grid, n_grid)


def test_convergence_table_caps_n_at_the_term_cap():
    # N = 1e5 used to run for minutes; 400 is the cap of every truncation
    rows = convergence_table([1.0], [neumann._MAX_TERMS])
    assert rows[0][1] == 400 and rows[0][2] <= 1e-15
    with pytest.raises(ValueError, match="n_grid"):
        convergence_table([1.0], [2, 401])
    with pytest.raises(ValueError, match="n_grid"):
        convergence_table([1.0], [100000])


def test_convergence_table_rejects_empty_grid():
    with pytest.raises(ValueError):
        convergence_table([], [1])
    with pytest.raises(ValueError):
        convergence_table([1.0], [])
