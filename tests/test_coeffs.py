import ast
import math
import os
import subprocess
import sys
import threading
from fractions import Fraction

import pytest

import neumann_sici
from neumann_sici import coeffs
from neumann_sici.coeffs import (
    alpha,
    alpha_factorial_form,
    alt_harmonic,
    beta,
    beta_factorial_form,
    beta_variant,
    harmonic,
    lemma1_closed,
)


# The finite sums term by term, one Fraction per term: the oracle for the
# integer sums over one denominator in coeffs.
def _prefix_sums(top):
    # (H_n, A_n, alpha_n) for n = 0..top, adding one Fraction per term
    h = a = leibniz = Fraction(0)
    rows = [(h, a, Fraction(1))]
    for k in range(1, top + 1):
        sign = (-1) ** (k - 1)
        h += Fraction(1, k)
        a += Fraction(sign, k)
        leibniz += Fraction(sign, 2 * k - 1)
        rows.append((h, a, 2 * leibniz - Fraction(sign, 2 * k + 1)))
    return rows


def _lemma1_terms(n):
    total = Fraction(1)
    for k in range(1, n + 1):
        total -= Fraction(2 * (-1) ** k, 4 * k * k - 1)
    return total


def _alpha_factorial_terms(n):
    return sum(
        Fraction(math.perm(n + k, 2 * k) * (-4) ** k, (2 * k + 1) * math.factorial(2 * k + 1))
        for k in range(n + 1)
    )


def _beta_factorial_terms(n):
    return sum(
        Fraction(math.perm(n + j, 2 * j + 1) * (-4) ** j, (j + 1) * math.factorial(2 * j + 2))
        for j in range(n)
    )


def test_harmonic_numbers():
    assert harmonic(0) == 0
    assert harmonic(2) == Fraction(3, 2)
    assert harmonic(5) == Fraction(137, 60)
    assert alt_harmonic(0) == 0
    assert alt_harmonic(3) == Fraction(5, 6)  # 1 - 1/2 + 1/3


def test_harmonic_domain():
    with pytest.raises(ValueError):
        harmonic(-1)
    with pytest.raises(ValueError):
        alt_harmonic(-2)


def test_coefficients_past_their_bound_raise_before_any_work(monkeypatch):
    # harmonic(10**400) leaked an OverflowError, lemma1_closed(10**400) built
    # an unbounded list, and each factorial form looped n times (6 s at
    # n = 30,000).  Past _MAX_N every function raises ValueError before it
    # sums anything.
    def work(*args):
        raise AssertionError("summed past the bound")

    monkeypatch.setattr(coeffs, "_exact_sums", work)
    monkeypatch.setattr(coeffs, "Fraction", work)
    assert coeffs._MAX_N >= 10**4
    for n in (coeffs._MAX_N + 1, 10**400):
        for name in coeffs.__all__:
            with pytest.raises(ValueError, match=f"n must be an integer from [01] to {coeffs._MAX_N}$"):
                getattr(coeffs, name)(n)


def test_alpha_small_values():
    assert alpha(0) == 1
    assert alpha(1) == Fraction(5, 3)    # 2*1 - 1/3
    assert alpha(2) == Fraction(23, 15)  # 2(1 - 1/3) + 1/5


def test_beta_small_values():
    assert beta(1) == 1  # 1 + 1 - 1/2 - 1/2
    assert beta(2) == 2  # 3/2 + 1/2 - 1/4 + 1/4


def test_beta_rejects_zero():
    with pytest.raises(ValueError):
        beta(0)
    with pytest.raises(ValueError):
        beta_variant(0)
    with pytest.raises(ValueError):
        beta_factorial_form(0)


def test_beta_variant_agrees_exactly():
    assert beta(7) == beta_variant(7)
    for n in range(1, 201):
        assert beta(n) == beta_variant(n)


def test_lemma1_closed_small_values():
    assert lemma1_closed(0) == 1
    assert lemma1_closed(1) == 1 + Fraction(2, 3)


def test_lemma1_closed_equals_alpha_exactly():
    for n in range(201):
        assert lemma1_closed(n) == alpha(n)


def test_alpha_factorial_form_small_values():
    assert alpha_factorial_form(0) == 1
    assert alpha_factorial_form(1) == Fraction(5, 9)
    assert alpha_factorial_form(2) == Fraction(23, 75)


def test_alpha_factorial_form_equals_scaled_alpha():
    for n in range(201):
        assert alpha_factorial_form(n) == alpha(n) / (2 * n + 1)


def test_beta_factorial_form_small_values():
    assert beta_factorial_form(1) == Fraction(1, 2)
    assert beta_factorial_form(2) == Fraction(1, 2)


def test_beta_factorial_form_equals_scaled_beta():
    for n in range(1, 101):
        assert beta_factorial_form(n) == beta(n) / (2 * n)


def test_integer_sums_equal_the_term_by_term_sums():
    # from the edges n = 0 (empty Horner and lcm loops) and, for beta, n = 1;
    # beta reads H_n + A_n, its variant H_(n-1) + A_(n-1), each with the
    # correction 1/(2n) + (-1)^(n-1)/(2n) written as the paper's two terms
    rows = _prefix_sums(160)
    for n, (h, a, alpha_n) in enumerate(rows):
        assert (harmonic(n), alt_harmonic(n), alpha(n)) == (h, a, alpha_n)
        assert lemma1_closed(n) == _lemma1_terms(n)
        assert alpha_factorial_form(n) == _alpha_factorial_terms(n)
        if n:
            assert beta_factorial_form(n) == _beta_factorial_terms(n)
            correction = Fraction(1, 2 * n) + Fraction((-1) ** (n - 1), 2 * n)
            h_prev, a_prev, _ = rows[n - 1]
            assert beta(n) == h + a - correction
            assert beta_variant(n) == h_prev + a_prev + correction


def test_finite_sums_read_no_closed_form(monkeypatch):
    # Each exact check compares a closed form with a finite sum; a sum that
    # read the closed form or its sums would compare a value with itself
    def unreachable(*args):
        raise AssertionError("a finite sum read a closed form")

    for name in ("alpha", "beta", "_alpha_sum", "_harmonic_sums", "harmonic", "alt_harmonic"):
        monkeypatch.setattr(coeffs, name, unreachable)
    for n in range(21):
        assert coeffs.lemma1_closed(n) == _lemma1_terms(n)
        assert coeffs.alpha_factorial_form(n) == _alpha_factorial_terms(n)
        if n:
            assert coeffs.beta_factorial_form(n) == _beta_factorial_terms(n)


def test_beta_forms_read_their_own_harmonic_sums(monkeypatch):
    # beta_forms compares beta with its variant: beta reads H_n and A_n, the
    # variant H_(n-1) and A_(n-1), and neither reads the other
    read = []
    sums = coeffs._harmonic_sums

    def recording(n):
        read.append(n)
        return sums(n)

    monkeypatch.setattr(coeffs, "_harmonic_sums", recording)
    for n in range(1, 21):
        with monkeypatch.context() as m:
            m.setattr(coeffs, "beta_variant", None)
            read.clear()
            coeffs.beta(n)
            assert read == [n]
        with monkeypatch.context() as m:
            m.setattr(coeffs, "beta", None)
            read.clear()
            coeffs.beta_variant(n)
            assert read == [n - 1]


def test_alpha_leibniz_tail_bound():
    # alpha_n differs from pi/2 by at most 3/(2n+1)
    for n in range(201):
        assert abs(float(alpha(n)) - 0.5 * math.pi) <= 3.0 / (2 * n + 1)


def test_beta_growth_parity():
    # beta_n - H_n - A_n is -1/n for odd n and exactly 0 for even n
    for n in range(1, 201):
        d = beta(n) - harmonic(n) - alt_harmonic(n)
        if n % 2:
            assert d == Fraction(-1, n)
        else:
            assert d == 0


def test_concurrent_callers_get_exact_harmonic_numbers():
    # H_n and A_n used to come from prefix lists that every call grew without
    # a lock: four threads asking past the warm prefix got a wrong value in
    # about a third of the calls, and the corrupted list served every later
    # caller.  Each value is now its own sum.
    harmonic(200), alt_harmonic(200)
    grid = range(300, 1300, 5)
    expected = _prefix_sums(grid[-1])
    wrong = []

    def ask():
        for n in grid:
            if (harmonic(n), alt_harmonic(n)) != expected[n][:2]:
                wrong.append(n)

    threads = [threading.Thread(target=ask) for _ in range(4)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=60)
    assert not any(thread.is_alive() for thread in threads)
    assert wrong == []


def test_coefficients_at_ten_thousand_hold_no_prefixes():
    # alpha, beta and beta_variant at n = 10^4 take about 0.7 s; the prefix
    # lists of every H_k, A_k and Leibniz sum up to n used to raise the peak
    # RSS by 60 to 76 MB over the import.  In a subprocess, so that the peak is
    # this call's own and a regression fails here instead of hanging the suite.
    code = (
        "import resource; from neumann_sici import coeffs\n"
        "start = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss\n"
        "coeffs.alpha(10**4); same = coeffs.beta(10**4) == coeffs.beta_variant(10**4)\n"
        "print([resource.getrusage(resource.RUSAGE_SELF).ru_maxrss - start, same])"
    )
    env = dict(os.environ, PYTHONPATH=os.path.dirname(neumann_sici.__path__[0]))
    done = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=20
    )
    assert done.returncode == 0, done.stderr
    grown_kb, same = ast.literal_eval(done.stdout)
    assert grown_kb < 30 * 1024 and same  # ru_maxrss is in KiB on Linux
