import math
from fractions import Fraction

import pytest

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


# The three finite sums term by term, one Fraction per term: the oracle for
# the integer sums over one denominator in coeffs.
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
    # from the edges n = 0 (empty Horner and lcm loops) and, for beta, n = 1
    for n in range(161):
        assert lemma1_closed(n) == _lemma1_terms(n)
        assert alpha_factorial_form(n) == _alpha_factorial_terms(n)
        if n:
            assert beta_factorial_form(n) == _beta_factorial_terms(n)


def test_finite_sums_read_no_closed_form(monkeypatch):
    # Each exact check compares a closed form with a finite sum; a sum that
    # read the closed form or its caches would compare a value with itself
    def unreachable(*args):
        raise AssertionError("a finite sum read a closed form")

    for name in ("alpha", "beta", "_leibniz_partial", "harmonic", "alt_harmonic"):
        monkeypatch.setattr(coeffs, name, unreachable)
    for n in range(21):
        assert coeffs.lemma1_closed(n) == _lemma1_terms(n)
        assert coeffs.alpha_factorial_form(n) == _alpha_factorial_terms(n)
        if n:
            assert coeffs.beta_factorial_form(n) == _beta_factorial_terms(n)


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
