"""Exact rational Neumann coefficients for the Si and Ci expansions.

All coefficient arithmetic is exact, in Python integers and rationals
(``fractions.Fraction``); floats only ever appear when a caller converts a
result at the comparison boundary.  The cross-form identities
(closed forms vs. finite factorial sums) are exact statements and are checked
as exact equalities, not to a tolerance.  Every finite sum is one integer
over one denominator, reduced once by a gcd; no prefix outlives a call.
Every n is at most ``_MAX_N`` = 10^4, else ValueError before any work: a
factorial form takes about 1 s there, and its cost grows as n^2.
"""

from __future__ import annotations

import functools
import math
from fractions import Fraction

from .specfun import _integer

__all__ = (
    "harmonic",
    "alt_harmonic",
    "alpha",
    "beta",
    "beta_variant",
    "lemma1_closed",
    "alpha_factorial_form",
    "beta_factorial_form",
)


_MAX_N = 10**4
_FROM_0, _FROM_1 = (f"n must be an integer from {first} to {_MAX_N}" for first in (0, 1))


def _exact_sums(groups, *weights) -> tuple[Fraction, ...]:
    # For each weight vector w, sum_g w[g] sum_{d in groups[g]} 1/d: one
    # integer over D = lcm of every d, from the quotients D // d, reduced once
    den = math.lcm(*(math.lcm(*group) for group in groups))
    sums = [sum(den // d for d in group) for group in groups]
    return tuple(Fraction(sum(c * s for c, s in zip(w, sums)), den) for w in weights)


@functools.lru_cache(maxsize=512)
def _harmonic_sums(n: int) -> tuple[Fraction, Fraction]:
    # H_n and A_n over lcm(1..n): odd k add to both, even k add to H, not A
    return _exact_sums((range(1, n + 1, 2), range(2, n + 1, 2)), (1, 1), (1, -1))


@functools.lru_cache(maxsize=512)
def _alpha_sum(n: int) -> Fraction:
    # 2/1 - 2/3 + 2/5 - ... over 2n - 1, then (-1)^n/(2n + 1)
    groups = (range(1, 2 * n, 4), range(3, 2 * n, 4), (2 * n + 1,))
    return _exact_sums(groups, (2, -2, (-1) ** n))[0]


def harmonic(n: int) -> Fraction:
    """Harmonic number H_n = sum_{k=1..n} 1/k, H_0 = 0."""
    n = _integer(n, _FROM_0, 0, _MAX_N)
    return _harmonic_sums(n)[0]


def alt_harmonic(n: int) -> Fraction:
    """Alternating harmonic number A_n = sum_{k=1..n} (-1)^(k-1)/k, A_0 = 0."""
    n = _integer(n, _FROM_0, 0, _MAX_N)
    return _harmonic_sums(n)[1]


def alpha(n: int) -> Fraction:
    """Coefficient of the Si expansion: 2 sum_{k<=n} (-1)^(k-1)/(2k-1) + (-1)^n/(2n+1)."""
    n = _integer(n, _FROM_0, 0, _MAX_N)
    return _alpha_sum(n)


def beta(n: int) -> Fraction:
    """Coefficient of the Ci expansion: H_n + A_n - 1/(2n) - (-1)^(n-1)/(2n).

    The two corrections are one fraction, (1 + (-1)^(n-1))/(2n): 1/n for odd
    n and 0 for even n, so beta is two Fraction operations on the cached
    H_n and A_n.  n = 0 is rejected (the formula divides by 2n); the n -> 0
    limit behaviour lives in the vanishing J_0-weighted integral, not here.
    """
    n = _integer(n, _FROM_1, 1, _MAX_N)
    h, a = _harmonic_sums(n)
    return h + a - Fraction(1 + (-1) ** (n - 1), 2 * n)


def beta_variant(n: int) -> Fraction:
    """Equivalent form H_{n-1} + A_{n-1} + 1/(2n) + (-1)^(n-1)/(2n)."""
    n = _integer(n, _FROM_1, 1, _MAX_N)
    h, a = _harmonic_sums(n - 1)
    return h + a + Fraction(1 + (-1) ** (n - 1), 2 * n)


def lemma1_closed(n: int) -> Fraction:
    """The cot-weighted sine integral in closed form: 1 - 2 sum_{k<=n} (-1)^k/(4k^2-1)."""
    n = _integer(n, _FROM_0, 0, _MAX_N)
    odd, even = ([4 * k * k - 1 for k in range(first, n + 1, 2)] for first in (1, 2))
    return _exact_sums(((1,), odd, even), (1, 2, -2))[0]


def alpha_factorial_form(n: int) -> Fraction:
    """Finite factorial sum equal to alpha(n)/(2n+1).

    sum_{k=0..n} (n+k)!/(n-k)! * (-4)^k / ((2k+1)(2k+1)!).  Its term ratio
    t_k/t_{k-1} = a_k/b_k = -2(n+k)(n-k+1)(2k-1) / (k(2k+1)^2) and t_0 = 1
    give it by Horner from the top in integers: N, D <- b_k D + a_k N, b_k D.
    Its integers grow to O(n log n) bits, so the cost grows about as n^2:
    0.05 s at n = 2500 and about 0.6 s at n = 10^4 (2-core x86-64 host).
    """
    n = _integer(n, _FROM_0, 0, _MAX_N)
    num = den = 1
    for k in range(n, 0, -1):
        a, b = -2 * (n + k) * (n - k + 1) * (2 * k - 1), k * (2 * k + 1) ** 2
        num, den = b * den + a * num, b * den
    return Fraction(num, den)


def beta_factorial_form(n: int) -> Fraction:
    """Finite factorial sum equal to beta(n)/(2n).

    sum_{j=0..n-1} (n+j)!/(n-j-1)! * (-4)^j / ((j+1)(2j+2)!), by Horner in
    integers as alpha_factorial_form from t_j/t_{j-1} = -2(n+j)(n-j)j /
    ((j+1)^2 (2j+1)) and t_0 = n/2, at the same cost (about 0.6 s at
    n = 10^4).
    """
    n = _integer(n, _FROM_1, 1, _MAX_N)
    num = den = 1
    for j in range(n - 1, 0, -1):
        a, b = -2 * (n + j) * (n - j) * j, (j + 1) ** 2 * (2 * j + 1)
        num, den = b * den + a * num, b * den
    return Fraction(n * num, 2 * den)
