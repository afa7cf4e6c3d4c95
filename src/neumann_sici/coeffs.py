"""Exact rational Neumann coefficients for the Si and Ci expansions.

All coefficient arithmetic is done in arbitrary-precision rationals
(``fractions.Fraction``); floats only ever appear when a caller converts a
result at the comparison boundary.  The cross-form identities
(closed forms vs. finite factorial sums) are exact statements and are checked
as exact equalities, not to a tolerance.
"""

from __future__ import annotations

from fractions import Fraction

from .specfun import _integer

__all__ = [
    "harmonic",
    "alt_harmonic",
    "alpha",
    "beta",
    "beta_variant",
    "lemma1_closed",
    "alpha_factorial_form",
    "beta_factorial_form",
]

# cumulative-sum caches, grown on demand
_harmonic_cache: list[Fraction] = [Fraction(0)]
_alt_harmonic_cache: list[Fraction] = [Fraction(0)]
_leibniz_cache: list[Fraction] = [Fraction(0)]  # sum_{k<=n} (-1)^(k-1)/(2k-1)


def harmonic(n: int) -> Fraction:
    """Harmonic number H_n = sum_{k=1..n} 1/k, H_0 = 0."""
    n = _integer(n, "n must be a nonnegative integer", 0)
    while len(_harmonic_cache) <= n:
        k = len(_harmonic_cache)
        _harmonic_cache.append(_harmonic_cache[-1] + Fraction(1, k))
    return _harmonic_cache[n]


def alt_harmonic(n: int) -> Fraction:
    """Alternating harmonic number A_n = sum_{k=1..n} (-1)^(k-1)/k, A_0 = 0."""
    n = _integer(n, "n must be a nonnegative integer", 0)
    while len(_alt_harmonic_cache) <= n:
        k = len(_alt_harmonic_cache)
        _alt_harmonic_cache.append(_alt_harmonic_cache[-1] + Fraction((-1) ** (k - 1), k))
    return _alt_harmonic_cache[n]


def _leibniz_partial(n: int) -> Fraction:
    while len(_leibniz_cache) <= n:
        k = len(_leibniz_cache)
        _leibniz_cache.append(_leibniz_cache[-1] + Fraction((-1) ** (k - 1), 2 * k - 1))
    return _leibniz_cache[n]


def alpha(n: int) -> Fraction:
    """Coefficient of the Si expansion: 2 sum_{k<=n} (-1)^(k-1)/(2k-1) + (-1)^n/(2n+1)."""
    n = _integer(n, "n must be a nonnegative integer", 0)
    return 2 * _leibniz_partial(n) + Fraction((-1) ** n, 2 * n + 1)


def beta(n: int) -> Fraction:
    """Coefficient of the Ci expansion: H_n + A_n - 1/(2n) - (-1)^(n-1)/(2n).

    n = 0 is rejected (the formula divides by 2n); the n -> 0 limit behaviour
    lives in the vanishing J_0-weighted integral, not here.
    """
    n = _integer(n, "n must be a positive integer", 1)
    return harmonic(n) + alt_harmonic(n) - Fraction(1, 2 * n) - Fraction((-1) ** (n - 1), 2 * n)


def beta_variant(n: int) -> Fraction:
    """Equivalent form H_{n-1} + A_{n-1} + 1/(2n) + (-1)^(n-1)/(2n)."""
    n = _integer(n, "n must be a positive integer", 1)
    return (
        harmonic(n - 1)
        + alt_harmonic(n - 1)
        + Fraction(1, 2 * n)
        + Fraction((-1) ** (n - 1), 2 * n)
    )


def lemma1_closed(n: int) -> Fraction:
    """The cot-weighted sine integral in closed form: 1 - 2 sum_{k<=n} (-1)^k/(4k^2-1)."""
    n = _integer(n, "n must be a nonnegative integer", 0)
    total = Fraction(1)
    for k in range(1, n + 1):
        total -= Fraction(2 * (-1) ** k, 4 * k * k - 1)
    return total


def alpha_factorial_form(n: int) -> Fraction:
    """Finite factorial sum equal to alpha(n)/(2n+1).

    sum_{k=0..n} (n+k)!/(n-k)! * 2^(2k) (-1)^k / ((2k+1)(2k+1)!), with the
    ratio (n+k)!/(n-k)! and the 2^(2k)/(2k+1)! factor updated incrementally.
    """
    n = _integer(n, "n must be a nonnegative integer", 0)
    total = Fraction(0)
    rising = Fraction(1)  # (n+k)!/(n-k)!
    factor = Fraction(1)  # 2^(2k) (-1)^k / (2k+1)!
    for k in range(n + 1):
        if k > 0:
            rising *= (n + k) * (n - k + 1)
            factor *= Fraction(-4, (2 * k) * (2 * k + 1))
        total += rising * factor / (2 * k + 1)
    return total


def beta_factorial_form(n: int) -> Fraction:
    """Finite factorial sum equal to beta(n)/(2n).

    sum_{j=0..n-1} (-1)^j 2^(2j) / ((j+1)(2j+2)!) * (n+j)!/(n-j-1)!.
    """
    n = _integer(n, "n must be a positive integer", 1)
    total = Fraction(0)
    rising = Fraction(n)  # (n+j)!/(n-j-1)!
    factor = Fraction(1, 2)  # (-1)^j 2^(2j) / (2j+2)!
    for j in range(n):
        if j > 0:
            rising *= (n + j) * (n - j)
            factor *= Fraction(-4, (2 * j + 1) * (2 * j + 2))
        total += rising * factor / (j + 1)
    return total
