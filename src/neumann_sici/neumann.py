"""Truncated evaluation of the Bessel-series expansions of Si and Ci.

The two expansions are

    Si(a) = 2 sum_{n>=0} J_{2n+1}(a) alpha_n
    Ci(a) = gamma + log(a) - 2 sum_{n>=1} J_{2n}(a) beta_n

with the exact rational coefficients provided by ``coeffs``.  Truncations
carry a rigorous tail bound built from |J_m(a)| <= (a/2)^m / m! (DLMF
10.14.4) and the elementary coefficient bounds alpha_n <= pi/2 + 3/(2n+1)
and beta_n <= H_n + A_n + 1/n.  Both expansions and the alternating series
of Corollary 5 share one truncation and one tolerance, ``_TOL``: one pass
over the majorant finds the first n whose tail bound is <= ``_TOL`` before
any J_m(a) is computed, at most 400 up to |a| = ``_MAX_A`` (ci_neumann first
needs more at a ~ 571.1), past which ValueError is raised instead.

The addition theorem's right side is the same truncation in the smaller of
its two arguments, whose coefficients 2 (-1)^n J_{2n} of the larger are
bounded by 2 (|J_k| <= 1, DLMF 10.14.1), so its domain is min(|a|, |t|) <=
``_MAX_A`` for any finite larger argument.
"""

from __future__ import annotations

import functools
import itertools
import math
from collections.abc import Iterable
from dataclasses import dataclass

from . import coeffs
from .specfun import CONSTANTS, _integer, _real, bessel_j_all, si as si_kernel

__all__ = [
    "SeriesEval",
    "si_neumann",
    "ci_neumann",
    "corollary5_series",
    "addition_theorem_check",
    "convergence_table",
]


# Every truncation's tail bound meets _TOL within _MAX_TERMS terms for |a| <= _MAX_A;
# the convergence table takes no longer N.
_MAX_TERMS = 400
_TOL = 1e-12
_MAX_A = 570


@dataclass
class SeriesEval:
    """A truncated series: its ``value``, the ``terms_used`` it sums and a
    ``tail_bound`` on |value - series| that includes the sum's rounding.
    ``converged`` is always True: every truncation meets ``_TOL`` in its
    domain and raises ValueError outside it."""

    value: float
    terms_used: int
    tail_bound: float
    converged: bool


@functools.cache
def _si_coeff(n: int) -> float:
    return 2.0 * float(coeffs.alpha(n))


def _si_bound(n: int) -> float:
    return 2.0 * (0.5 * math.pi + 3.0 / (2 * n + 1))


@functools.cache
def _beta(n: int) -> float:
    return float(coeffs.beta(n))


@functools.cache
def _beta_coeff_bound(n: int) -> float:
    # H_n + A_n + 1/n
    return float(coeffs.harmonic(n) + coeffs.alt_harmonic(n)) + 1.0 / n


def _tail_bounds(a: float, first: int, parity: int, bound, floor: float):
    """tail(N), a bound on sum_{k >= first + N} bound(k) |J_{2k+parity}(a)|.

    One pass generates each majorant term bound(k) (a/2)^m / m!, m = 2k +
    parity, up to the first term <= floor with a step ratio below 1/2.  A
    geometric factor closes the sum there (its ratio includes the growth of
    the Ci bound) and bounds every tail past that term.  An infinite term
    makes every tail infinite.
    """
    half = 0.5 * a
    # multiplied out: (a/2)**m overflows for huge a
    majorant = math.prod(half / i for i in range(1, 2 * first + parity + 1))
    terms = []
    for k in itertools.count(first):
        m = 2 * k + parity
        b = bound(k)
        term = majorant * b
        if math.isinf(term):
            return lambda n: math.inf
        terms.append(term)
        step = half * half / ((m + 1.0) * (m + 2.0))
        ratio = step * max(1.0, bound(k + 1) / b)
        if ratio < 0.5 and term <= floor:
            break
        majorant *= step
    closure = term * ratio / (1.0 - ratio)
    tails = list(itertools.accumulate(reversed(terms), initial=closure))[::-1]
    return lambda n: tails[min(n, len(tails) - 1)]


def _partial_sums(a: float, start: float, first: int, parity: int, coeff, terms: int, other=None):
    """start + sum_{first <= n < first + N} coeff(n) J_{2n+parity}(a) for N = 0 .. terms,
    each term times J_{2n+parity}(other) too if other is given."""
    order = max(0, 2 * (first + terms - 1) + parity)
    j = bessel_j_all(order, a)
    if other is not None:
        j = [x * y for x, y in zip(j, bessel_j_all(order, other))]
    products = (coeff(n) * j[2 * n + parity] for n in range(first, first + terms))
    return list(itertools.accumulate(products, initial=start))


def _truncate(a: float, start: float, first: int, parity: int, coeff, bound,
              other=None) -> SeriesEval:
    """start + sum_{n >= first} coeff(n) J_{2n+parity}(a), where |coeff(n)| <= bound(n);
    given other, each term has one more factor J_{2n+parity}(other), which bound(n) covers.

    Sums up to the first n whose tail bound is <= ``_TOL``.  The majorant
    pass runs down to terms of 1e-4 ``_TOL``, so tails near it are explicit
    sums.  The bound adds eps times the sum of |partial sum|, twice the sum's
    first-order rounding.
    """
    tail = _tail_bounds(a, first, parity, bound, 1e-4 * _TOL)
    used = next(n for n in range(1, _MAX_TERMS + 1) if tail(n) <= _TOL)
    sums = _partial_sums(a, start, first, parity, coeff, used, other)
    rounding = math.ulp(1.0) * math.fsum(map(abs, sums))
    return SeriesEval(sums[-1], used, tail(used) + rounding, True)


def si_neumann(a: float) -> SeriesEval:
    """Truncated Si expansion, 0 <= a <= 570, with tail bound <= ``_TOL`` plus its rounding."""
    a = _real(a, f"a must be finite and in [0, {_MAX_A}]", 0.0, maximum=_MAX_A)
    if a == 0.0:
        return SeriesEval(0.0, 0, 0.0, True)
    return _truncate(a, 0.0, 0, 1, _si_coeff, _si_bound)


def ci_neumann(a: float) -> SeriesEval:
    """Truncated Ci expansion, 0 < a <= 570, with tail bound <= ``_TOL`` plus its rounding."""
    a = _real(a, f"a must be finite and in (0, {_MAX_A}]", 0.0, True, _MAX_A)
    return _truncate(
        a, CONSTANTS.euler_gamma + math.log(a), 1, 0,
        lambda n: -2.0 * _beta(n), lambda n: 2.0 * _beta_coeff_bound(n),
    )


def corollary5_series(a: float) -> SeriesEval:
    """sum_{n>=1} (-1)^n J_{2n}(a) beta_n / n (even in a), |a| <= 570, tail bound <= ``_TOL``."""
    a = abs(_real(a, f"a must be finite with |a| <= {_MAX_A}", -_MAX_A, maximum=_MAX_A))
    if a == 0.0:
        return SeriesEval(0.0, 0, 0.0, True)
    return _truncate(
        a, 0.0, 1, 0, lambda n: (-1) ** n * _beta(n) / n, lambda n: _beta_coeff_bound(n) / n,
    )


def addition_theorem_check(a: float, t: float) -> tuple[float, SeriesEval]:
    """LHS and truncated RHS of the phi = pi/2 Neumann addition theorem:

    J_0(sqrt(a^2+t^2)) - J_0(a) J_0(t) = 2 sum_{n>=1} (-1)^n J_{2n}(a) J_{2n}(t)

    for min(|a|, |t|) <= 570 and any finite larger argument; the right side is
    truncated in the smaller, with tail bound <= ``_TOL`` plus its rounding.
    """
    message = f"a and t must be finite with min(|a|, |t|) <= {_MAX_A}"
    # even orders only: both sides are even in a and t
    a, t = abs(_real(a, message)), abs(_real(t, message))
    small, large = sorted((a, t))
    if small > _MAX_A:
        raise ValueError(message)
    # one path for all three J_0 keeps both sides exactly 0 at a = 0 or t = 0
    lhs = bessel_j_all(0, math.hypot(a, t))[0] - bessel_j_all(0, a)[0] * bessel_j_all(0, t)[0]
    return lhs, _truncate(small, 0.0, 1, 0, lambda n: 2.0 * (-1) ** n, lambda n: 2.0, large)


def convergence_table(
    a_grid: Iterable[float], n_grid: Iterable[int]
) -> list[tuple[float, int, float, float]]:
    """Rows (a, N, abs_error, tail_bound) for N-term truncations of the Si
    expansion against the independent Si kernel, sorted by (a, N); N is at
    most 400, the expansions' term cap.  Each grid is any nonempty iterable
    of values, a numpy array included, and is read once."""
    try:
        a_grid, n_grid = list(a_grid), list(n_grid)
    except TypeError:
        raise ValueError("grids must be iterables of values") from None
    if not a_grid or not n_grid:
        raise ValueError("grids must be nonempty")
    a_grid = [_real(a, "a_grid values must be finite and nonnegative", 0.0) for a in a_grid]
    message = f"n_grid values must be integers from 0 to {_MAX_TERMS}, the expansions' term cap"
    n_grid = sorted(_integer(n, message, 0, _MAX_TERMS) for n in n_grid)
    rows = []
    for a in sorted(a_grid):
        ref = si_kernel(a)
        tail = _tail_bounds(a, 0, 1, _si_bound, 0.0)
        sums = _partial_sums(a, 0.0, 0, 1, _si_coeff, n_grid[-1])
        rows.extend((a, n, abs(sums[n] - ref), tail(n)) for n in n_grid)
    return rows
