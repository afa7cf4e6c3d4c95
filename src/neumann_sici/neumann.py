"""Truncated evaluation of the Bessel-series expansions of Si and Ci.

The two expansions are

    Si(a) = 2 sum_{n>=0} J_{2n+1}(a) alpha_n
    Ci(a) = gamma + log(a) - 2 sum_{n>=1} J_{2n}(a) beta_n

with the exact rational coefficients provided by ``coeffs``.  Truncations
carry a rigorous tail bound built from |J_m(a)| <= (a/2)^m / m! and the
elementary coefficient bounds alpha_n <= pi/2 + 3/(2n+1) and
beta_n <= H_n + A_n + 1/n.  Both expansions and the alternating series of
Corollary 5 share one truncation loop: it stops at the first n whose tail
bound is <= tol, and after at most min(400, int(a) + 80) terms returns with
``converged`` False.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

from . import coeffs
from .specfun import CONSTANTS, bessel_j_all, si as si_kernel

__all__ = [
    "SeriesEval",
    "si_neumann",
    "ci_neumann",
    "corollary5_series",
    "addition_theorem_check",
    "convergence_table",
]


@dataclass
class SeriesEval:
    value: float
    terms_used: int
    tail_bound: float
    converged: bool


@functools.cache
def _alpha(n: int) -> float:
    return float(coeffs.alpha(n))


@functools.cache
def _beta(n: int) -> float:
    return float(coeffs.beta(n))


@functools.cache
def _beta_coeff_bound(n: int) -> float:
    # H_n + A_n + 1/n
    return float(coeffs.harmonic(n) + coeffs.alt_harmonic(n)) + 1.0 / n


def _bessel_majorant(a: float, m: int) -> float:
    # |J_m(a)| <= (a/2)^m / m!
    if 0.5 * a == 0.0:
        return 1.0 if m == 0 else 0.0
    logv = m * math.log(0.5 * a) - math.lgamma(m + 1)
    if logv > 709.0:  # majorant overflows long before the factorial wins
        return math.inf
    return math.exp(logv)


def _tail_bound(a: float, first_n: int, parity: int, coeff_bound) -> float:
    """sum_{n >= first_n} majorant(2n + parity) * coeff_bound(n), closed with a
    geometric factor once the term ratio drops below 1/2.

    The closing ratio includes the coefficient-bound growth (the Ci bound
    H_n + A_n + 1/n increases), so the result stays a true upper bound.
    """
    total = 0.0
    n = first_n
    while True:
        m = 2 * n + parity
        cb = coeff_bound(n)
        term = _bessel_majorant(a, m) * cb
        if math.isinf(term):
            return math.inf
        total += term
        ratio = (0.5 * a) ** 2 / ((m + 1.0) * (m + 2.0))
        if cb > 0.0:
            ratio *= max(1.0, coeff_bound(n + 1) / cb)
        if ratio < 0.5 and (term == 0.0 or term < 1e-4 * max(total, 1e-300)):
            return total + term * ratio / (1.0 - ratio)
        n += 1
        if n - first_n > 10000:  # unreachable for sane arguments
            return math.inf


def _alpha_bound(n: int) -> float:
    return 0.5 * math.pi + 3.0 / (2 * n + 1)


def _truncate(
    a: float, tol: float, start: float, first: int, parity: int, term, coeff_bound, scale: float
) -> SeriesEval:
    """start + sum_{n >= first} term(n, J), where J[m] = J_m(a).

    Stops at the first n whose tail bound, scale times the majorant sum over
    the orders 2k + parity for k > n, is <= tol; otherwise after
    min(400, int(a) + 80) terms, with converged False.
    """
    limit = min(400, int(a) + 80)
    j = bessel_j_all(2 * (limit + first) + parity, a)
    total = start
    tail = math.inf
    for n in range(first, first + limit):
        total += term(n, j)
        tail = scale * _tail_bound(a, n + 1, parity, coeff_bound)
        if tail <= tol:
            return SeriesEval(total, n - first + 1, tail, True)
    return SeriesEval(total, limit, tail, False)


def si_neumann(a: float, tol: float = 1e-12) -> SeriesEval:
    """Truncated Si expansion with tail bound <= tol."""
    if not math.isfinite(a):
        raise ValueError("a must be finite")
    if a < 0:
        raise ValueError("a must be nonnegative (the expansion is stated for a >= 0)")
    if a == 0.0:
        return SeriesEval(0.0, 0, 0.0, True)
    return _truncate(
        a, tol, 0.0, 0, 1, lambda n, j: 2.0 * j[2 * n + 1] * _alpha(n), _alpha_bound, 2.0
    )


def ci_neumann(a: float, tol: float = 1e-12) -> SeriesEval:
    """Truncated Ci expansion with tail bound <= tol."""
    if not math.isfinite(a):
        raise ValueError("a must be finite")
    if a <= 0:
        raise ValueError("a must be positive")
    return _truncate(
        a, tol, CONSTANTS.euler_gamma + math.log(a), 1, 0,
        lambda n, j: -2.0 * j[2 * n] * _beta(n), _beta_coeff_bound, 2.0,
    )


def corollary5_series(a: float) -> SeriesEval:
    """sum_{n>=1} (-1)^n J_{2n}(a) beta_n / n (even in a), with tail bound <= 1e-10."""
    if not math.isfinite(a):
        raise ValueError("a must be finite")
    a = abs(a)
    if a == 0.0:
        return SeriesEval(0.0, 0, 0.0, True)
    return _truncate(
        a, 1e-10, 0.0, 1, 0, lambda n, j: ((-1) ** n) * j[2 * n] * _beta(n) / n,
        lambda n: _beta_coeff_bound(n) / n, 1.0,
    )


def addition_theorem_check(a: float, t: float) -> tuple[float, float]:
    """LHS and truncated RHS of the phi = pi/2 Neumann addition theorem:

    J_0(sqrt(a^2+t^2)) - J_0(a) J_0(t) = 2 sum_{n>=1} (-1)^n J_{2n}(a) J_{2n}(t)

    with the right side cut after 40 terms.
    """
    if not (math.isfinite(a) and math.isfinite(t)):
        raise ValueError("a and t must be finite")
    a, t = abs(a), abs(t)  # even orders only: both sides are even in a and t
    ja = bessel_j_all(80, a)
    jt = bessel_j_all(80, t)
    # same Miller path for all three J_0 evaluations keeps the trivial
    # points (a = 0 or t = 0) exactly zero
    lhs = bessel_j_all(0, math.hypot(a, t))[0] - ja[0] * jt[0]
    rhs = 2.0 * math.fsum(((-1) ** n) * ja[2 * n] * jt[2 * n] for n in range(1, 41))
    return lhs, rhs


def convergence_table(
    a_grid: list[float], n_grid: list[int]
) -> list[tuple[float, int, float, float]]:
    """Rows (a, N, abs_error, tail_bound) for N-term truncations of the Si
    expansion against the independent Si kernel, sorted by (a, N)."""
    if not a_grid or not n_grid:
        raise ValueError("grids must be nonempty")
    rows = []
    for a in sorted(a_grid):
        ref = si_kernel(a)
        for n_terms in sorted(n_grid):
            if a == 0.0:
                rows.append((a, n_terms, 0.0, 0.0))
                continue
            j = bessel_j_all(2 * n_terms + 1, a)
            partial = sum((2.0 * j[2 * n + 1] * _alpha(n) for n in range(n_terms)), 0.0)
            tail = 2.0 * _tail_bound(a, n_terms, 1, _alpha_bound)
            rows.append((a, n_terms, abs(partial - ref), tail))
    return rows
