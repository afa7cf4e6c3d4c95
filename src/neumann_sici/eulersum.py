"""Closed forms and independent oracles for the Euler-sum identities.

The four linear sums are closed forms built purely from the zeta/eta tables
in ``specfun``, so one constants table is the sole numeric authority:
Euler's evaluation of 2 sum H_{n-1}/n^k, Nielsen's formula for
2 sum A_{n-1}/n^k, and the two Sitaramachandrarao formulas for the
alternating sums 2 sum (-1)^n H_{n-1}/n^{2k} and 2 sum (-1)^n A_{n-1}/n^{2k}.
The beta-sum right-hand sides follow the paper's derivation from
beta_n = H_{n-1} + A_{n-1} + 1/(2n) + (-1)^(n-1)/(2n): Corollary 3 is
Euler's plus Nielsen's sum plus zeta + eta, and Corollary 4 is the two
Sitaramachandrarao sums less zeta + eta.  Each corollary reports its four
parts, and each linear-sum part is the left side of its own registry check.

Each closed form has an independent oracle: the partial sums F_m of a fixed
20000 terms, extrapolated to their limit.  The remainder a truncation at m
leaves has a part that alternates with m and one that does not: when the
summand couples two alternating factors, their sign patterns multiply to a
constant (alternating-harmonic tails inside an alternating Euler sum).  Both
parts expand in the same smooth modes, so the sums are fitted by least
squares to

    F_m = I + sum_q c_q (-1)^m s^(-q) [log s] + sum_q d_q s^(-q) [log s],

with s = m / 20000 and q = 1, 2, 3, each with and without the factor log s
for the log n that the harmonic numbers carry; the constant I is the limit.
This is Sidi's GREP with an alternating and a smooth shape function
(A. Sidi, *Practical Extrapolation Methods*, Cambridge UP, 2003, ch. 4 and
11).  The non-alternating sums, whose terms decay like log(n)/n^s, far too
slowly for a bare truncation, lean on the smooth columns, the alternating
sums on both.
They all fit one design.  The grid n = 1..20000 with its sign, the
coefficient sequences 2 H_{n-1}, 2 A_{n-1} and 2 beta_n, the two Catalan
sums' terms, and the two weight rows of the fit are built once per process,
on the first oracle call, and kept read-only, as is n^(-k) for each exponent
k on its first use (at most 8 kept).  So a power-weighted oracle call
allocates its terms, the product of two of those tables, and the cumulative
sum of their last half; a Catalan call reads its terms from the grid and
allocates only that half-length sum.  Each costs two dot products more.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from .specfun import _ZETA_ONE, CONSTANTS, _integer, eta, zeta

__all__ = [
    "ClosedFormValue",
    "euler_linear_sum",
    "nielsen_sum",
    "sitaramachandrarao_h",
    "sitaramachandrarao_a",
    "corollary3_rhs",
    "corollary4_rhs",
    "beta_weighted_sum",
    "euler_sum_oracle",
    "nielsen_sum_oracle",
    "sitaramachandrarao_h_oracle",
    "sitaramachandrarao_a_oracle",
    "catalan_alpha_sum",
    "catalan_auxiliary_sum",
    "corollary6_rhs",
]


@dataclass
class ClosedFormValue:
    """A closed form and its parts: (name, coefficient) pairs whose names are
    calls of public functions of ``eulersum`` or ``specfun``, such as
    ``euler_linear_sum(2)`` or ``zeta(3)``; ``value`` is sum coefficient * part."""

    value: float
    assembly: list[tuple[str, float]]


def _index(value: int, minimum: int, name: str = "k", maximum: int = _ZETA_ONE) -> int:
    # Every index k and exponent stops at the weight from which zeta and eta
    # are clamped to 1.0, so no closed form loops past it and no huge integer
    # reaches a float.
    message = f"{name} must be an integer from {minimum} to {maximum}"
    return _integer(value, message, minimum, maximum)


def _sum_of_parts(*parts: tuple[Callable[[int], float], int, float]) -> ClosedFormValue:
    # parts are (function, argument, coefficient)
    assembly = [(f"{fn.__name__}({arg})", coeff) for fn, arg, coeff in parts]
    return ClosedFormValue(sum(coeff * fn(arg) for fn, arg, coeff in parts), assembly)


# ---------------------------------------------------------------------------
# Closed forms
# ---------------------------------------------------------------------------

def euler_linear_sum(k: int) -> float:
    """Euler's evaluation 2 sum H_{n-1}/n^k = k zeta(k+1) - sum_{j=1}^{k-2} zeta(k-j) zeta(j+1)."""
    k = _index(k, 2)
    total = k * zeta(k + 1)
    for j in range(1, k - 1):
        total -= zeta(k - j) * zeta(j + 1)
    return total


def nielsen_sum(k: int) -> float:
    """Nielsen's formula 2 sum A_{n-1}/n^k = 2 log2 zeta(k) - k zeta(k+1) + sum_{j=1}^k eta(k+1-j) eta(j)."""
    k = _index(k, 2)
    total = 2.0 * CONSTANTS.log2 * zeta(k) - k * zeta(k + 1)
    for j in range(1, k + 1):
        total += eta(k + 1 - j) * eta(j)
    return total


def sitaramachandrarao_h(k: int) -> float:
    """2 sum (-1)^n H_{n-1}/n^{2k} = zeta(2k+1) - (2k-1) eta(2k+1) + 2 sum_{j<k} zeta(2k+1-2j) eta(2j)."""
    k = _index(k, 1)
    total = zeta(2 * k + 1) - (2 * k - 1) * eta(2 * k + 1)
    for j in range(1, k):
        total += 2.0 * zeta(2 * k + 1 - 2 * j) * eta(2 * j)
    return total


def sitaramachandrarao_a(k: int) -> float:
    """2 sum (-1)^n A_{n-1}/n^{2k} = zeta(2k+1) + (2k+1) eta(2k+1) - 2 eta(1) eta(2k)
    - 2 sum_{j<=k} eta(2k+1-2j) zeta(2j)."""
    k = _index(k, 1)
    total = zeta(2 * k + 1) + (2 * k + 1) * eta(2 * k + 1) - 2.0 * eta(1) * eta(2 * k)
    for j in range(1, k + 1):
        total -= 2.0 * eta(2 * k + 1 - 2 * j) * zeta(2 * j)
    return total


def corollary3_rhs(k: int) -> ClosedFormValue:
    """Closed form of 2 sum beta_n / n^{k+1}: Euler's and Nielsen's linear sums
    of weight k+1, plus zeta(k+2) + eta(k+2) from the 1/(2n) terms of beta_n;
    k stops one below their index maximum."""
    k = _index(k, 1, maximum=_ZETA_ONE - 1)
    return _sum_of_parts((euler_linear_sum, k + 1, 1.0), (nielsen_sum, k + 1, 1.0),
                         (zeta, k + 2, 1.0), (eta, k + 2, 1.0))


def corollary4_rhs(k: int) -> ClosedFormValue:
    """Closed form of 2 sum (-1)^n beta_n / n^{2k}: the two Sitaramachandrarao
    sums, less zeta(2k+1) + eta(2k+1) from the 1/(2n) terms of beta_n."""
    k = _index(k, 1)
    return _sum_of_parts((sitaramachandrarao_h, k, 1.0), (sitaramachandrarao_a, k, 1.0),
                         (zeta, 2 * k + 1, -1.0), (eta, 2 * k + 1, -1.0))


def corollary6_rhs() -> float:
    """4 - 4G - gamma, the closed form of the Catalan-constant integral."""
    return 4.0 - 4.0 * CONSTANTS.catalan_g - CONSTANTS.euler_gamma


# ---------------------------------------------------------------------------
# Oracles (least-squares limit of the partial sums)
# ---------------------------------------------------------------------------

_N_TERMS = 20000


class _Grid(NamedTuple):
    # The oracles' per-process constants, each a read-only array over n = 1 .. 20000
    n: np.ndarray
    flip: np.ndarray  # (-1)^n
    h: np.ndarray  # 2 H_{n-1}
    a: np.ndarray  # 2 A_{n-1}
    beta: np.ndarray  # 2 beta_n
    catalan_alpha: np.ndarray  # catalan_alpha_sum's terms (-1)^n alpha_n / (n (n + 1))
    catalan_auxiliary: np.ndarray  # catalan_auxiliary_sum's terms (-1)^n L_n / n
    back: np.ndarray  # where each fit row but the last reads the tail sums (see _tail_sums)
    full: np.ndarray  # the fit's weight row
    dropped: np.ndarray  # the weight row without the last column pair


@functools.lru_cache(maxsize=1)
def _grid() -> _Grid:
    """The oracles' coefficient sequences, the Catalan sums' terms, the fit's
    rows and its two weight rows, as read-only arrays."""
    n = np.arange(1.0, _N_TERMS + 1.0)
    sign = np.where(np.arange(1, _N_TERMS + 1) % 2 == 1, 1.0, -1.0)
    h, a, leib = (np.cumsum(x) for x in (1.0 / n, sign / n, sign / (2.0 * n - 1.0)))
    # The rows of the fit are the last half of the sums, thinned by an odd
    # stride that keeps both parities of m; the last sum is always a row.
    rows = np.arange(_N_TERMS - 1, _N_TERMS // 2 - 1, -9)[::-1]
    scale = n[rows] / _N_TERMS
    columns = [np.ones_like(scale)]
    for q in (1, 2, 3):
        for with_log in (False, True):
            smooth = scale**-q * np.log(scale) if with_log else scale**-q
            columns += [-sign[rows] * smooth, smooth]
    design = np.stack(columns, axis=1)
    design /= np.linalg.norm(design, axis=0)
    # The limit of the full fit and of the fit without its last column pair,
    # each the first row of the design's pseudo-inverse (over the constant
    # column's norm), with lstsq's singular-value cutoff eps max(M, N).
    weights = []
    for d in (design, design[:, :-2]):
        u, s, vt = np.linalg.svd(d, full_matrices=False)
        keep = s > np.finfo(float).eps * max(d.shape) * s[0]
        weights.append(u[:, keep] @ (vt[keep, 0] / s[keep]) / math.sqrt(len(rows)))
    # the Catalan terms, with L_n the Leibniz sum sum_{k<=n} (-1)^(k-1)/(2k-1)
    flip = -sign
    alpha = flip * (2.0 * leib - sign / (2.0 * n + 1.0))
    alpha /= n * (n + 1.0)
    auxiliary = flip * leib
    auxiliary /= n
    grid = _Grid(n, flip, 2.0 * (h - 1.0 / n), 2.0 * (a - sign / n),
                 2.0 * (h + a - (1.0 + sign) / (2.0 * n)), alpha, auxiliary,
                 _N_TERMS - 2 - rows[:-1], *weights)
    for x in grid:
        x.flags.writeable = False
    return grid


def _tail_sums(terms: np.ndarray) -> np.ndarray:
    # Partial sums of the terms minus their total, -sum_{k>m} terms[k], at the
    # fit's rows m.  Summed from the far end, their rounding is the size of
    # the tail, not of the total, which the fit would amplify.  Only the last
    # half, which holds every row, is summed; the last row's tail is empty.
    from_last = np.cumsum(terms[: _N_TERMS // 2 : -1])  # [i]: the last i + 1 terms
    return np.append(-from_last[_grid().back], 0.0)


def alternating_series_limit(terms: np.ndarray) -> tuple[float, float]:
    """The fitted sum of the 20000 ``terms`` and how far it moves when the
    fit drops its last column pair, which the caller turns into an estimate."""
    grid, y = _grid(), _tail_sums(terms)
    limit = float(grid.full @ y)
    return float(np.sum(terms)) + limit, abs(limit - float(grid.dropped @ y))


# Every oracle raises once its fit's stall estimate passes this; the largest
# at any legal index is 3.6e-13, beta_weighted_sum(1, True)'s
_FIT_TOL = 1e-11


def _fitted_sum(terms: np.ndarray, what: str) -> float:
    value, shift = alternating_series_limit(terms)
    est = max(2.0 * shift, 4e-16 * max(1.0, abs(value)))
    if est > _FIT_TOL:
        raise RuntimeError(f"{what}: acceleration stalled at {est:.2e} > tol {_FIT_TOL:.2e}")
    return value


@functools.lru_cache(maxsize=8)
def _inverse_power(exponent: int) -> np.ndarray:
    # n^(-exponent) over the grid, read-only: a registry pass uses 5 exponents
    # in 21 oracle calls, so each is computed once per process
    power = _grid().n ** (-float(exponent))
    power.flags.writeable = False
    return power


def _oracle(coeffs: np.ndarray, exponent: int, alternating: bool, what: str) -> float:
    # the fitted sum of (+-1)^n coeffs / n^exponent, the sign (-1)^n if alternating
    terms = _inverse_power(exponent) * coeffs
    if alternating:
        terms *= _grid().flip
    return _fitted_sum(terms, what)


def euler_sum_oracle(k: int) -> float:
    """Accelerated 2 sum H_{n-1}/n^k."""
    k = _index(k, 2)
    return _oracle(_grid().h, k, False, f"linear sum oracle (exponent {k})")


def nielsen_sum_oracle(k: int) -> float:
    """Accelerated 2 sum A_{n-1}/n^k."""
    k = _index(k, 2)
    return _oracle(_grid().a, k, False, f"linear sum oracle (exponent {k})")


def sitaramachandrarao_h_oracle(k: int) -> float:
    """Accelerated 2 sum (-1)^n H_{n-1}/n^{2k}."""
    k = _index(k, 1)
    return _oracle(_grid().h, 2 * k, True, f"linear sum oracle (exponent {2 * k})")


def sitaramachandrarao_a_oracle(k: int) -> float:
    """Accelerated 2 sum (-1)^n A_{n-1}/n^{2k}."""
    k = _index(k, 1)
    return _oracle(_grid().a, 2 * k, True, f"linear sum oracle (exponent {2 * k})")


def beta_weighted_sum(exponent: int, alternating: bool) -> float:
    """Accelerated 2 sum (+-1)^n beta_n / n^exponent.

    The non-alternating sum decays like log(n)/n^exponent and needs
    exponent >= 2; the alternating one converges for exponent >= 1.
    ``alternating`` must be True or False (a numpy bool too).
    """
    if not isinstance(alternating, (bool, np.bool_)):
        raise ValueError(f"alternating must be True or False, got {alternating!r}")
    minimum = 1 if alternating else 2
    exponent = _index(exponent, minimum, "exponent")
    return _oracle(_grid().beta, exponent, alternating, "beta-weighted sum")


def catalan_alpha_sum() -> float:
    """Accelerated sum (-1)^n alpha_n / (n(n+1)); evaluates to 3 - 4G."""
    return _fitted_sum(_grid().catalan_alpha, "catalan alpha sum")


def catalan_auxiliary_sum() -> float:
    """Accelerated sum (-1)^n/n * sum_{k<=n} (-1)^(k-1)/(2k-1); evaluates to -G."""
    return _fitted_sum(_grid().catalan_auxiliary, "catalan auxiliary sum")
