"""Closed forms and independent oracles for the Euler-sum identities.

The closed forms (Euler's linear-sum evaluation, Nielsen's formula, the two
Sitaramachandrarao alternating formulas, and the assembled right-hand sides
of the even and alternating beta-sum identities) are built purely from the
zeta/eta tables in ``specfun``, so one constants table is the sole numeric
authority.  Each closed form has an independent partial-sum oracle:

* non-alternating sums are evaluated directly over 10^5 terms with an
  analytic Euler-Maclaurin tail (the integrands decay like log(n)/n^s, far
  too slowly for a bare truncation);
* alternating sums go through averaging of the partial sums (Euler
  transformation) plus a power-law extrapolation of the smooth remainder
  that survives it (see ``_accel``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._accel import alternating_series_limit
from .specfun import CONSTANTS, eta, zeta

__all__ = [
    "ClosedFormValue",
    "assembly_value",
    "euler_linear_sum",
    "nielsen_sum",
    "sitaramachandrarao_h",
    "sitaramachandrarao_a",
    "corollary3_rhs",
    "corollary4_rhs",
    "beta_weighted_sum",
    "beta_weighted_partial_sums",
    "euler_sum_oracle",
    "nielsen_sum_oracle",
    "sitaramachandrarao_h_oracle",
    "sitaramachandrarao_a_oracle",
    "catalan_alpha_sum",
    "catalan_auxiliary_sum",
    "corollary6_rhs",
]

_GAMMA = CONSTANTS.euler_gamma
_LOG2 = CONSTANTS.log2


@dataclass
class ClosedFormValue:
    """A closed-form evaluation plus its (constant, coefficient) assembly."""

    value: float
    assembly: list[tuple[str, float]]


def _resolve_factor(name: str) -> float:
    if name == "one":
        return 1.0
    if name == "log2":
        return _LOG2
    if name == "euler_gamma":
        return _GAMMA
    if name == "catalan":
        return CONSTANTS.catalan_g
    if name.startswith("zeta(") and name.endswith(")"):
        return zeta(int(name[5:-1]))
    if name.startswith("eta(") and name.endswith(")"):
        return eta(int(name[4:-1]))
    raise ValueError(f"unknown constant name {name!r}")


def assembly_value(assembly: list[tuple[str, float]]) -> float:
    """Dot product of an assembly against the constants table."""
    total = 0.0
    for name, coeff in assembly:
        term = coeff
        for factor in name.split("*"):
            term *= _resolve_factor(factor)
        total += term
    return total


def _assembly_add(acc: dict[str, float], name: str, coeff: float) -> None:
    key = "*".join(sorted(name.split("*")))
    acc[key] = acc.get(key, 0.0) + coeff


# ---------------------------------------------------------------------------
# Closed forms
# ---------------------------------------------------------------------------

def euler_linear_sum(k: int) -> float:
    """Euler's evaluation 2 sum H_{n-1}/n^k = k zeta(k+1) - sum_{j=1}^{k-2} zeta(k-j) zeta(j+1)."""
    if k < 2:
        raise ValueError("k must be >= 2")
    total = k * zeta(k + 1)
    for j in range(1, k - 1):
        total -= zeta(k - j) * zeta(j + 1)
    return total


def nielsen_sum(k: int) -> float:
    """Nielsen's formula 2 sum A_{n-1}/n^k = 2 log2 zeta(k) - k zeta(k+1) + sum_{j=1}^k eta(k+1-j) eta(j)."""
    if k < 2:
        raise ValueError("k must be >= 2")
    total = 2.0 * _LOG2 * zeta(k) - k * zeta(k + 1)
    for j in range(1, k + 1):
        total += eta(k + 1 - j) * eta(j)
    return total


def sitaramachandrarao_h(k: int) -> float:
    """2 sum (-1)^n H_{n-1}/n^{2k} = zeta(2k+1) - (2k-1) eta(2k+1) + 2 sum_{j<k} zeta(2k+1-2j) eta(2j)."""
    if k < 1:
        raise ValueError("k must be >= 1")
    total = zeta(2 * k + 1) - (2 * k - 1) * eta(2 * k + 1)
    for j in range(1, k):
        total += 2.0 * zeta(2 * k + 1 - 2 * j) * eta(2 * j)
    return total


def sitaramachandrarao_a(k: int) -> float:
    """2 sum (-1)^n A_{n-1}/n^{2k} = zeta(2k+1) + (2k+1) eta(2k+1) - 2 eta(1) eta(2k)
    - 2 sum_{j<=k} eta(2k+1-2j) zeta(2j)."""
    if k < 1:
        raise ValueError("k must be >= 1")
    total = zeta(2 * k + 1) + (2 * k + 1) * eta(2 * k + 1) - 2.0 * eta(1) * eta(2 * k)
    for j in range(1, k + 1):
        total -= 2.0 * eta(2 * k + 1 - 2 * j) * zeta(2 * j)
    return total


def corollary3_rhs(k: int) -> ClosedFormValue:
    """Closed form of 2 sum beta_n / n^{k+1}:

    2 log2 zeta(k+1) + zeta(k+2) + eta(k+2)
      + sum_{j=1}^{k+1} eta(k+2-j) eta(j) - sum_{j=1}^{k-1} zeta(k+1-j) zeta(j+1)
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    acc: dict[str, float] = {}
    _assembly_add(acc, f"log2*zeta({k + 1})", 2.0)
    _assembly_add(acc, f"zeta({k + 2})", 1.0)
    _assembly_add(acc, f"eta({k + 2})", 1.0)
    for j in range(1, k + 2):
        _assembly_add(acc, f"eta({k + 2 - j})*eta({j})", 1.0)
    for j in range(1, k):
        _assembly_add(acc, f"zeta({k + 1 - j})*zeta({j + 1})", -1.0)
    assembly = sorted(acc.items())
    return ClosedFormValue(assembly_value(assembly), assembly)


def corollary4_rhs(k: int) -> ClosedFormValue:
    """Closed form of 2 sum (-1)^n beta_n / n^{2k}:

    zeta(2k+1) + eta(2k+1) - 2 eta(1) eta(2k)
      + 2 sum_{j=1}^{k-1} zeta(2k+1-2j) eta(2j) - 2 sum_{j=1}^{k} eta(2k+1-2j) zeta(2j)
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    acc: dict[str, float] = {}
    _assembly_add(acc, f"zeta({2 * k + 1})", 1.0)
    _assembly_add(acc, f"eta({2 * k + 1})", 1.0)
    _assembly_add(acc, f"eta(1)*eta({2 * k})", -2.0)
    for j in range(1, k):
        _assembly_add(acc, f"zeta({2 * k + 1 - 2 * j})*eta({2 * j})", 2.0)
    for j in range(1, k + 1):
        _assembly_add(acc, f"eta({2 * k + 1 - 2 * j})*zeta({2 * j})", -2.0)
    assembly = sorted(acc.items())
    return ClosedFormValue(assembly_value(assembly), assembly)


def corollary6_rhs() -> float:
    """4 - 4G - gamma, the closed form of the Catalan-constant integral."""
    return 4.0 - 4.0 * CONSTANTS.catalan_g - _GAMMA


# ---------------------------------------------------------------------------
# Euler-Maclaurin tails for the direct (non-alternating) oracles
# ---------------------------------------------------------------------------

_N_DIRECT = 10**5


def _zeta_tail(s: float, n: int) -> float:
    # sum_{m>n} m^-s
    nf = float(n)
    return (
        nf ** (1.0 - s) / (s - 1.0)
        - 0.5 * nf ** (-s)
        + s * nf ** (-s - 1.0) / 12.0
        - s * (s + 1.0) * (s + 2.0) * nf ** (-s - 3.0) / 720.0
    )


def _log_zeta_tail(s: float, n: int) -> float:
    # sum_{m>n} log(m) m^-s
    nf = float(n)
    ln = math.log(nf)
    integral = nf ** (1.0 - s) * (ln / (s - 1.0) + 1.0 / (s - 1.0) ** 2)
    return integral - 0.5 * ln * nf ** (-s) - (1.0 - s * ln) * nf ** (-s - 1.0) / 12.0


def _grid(n: int) -> np.ndarray:
    return np.arange(1.0, n + 1.0)


def euler_sum_oracle(k: int, terms: int = _N_DIRECT) -> float:
    """Direct evaluation of 2 sum H_{n-1}/n^k (Euler-Maclaurin tail)."""
    if k < 2:
        raise ValueError("k must be >= 2")
    n = _grid(terms)
    hm1 = np.cumsum(1.0 / n) - 1.0 / n
    head = 2.0 * float(np.dot(hm1, n ** (-float(k))))
    # H_{n-1} = log n + gamma - 1/(2n) - 1/(12 n^2) + 1/(120 n^4) - ...
    tail = (
        _log_zeta_tail(k, terms)
        + _GAMMA * _zeta_tail(k, terms)
        - 0.5 * _zeta_tail(k + 1, terms)
        - _zeta_tail(k + 2, terms) / 12.0
        + _zeta_tail(k + 4, terms) / 120.0
    )
    return head + 2.0 * tail


def nielsen_sum_oracle(k: int, terms: int = _N_DIRECT) -> float:
    """Direct evaluation of 2 sum A_{n-1}/n^k (Euler-Maclaurin tail)."""
    if k < 2:
        raise ValueError("k must be >= 2")
    n = _grid(terms)
    sign = np.where(np.arange(1, terms + 1) % 2 == 1, 1.0, -1.0)
    am1 = np.cumsum(sign / n) - sign / n
    head = 2.0 * float(np.dot(am1, n ** (-float(k))))
    # A_{n-1} = log 2 + (-1)^n T_{n-1} with 0 < T_m < 1/(2m); the alternating
    # remainder is below 1/N^{k+1} and is dropped.
    return head + 2.0 * _LOG2 * _zeta_tail(k, terms)


# ---------------------------------------------------------------------------
# Alternating oracles (Euler transformation)
# ---------------------------------------------------------------------------

def _accelerated(partial: np.ndarray, tol: float, what: str) -> float:
    value, shift = alternating_series_limit(partial)
    est = max(2.0 * shift, 4e-16 * max(1.0, abs(value)))
    if est > tol:
        raise RuntimeError(f"{what}: acceleration stalled at {est:.2e} > tol {tol:.2e}")
    return value


def sitaramachandrarao_h_oracle(k: int, tol: float = 1e-10, terms: int = 20000) -> float:
    """Accelerated 2 sum (-1)^n H_{n-1}/n^{2k}."""
    if k < 1:
        raise ValueError("k must be >= 1")
    n = _grid(terms)
    hm1 = np.cumsum(1.0 / n) - 1.0 / n
    sign = np.where(np.arange(1, terms + 1) % 2 == 0, 1.0, -1.0)
    partial = np.cumsum(2.0 * sign * hm1 * n ** (-2.0 * k))
    return _accelerated(partial, tol, "sitaramachandrarao_h oracle")


def sitaramachandrarao_a_oracle(k: int, tol: float = 1e-10, terms: int = 20000) -> float:
    """Accelerated 2 sum (-1)^n A_{n-1}/n^{2k}."""
    if k < 1:
        raise ValueError("k must be >= 1")
    n = _grid(terms)
    alt = np.where(np.arange(1, terms + 1) % 2 == 1, 1.0, -1.0)
    am1 = np.cumsum(alt / n) - alt / n
    sign = -alt
    partial = np.cumsum(2.0 * sign * am1 * n ** (-2.0 * k))
    return _accelerated(partial, tol, "sitaramachandrarao_a oracle")


def _beta_array(terms: int) -> np.ndarray:
    n = _grid(terms)
    h = np.cumsum(1.0 / n)
    alt = np.where(np.arange(1, terms + 1) % 2 == 1, 1.0, -1.0)
    a = np.cumsum(alt / n)
    return h + a - (1.0 + alt) / (2.0 * n)


def beta_weighted_partial_sums(
    exponent: int, alternating: bool, count: int
) -> np.ndarray:
    """Partial sums of 2 sum (+-1)^n beta_n / n^exponent (oracle ingredient)."""
    n = _grid(count)
    terms = 2.0 * _beta_array(count) * n ** (-float(exponent))
    if alternating:
        terms *= np.where(np.arange(1, count + 1) % 2 == 0, 1.0, -1.0)
    return np.cumsum(terms)


def beta_weighted_sum(exponent: int, alternating: bool, tol: float = 1e-10) -> float:
    """Oracle for the beta-weighted sums 2 sum (+-1)^n beta_n / n^exponent.

    Alternating sums are Euler-accelerated; non-alternating sums (which decay
    like log(n)/n^exponent and need exponent >= 2) are summed directly with an
    analytic Euler-Maclaurin tail from beta_n = log n + gamma + log 2 + O(n^-2).
    """
    if alternating:
        partial = beta_weighted_partial_sums(exponent, True, 20000)
        return _accelerated(partial, tol, "alternating beta sum")
    if exponent < 2:
        raise ValueError("non-alternating beta sums require exponent >= 2")
    terms = _N_DIRECT
    head = float(beta_weighted_partial_sums(exponent, False, terms)[-1])
    s = float(exponent)
    # beta_n = log n + gamma + log 2 - 1/(12 n^2) - (-1)^(n-1)/(4 n^2) + O(n^-4)
    tail = (
        _log_zeta_tail(s, terms)
        + (_GAMMA + _LOG2) * _zeta_tail(s, terms)
        - _zeta_tail(s + 2.0, terms) / 12.0
    )
    est = float(terms) ** (-s - 2.0) + 1e-13
    if est > tol:
        raise RuntimeError(f"beta_weighted_sum: tail bound {est:.2e} exceeds tol")
    return head + 2.0 * tail


def catalan_alpha_sum(tol: float = 1e-10, terms: int = 20000) -> float:
    """Accelerated sum (-1)^n alpha_n / (n(n+1)); evaluates to 3 - 4G."""
    if tol <= 0:
        raise ValueError("tol must be positive")
    n = _grid(terms)
    leib = np.cumsum(np.where(np.arange(1, terms + 1) % 2 == 1, 1.0, -1.0) / (2.0 * n - 1.0))
    sign = np.where(np.arange(1, terms + 1) % 2 == 0, 1.0, -1.0)
    alpha = 2.0 * leib + sign / (2.0 * n + 1.0)
    partial = np.cumsum(sign * alpha / (n * (n + 1.0)))
    return _accelerated(partial, tol, "catalan alpha sum")


def catalan_auxiliary_sum(tol: float = 1e-10, terms: int = 20000) -> float:
    """Accelerated sum (-1)^n/n * sum_{k<=n} (-1)^(k-1)/(2k-1); evaluates to -G."""
    if tol <= 0:
        raise ValueError("tol must be positive")
    n = _grid(terms)
    leib = np.cumsum(np.where(np.arange(1, terms + 1) % 2 == 1, 1.0, -1.0) / (2.0 * n - 1.0))
    sign = np.where(np.arange(1, terms + 1) % 2 == 0, 1.0, -1.0)
    partial = np.cumsum(sign * leib / n)
    return _accelerated(partial, tol, "catalan auxiliary sum")
