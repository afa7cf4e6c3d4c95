"""Closed forms and independent oracles for the Euler-sum identities.

The closed forms (Euler's linear-sum evaluation, Nielsen's formula, the two
Sitaramachandrarao alternating formulas, and the assembled right-hand sides
of the even and alternating beta-sum identities) are built purely from the
zeta/eta tables in ``specfun``, so one constants table is the sole numeric
authority.  Each closed form has an independent oracle: the partial sums of
a fixed 20000 terms, fitted by least squares with alternating and smooth
n^(-q) and n^(-q) log n remainders (see ``_accel``).  The non-alternating
sums, whose terms decay like log(n)/n^s, far too slowly for a bare
truncation, lean on the smooth columns, the alternating sums on both.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._accel import alternating_series_limit, sums_from_last
from .specfun import CONSTANTS, _integer, eta, zeta

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
    if name == "log2":
        return _LOG2
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
    k = _integer(k, "k must be an integer >= 2", 2)
    total = k * zeta(k + 1)
    for j in range(1, k - 1):
        total -= zeta(k - j) * zeta(j + 1)
    return total


def nielsen_sum(k: int) -> float:
    """Nielsen's formula 2 sum A_{n-1}/n^k = 2 log2 zeta(k) - k zeta(k+1) + sum_{j=1}^k eta(k+1-j) eta(j)."""
    k = _integer(k, "k must be an integer >= 2", 2)
    total = 2.0 * _LOG2 * zeta(k) - k * zeta(k + 1)
    for j in range(1, k + 1):
        total += eta(k + 1 - j) * eta(j)
    return total


def sitaramachandrarao_h(k: int) -> float:
    """2 sum (-1)^n H_{n-1}/n^{2k} = zeta(2k+1) - (2k-1) eta(2k+1) + 2 sum_{j<k} zeta(2k+1-2j) eta(2j)."""
    k = _integer(k, "k must be an integer >= 1", 1)
    total = zeta(2 * k + 1) - (2 * k - 1) * eta(2 * k + 1)
    for j in range(1, k):
        total += 2.0 * zeta(2 * k + 1 - 2 * j) * eta(2 * j)
    return total


def sitaramachandrarao_a(k: int) -> float:
    """2 sum (-1)^n A_{n-1}/n^{2k} = zeta(2k+1) + (2k+1) eta(2k+1) - 2 eta(1) eta(2k)
    - 2 sum_{j<=k} eta(2k+1-2j) zeta(2j)."""
    k = _integer(k, "k must be an integer >= 1", 1)
    total = zeta(2 * k + 1) + (2 * k + 1) * eta(2 * k + 1) - 2.0 * eta(1) * eta(2 * k)
    for j in range(1, k + 1):
        total -= 2.0 * eta(2 * k + 1 - 2 * j) * zeta(2 * j)
    return total


def corollary3_rhs(k: int) -> ClosedFormValue:
    """Closed form of 2 sum beta_n / n^{k+1}:

    2 log2 zeta(k+1) + zeta(k+2) + eta(k+2)
      + sum_{j=1}^{k+1} eta(k+2-j) eta(j) - sum_{j=1}^{k-1} zeta(k+1-j) zeta(j+1)
    """
    k = _integer(k, "k must be an integer >= 1", 1)
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
    k = _integer(k, "k must be an integer >= 1", 1)
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
# Oracles (least-squares limit of the partial sums)
# ---------------------------------------------------------------------------

_N_ACCEL = 20000
# The remainders carry log n from the harmonic numbers: n^(-q) and n^(-q) log n.
_LOG_LADDER = ((0, False), *((q, with_log) for q in (1, 2, 3) for with_log in (False, True)))


def _grid(terms: int) -> tuple[np.ndarray, np.ndarray]:
    """n = 1 .. terms and the sign (-1)^(n-1)."""
    n = np.arange(1.0, terms + 1.0)
    return n, np.where(np.arange(1, terms + 1) % 2 == 1, 1.0, -1.0)


def _accelerated(terms: np.ndarray, tol: float, what: str) -> float:
    limit, shift = alternating_series_limit(sums_from_last(terms), None, _LOG_LADDER)
    value = float(np.sum(terms)) + limit
    est = max(2.0 * shift, 4e-16 * max(1.0, abs(value)))
    if est > tol:
        raise RuntimeError(f"{what}: acceleration stalled at {est:.2e} > tol {tol:.2e}")
    return value


def euler_sum_oracle(k: int) -> float:
    """Accelerated 2 sum H_{n-1}/n^k."""
    k = _integer(k, "k must be an integer >= 2", 2)
    n, _ = _grid(_N_ACCEL)
    hm1 = np.cumsum(1.0 / n) - 1.0 / n
    return _accelerated(2.0 * hm1 * n ** (-float(k)), 1e-10, "euler sum oracle")


def nielsen_sum_oracle(k: int) -> float:
    """Accelerated 2 sum A_{n-1}/n^k."""
    k = _integer(k, "k must be an integer >= 2", 2)
    n, sign = _grid(_N_ACCEL)
    am1 = np.cumsum(sign / n) - sign / n
    return _accelerated(2.0 * am1 * n ** (-float(k)), 1e-10, "nielsen sum oracle")


def sitaramachandrarao_h_oracle(k: int) -> float:
    """Accelerated 2 sum (-1)^n H_{n-1}/n^{2k}."""
    k = _integer(k, "k must be an integer >= 1", 1)
    n, sign = _grid(_N_ACCEL)
    hm1 = np.cumsum(1.0 / n) - 1.0 / n
    return _accelerated(-2.0 * sign * hm1 * n ** (-2.0 * k), 1e-10, "sitaramachandrarao_h oracle")


def sitaramachandrarao_a_oracle(k: int) -> float:
    """Accelerated 2 sum (-1)^n A_{n-1}/n^{2k}."""
    k = _integer(k, "k must be an integer >= 1", 1)
    n, sign = _grid(_N_ACCEL)
    am1 = np.cumsum(sign / n) - sign / n
    return _accelerated(-2.0 * sign * am1 * n ** (-2.0 * k), 1e-10, "sitaramachandrarao_a oracle")


def _beta_weighted_terms(exponent: int, alternating: bool, count: int) -> np.ndarray:
    # 2 (+-1)^n beta_n / n^exponent, beta_n = H_n + A_n - (1 + (-1)^(n-1)) / (2n)
    n, sign = _grid(count)
    beta = np.cumsum(1.0 / n) + np.cumsum(sign / n) - (1.0 + sign) / (2.0 * n)
    terms = 2.0 * beta * n ** (-float(exponent))
    if alternating:
        terms *= -sign
    return terms


def beta_weighted_sum(exponent: int, alternating: bool) -> float:
    """Accelerated 2 sum (+-1)^n beta_n / n^exponent.

    The non-alternating sum decays like log(n)/n^exponent and needs
    exponent >= 2; the alternating one converges for exponent >= 1.
    """
    minimum = 1 if alternating else 2
    exponent = _integer(exponent, f"exponent must be an integer >= {minimum}", minimum)
    terms = _beta_weighted_terms(exponent, alternating, _N_ACCEL)
    return _accelerated(terms, 1e-10, "beta-weighted sum")


def catalan_alpha_sum() -> float:
    """Accelerated sum (-1)^n alpha_n / (n(n+1)); evaluates to 3 - 4G."""
    n, sign = _grid(_N_ACCEL)
    leib = np.cumsum(sign / (2.0 * n - 1.0))
    alpha = 2.0 * leib - sign / (2.0 * n + 1.0)
    return _accelerated(-sign * alpha / (n * (n + 1.0)), 1e-11, "catalan alpha sum")


def catalan_auxiliary_sum() -> float:
    """Accelerated sum (-1)^n/n * sum_{k<=n} (-1)^(k-1)/(2k-1); evaluates to -G."""
    n, sign = _grid(_N_ACCEL)
    leib = np.cumsum(sign / (2.0 * n - 1.0))
    return _accelerated(-sign * leib / n, 1e-11, "catalan auxiliary sum")
