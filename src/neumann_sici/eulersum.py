"""Closed forms and independent oracles for the Euler-sum identities.

The closed forms (Euler's linear-sum evaluation, Nielsen's formula, the two
Sitaramachandrarao alternating formulas, and the assembled right-hand sides
of the even and alternating beta-sum identities) are built purely from the
zeta/eta tables in ``specfun``, so one constants table is the sole numeric
authority.  Each closed form has an independent partial-sum oracle:

* non-alternating sums are evaluated directly over a fixed 10^5 terms with
  an analytic Euler-Maclaurin tail (the integrands decay like log(n)/n^s,
  far too slowly for a bare truncation);
* alternating sums take a fixed 20000 terms through averaging of the
  partial sums (Euler transformation) plus a power-law extrapolation of the
  smooth remainder that survives it (see ``_accel``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._accel import alternating_series_limit
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


def _grid(terms: int) -> tuple[np.ndarray, np.ndarray]:
    """n = 1 .. terms and the sign (-1)^(n-1)."""
    n = np.arange(1.0, terms + 1.0)
    return n, np.where(np.arange(1, terms + 1) % 2 == 1, 1.0, -1.0)


def euler_sum_oracle(k: int) -> float:
    """Direct evaluation of 2 sum H_{n-1}/n^k (Euler-Maclaurin tail)."""
    k = _integer(k, "k must be an integer >= 2", 2)
    n = np.arange(1.0, _N_DIRECT + 1.0)
    hm1 = np.cumsum(1.0 / n) - 1.0 / n
    head = 2.0 * float(np.dot(hm1, n ** (-float(k))))
    # H_{n-1} = log n + gamma - 1/(2n) - 1/(12 n^2) + 1/(120 n^4) - ...
    tail = (
        _log_zeta_tail(k, _N_DIRECT)
        + _GAMMA * _zeta_tail(k, _N_DIRECT)
        - 0.5 * _zeta_tail(k + 1, _N_DIRECT)
        - _zeta_tail(k + 2, _N_DIRECT) / 12.0
        + _zeta_tail(k + 4, _N_DIRECT) / 120.0
    )
    return head + 2.0 * tail


def nielsen_sum_oracle(k: int) -> float:
    """Direct evaluation of 2 sum A_{n-1}/n^k (Euler-Maclaurin tail)."""
    k = _integer(k, "k must be an integer >= 2", 2)
    n, sign = _grid(_N_DIRECT)
    am1 = np.cumsum(sign / n) - sign / n
    head = 2.0 * float(np.dot(am1, n ** (-float(k))))
    # A_{n-1} = log 2 + (-1)^n T_{n-1} with 0 < T_m < 1/(2m); the alternating
    # remainder is below 1/N^{k+1} and is dropped.
    return head + 2.0 * _LOG2 * _zeta_tail(k, _N_DIRECT)


# ---------------------------------------------------------------------------
# Alternating oracles (Euler transformation)
# ---------------------------------------------------------------------------

_N_ACCEL = 20000


def _accelerated(terms: np.ndarray, tol: float, what: str) -> float:
    value, shift = alternating_series_limit(np.cumsum(terms))
    est = max(2.0 * shift, 4e-16 * max(1.0, abs(value)))
    if est > tol:
        raise RuntimeError(f"{what}: acceleration stalled at {est:.2e} > tol {tol:.2e}")
    return value


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


def beta_weighted_partial_sums(
    exponent: int, alternating: bool, count: int
) -> np.ndarray:
    """Partial sums of 2 sum (+-1)^n beta_n / n^exponent (oracle ingredient)."""
    return np.cumsum(_beta_weighted_terms(exponent, alternating, count))


def beta_weighted_sum(exponent: int, alternating: bool) -> float:
    """Oracle for the beta-weighted sums 2 sum (+-1)^n beta_n / n^exponent.

    Alternating sums are Euler-accelerated; non-alternating sums (which decay
    like log(n)/n^exponent and need exponent >= 2) are summed directly with an
    analytic Euler-Maclaurin tail from beta_n = log n + gamma + log 2 + O(n^-2).
    The dropped tail terms are O(N^-(exponent+2)) at N = 10^5.
    """
    minimum = 1 if alternating else 2
    exponent = _integer(exponent, f"exponent must be an integer >= {minimum}", minimum)
    if alternating:
        terms = _beta_weighted_terms(exponent, True, _N_ACCEL)
        return _accelerated(terms, 1e-10, "alternating beta sum")
    head = float(beta_weighted_partial_sums(exponent, False, _N_DIRECT)[-1])
    s = float(exponent)
    # beta_n = log n + gamma + log 2 - 1/(12 n^2) - (-1)^(n-1)/(4 n^2) + O(n^-4)
    tail = (
        _log_zeta_tail(s, _N_DIRECT)
        + (_GAMMA + _LOG2) * _zeta_tail(s, _N_DIRECT)
        - _zeta_tail(s + 2.0, _N_DIRECT) / 12.0
    )
    return head + 2.0 * tail


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
