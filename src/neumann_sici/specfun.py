"""Double-precision special-function kernels.

Everything the identity checks reference lives here: Bessel J_n, Y_0, Y_1,
the sine and cosine integrals, odd-index Clausen functions, zeta/eta values
and a table of named constants.  All functions are pure; the only
module-level state is a per-weight cache of immutable Clausen series
coefficients, so values can be shared freely across threads.

``bessel_j``, ``bessel_y``, ``si``, ``ci`` and ``gamma_log_minus_ci`` also
accept a float ndarray and return an array of the same shape.  Each element
takes the branch the scalar kernel would take for it (selected by mask), and
every iterative branch runs until each element meets the scalar stopping
test, so an array result agrees with the scalar one to rounding.  A Python
float runs the scalar code.  ``clausen_odd`` has no branches: a float and an
array run the same arithmetic, so they agree exactly.
"""

from __future__ import annotations

import cmath
import functools
import itertools
import math
import operator
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

__all__ = [
    "Constants",
    "CONSTANTS",
    "bessel_j",
    "bessel_j_all",
    "bessel_y",
    "si",
    "ci",
    "gamma_log_minus_ci",
    "clausen_odd",
    "zeta",
    "eta",
]


@dataclass(frozen=True)
class Constants:
    euler_gamma: float = 0.5772156649015328606
    catalan_g: float = 0.9159655941772190151
    log2: float = 0.6931471805599453094
    zeta3: float = 1.2020569031595942854
    pi: float = math.pi


CONSTANTS = Constants()

_EULER_GAMMA = CONSTANTS.euler_gamma

# Crossover between the defining power series and the continued-fraction
# evaluation of Si/Ci.  The alternating series loses digits like
# eps * max-term ~ eps * e^x / x; at x = 8 that is still ~1e-13 while the
# Lentz continued fraction is already at machine precision.
_SICI_CROSSOVER = 8.0

# Bessel Y branch limits: the ascending log-series keeps ~1e-13 up to 8,
# the Hankel asymptotic series reaches 1e-14 beyond ~17, and the window in
# between is bridged by Neumann-series identities (see bessel_y).
_Y_SERIES_MAX = 8.0
_Y_ASYMPTOTIC_MIN = 17.0

# Relative stopping tolerances of the power series.
_J_SERIES_TOL = 1e-17
_SICI_SERIES_TOL = 1e-18


def _integer(value: int, message: str, minimum: int) -> int:
    # An integer argument (int, numpy integer, ...) >= minimum as int; anything
    # else, a float with an integer value included, is a domain error.
    try:
        value = operator.index(value)
    except TypeError:
        raise ValueError(message) from None
    if value < minimum:
        raise ValueError(message)
    return value


def _checked_scalar(x: float, positive: bool) -> float:
    # The domain of the kernels: x finite, and positive or nonnegative.
    if not math.isfinite(x):
        raise ValueError("x must be finite")
    if positive and x <= 0:
        raise ValueError("x must be positive")
    if x < 0:
        raise ValueError("x must be nonnegative")
    return x


def _checked_array(x: np.ndarray, positive: bool) -> np.ndarray:
    # _checked_scalar for every element.
    x = np.asarray(x, dtype=float)
    if not np.isfinite(x).all():
        raise ValueError("x must be finite")
    if positive and (x <= 0.0).any():
        raise ValueError("x must be positive")
    if (x < 0.0).any():
        raise ValueError("x must be nonnegative")
    return x


def _retire(done: np.ndarray, out: np.ndarray, idx: np.ndarray, result: np.ndarray, *state):
    # Store the finished elements of an elementwise iteration in out and drop
    # them from its state.  Elements run along the last axis of every array;
    # idx holds their positions in out.
    out[..., idx[done]] = result[..., done]
    keep = ~done
    return (idx[keep], result[..., keep], *(s[..., keep] for s in state))


# ---------------------------------------------------------------------------
# Bessel functions of the first kind
# ---------------------------------------------------------------------------

def _bessel_j_series(order: int, x: float) -> float:
    # Ascending series sum_k (-1)^k (x/2)^(order+2k) / (k! (order+k)!).
    half = 0.5 * x
    if half == 0.0:  # x = 0, or x/2 below the smallest subnormal
        return 1.0 if order == 0 else 0.0
    log_t0 = order * math.log(half) - math.lgamma(order + 1)
    if log_t0 < -745.0:  # first term underflows; remaining terms are smaller still
        return 0.0
    term = math.exp(log_t0)
    total = term
    k = 0
    while True:
        k += 1
        term *= -half * half / (k * (order + k))
        total += term
        if abs(term) < _J_SERIES_TOL * max(abs(total), 1e-300) or k >= 500:
            return total


def _bessel_j_series_array(order: int, x: np.ndarray) -> np.ndarray:
    # _bessel_j_series elementwise, for x / 2 > 0.
    half = 0.5 * x
    # math.log/math.exp, as in the scalar kernel: near x = 8 the sum cancels
    # to 1e-14, so an ulp in the first term would show in the result.
    lg = math.lgamma(order + 1)
    log_t0 = np.array([order * math.log(h) - lg for h in half.tolist()])
    out = np.zeros_like(x)
    idx = np.flatnonzero(log_t0 >= -745.0)
    total = np.array([math.exp(v) for v in log_t0[idx].tolist()])
    term = total.copy()
    step = -half[idx] * half[idx]
    k = 0
    while idx.size:
        k += 1
        term *= step / (k * (order + k))
        total += term
        done = np.abs(term) < _J_SERIES_TOL * np.maximum(np.abs(total), 1e-300)
        if k >= 500:
            done[:] = True
        if done.any():
            idx, total, term, step = _retire(done, out, idx, total, term, step)
    return out


def _miller_array(nmax: int, x: float) -> list[float]:
    # Backward (Miller) recurrence normalized by J_0 + 2 sum J_{2k} = 1.
    m = nmax + int(math.ceil(1.5 * x)) + 40
    if m % 2:
        m += 1
    out = [0.0] * (nmax + 1)
    jp, j = 0.0, 1e-30
    even_sum = 0.0
    for k in range(m, 0, -1):
        jm = (2.0 * k / x) * j - jp
        jp, j = j, jm
        if k - 1 <= nmax:
            out[k - 1] = j
        if (k - 1) % 2 == 0 and k - 1 > 0:
            even_sum += j
        if abs(j) > 1e250:
            j *= 1e-250
            jp *= 1e-250
            even_sum *= 1e-250
            for i in range(len(out)):
                out[i] *= 1e-250
    norm = j + 2.0 * even_sum  # j is now the unnormalized J_0
    return [v / norm for v in out]


def _miller_j_array(order: int, x: np.ndarray) -> np.ndarray:
    # _miller_array(order, x)[order] elementwise.  Each element starts its
    # recurrence at its own depth m; sorted by decreasing m, the elements
    # running at step k are a prefix of the arrays.
    m = order + np.ceil(1.5 * x).astype(np.int64) + 40
    m += m % 2
    perm = np.argsort(-m, kind="stable")
    xs, neg_m = x[perm], -m[perm]
    jp = np.zeros_like(xs)
    j = np.full_like(xs, 1e-30)
    even_sum = np.zeros_like(xs)
    val = np.zeros_like(xs)
    steps = np.arange(int(m.max(initial=0)), 0, -1)
    running = np.searchsorted(neg_m, -steps, side="right").tolist()
    for k, n in zip(steps.tolist(), running):
        jm = (2.0 * k / xs[:n]) * j[:n] - jp[:n]
        jp[:n] = j[:n]
        j[:n] = jm
        if k - 1 == order:
            val[:n] = jm
        if (k - 1) % 2 == 0 and k - 1 > 0:
            even_sum[:n] += jm
        big = np.abs(jm) > 1e250
        if big.any():
            big = np.flatnonzero(big)
            for arr in (j, jp, even_sum, val):
                arr[big] *= 1e-250
    out = np.empty_like(x)
    out[perm] = val / (j + 2.0 * even_sum)
    return out


def bessel_j(order: int, x: float | np.ndarray) -> float | np.ndarray:
    """Bessel function of the first kind J_order(x) for integer order >= 0.

    Small arguments (and any argument dominated by the order) go through the
    defining power series; large arguments use the Hankel asymptotic
    auxiliary functions; the middle range runs a backward Miller recurrence
    normalized with J_0(x) + 2 sum_k J_2k(x) = 1.
    """
    order = _integer(order, "order must be a nonnegative integer", 0)
    if isinstance(x, np.ndarray):
        return _bessel_j_array(order, _checked_array(x, positive=False))
    x = _checked_scalar(x, positive=False)
    # With (x/2)^2 <= order + 1 the series terms decrease from the start, so
    # there is no cancellation regardless of how large the order is.
    if x <= _SICI_CROSSOVER or 0.25 * x * x <= order + 1:
        return _bessel_j_series(order, x)
    if x >= max(25.0, 0.5 * order * order):
        p, q = _hankel_pq(order, x)
        chi = x - (0.5 * order + 0.25) * math.pi
        return math.sqrt(2.0 / (math.pi * x)) * (math.cos(chi) * p - math.sin(chi) * q)
    return _miller_array(order, x)[order]


def _bessel_j_array(order: int, x: np.ndarray) -> np.ndarray:
    # the value where x / 2 is 0, as in the scalar series
    out = np.full_like(x, 1.0 if order == 0 else 0.0)
    positive = 0.5 * x > 0.0
    series = positive & ((x <= _SICI_CROSSOVER) | (0.25 * x * x <= order + 1))
    hankel = ~series & (x >= max(25.0, 0.5 * order * order))
    miller = positive & ~series & ~hankel
    out[series] = _bessel_j_series_array(order, x[series])
    out[hankel] = _hankel_array(order, x[hankel], first_kind=True)
    out[miller] = _miller_j_array(order, x[miller])
    return out


def bessel_j_all(nmax: int, x: float) -> list[float]:
    """All of J_0(x) .. J_nmax(x), x >= 0.

    One Miller pass in general.  Where (x/2)^2 < 2^-53 each order's series
    is its first term (the backward recurrence would overflow), and where
    bessel_j takes every order n <= nmax from its Hankel expansion (x >=
    max(25, nmax^2/2)) the values come from there (a Miller pass would run
    about 1.5 x steps).
    """
    nmax = _integer(nmax, "nmax must be a nonnegative integer", 0)
    x = _checked_scalar(x, positive=False)
    if 0.25 * x * x < 2.0**-53:
        return [_bessel_j_series(n, x) for n in range(nmax + 1)]
    if x >= max(25.0, 0.5 * nmax * nmax):
        return [bessel_j(n, x) for n in range(nmax + 1)]
    return _miller_array(nmax, x)


# ---------------------------------------------------------------------------
# Bessel functions of the second kind, orders 0 and 1
# ---------------------------------------------------------------------------

def _bessel_y_series(order: int, x: float) -> float:
    # DLMF 10.8.1 ascending series, stable for x <= _Y_SERIES_MAX.  Y_1's
    # -2/(pi x) overflows to -inf below about 6e-309.
    u = 0.25 * x * x
    half = 0.5 * x  # rounds for a subnormal x, to 0 at 5e-324
    lg = math.log(half) if half + half == x else math.log(x) - CONSTANTS.log2
    if order == 0:
        j0 = bessel_j(0, x)
        term, hk, s, k = 1.0, 0.0, 0.0, 0
        while True:
            k += 1
            term *= -u / (k * k)
            hk += 1.0 / k
            s += hk * term
            if abs(term) * (hk + 1.0) < 1e-18 * max(abs(s), 1e-10) or k > 500:
                break
        return (2.0 / math.pi) * ((lg + _EULER_GAMMA) * j0 - s)
    j1 = bessel_j(1, x)
    term, hk, hk1, s, k = 1.0, 0.0, 1.0, 0.0, 0
    while True:
        s += (hk + hk1 - 2.0 * _EULER_GAMMA) * term
        term *= -u / ((k + 1) * (k + 2))
        k += 1
        hk += 1.0 / k
        hk1 += 1.0 / (k + 1)
        if abs(term) * (hk + hk1 + 2.0) < 1e-18 * max(abs(s), 1e-10) or k > 500:
            break
    return (2.0 / math.pi) * (lg * j1 - 1.0 / x) - x / (2.0 * math.pi) * s


def _bessel_y_series_array(order: int, x: np.ndarray) -> np.ndarray:
    # _bessel_y_series elementwise, for 0 < x <= _Y_SERIES_MAX.
    step = -(0.25 * x * x)
    s_final = np.empty_like(x)
    idx = np.arange(x.size)
    s = np.zeros_like(x)
    term = np.ones_like(x)
    hk, hk1, k = 0.0, 1.0, 0
    while idx.size:
        if order == 0:
            k += 1
            term *= step / (k * k)
            hk += 1.0 / k
            s += hk * term
            done = np.abs(term) * (hk + 1.0) < 1e-18 * np.maximum(np.abs(s), 1e-10)
        else:
            s += (hk + hk1 - 2.0 * _EULER_GAMMA) * term
            term *= step / ((k + 1) * (k + 2))
            k += 1
            hk += 1.0 / k
            hk1 += 1.0 / (k + 1)
            done = np.abs(term) * (hk + hk1 + 2.0) < 1e-18 * np.maximum(np.abs(s), 1e-10)
        if k > 500:
            done[:] = True
        if done.any():
            idx, s, term, step = _retire(done, s_final, idx, s, term, step)
    half = 0.5 * x  # as in the scalar kernel
    rounded = half + half != x
    lg = np.log(np.where(rounded, x, half))
    lg[rounded] -= CONSTANTS.log2
    j = _bessel_j_array(order, x)
    if order == 0:
        return (2.0 / math.pi) * ((lg + _EULER_GAMMA) * j - s_final)
    with np.errstate(over="ignore"):  # -inf, as for a float
        return (2.0 / math.pi) * (lg * j - 1.0 / x) - x / (2.0 * math.pi) * s_final


def _bessel_y_bridge(order: int, x: float) -> float:
    # Neumann-series identities (GR 8.515.7 / 8.514.9) expressing Y_0, Y_1
    # through J_n; accurate to machine precision for moderate x where both
    # the ascending series and the asymptotic expansion fall short of 1e-12.
    nmax = int(math.ceil(x)) + 30
    j = _miller_array(2 * nmax + 1, x)
    lg = math.log(0.5 * x) + _EULER_GAMMA
    if order == 0:
        s = sum(((-1) ** n) * j[2 * n] / n for n in range(1, nmax + 1))
        return (2.0 / math.pi) * lg * j[0] - (4.0 / math.pi) * s
    s = sum(
        ((-1) ** n) * (2 * n + 1) / (n * (n + 1.0)) * j[2 * n + 1]
        for n in range(1, nmax)
    )
    return (2.0 / math.pi) * ((lg - 1.0) * j[1] - j[0] / x - s)


def _hankel_pq(order: int, x: float) -> tuple[float, float]:
    # Asymptotic auxiliary functions P, Q with optimal truncation.
    mu = 4.0 * order * order
    terms = [1.0]
    t = 1.0
    for m in range(80):
        t *= (mu - (2 * m + 1) ** 2) / ((m + 1) * 8.0 * x)
        if abs(t) >= abs(terms[-1]) or abs(t) < 1e-18:
            if abs(t) < 1e-18:
                terms.append(t)
            break
        terms.append(t)
    p = sum((-1) ** (m // 2) * terms[m] for m in range(0, len(terms), 2))
    q = sum((-1) ** (m // 2) * terms[m] for m in range(1, len(terms), 2))
    return p, q


def _hankel_array(order: int, x: np.ndarray, first_kind: bool) -> np.ndarray:
    # J_order (first_kind) or Y_order from _hankel_pq, elementwise; every
    # element truncates its own series at its smallest term.
    mu = 4.0 * order * order
    out = np.empty((2, x.size))
    idx = np.arange(x.size)
    pq = np.zeros((2, x.size))
    pq[0] = 1.0
    t = np.ones_like(x)
    last = np.ones_like(x)
    xs = x
    for m in range(80):
        if not idx.size:
            break
        t = t * ((mu - (2 * m + 1) ** 2) / ((m + 1) * 8.0 * xs))
        size = np.abs(t)
        small = size < 1e-18
        grow = size >= last
        signed = -t if (m + 1) // 2 % 2 else t
        pq[(m + 1) % 2] += np.where(grow & ~small, 0.0, signed)
        last = size
        done = small | grow
        if done.any():
            idx, pq, t, last, xs = _retire(done, out, idx, pq, t, last, xs)
    out[:, idx] = pq
    p, q = out
    chi = x - (0.5 * order + 0.25) * math.pi
    amp = np.sqrt(2.0 / (math.pi * x))
    if first_kind:
        return amp * (np.cos(chi) * p - np.sin(chi) * q)
    return amp * (np.sin(chi) * p + np.cos(chi) * q)


def bessel_y(order: int, x: float | np.ndarray) -> float | np.ndarray:
    """Bessel function of the second kind Y_0(x) or Y_1(x), x > 0."""
    order = _integer(order, "order must be 0 or 1", 0)
    if order > 1:
        raise ValueError("order must be 0 or 1")
    if isinstance(x, np.ndarray):
        return _bessel_y_array(order, _checked_array(x, positive=True))
    x = _checked_scalar(x, positive=True)
    if x <= _Y_SERIES_MAX:
        return _bessel_y_series(order, x)
    if x < _Y_ASYMPTOTIC_MIN:
        return _bessel_y_bridge(order, x)
    p, q = _hankel_pq(order, x)
    chi = x - (0.5 * order + 0.25) * math.pi
    return math.sqrt(2.0 / (math.pi * x)) * (math.sin(chi) * p + math.cos(chi) * q)


def _bessel_y_array(order: int, x: np.ndarray) -> np.ndarray:
    out = np.empty_like(x)
    series = x <= _Y_SERIES_MAX
    hankel = x >= _Y_ASYMPTOTIC_MIN
    bridge = ~series & ~hankel
    out[series] = _bessel_y_series_array(order, x[series])
    out[hankel] = _hankel_array(order, x[hankel], first_kind=False)
    # an integrand puts only a few nodes into the bridge window
    out[bridge] = [_bessel_y_bridge(order, v) for v in x[bridge].tolist()]
    return out


# ---------------------------------------------------------------------------
# Sine and cosine integrals
# ---------------------------------------------------------------------------

def _sici_series(x: float, shift: int) -> float:
    # The sum of (-1)^(n-1) x^(2n-1+shift) / ((2n-1+shift) (2n-1+shift)!):
    # Si(x) for shift 0 (odd in x by construction) and the entire part
    # gamma + log x - Ci(x) for shift 1.
    total = 0.0
    term = 0.5 * x * x if shift else x  # x^(2n-1+shift)/(2n-1+shift)!
    n = 1
    while True:
        total += term / (2 * n - 1 + shift)
        term *= -x * x / ((2 * n + shift) * (2 * n + 1 + shift))
        n += 1
        if n > 300 or abs(term) / (2 * n - 1 + shift) < _SICI_SERIES_TOL * max(1.0, abs(total)):
            return total


def _sici_series_array(x: np.ndarray, shift: int) -> np.ndarray:
    # _sici_series elementwise.
    out = np.empty_like(x)
    idx = np.arange(x.size)
    total = np.zeros_like(x)
    term = 0.5 * x * x if shift else x.copy()
    step = -x * x
    n = 1
    while idx.size:
        total += term / (2 * n - 1 + shift)
        term *= step / ((2 * n + shift) * (2 * n + 1 + shift))
        n += 1
        done = np.abs(term) / (2 * n - 1 + shift) < _SICI_SERIES_TOL * np.maximum(
            1.0, np.abs(total)
        )
        if n > 300:
            done[:] = True
        if done.any():
            idx, total, term, step = _retire(done, out, idx, total, term, step)
    return out


def _e1_of_ix(x: float) -> complex:
    # E_1(ix) by the modified Lentz continued fraction; Ci(x) = -Re, and
    # Si(x) - pi/2 = Im.  Converges to machine precision for x >= ~2.
    z = complex(0.0, x)
    b = z + 1.0
    c = complex(1e308, 0.0)
    d = 1.0 / b
    h = d
    for i in range(1, 300):
        a = -float(i * i)
        b += 2.0
        d = 1.0 / (a * d + b)
        c = b + a / c
        delta = c * d
        h *= delta
        if abs(delta.real - 1.0) < 1e-16 and abs(delta.imag) < 1e-16:
            break
    return cmath.exp(-z) * h


def _e1_of_ix_array(x: np.ndarray) -> np.ndarray:
    # _e1_of_ix elementwise; each element stops at its own convergence.
    z = x * 1j
    out = np.empty_like(z)
    idx = np.arange(x.size)
    b = z + 1.0
    c = np.full_like(z, 1e308)
    d = 1.0 / b
    h = d.copy()
    for i in range(1, 300):
        if not idx.size:
            break
        a = -float(i * i)
        b = b + 2.0
        d = 1.0 / (a * d + b)
        c = b + a / c
        delta = c * d
        h = h * delta
        done = (np.abs(delta.real - 1.0) < 1e-16) & (np.abs(delta.imag) < 1e-16)
        if done.any():
            idx, h, b, c, d = _retire(done, out, idx, h, b, c, d)
    out[idx] = h
    return np.exp(-z) * out


def _sici_split(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    # Masks of the series branch (0 < x <= crossover) and the continued fraction.
    return (x > 0.0) & (x <= _SICI_CROSSOVER), x > _SICI_CROSSOVER


def si(x: float | np.ndarray) -> float | np.ndarray:
    """Sine integral Si(x) = int_0^x sin(t)/t dt, x >= 0."""
    if isinstance(x, np.ndarray):
        x = _checked_array(x, positive=False)
        out = np.zeros_like(x)
        series, cf = _sici_split(x)
        out[series] = _sici_series_array(x[series], 0)
        out[cf] = _e1_of_ix_array(x[cf]).imag + 0.5 * math.pi
        return out
    x = _checked_scalar(x, positive=False)
    if x == 0.0:
        return 0.0
    if x <= _SICI_CROSSOVER:
        return _sici_series(x, 0)
    return _e1_of_ix(x).imag + 0.5 * math.pi


def ci(x: float | np.ndarray) -> float | np.ndarray:
    """Cosine integral Ci(x), x > 0."""
    if isinstance(x, np.ndarray):
        x = _checked_array(x, positive=True)
        out = np.empty_like(x)
        series, cf = _sici_split(x)
        xs = x[series]
        out[series] = _EULER_GAMMA + np.log(xs) - _sici_series_array(xs, 1)
        out[cf] = -_e1_of_ix_array(x[cf]).real
        return out
    x = _checked_scalar(x, positive=True)
    if x <= _SICI_CROSSOVER:
        return _EULER_GAMMA + math.log(x) - _sici_series(x, 1)
    return -_e1_of_ix(x).real


def gamma_log_minus_ci(x: float | np.ndarray) -> float | np.ndarray:
    """gamma + log(x) - Ci(x), evaluated without cancellation near 0.

    This combination is what the integral identities actually use; below the
    crossover it comes straight from the entire series x^2/4 - x^4/96 + ...
    """
    if isinstance(x, np.ndarray):
        x = _checked_array(x, positive=False)
        out = np.zeros_like(x)
        series, cf = _sici_split(x)
        out[series] = _sici_series_array(x[series], 1)
        xc = x[cf]
        out[cf] = _EULER_GAMMA + np.log(xc) + _e1_of_ix_array(xc).real
        return out
    x = _checked_scalar(x, positive=False)
    if x == 0.0:
        return 0.0
    if x <= _SICI_CROSSOVER:
        return _sici_series(x, 1)
    return _EULER_GAMMA + math.log(x) + _e1_of_ix(x).real


# ---------------------------------------------------------------------------
# Clausen functions of odd index
# ---------------------------------------------------------------------------

_TWO_PI = 2.0 * math.pi

# Terms of order theta^(2 m) and beyond with m > 30 stay below 1e-50 on
# [0, pi], so a larger weight keeps 30 terms of P and drops the log term.
_CLAUSEN_MAX_ORDER = 30


@functools.cache
def _clausen_coefficients(weight: int) -> tuple[tuple[float, ...], float, tuple[float, ...]]:
    # Lewin's series for Cl_{2m+1} on 0 <= theta <= pi, with x = theta^2 and
    # s = x^m / (2m)!:
    #   Cl_{2m+1}(theta) = P(x) + (-1)^m s (H_2m - log theta + Q(x)),
    #   P(x) = sum_{j<m} (-1)^j zeta(2m+1-2j) x^j / (2j)!,
    #   Q(x) = sum_{k>=1} zeta(2k) x^k / (k (2 pi)^2k binom(2k+2m, 2k)).
    # Q's terms fall faster than 4^-k at theta = pi; the sum stops where they
    # drop below 1e-18 there.  Returns P's coefficients, H_2m and Q's
    # coefficients over x, highest power first; Q's are empty when the log
    # term is dropped.
    m = weight // 2
    p = [
        (-1) ** j * zeta(weight - 2 * j) / math.factorial(2 * j)
        for j in range(min(m, _CLAUSEN_MAX_ORDER))
    ]
    if m > _CLAUSEN_MAX_ORDER:
        return tuple(reversed(p)), 0.0, ()
    q = []
    for k in itertools.count(1):
        c = zeta(2 * k) / (k * _TWO_PI ** (2 * k) * math.comb(2 * k + 2 * m, 2 * k))
        if c * math.pi ** (2 * k) < 1e-18:
            break
        q.append(c)
    h = float(sum(Fraction(1, i) for i in range(1, 2 * m + 1)))
    return tuple(reversed(p)), h, tuple(reversed(q))


def clausen_odd(weight: int, theta: float | np.ndarray) -> float | np.ndarray:
    """Clausen-type function Cl_weight(theta) = sum_n cos(n theta)/n^weight.

    Only odd weights >= 3 are supported.  The angle is mirrored into
    [0, pi] (Cl is even and 2 pi-periodic) and the function summed from
    Lewin's log-series (L. Lewin, *Polylogarithms and Associated Functions*,
    1981, ch. 4): a polynomial in theta^2 with zeta(odd) coefficients, a
    theta^(2m) (H_2m - log theta) term and a power series in
    (theta / 2 pi)^2.  A float ndarray theta runs the same arithmetic
    elementwise and returns an array of the same shape.
    """
    weight = _integer(weight, "weight must be an odd integer >= 3", 3)
    if weight % 2 == 0:
        raise ValueError("weight must be an odd integer >= 3")
    if not np.isfinite(theta).all():
        raise ValueError("theta must be finite")
    p, h, q = _clausen_coefficients(weight)
    # Cl is even and 2 pi-periodic; both steps are exact in floating point
    r = abs(theta) % _TWO_PI
    r = abs(r - _TWO_PI * (r > math.pi))
    x = r * r
    out = p[0]
    for c in p[1:]:
        out = out * x + c
    if q:
        series = q[0]
        for c in q[1:]:
            series = series * x + c
        s = x / 2.0
        for j in range(2, weight // 2 + 1):
            s = s * x / ((2 * j - 1) * (2 * j))
        # at r = 0, where s = 0, log(1) stands in for log(r)
        log_r = np.log(r + (r == 0.0))
        if weight % 4 == 3:  # (-1)^m for m = weight // 2 odd
            s = -s
        out = out + s * (h + series * x - log_r)
    return out if isinstance(out, np.ndarray) else float(out)


# ---------------------------------------------------------------------------
# zeta and eta
# ---------------------------------------------------------------------------

# zeta(s) for 2 <= s <= 30, 17 significant digits.
_ZETA_TABLE = {
    2: 1.6449340668482264,
    3: 1.2020569031595943,
    4: 1.0823232337111382,
    5: 1.0369277551433699,
    6: 1.0173430619844491,
    7: 1.0083492773819228,
    8: 1.0040773561979443,
    9: 1.0020083928260822,
    10: 1.0009945751278181,
    11: 1.0004941886041195,
    12: 1.0002460865533080,
    13: 1.0001227133475785,
    14: 1.0000612481350587,
    15: 1.0000305882363070,
    16: 1.0000152822594087,
    17: 1.0000076371976379,
    18: 1.0000038172932650,
    19: 1.0000019082127166,
    20: 1.0000009539620339,
    21: 1.0000004769329868,
    22: 1.0000002384505027,
    23: 1.0000001192199260,
    24: 1.0000000596081891,
    25: 1.0000000298035035,
    26: 1.0000000149015548,
    27: 1.0000000074507118,
    28: 1.0000000037253340,
    29: 1.0000000018626597,
    30: 1.0000000009313274,
}


def zeta(s: int) -> float:
    """Riemann zeta at integer s >= 2."""
    s = _integer(s, "zeta requires an integer s >= 2", 2)
    v = _ZETA_TABLE.get(s)
    if v is not None:
        return v
    # Beyond the table the direct sum converges geometrically; the integral
    # tail bound N^(1-s)/(s-1) drops below 1e-18 within a few dozen terms.
    total, k = 1.0, 1
    while True:
        k += 1
        term = float(k) ** (-s)
        total += term
        if (k + 1.0) ** (1.0 - s) / (s - 1.0) < 1e-18:
            return total


def eta(s: int) -> float:
    """Dirichlet eta at integer s >= 1; eta(1) = log 2."""
    s = _integer(s, "eta requires an integer s >= 1", 1)
    if s == 1:
        return CONSTANTS.log2
    return (1.0 - 2.0 ** (1.0 - s)) * zeta(s)
