"""Double-precision special-function kernels.

Everything the identity checks reference lives here: Bessel J_n, Y_0, Y_1,
the sine and cosine integrals, odd-index Clausen functions, zeta/eta values
and a table of named constants.  All functions are pure; the only
module-level state is a cache of immutable values (Clausen series
coefficients per weight, J's series limit for the last 1024 orders, the
Hankel coefficient ratios per order), so values can be shared freely across
threads.

Si and Ci have two branches: the power series up to x = 8 and the E_1(ix)
continued fraction above it (Numerical Recipes 6.8).  J_n has four: the
power series, the backward (Miller) recurrence below x = max(25, n), the
upward one from the Hankel J_0 and J_1 below max(25, n^2/2) and the Hankel
expansion from there on.

``bessel_j``, ``bessel_y``, ``si``, ``ci`` and ``gamma_log_minus_ci`` also
accept a float ndarray and return an array of the same shape, and
``bessel_j_all`` one row per order.  Each element takes the branch the scalar
kernel would take for it, split by mask.  The power series of J, Y and Si/Ci
and the Y bridge are float routines, which ``_branches`` runs at each element
of their band as a Python float, so each element does the float's arithmetic
and stops at the float's test.  Every other branch is one routine for a float
and an array.  A Miller element starts at its own depth, with zeros before it.
On these branches an array result equals the scalar one exactly.  The others,
J's upward recurrence included, agree to rounding: an array runs the step or
term count the float takes at its smallest element (the Si/Ci continued
fraction at the smallest element of each octave of x), as larger ones
converge no slower.  A Python float runs plain ``math`` code.
``clausen_odd`` runs the same arithmetic for a float and an array, so they
agree exactly.
"""

from __future__ import annotations

import bisect
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

# The most a Miller or upward pass may cost (_charge raises past it), in float
# steps of 0.14-0.29 us (about 1 s): an array step costs 32 float steps (numpy's
# per-call overhead) plus one per 64 elements (2-4 ns an element).
_MILLER_MAX_STEPS = 4_000_000

# Every J branch takes the order as a double, which holds each integer up to
# 2^53; far past it float(order) and lgamma(order + 1) overflow.
_J_MAX_ORDER = 2**53
_FACTORIALS = tuple(map(float, itertools.accumulate(range(1, 171), operator.mul, initial=1)))  # k!


def _integer(value: int, message: str, minimum: int, maximum: float = math.inf) -> int:
    # An integer argument (int, numpy integer, ...) in [minimum, maximum] as
    # int; anything else, a float with an integer value included, is rejected.
    try:
        value = operator.index(value)
    except TypeError:
        raise ValueError(message) from None
    if not minimum <= value <= maximum:
        raise ValueError(message)
    return value


def _real(value: float, message: str, minimum: float = -math.inf, strict: bool = False,
          maximum: float = math.inf) -> float:
    # A finite real argument (int, float, numpy real scalar, Fraction, ...) in
    # [minimum, maximum] (above minimum if strict) as float.  A str, None,
    # list, complex, nan, +-inf or an int past the double range is rejected,
    # as is a numpy complex or 0-d array, which math.isfinite would cast.
    if type(value) is not float:
        if isinstance(value, (complex, np.complexfloating, np.ndarray)):
            raise ValueError(message)
        try:
            value = float(value) if math.isfinite(value) else math.nan
        except (TypeError, OverflowError):
            raise ValueError(message) from None
    if minimum <= value <= maximum and math.isfinite(value) and (value > minimum or not strict):
        return value
    raise ValueError(message)


def _checked_array(
    x: np.ndarray, message: str, minimum: float = -math.inf, strict: bool = False
) -> np.ndarray:
    # _real for every element of an array of a real dtype, as a float array
    if x.dtype.kind not in "biuf":  # complex, object, str, ...
        raise ValueError(message)
    x = np.asarray(x, dtype=float)
    if not (np.isfinite(x).all() and (x > minimum if strict else x >= minimum).all()):
        raise ValueError(message)
    return x


def _branches(x, positive: bool, edges, *routines, floats: int, rows: tuple[int, ...] = ()):
    # routines[0] for x <= edges[0], routines[i] for edges[i-1] <= x < edges[i]
    # past it (the last from edges[-1] on, none between equal edges), for a
    # float, or for an array split by masks that runs none on no elements,
    # into an array of shape (*rows, *x.shape).  The first ``floats`` routines
    # take only a float (the power series and the Y bridge): an array runs
    # them at each element of their band as a Python float, a list result
    # giving one value per row (and Y_1's 1 / x is -inf at a subnormal x).
    message = "x must be finite and positive" if positive else "x must be finite and nonnegative"
    if not isinstance(x, np.ndarray):
        x = _real(x, message, 0.0, positive)
        return routines[0 if x <= edges[0] else bisect.bisect_right(edges, x)](x)
    x = _checked_array(x, message, 0.0, positive)
    out = np.empty((*rows, *x.shape))
    band = np.where(x <= edges[0], 0, np.searchsorted(edges, x, side="right"))
    for i, routine in enumerate(routines):
        if (mask := band == i).any():
            if i < floats:
                out[..., mask] = np.array([routine(v) for v in x[mask].tolist()]).T
            else:
                out[..., mask] = routine(x[mask])
    return out


# ---------------------------------------------------------------------------
# Bessel functions of the first kind
# ---------------------------------------------------------------------------

def _j_log_bound(half: float, order: int) -> float:
    # log of the first term (x/2)^order / order!, x = 2 half > 0, a bound on
    # |J_order(x)| (DLMF 10.14.4); or -inf where Kapteyn's bound (z e^s /
    # (1 + s))^order, z = x / order < 1, s = sqrt(1 - z^2) (DLMF 10.14.8), is
    # below e^-746, under the e^-745.1 at which J rounds to 0 by more than
    # its own rounding.  Kapteyn's is far below the first term for z near 1.
    log_t0 = order * math.log(half) - math.lgamma(order + 1)
    if log_t0 >= -745.0 and 2.0 * half < order:
        z = 2.0 * half / order
        s = math.sqrt(1.0 - z * z)
        if order * (math.log(z) + s - math.log1p(s)) < -746.0:
            return -math.inf
    return log_t0


def _j_first_term(half: float, order: int) -> float:
    # (x/2)^order / order!, the first term of the J series, or 0 where J
    # underflows (_j_log_bound below -745): pow over order! (finite up to
    # 170) where the terms fall from the first (its rounding is the sum's)
    # and both are normal, else logs (1e-13 at J_60(0.002))
    if half == 0.0:  # x = 0, or x/2 below the smallest subnormal
        return 1.0 if order == 0 else 0.0
    if order <= 170 and half * half <= order + 1:
        t0 = math.pow(half, order) / _FACTORIALS[order]
        if t0 >= 2.2250738585072014e-308:  # normal, and so is the power
            return t0
    log_t0 = _j_log_bound(half, order)
    return math.exp(log_t0) if log_t0 >= -745.0 else 0.0


def _bessel_j_series(x: float, order: int) -> float:
    # Ascending series sum_k (-1)^k (x/2)^(order+2k) / (k! (order+k)!).  The
    # test is relative, also for a subnormal sum, which runs until its terms
    # underflow.
    half = 0.5 * x
    term = total = _j_first_term(half, order)
    for k in range(1, 501):
        term *= -half * half / (k * (order + k))
        total += term
        if not abs(term) > _J_SERIES_TOL * abs(total):  # a zero term stops at once
            break
    return total


def _charge(steps: int, x) -> None:
    cost = steps * (32 + x.size / 64) if isinstance(x, np.ndarray) else steps
    if cost > _MILLER_MAX_STEPS:
        raise ValueError(f"{steps} steps cost {cost:.3g} float steps > specfun._MILLER_MAX_STEPS")


def _miller_start(nmax: int, x):
    # The even order m from which a Miller pass for J_0 .. J_nmax runs, for a
    # float or each array element: its relative error at order n, about |J_m Y_n
    # / (Y_m J_n)| (Gautschi 1967), is below e^-40 by the Debye envelope (DLMF
    # 10.19.8) once 2 acosh(t) (m - top) >= 40, t = top / x, top = max(nmax,
    # 1.36 x ~ e x / 2).  acosh(t) >= 8 (r - 1) / (r + 1), r^4 = t + sqrt(t^2 -
    # 1), takes only correctly rounded steps, so an element gets the float's m.
    lib = np if isinstance(x, np.ndarray) else math
    top = np.maximum(nmax, np.ceil(1.36 * x)) if lib is np else max(nmax, math.ceil(1.36 * x))
    r = lib.sqrt(lib.sqrt(top / x + lib.sqrt((top / x) * (top / x) - 1.0)))
    m = top + lib.ceil(2.5 * (r + 1.0) / (r - 1.0)) + 1  # top + 26 at most
    return (m + m % 2).astype(np.int64) if lib is np else m + m % 2


def _miller(nmax, x, first: int = 0):
    # J_first .. J_nmax at x by the backward (Miller) recurrence normalized by
    # J_0 + 2 sum J_2k = 1 (Numerical Recipes 6.5): floats for a float, arrays
    # for an array.  Each element starts at its own _miller_start with j =
    # 1e-30; above it its j and jp are 0, so the steps there add exact zeros
    # and an element equals the float.  j is rescaled by 1e-250 past 1e250; an
    # entry stored before a rescale takes it at the end, but at most three, as
    # three take any double to a signed 0, so a pass stays linear in nmax.
    array = isinstance(x, np.ndarray)
    m = _miller_start(nmax, x)
    depths = sorted(set(m.tolist()), reverse=True) if array else [m]
    _charge(depths[0], x)
    size = nmax + 1
    j = jp = even_sum = 0.0 * x  # no step writes in place, so they may share
    rescales = 0 * m  # so far, for each element
    out, marks = [0.0] * (size - first), [0] * (size - first)  # and rescales before each
    for depth, below in zip(depths, depths[1:] + [0]):
        j = np.where(m == depth, 1e-30, j) if array else 1e-30
        for k in range(depth, below, -1):
            jp, j = j, (2.0 * k / x) * j - jp
            if k <= size and k > first:
                out[k - 1 - first], marks[k - 1 - first] = j, rescales
            if k % 2 and k > 1:
                even_sum = even_sum + j
            if (abs(j).max() if array else abs(j)) > 1e250:
                big = abs(j) > 1e250
                f = np.where(big, 1e-250, 1.0) if array else 1e-250
                j, jp, even_sum, rescales = j * f, jp * f, even_sum * f, rescales + big
    norm = j + 2.0 * even_sum  # j is now the unnormalized J_0
    if marks[-1] is not rescales:  # a rescale came after the first entry
        for i, mark in enumerate(marks):
            for t in range(3):
                hit = rescales - mark > t
                out[i] = out[i] * (np.where(hit, 1e-250, 1.0) if array else 1e-250 if hit else 1.0)
    return [v / norm for v in out]


def _upward(nmax, x, first: int = 0):
    # J_first .. J_nmax at x >= max(25, nmax), floats for a float and arrays for
    # an array, by J_k+1 = (2k / x) J_k - J_k-1 from the Hankel J_0 and J_1:
    # stable while k < x (Numerical Recipes 6.5 bessj; A&S 9.1.27)
    _charge(nmax, x)
    jp, j = _hankel(0, x, True), _hankel(1, x, True)
    out = [jp, j][first:nmax + 1]
    for k in range(1, nmax):
        jp, j = j, (2.0 * k / x) * j - jp
        if k >= first - 1:
            out.append(j)
    return out


@functools.lru_cache(maxsize=1024)
def _j_series_max(order: int) -> float:
    # The largest x at which J_order takes its power series: x <= 8; (x/2)^2
    # <= order + 1, where the terms fall from the first, so nothing cancels;
    # or a J that underflows (_j_log_bound below -745), which the series
    # returns as 0 at once.  Each test holds up to some x and fails past it.
    # From x = order on J does not underflow: its first term is about
    # e^(order (1 - log 2)) / sqrt(2 pi order) there.
    last = 2.0 * math.sqrt(order + 1)
    while 0.25 * last * last > order + 1:
        last = math.nextafter(last, 0.0)
    while 0.25 * (up := math.nextafter(last, math.inf)) * up <= order + 1:
        last = up
    last = max(last, _SICI_CROSSOVER)
    if _j_first_term(0.5 * math.nextafter(last, math.inf), order) == 0.0:
        lo, hi = last, float(order)  # J underflows at lo, not at hi
        while lo < (mid := 0.5 * (lo + hi)) < hi:
            lo, hi = (mid, hi) if _j_log_bound(0.5 * mid, order) < -745.0 else (lo, mid)
        last = lo
    return last


def bessel_j(order: int, x: float | np.ndarray) -> float | np.ndarray:
    """Bessel function of the first kind J_order(x) for integer 0 <= order <= 2^53.

    Small arguments, any argument dominated by the order and any at which J
    underflows go through the defining power series; arguments from
    max(25, order^2/2) on use the Hankel asymptotic auxiliary functions.  In
    between, x < max(25, order) runs a backward Miller recurrence normalized
    with J_0(x) + 2 sum_k J_2k(x) = 1, and x >= max(25, order) the upward
    recurrence from the Hankel J_0(x) and J_1(x), order steps whatever x.
    """
    order = _integer(order, "order must be an integer in [0, 2**53]", 0, _J_MAX_ORDER)
    return _branches(
        x, False, (_j_series_max(order), max(25.0, order), max(25.0, 0.5 * order * order)),
        lambda v: _bessel_j_series(v, order),
        lambda v: _miller(order, v, order)[0],
        lambda v: _upward(order, v, order)[0],
        lambda v: _hankel(order, v, True), floats=1,
    )


_J_ALL_TINY = 2.1073424255447014e-08  # the largest x with 0.25 x^2 < 2^-53


def bessel_j_all(nmax: int, x: float | np.ndarray) -> list[float] | np.ndarray:
    """All of J_0(x) .. J_nmax(x), x >= 0 and nmax <= _MILLER_MAX_STEPS.

    One Miller pass below x = max(25, nmax), and one upward recurrence from
    the Hankel J_0(x) and J_1(x) from there on (nmax steps, where a Miller
    pass would run about 1.36 x).  Where (x/2)^2 < 2^-53 each order's series
    is its first term (the backward recurrence would overflow).  A float
    ndarray gives an array of shape (nmax + 1, *x.shape), row n holding J_n,
    each element on the float's branch; nmax + 1 times its size (at least 32),
    and its pass's cost in float steps, may be at most _MILLER_MAX_STEPS.
    """
    message = f"nmax must be an integer in [0, specfun._MILLER_MAX_STEPS = {_MILLER_MAX_STEPS}]"
    nmax = _integer(nmax, message, 0, _MILLER_MAX_STEPS)
    # a recurrence step on an array costs about what 25 on a float do (numpy's
    # per-call overhead), so an array counts as at least 32 elements
    if isinstance(x, np.ndarray) and (nmax + 1) * max(x.size, 32) > _MILLER_MAX_STEPS:
        raise ValueError(
            f"(nmax + 1) max(x.size, 32) exceeds specfun._MILLER_MAX_STEPS = {_MILLER_MAX_STEPS}"
        )
    return _branches(x, False, (_J_ALL_TINY, max(25.0, nmax)),
                     lambda v: [_bessel_j_series(v, n) for n in range(nmax + 1)],
                     lambda v: _miller(nmax, v), lambda v: _upward(nmax, v),
                     floats=1, rows=(nmax + 1,))


# ---------------------------------------------------------------------------
# Bessel functions of the second kind, orders 0 and 1
# ---------------------------------------------------------------------------

def _log_half(x: float) -> float:
    # log(x/2), taken as log x - log 2 where halving a subnormal x rounds
    half = 0.5 * x
    return math.log(half) if half + half == x else math.log(x) - CONSTANTS.log2


def _bessel_y_series(x: float, order: int) -> float:
    # DLMF 10.8.1 ascending series, stable for x <= _Y_SERIES_MAX.  Y_1's
    # -2/(pi x) overflows to -inf below about 6e-309.
    u = 0.25 * x * x
    lg = _log_half(x)
    j = bessel_j(order, x)
    if order == 0:
        term, hk, s = 1.0, 0.0, 0.0
        for k in range(1, 502):
            term *= -u / (k * k)
            hk += 1.0 / k
            s += hk * term
            t = abs(term) * (hk + 1.0)
            # a zero term (u underflows below x ~ 3e-162) stays zero, and s with it
            if term == 0.0 or not (t >= 1e-18 * abs(s) or t >= 1e-18 * 1e-10):
                break
        return (2.0 / math.pi) * ((lg + _EULER_GAMMA) * j - s)
    term, hk, hk1, s = 1.0, 0.0, 1.0, 0.0
    for k in range(1, 502):
        s += (hk + hk1 - 2.0 * _EULER_GAMMA) * term
        term *= -u / (k * (k + 1))
        hk += 1.0 / k
        hk1 += 1.0 / (k + 1)
        t = abs(term) * (hk + hk1 + 2.0)
        if not (t >= 1e-18 * abs(s) or t >= 1e-18 * 1e-10):
            break
    return (2.0 / math.pi) * (lg * j - 1.0 / x) - x / (2.0 * math.pi) * s


def _bessel_y_bridge(x: float, order: int) -> float:
    # Neumann-series identities (GR 8.515.7 / 8.514.9) expressing Y_0, Y_1
    # through J_n; accurate to machine precision for moderate x where both
    # the ascending series and the asymptotic expansion fall short of 1e-12.
    # It sums to nmax = ceil(0.75 x) + 12, from one Miller pass: what it
    # leaves out is below (x/2)^(2 nmax + 1) / (2 nmax + 1)! < 1e-18 on (8, 17).
    nmax = math.ceil(0.75 * x) + 12
    j = _miller(2 * nmax + 1, x)
    lg = math.log(0.5 * x) + _EULER_GAMMA
    s, sign = 0.0, 1.0
    for n in range(1, nmax + 1 - order):
        sign = -sign
        if order == 0:
            s += sign * j[2 * n] / n
        else:
            s += sign * (2 * n + 1) / (n * (n + 1.0)) * j[2 * n + 1]
    if order == 0:
        return (2.0 / math.pi) * lg * j[0] - (4.0 / math.pi) * s
    return (2.0 / math.pi) * ((lg - 1.0) * j[1] - j[0] / x - s)


@functools.lru_cache(maxsize=128)
def _hankel_ratios(order: int) -> tuple[float, ...]:
    # 8 a_m / a_(m-1), m = 1 .. 80 (the most _hankel sums), for the Hankel
    # coefficients a_m of this order (DLMF 10.17.1)
    m = np.arange(1.0, 81.0)
    return tuple(((4.0 * order * order - (2.0 * m - 1.0) ** 2) / m).tolist())


def _hankel(order: int, x, first_kind: bool):
    # J_order (first_kind) or Y_order from the auxiliary functions P and Q of
    # the Hankel asymptotic series, for a float (math) or an array (numpy).
    # Its terms are t_m = prod_{i<m} ratios[i] / (8 x); the sum runs up to
    # the smallest term or to the first below 1e-18, counted at x or at the
    # array's smallest element: each term falls with x, so the first one
    # left out is smaller elsewhere still.
    # The phase chi = x - (2 order + 1) pi / 4 goes in by angle addition: libm
    # reduces x exactly, where a rounded chi would be off by ulp(x).  cos and
    # sin of (2 order + 1) pi / 4 are +-sqrt(2)/2, and the amplitude
    # sqrt(2 / (pi x)) over sqrt(2) is sqrt(1 / (pi x)).
    lib = np if isinstance(x, np.ndarray) else math
    xmin = float(x.min(initial=math.inf)) if lib is np else x
    ratios, u_min = _hankel_ratios(order), 0.125 / xmin
    count, last = 1, 1.0
    for m in range(80):
        t = last * ratios[m] * u_min
        if abs(t) >= abs(last):
            break
        count, last = count + 1, t
        if abs(t) < 1e-18:
            break
    pq = [1.0, 0.0]  # P and Q
    t = 1.0
    u = 0.125 / x
    for m in range(1, count):
        t *= ratios[m - 1] * u
        if m // 2 % 2:
            pq[m % 2] -= t
        else:
            pq[m % 2] += t
    p, q = pq
    r = (2 * order + 1) % 8
    cs = 1.0 if r in (1, 7) else -1.0
    sn = 1.0 if r in (1, 3) else -1.0
    c, s = lib.cos(x), lib.sin(x)
    cos_chi = cs * c + sn * s  # sqrt(2) cos(chi)
    sin_chi = cs * s - sn * c  # sqrt(2) sin(chi)
    amp = lib.sqrt(1.0 / math.pi / x)  # pi x would overflow near 1.8e308
    if first_kind:
        return amp * (cos_chi * p - sin_chi * q)
    return amp * (sin_chi * p + cos_chi * q)


def bessel_y(order: int, x: float | np.ndarray) -> float | np.ndarray:
    """Bessel function of the second kind Y_0(x) or Y_1(x), x > 0."""
    order = _integer(order, "order must be 0 or 1", 0, 1)
    return _branches(
        x, True, (_Y_SERIES_MAX, _Y_ASYMPTOTIC_MIN),
        lambda v: _bessel_y_series(v, order),
        lambda v: _bessel_y_bridge(v, order),
        lambda v: _hankel(order, v, False), floats=2,
    )


# ---------------------------------------------------------------------------
# Sine and cosine integrals
# ---------------------------------------------------------------------------

def _sici_series(x: float, shift: int) -> float:
    # The sum of (-1)^(n-1) x^(2n-1+shift) / ((2n-1+shift) (2n-1+shift)!):
    # Si(x) for shift 0 (odd in x by construction) and the entire part
    # gamma + log x - Ci(x) for shift 1, up to a next term at most
    # _SICI_SERIES_TOL of the sum.
    total = 0.0
    term = 0.5 * x * x if shift else x  # x^(2n-1+shift)/(2n-1+shift)!
    for n in range(1, 301):
        total += term / (2 * n - 1 + shift)
        term *= -x * x / ((2 * n + shift) * (2 * n + 1 + shift))
        if not abs(term) / (2 * n + 1 + shift) > _SICI_SERIES_TOL * abs(total):
            break
    return total


def _lentz(x, limit: int):
    # E_1(ix) by the modified Lentz continued fraction, for a float (cmath)
    # or an array (numpy), and the number of steps it ran: a float stops at
    # its own test within limit steps, an array runs all of them.
    # Ci(x) = -Re, and Si(x) - pi/2 = Im.
    scalar = not isinstance(x, np.ndarray)
    z = x * 1j
    b = z + 1.0
    c = 1e308
    d = 1.0 / b
    h = d
    i = 0
    for i in range(1, limit + 1):
        a = -float(i * i)
        b = b + 2.0
        d = 1.0 / (a * d + b)
        c = b + a / c
        delta = c * d
        h = h * delta
        if scalar and abs(delta - 1.0) <= 2.3e-16:
            break
    return (cmath.exp(-z) if scalar else np.exp(-z)) * h, i


def _sici_fraction(x):
    # Si(x) and Ci(x) from E_1(ix), for a float or an array.  The fraction
    # converges to machine precision for x >= ~2, in fewer steps the larger
    # x is: 24 to 26 near x = 8, 7 at x = 50, 3 at 10^3 and 1 from 10^8 on.
    # A float stops once a step changes E_1 by at most about one ulp, so its
    # count varies by a few steps between nearby x.  An array runs each
    # octave of x for the steps the float takes at the octave's smallest
    # element: the truncation error after n steps falls with x, so they
    # suffice for the larger ones.
    if isinstance(x, np.ndarray):
        e1 = np.empty(x.shape, dtype=complex)
        octave = np.frexp(x)[1]
        for e in sorted(set(octave.tolist())):
            band = octave == e
            e1[band] = _lentz(x[band], _lentz(float(x[band].min()), 299)[1])[0]
    else:
        e1 = _lentz(x, 299)[0]
    return e1.imag + 0.5 * math.pi, -e1.real


def si(x: float | np.ndarray) -> float | np.ndarray:
    """Sine integral Si(x) = int_0^x sin(t)/t dt, x >= 0."""
    return _branches(x, False, (_SICI_CROSSOVER,), lambda v: _sici_series(v, 0),
                     lambda v: _sici_fraction(v)[0], floats=1)


def ci(x: float | np.ndarray) -> float | np.ndarray:
    """Cosine integral Ci(x), x > 0."""
    return _branches(x, True, (_SICI_CROSSOVER,),
                     lambda v: _EULER_GAMMA + math.log(v) - _sici_series(v, 1),
                     lambda v: _sici_fraction(v)[1], floats=1)


def gamma_log_minus_ci(x: float | np.ndarray) -> float | np.ndarray:
    """gamma + log(x) - Ci(x), evaluated without cancellation near 0.

    This combination is what the integral identities actually use; below the
    crossover it comes straight from the entire series x^2/4 - x^4/96 + ...
    """
    log = np.log if isinstance(x, np.ndarray) else math.log
    return _branches(x, False, (_SICI_CROSSOVER,), lambda v: _sici_series(v, 1),
                     lambda v: log(v) + (_EULER_GAMMA - _sici_fraction(v)[1]), floats=1)


# ---------------------------------------------------------------------------
# Clausen functions of odd index
# ---------------------------------------------------------------------------

_TWO_PI = 2.0 * math.pi

# Terms of order theta^(2 m) and beyond with m > 30 stay below 1e-50 on
# [0, pi], so a larger weight keeps 30 terms of P and drops the log term.
_CLAUSEN_MAX_ORDER = 30


@functools.lru_cache(maxsize=128)
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
    check = _checked_array if isinstance(theta, np.ndarray) else _real
    theta = check(theta, "theta must be finite")
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
    return np.asarray(out) if isinstance(theta, np.ndarray) else float(out)


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

_ZETA_ONE = 64  # zeta and eta round to 1.0 from s = 55 on; a larger s is clamped to it


def zeta(s: int) -> float:
    """Riemann zeta at integer s >= 2."""
    s = min(_integer(s, "zeta requires an integer s >= 2", 2), _ZETA_ONE)
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
    s = min(_integer(s, "eta requires an integer s >= 1", 1), _ZETA_ONE)
    if s == 1:
        return CONSTANTS.log2
    return (1.0 - 2.0 ** (1.0 - s)) * zeta(s)
