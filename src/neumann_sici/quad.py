"""Numerical integration engine and one operation per verified integral.

Integrands are array callables: ``f(t)`` takes a 1-D float ndarray of
abscissae and returns the integrand values as an array of the same shape.
The engine evaluates only interior Gauss-Kronrod nodes, so an integrand
with a removable singularity at an endpoint (``cot t`` or ``1/t`` at 0)
needs no special value there.

Two layers:

* ``integrate_finite`` -- adaptive 15-point Gauss-Kronrod (QUADPACK dqk15)
  with bisection refinement from ``pieces`` equal starting panels, all
  evaluated in one integrand call.  Each step bisects the panel with the
  largest error estimate and evaluates both halves in one integrand call,
  until the error sum over all the panels is at most tol.  A panel's
  estimate is at least 15 eps times its Kronrod sum of |f|, the rounding
  bound of the 15-term sum (dqk15 uses 50 eps); once every panel sits at
  that floor the refinement stops, and the floor sum is the estimate.  The
  cot-weighted integrals on [0, pi/2] start from ceil(m/2) panels, m being
  the integrand's frequency (2n+1 for Lemma 1, 2n for Lemma 3, 1 for the
  transforms and the Clausen integrals): a Lemma integral needs no
  bisection.
* ``oscillatory_semiinf`` -- a Longman-style scheme for Example 2 and
  Corollaries 5 and 6: integrate between consecutive partition edges, given
  by an edge function m -> edge(m) (for a Bessel integrand its asymptotic
  extrema, spaced by the period pi), and extrapolate the partial sums to
  b = infinity with the Euler sums' extrapolator,
  ``_accel.alternating_series_limit``: one least-squares fit of the raw
  sums over the last half of the edges, with an alternating and a smooth
  column for each of b^(-1), b^(-3/2), b^(-3/2) log b, ...  The smooth
  columns are needed: products of two oscillatory factors (Si or Ci tails
  against a Bessel function) carry a non-alternating t^(-5/2) component
  that plain alternating-series acceleration cannot see.  The sums are
  passed measured from the last one, so that their rounding is the size
  of the tail.  Partitions are integrated a block at a time: the block runs
  up to the next extrapolation checkpoint (32, 48, 72, ... up to
  ``_MAX_PARTITIONS``) and every partition in it gets one GK15 panel in a
  single integrand call.  The first partition, where the integrand has not
  yet settled into its oscillation, is cut into panels at most pi/2 wide in
  that same call.  Only partitions whose error estimate exceeds the
  per-partition tolerance are refined, all of them together with one call
  per refinement step; no integral in the registry needs one.

The Bessel moments int_0^inf w(t) J_nu(t) dt/t take one GK15 call on such
partitions up to B >= max(50, nu^2/2), and a closed-form asymptotic tail.

Each verified integral gets its own operation below so the harness can bind
it to an exact or closed-form counterpart.
"""

from __future__ import annotations

import cmath
import heapq
import math
from dataclasses import dataclass
from operator import itemgetter
from typing import Callable, Iterable

import numpy as np

from . import _accel, specfun

__all__ = [
    "QuadResult",
    "QuadratureError",
    "integrate_finite",
    "oscillatory_semiinf",
    "lemma1_integral",
    "lemma3_integral",
    "si_transform_integral",
    "ci_transform_integral",
    "si_bessel_integral",
    "ci_bessel_integral",
    "j0_orthogonality_integral",
    "bessel_j1_over_t_integral",
    "example2_integral",
    "clausen_cot_integral",
    "corollary5_rhs",
    "corollary6_integral",
    "corollary6_intermediate_integral",
]

ArrayFn = Callable[[np.ndarray], np.ndarray]


class QuadratureError(RuntimeError):
    """Raised on non-convergence or a non-finite integrand evaluation."""


@dataclass
class QuadResult:
    value: float
    abs_err_estimate: float
    subdivisions: int
    partitions_used: int = 0


# 15-point Kronrod nodes with embedded 7-point Gauss rule (QUADPACK dqk15).
_XGK = (
    0.9914553711208126,
    0.9491079123427585,
    0.8648644233597691,
    0.7415311855993944,
    0.5860872354676911,
    0.4058451513773972,
    0.2077849550078985,
)
_WGK = (
    0.0229353220105292,
    0.0630920926299786,
    0.1047900103222502,
    0.1406532597155259,
    0.1690047266392679,
    0.1903505780647854,
    0.2044329400752989,
)
_WGK_CENTER = 0.2094821410847278
_WG = (
    0.1294849661688697,
    0.2797053914892767,
    0.3818300505051189,
)
_WG_CENTER = 0.4179591836734694
# Floor of a panel's error estimate per unit of its Kronrod sum of |f|: the
# rounding bound of the 15-term sum.  QUADPACK's dqk15 uses 50 eps, which puts
# tol 1e-14 out of reach on O(1) integrals.
_ROUNDOFF = 15.0 * np.finfo(float).eps

# The rule in node order: center, then -x, +x for each Kronrod abscissa x.
# Column 0 holds the Kronrod weights, column 1 the Gauss weights (the Gauss
# rule uses the center and every second abscissa).
_NODE_X = np.array([0.0, *(sign * x for x in _XGK for sign in (-1.0, 1.0))])
_NODE_W = np.array(
    [(_WGK_CENTER, _WG_CENTER)]
    + [(_WGK[i], _WG[i // 2] if i % 2 else 0.0) for i in range(7) for _ in range(2)]
)


def _gk15(
    f: ArrayFn, a: np.ndarray, b: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Gauss-Kronrod panels [a[i], b[i]] in one integrand call.

    Returns the arrays (integral, error estimate, rough), where rough marks
    the panels whose estimate exceeds its roundoff floor.
    """
    center = 0.5 * (a + b)
    h = 0.5 * (b - a)
    nodes = np.multiply.outer(h, _NODE_X)
    nodes += center[:, None]
    values = np.asarray(f(nodes.ravel()), dtype=float).reshape(nodes.shape)
    sums = values @ _NODE_W
    resk, resg = sums[:, 0], sums[:, 1]
    # every Kronrod weight is positive, so any non-finite value reaches resk
    finite = np.isfinite(resk)
    if not finite.all():
        bad = int(np.argmin(finite))
        raise QuadratureError(
            f"integrand returned a non-finite value on [{a[bad]}, {b[bad]}]"
        )
    abs_h = np.abs(h)
    resabs = (np.abs(values) @ _NODE_W[:, 0]) * abs_h
    resasc = (np.abs(values - 0.5 * resk[:, None]) @ _NODE_W[:, 0]) * abs_h
    err = np.abs(resk - resg) * abs_h
    # QUADPACK's rescaling of the Gauss-Kronrod difference
    nonzero = resasc != 0.0
    ratio = np.divide(200.0 * err, resasc, out=np.zeros_like(err), where=nonzero)
    err = np.where(nonzero, resasc * np.minimum(1.0, ratio**1.5), err)
    floor = _ROUNDOFF * resabs
    return resk * h, np.maximum(err, floor), err > floor


_MAX_SUBDIVISIONS = 2000
# The last Longman checkpoint, 32 * 1.5^12 floored stepwise: about 0.07 s on
# a Bessel integrand, and the first at which the J_81 moment's converges
_MAX_PARTITIONS = 4144
_VALUE, _ERROR = itemgetter(4), itemgetter(5)  # of a heap item


def _integrate_intervals(
    f: ArrayFn, a: np.ndarray, b: np.ndarray, pieces: np.ndarray, tol: float
) -> tuple[list[float], list[float], list[int]]:
    """Adaptive GK15 on each [a[i], b[i]] separately, each to absolute tol.

    Interval i starts as ``pieces[i]`` equal panels, and every interval keeps
    its own heap of panels.  One integrand call evaluates all the starting
    panels.  A step bisects the worst panel of every interval whose error sum
    (over all of its panels) still exceeds tol and evaluates all the halves
    in one integrand call.  An interval whose panels all sit at their
    roundoff floor stops there, with that floor sum as its estimate, since
    bisection cannot lower it; one that reaches ``_MAX_SUBDIVISIONS`` panels
    unconverged raises QuadratureError.  Returns per-interval lists of
    values, error estimates and panel counts.
    """
    stops = np.cumsum(pieces)
    starts = stops - pieces
    owner = np.repeat(np.arange(len(pieces)), pieces)
    low = a[owner] + (b - a)[owner] * (np.arange(stops[-1]) - starts[owner]) / pieces[owner]
    high = np.empty_like(low)
    high[:-1] = low[1:]
    high[stops - 1] = b
    values, errors, rough = _gk15(f, low, high)
    total_err = np.add.reduceat(errors, starts).tolist()
    # panels per interval whose estimate is above its floor
    unsettled = np.add.reduceat(rough, starts, dtype=int).tolist()
    # heap items are (-err, seq, a, b, value, err, rough); seq breaks ties
    # deterministically
    items = list(zip((-errors).tolist(), range(len(values)), low.tolist(), high.tolist(),
                     values.tolist(), errors.tolist(), rough.tolist()))
    heaps = [items[i:j] for i, j in zip(starts.tolist(), stops.tolist())]
    for heap in heaps:
        heapq.heapify(heap)
    panels = pieces.tolist()
    active = [i for i, e in enumerate(total_err) if e > tol and unsettled[i]]
    seq = len(values)
    while active:
        for i in active:
            if panels[i] >= _MAX_SUBDIVISIONS:
                raise QuadratureError(
                    f"no convergence after {panels[i]} subdivisions "
                    f"(err estimate {total_err[i]:.2e} > tol {tol:.2e})"
                )
        worst = [heapq.heappop(heaps[i]) for i in active]
        lo = [item[2] for item in worst]
        hi = [item[3] for item in worst]
        mid = [0.5 * (left + right) for left, right in zip(lo, hi)]
        halves, halves_err, halves_rough = (
            x.tolist() for x in _gk15(f, np.array(lo + mid), np.array(mid + hi))
        )
        n = len(active)
        for j, i in enumerate(active):
            lerr, rerr = halves_err[j], halves_err[n + j]
            lrough, rrough = halves_rough[j], halves_rough[n + j]
            total_err[i] += lerr + rerr - worst[j][5]
            unsettled[i] += lrough + rrough - worst[j][6]
            heapq.heappush(heaps[i], (-lerr, seq, lo[j], mid[j], halves[j], lerr, lrough))
            heapq.heappush(heaps[i], (-rerr, seq + 1, mid[j], hi[j], halves[n + j], rerr, rrough))
            panels[i] += 1
        seq += 2
        active = [i for i in active if total_err[i] > tol and unsettled[i]]
    # resum from the heaps for sharper values (avoids drift in the updates)
    return (
        [math.fsum(map(_VALUE, heap)) for heap in heaps],
        [math.fsum(map(_ERROR, heap)) for heap in heaps],
        panels,
    )


def integrate_finite(
    f: ArrayFn, a: float, b: float, tol: float = 1e-12, *, pieces: int = 1
) -> QuadResult:
    """Adaptive Gauss-Kronrod integration of f over [a, b] to absolute tol.

    The refinement starts from ``pieces`` equal panels.  ``a`` and ``b`` must
    be finite with a < b and a finite width b - a, ``tol`` finite and
    positive, and ``pieces`` an integer from 1 to ``_MAX_SUBDIVISIONS``,
    else ValueError before any integrand call.  The returned estimate
    exceeds tol only when every panel's estimate sits at its roundoff floor,
    which bisection cannot lower.
    """
    a, b = specfun._real(a, "a must be finite"), specfun._real(b, "b must be finite")
    if not 0.0 < b - a < math.inf:
        raise ValueError(f"requires a < b and a finite width b - a, got [{a}, {b}]")
    tol = specfun._real(tol, "tol must be finite and positive", 0.0, strict=True)
    message = f"pieces must be an integer from 1 to {_MAX_SUBDIVISIONS}"
    pieces = specfun._integer(pieces, message, 1, _MAX_SUBDIVISIONS)
    values, errors, panels = _integrate_intervals(
        f, np.array([a], dtype=float), np.array([b], dtype=float), np.array([pieces]), tol
    )
    return QuadResult(values[0], errors[0], panels[0])


_EST_SAFETY = 3.0
# The remainder at partition edge b: t^(-3/2) amplitudes, times log t where a
# weight carries log t, integrated from b; the b^(-1) entry covers integrands
# that decay like 1/t, such as sin(t)/t.
_LONGMAN_BASIS = (
    (0, False), (1, False), (1.5, False), (1.5, True),
    (2.5, False), (2.5, True), (3.5, False), (4.5, False),
)
_HALF_PI = 0.5 * math.pi


def _integrate_partitions(
    f: ArrayFn, lows: np.ndarray, highs: np.ndarray, first: bool, tol: float
) -> tuple[list[float], list[float], list[int]]:
    # One GK15 panel per partition, in one integrand call, but the first (from
    # 0, where the integrand has not settled into its oscillation) if first:
    # panels at most pi/2 wide, at most _MAX_SUBDIVISIONS of them
    pieces = np.ones(len(highs), dtype=int)
    if first:
        pieces[0] = min(math.ceil(highs[0] / _HALF_PI), _MAX_SUBDIVISIONS)
    return _integrate_intervals(f, lows, highs, pieces, max(tol * 2e-4, 5e-15))


def oscillatory_semiinf(f: ArrayFn, edge: Callable[[int], float], tol: float) -> QuadResult:
    """Longman scheme for int_0^inf f of a decaying oscillatory integrand.

    Partition m = 1, 2, ... runs from edge(m - 1) to edge(m), with edge(0)
    taken as 0; exact extremum locations do not matter since the
    extrapolation only needs eventually-alternating partial sums.  The
    partitions up to each extrapolation checkpoint (32, 48, 72, ...) are
    integrated as one block (see the module docstring); a block whose edges
    are not finite or do not rise strictly from 0 raises ValueError.  The
    reported error is 3 times the larger of the fit's two moves (dropping
    its last column pair; since the previous checkpoint) plus the summed
    panel error estimates.  ``tol`` must be finite and positive, else
    ValueError before any edge; an integral not within tol by
    ``_MAX_PARTITIONS`` partitions raises QuadratureError.
    """
    tol = specfun._real(tol, "tol must be finite and positive", 0.0, strict=True)
    checkpoint = 32
    parts: list[float] = []
    edges: list[float] = []
    quad_err = 0.0
    subdivisions = 0
    best: tuple[float, float] | None = None
    prev_value: float | None = None
    while checkpoint <= _MAX_PARTITIONS:
        highs = [edge(m) for m in range(len(parts) + 1, checkpoint + 1)]
        lows = [edges[-1] if edges else 0.0] + highs[:-1]
        if not (all(lo < hi for lo, hi in zip(lows, highs)) and math.isfinite(highs[-1])):
            raise ValueError("partition edges must be finite and rise strictly from 0")
        edges += highs
        values, errors, panels = _integrate_partitions(
            f, np.array(lows), np.array(highs), not parts, tol
        )
        parts += values
        quad_err += math.fsum(errors)
        subdivisions += sum(panels)
        checkpoint = int(checkpoint * 1.5)
        limit, shift = _accel.alternating_series_limit(
            _accel.sums_from_last(np.array(parts)), edges, _LONGMAN_BASIS
        )
        value = math.fsum(parts) + limit
        if prev_value is not None:
            # the move since the previous checkpoint guards against a fit
            # that is stable in its basis but not yet in the partition count
            est = _EST_SAFETY * max(shift, abs(value - prev_value)) + quad_err
            best = (value, est)
            if est <= tol:
                return QuadResult(value, est, subdivisions, partitions_used=len(parts))
        prev_value = value
    raise QuadratureError(
        f"oscillatory integral did not reach tol {tol:.1e} within "
        f"{len(parts)} partitions"
        + (f" (best estimate {best[1]:.2e})" if best else "")
    )


def _period_edges(phase: float) -> Callable[[int], float]:
    # Edges (m + phase) pi: a Bessel function of order nu has its asymptotic
    # extrema at (m + nu/2 + 1/4) pi, so phase = nu/2 + 1/4 puts the edges
    # there and the partition integrals alternate in sign.
    return lambda m: (m + phase) * math.pi


# ---------------------------------------------------------------------------
# Finite cot-weighted integrals on [0, pi/2]
# ---------------------------------------------------------------------------


def _cot_integral(g: ArrayFn, tol: float, m: int = 1) -> QuadResult:
    # int_0^{pi/2} g(t) cot(t) dt for g of frequency m, started as ceil(m/2)
    # panels at most pi/m wide: half a period of sin(m t) each, which one GK15
    # panel resolves, so the Lemma integrals need no bisection
    return integrate_finite(
        lambda t: g(t) * np.cos(t) / np.sin(t), 0.0, _HALF_PI, tol, pieces=(m + 1) // 2
    )


def lemma1_integral(n: int) -> QuadResult:
    """int_0^{pi/2} sin((2n+1)t) cot(t) dt; equals the exact coefficient alpha_n."""
    # n + 1 starting panels, at most _MAX_SUBDIVISIONS
    top = _MAX_SUBDIVISIONS - 1
    n = specfun._integer(n, f"n must be an integer from 0 to {top}", 0, top)
    m = 2 * n + 1
    return _cot_integral(lambda t: np.sin(m * t), 1e-12, m)


def lemma3_integral(n: int) -> QuadResult:
    """int_0^{pi/2} [1 - cos(2nt)] cot(t) dt; equals the exact coefficient beta_n."""
    # n starting panels, at most _MAX_SUBDIVISIONS
    top = _MAX_SUBDIVISIONS
    n = specfun._integer(n, f"n must be an integer from 1 to {top}", 1, top)
    m = 2 * n
    return _cot_integral(lambda t: 1.0 - np.cos(m * t), 1e-12, m)


def si_transform_integral(a: float) -> QuadResult:
    """int_0^{pi/2} sin(a sin t) cot(t) dt = Si(a)."""
    a = specfun._real(a, "a must be finite and nonnegative", 0.0)
    return _cot_integral(lambda t: np.sin(a * np.sin(t)), 1e-12)


def ci_transform_integral(a: float) -> QuadResult:
    """int_0^{pi/2} [1 - cos(a sin t)] cot(t) dt = gamma + log(a) - Ci(a)."""
    a = specfun._real(a, "a must be finite and positive", 0.0, strict=True)
    return _cot_integral(lambda t: 1.0 - np.cos(a * np.sin(t)), 1e-12)


def clausen_cot_integral(k: int) -> QuadResult:
    """int_0^{pi/2} [zeta(2k+3) - Cl_{2k+3}(2t)] cot(t) dt.

    For k = 0 this evaluates to (7/4) log(2) zeta(3); for k >= 1 it equals
    half the even-weight Euler-sum closed form of weight 2k+3.
    """
    k = specfun._integer(k, "k must be a nonnegative integer", 0)
    weight = 2 * k + 3
    z = specfun.zeta(weight)
    return _cot_integral(lambda t: z - specfun.clausen_odd(weight, 2.0 * t), 1e-10)


# ---------------------------------------------------------------------------
# Semi-infinite oscillatory Bessel integrals
# ---------------------------------------------------------------------------

# The highest J order of a moment: [0, B] holds 25,000 partitions, about 1 s
_MAX_MOMENT_ORDER = 400
_ORDER_CAP = f"J order at most quad._MAX_MOMENT_ORDER = {_MAX_MOMENT_ORDER}"


def _asymptotic_terms(ratios: Iterable[complex]) -> tuple[np.ndarray, float]:
    # Terms 1, r1, r1 r2, ... to the first below 1e-18 (within 30 for each
    # series here) or the smallest, and the size of the first one left out
    terms = [1.0 + 0j]
    for r in ratios:
        if abs(nxt := terms[-1] * r) < 1e-18 or abs(nxt) >= abs(terms[-1]):
            break
        terms.append(nxt)
    return np.array(terms), abs(nxt)


def _power_ladder(kappa: float, b: float, count: int) -> np.ndarray:
    # Rows b^p I(p), b^p L(p) for p = 3/2, 5/2, ... (count of them), I(p) =
    # int_b^inf e^(i kappa t) t^-p dt and L = -dI/dp, by parts: I(p) = (p I(p+1)
    # - e^(i kappa b) b^-p) / (i kappa), run downward (stable for p < kappa b)
    # from leading terms 20 levels up, whose error shrinks by p/(kappa b) a step
    phase, log_b, step = cmath.exp(1j * kappa * b), math.log(b), 1.0 / (1j * kappa)
    i_p, l_p = -phase * step, -phase * step * log_b
    out = np.empty((2, count), dtype=complex)
    for j in range(count + 19, -1, -1):
        r = (j + 1.5) / b
        i_p, l_p = (r * i_p - phase) * step, (r * l_p - i_p / b - phase * log_b) * step
        if j < count:
            out[:, j] = i_p, l_p
    return out


def _moment_tail(order: int, ci: bool, b: float) -> tuple[float, float]:
    # int_b^inf w(t) J_order(t) dt/t, b >= max(50, order^2/2), term by term in
    # J = sqrt(2/pi) Re[e^(i(t - omega)) sum_k i^k a_k t^(-k-1/2)], omega =
    # (2 order + 1) pi/4 (DLMF 10.17.3), Si = pi/2 - Re[e^(-it) E] and Ci =
    # -Im[e^(-it) E], E = sum_m i^m m! t^(-m-1) (DLMF 6.12.3-4): E against J
    # gives t^-p and frequency-2 terms, pi/2 and gamma + log t frequency 1.
    # What is left out is bounded by each series' first omitted term (DLMF
    # 10.17(iii), 6.12(ii)), J's against |w| <= 1 + log t, E's twice, |J| <= 1.
    u = 1.0 / b
    s, s_out = _asymptotic_terms(0.125j * r * u for r in specfun._hankel_ratios(order))
    e, e_out = _asymptotic_terms(1j * m * u for m in range(1, 60))
    i1, l1 = _power_ladder(1.0, b, len(s))
    i2 = _power_ladder(-2.0, b, len(s) + len(e))[0, 1:]
    flat = np.convolve(e, s) @ (1.0 / np.arange(1.5, len(s) + len(e)))
    osc2 = np.convolve(e, s.conj()) @ i2 * u  # times e^(i omega)
    rot = cmath.exp(-0.5j * (order + 0.5) * math.pi)  # e^(-i omega)
    osc1 = specfun.CONSTANTS.euler_gamma * (s @ i1) + s @ l1 if ci else _HALF_PI * (s @ i1)
    tail = (rot * osc1 - (0.5j if ci else 0.5) * (rot * flat + osc2 / rot)).real
    amp = math.sqrt(2.0 / math.pi / b)
    left_out = amp * s_out * (2.0 + math.log(b)) / (len(s) + 0.5) + 2.0 * e_out * u / (len(e) + 1)
    return float(amp * tail * u), left_out


def _bessel_moment(order: int, ci: bool, tol: float) -> QuadResult:
    # int_0^inf w(t) J_order(t) dt/t, w = gamma + log t - Ci if ci, else Si: a
    # GK15 panel per partition (the first as panels at most pi/2 wide) up to
    # B, the first edge at or above max(50, order^2/2), then _moment_tail
    weight = specfun.gamma_log_minus_ci if ci else specfun.si
    phase = 0.5 * order + 0.25
    count = max(1, math.ceil(max(50.0, 0.5 * order * order) / math.pi - phase))
    highs = (np.arange(1.0, count + 1) + phase) * math.pi
    lows = np.r_[0.0, highs[:-1]]
    values, errors, panels = _integrate_partitions(
        lambda t: weight(t) * specfun.bessel_j(order, t) / t, lows, highs, True, tol
    )
    tail, left_out = _moment_tail(order, ci, float(highs[-1]))
    return QuadResult(math.fsum(values) + tail, math.fsum(errors) + left_out, sum(panels), count)


def si_bessel_integral(n: int) -> QuadResult:
    """int_0^inf Si(t) J_{2n+1}(t) dt/t = alpha_n/(2n+1), for n up to 199."""
    top = (_MAX_MOMENT_ORDER - 1) // 2
    n = specfun._integer(n, f"n must be an integer from 0 to {top} ({_ORDER_CAP})", 0, top)
    return _bessel_moment(2 * n + 1, False, 1e-8)


def ci_bessel_integral(n: int) -> QuadResult:
    """int_0^inf [gamma + log t - Ci(t)] J_{2n}(t) dt/t = beta_n/(2n), for n up to 200."""
    top = _MAX_MOMENT_ORDER // 2
    n = specfun._integer(n, f"n must be an integer from 1 to {top} ({_ORDER_CAP})", 1, top)
    return _bessel_moment(2 * n, True, 1e-8)


def j0_orthogonality_integral() -> QuadResult:
    """int_0^inf [gamma + log t - Ci(t)] J_0(t) dt/t, which vanishes."""
    return _bessel_moment(0, True, 2e-7)


def bessel_j1_over_t_integral() -> QuadResult:
    """Engine self-test: int_0^inf J_1(t)/t dt = 1."""
    return oscillatory_semiinf(lambda t: specfun.bessel_j(1, t) / t, _period_edges(0.75), 2e-10)


def example2_integral() -> QuadResult:
    """int_0^inf (glmc(t)/t) (pi/2 Y_0(t) - log(t/2) J_0(t)) dt.

    Evaluates to (pi^2/4) log 2 - (7/8) zeta(3).  The two log-divergent
    pieces inside the bracket are combined before the multiplication; their
    difference stays O(1) as t -> 0.
    """
    def f(t: np.ndarray) -> np.ndarray:
        bracket = (
            _HALF_PI * specfun.bessel_y(0, t)
            - np.log(0.5 * t) * specfun.bessel_j(0, t)
        )
        return specfun.gamma_log_minus_ci(t) / t * bracket

    return oscillatory_semiinf(f, _period_edges(0.25), 2e-6)


def _corollary6_bracket(t: np.ndarray) -> np.ndarray:
    return (
        np.log(0.5 * t) * specfun.bessel_j(1, t)
        - _HALF_PI * specfun.bessel_y(1, t)
        - specfun.bessel_j(0, t) / t
    )


def corollary6_integral() -> QuadResult:
    """int_0^inf Si(t) (log(t/2) J_1 - pi/2 Y_1 - J_0/t) dt/t = 4 - 4G - gamma."""
    return oscillatory_semiinf(
        lambda t: specfun.si(t) / t * _corollary6_bracket(t), _period_edges(0.75), 2e-5
    )


def corollary6_intermediate_integral() -> QuadResult:
    """Same integral with the (gamma - 1) J_1 term kept inside; equals 3 - 4G."""
    g1 = specfun.CONSTANTS.euler_gamma - 1.0

    def f(t: np.ndarray) -> np.ndarray:
        return specfun.si(t) / t * (
            _corollary6_bracket(t) + g1 * specfun.bessel_j(1, t)
        )

    return oscillatory_semiinf(f, _period_edges(0.75), 2e-5)


# In a sweep at step 0.05, corollary5_rhs converges within _MAX_PARTITIONS
# for every a up to 119.1 and for none from 119.15 on
_COROLLARY5_MAX_A = 115.0


def corollary5_rhs(a: float) -> QuadResult:
    """int_0^inf [gamma + log t - Ci(t)] J_0(sqrt(a^2 + t^2)) dt/t, |a| <= 115.

    Equals the alternating Neumann series sum_n (-1)^n J_{2n}(a) beta_n / n.
    Partition edges follow the shifted argument: they sit where
    sqrt(a^2 + t^2) reaches (k + 1/4) pi, for each k >= 1 with (k + 1/4) pi > a.
    The residual phase drift a^2/(2t) of the shifted argument must settle
    inside the fit window, which takes more partitions as |a| grows (up to
    ``_MAX_PARTITIONS``); past |a| = 115 (``_COROLLARY5_MAX_A``)
    QuadratureError is raised before any edge is counted.
    """
    a = abs(specfun._real(a, "a must be finite"))
    if a > _COROLLARY5_MAX_A:  # before counting edges, which spins at huge a
        raise QuadratureError(f"corollary5_rhs needs |a| <= {_COROLLARY5_MAX_A:g}, got |a| = {a:g}")
    # edges (k + 1/4) pi <= a have no real counterpart in t
    skipped = 0
    while (skipped + 1.25) * math.pi <= a:
        skipped += 1

    def edge(m: int) -> float:
        phase = (m + skipped + 0.25) * math.pi
        return math.sqrt(phase * phase - a * a)

    return oscillatory_semiinf(
        lambda t: specfun.gamma_log_minus_ci(t)
        * specfun.bessel_j(0, np.sqrt(a * a + t * t))
        / t,
        edge,
        2e-7,
    )
