"""Numerical integration engine and one operation per verified integral.

Integrands are array callables: ``f(t)`` takes a 1-D float ndarray of
abscissae and returns the integrand values as an array of the same shape.
The engine evaluates only interior Gauss-Kronrod nodes, so an integrand
with a removable singularity at an endpoint (``cot t`` or ``1/t`` at 0)
needs no special value there.

Two layers:

* ``integrate_finite`` -- adaptive 15-point Gauss-Kronrod (QUADPACK dqk15)
  with bisection refinement, for the cot-weighted integrals on [0, pi/2].
  Each step bisects the panel with the largest error estimate and evaluates
  both halves in one integrand call.
* ``oscillatory_semiinf`` -- a Longman-style scheme for the semi-infinite
  Bessel integrals: integrate between consecutive partition edges, given
  by an edge function m -> edge(m) (for a Bessel integrand its asymptotic
  zeros, spaced by the period pi), suppress the alternating component of
  the partial sums by repeated averaging (Euler transformation), then
  remove the residual smooth tail.  That residue is real: products of two
  oscillatory factors (Si or Ci tails against a Bessel function) carry a
  non-alternating t^(-5/2) component that plain alternating-series
  acceleration cannot see, so the averaged partial sums are collocated
  against b^(-3/2), b^(-3/2) log b, ... on geometrically spaced truncation
  points and extrapolated to b = infinity with the Euler sums'
  extrapolator, ``_accel.alternating_series_limit``.
  Partitions are integrated a block at a time: the block runs up to the
  next extrapolation checkpoint, every partition in it gets one GK15 panel
  in a single integrand call, and only the partitions whose error estimate
  exceeds the per-partition tolerance are refined, all of them together
  with one call per refinement step.

Each verified integral gets its own operation below so the harness can bind
it to an exact or closed-form counterpart.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from typing import Callable

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

# The rule in node order: center, then -x, +x for each Kronrod abscissa x.
# Column 0 holds the Kronrod weights, column 1 the Gauss weights (the Gauss
# rule uses the center and every second abscissa).
_NODE_X = np.array([0.0, *(sign * x for x in _XGK for sign in (-1.0, 1.0))])
_NODE_W = np.array(
    [(_WGK_CENTER, _WG_CENTER)]
    + [(_WGK[i], _WG[i // 2] if i % 2 else 0.0) for i in range(7) for _ in range(2)]
)


def _gk15(f: ArrayFn, a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Kronrod panels [a[i], b[i]] in one integrand call.

    Returns the arrays (integral, error estimate).
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
    resasc = (np.abs(values - 0.5 * resk[:, None]) @ _NODE_W[:, 0]) * abs_h
    err = np.abs(resk - resg) * abs_h
    # QUADPACK's rescaling of the Gauss-Kronrod difference
    nonzero = resasc != 0.0
    ratio = np.divide(200.0 * err, resasc, out=np.zeros_like(err), where=nonzero)
    err = np.where(nonzero, resasc * np.minimum(1.0, ratio**1.5), err)
    return resk * h, err


def _integrate_intervals(
    f: ArrayFn, a: np.ndarray, b: np.ndarray, tol: float, max_subdivisions: int
) -> tuple[list[float], list[float], list[int]]:
    """Adaptive GK15 on each [a[i], b[i]] separately, each to absolute tol.

    Every interval keeps its own heap of panels.  A step bisects the worst
    panel of every interval whose error sum still exceeds tol and evaluates
    all the halves in one integrand call.  Returns per-interval lists of
    values, error estimates and panel counts.
    """
    values, errors = _gk15(f, a, b)
    # heap items are (-err, seq, a, b, value, err); seq breaks ties deterministically
    heaps = [
        [(-e, 0, lo, hi, v, e)]
        for lo, hi, v, e in zip(a.tolist(), b.tolist(), values.tolist(), errors.tolist())
    ]
    total_err = errors.tolist()
    panels = [1] * len(heaps)
    active = [i for i, e in enumerate(total_err) if e > tol]
    seq = 1
    while active:
        for i in active:
            if panels[i] >= max_subdivisions:
                raise QuadratureError(
                    f"no convergence after {panels[i]} subdivisions "
                    f"(err estimate {total_err[i]:.2e} > tol {tol:.2e})"
                )
        worst = [heapq.heappop(heaps[i]) for i in active]
        lo = [item[2] for item in worst]
        hi = [item[3] for item in worst]
        mid = [0.5 * (left + right) for left, right in zip(lo, hi)]
        halves, halves_err = _gk15(f, np.array(lo + mid), np.array(mid + hi))
        halves, halves_err = halves.tolist(), halves_err.tolist()
        n = len(active)
        for j, i in enumerate(active):
            lerr, rerr = halves_err[j], halves_err[n + j]
            total_err[i] += lerr + rerr - worst[j][5]
            heapq.heappush(heaps[i], (-lerr, seq, lo[j], mid[j], halves[j], lerr))
            heapq.heappush(heaps[i], (-rerr, seq + 1, mid[j], hi[j], halves[n + j], rerr))
            panels[i] += 1
        seq += 2
        active = [i for i in active if total_err[i] > tol]
    # resum from the heaps for sharper values (avoids drift in the updates)
    return (
        [math.fsum(item[4] for item in heap) for heap in heaps],
        [math.fsum(item[5] for item in heap) for heap in heaps],
        panels,
    )


def integrate_finite(
    f: ArrayFn,
    a: float,
    b: float,
    tol: float = 1e-12,
    max_subdivisions: int = 2000,
) -> QuadResult:
    """Adaptive Gauss-Kronrod integration of f over [a, b] to absolute tol."""
    if not a < b:
        raise ValueError("requires a < b")
    if tol <= 0:
        raise ValueError("tol must be positive")
    values, errors, panels = _integrate_intervals(
        f, np.array([a], dtype=float), np.array([b], dtype=float), tol, max_subdivisions
    )
    return QuadResult(values[0], errors[0], panels[0])


_EST_SAFETY = 3.0
# Smooth modes left after averaging the Longman partial sums: the remainder
# at partition edge b behaves like b^(-3/2) (c0 + c1 log b) + O(b^(-5/2) log b).
_LONGMAN_BASIS = ((0, False), (1.5, False), (1.5, True), (2.5, False), (2.5, True), (3.5, False))


def _partition_limits(scale: float) -> tuple[int, int]:
    # Floor and cap on the partition count.  An integrand settles into its
    # asymptotic oscillation after a run that grows with the scale s (a Bessel
    # order, Corollary 5's shift a); the clamp at 1e6 keeps the products finite.
    s = min(scale, 1e6)
    floor = max(32, int(0.75 * s * s))
    cap = 400 + int(40 * s)
    if floor >= cap:
        raise QuadratureError(
            f"oscillatory integral at scale {scale:g} cannot converge: "
            f"the partition floor max(32, 0.75 s^2) reaches the cap 400 + 40 s"
        )
    return floor, cap


def oscillatory_semiinf(
    f: ArrayFn, edge: Callable[[int], float], tol: float, *, scale: float = 0.0
) -> QuadResult:
    """Longman scheme for int_0^inf f of a decaying oscillatory integrand.

    Partition m = 1, 2, ... runs from edge(m - 1) to edge(m), with edge(0)
    taken as 0; exact zero locations do not matter since the acceleration
    only needs eventually-alternating partial sums.  The partitions up to
    each extrapolation checkpoint are integrated as one block (see the
    module docstring); a block whose edges do not rise strictly from 0
    raises ValueError.  The reported error combines the accumulated
    per-partition quadrature errors with the (safety-padded) extrapolation
    estimate.  ``scale`` s sets the partition floor max(32, 0.75 s^2) and cap
    400 + 40 s; a floor at or above the cap raises QuadratureError at once.
    """
    checkpoint, cap = _partition_limits(scale)
    seg_tol = max(tol * 2e-4, 5e-15)
    partial_sums: list[float] = []
    edges: list[float] = []
    running = 0.0
    quad_err = 0.0
    subdivisions = 0
    prev = 0.0
    best: tuple[float, float] | None = None
    prev_value: float | None = None
    while len(partial_sums) < cap:
        block_end = min(checkpoint, cap)
        highs = [edge(m) for m in range(len(partial_sums) + 1, block_end + 1)]
        lows = [prev] + highs[:-1]
        if not all(lo < hi for lo, hi in zip(lows, highs)):
            raise ValueError("partition edges must rise strictly from 0")
        prev = highs[-1]
        values, errors, panels = _integrate_intervals(
            f, np.array(lows), np.array(highs), seg_tol, 2000
        )
        for value, err, count in zip(values, errors, panels):
            running += value
            quad_err += err
            subdivisions += count
            partial_sums.append(running)
        edges += highs
        checkpoint = int(checkpoint * 1.5)
        value, raw_est = _accel.alternating_series_limit(partial_sums, edges, _LONGMAN_BASIS)
        # the shift since the previous checkpoint guards against
        # optimistic dips of the drop-one-point estimate
        if prev_value is not None:
            raw_est = max(raw_est, 0.5 * abs(value - prev_value))
        est = _EST_SAFETY * raw_est + quad_err
        if prev_value is not None:
            best = (value, est)
            if est <= tol:
                return QuadResult(
                    value, est, subdivisions, partitions_used=len(partial_sums)
                )
        prev_value = value
    raise QuadratureError(
        f"oscillatory integral did not reach tol {tol:.1e} within "
        f"{len(partial_sums)} partitions"
        + (f" (best estimate {best[1]:.2e})" if best else "")
    )


def _period_edges(phase: float) -> Callable[[int], float]:
    # Edges (m + phase) pi: a Bessel function of order nu changes sign near
    # (m + nu/2 + 1/4) pi, so phase = nu/2 + 1/4 puts the edges at its zeros.
    return lambda m: (m + phase) * math.pi


# ---------------------------------------------------------------------------
# Finite cot-weighted integrals on [0, pi/2]
# ---------------------------------------------------------------------------

_HALF_PI = 0.5 * math.pi


def _cot_integral(g: ArrayFn, tol: float) -> QuadResult:
    # int_0^{pi/2} g(t) cot(t) dt
    return integrate_finite(lambda t: g(t) * np.cos(t) / np.sin(t), 0.0, _HALF_PI, tol)


def lemma1_integral(n: int) -> QuadResult:
    """int_0^{pi/2} sin((2n+1)t) cot(t) dt; equals the exact coefficient alpha_n."""
    n = specfun._integer(n, "n must be a nonnegative integer", 0)
    m = 2 * n + 1
    return _cot_integral(lambda t: np.sin(m * t), 1e-12)


def lemma3_integral(n: int) -> QuadResult:
    """int_0^{pi/2} [1 - cos(2nt)] cot(t) dt; equals the exact coefficient beta_n."""
    n = specfun._integer(n, "n must be a positive integer", 1)
    m = 2 * n
    return _cot_integral(lambda t: 1.0 - np.cos(m * t), 1e-12)


def si_transform_integral(a: float) -> QuadResult:
    """int_0^{pi/2} sin(a sin t) cot(t) dt = Si(a)."""
    if not math.isfinite(a):
        raise ValueError("a must be finite")
    if a < 0:
        raise ValueError("a must be nonnegative")
    return _cot_integral(lambda t: np.sin(a * np.sin(t)), 1e-12)


def ci_transform_integral(a: float) -> QuadResult:
    """int_0^{pi/2} [1 - cos(a sin t)] cot(t) dt = gamma + log(a) - Ci(a)."""
    if not math.isfinite(a):
        raise ValueError("a must be finite")
    if a <= 0:
        raise ValueError("a must be positive")
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

def _bessel_moment(weight: ArrayFn, order: int, tol: float) -> QuadResult:
    # int_0^inf weight(t) J_order(t) dt/t, with partition edges at the zeros
    # of J_order.  High orders need a longer run before the collocation
    # window sits in the settled Hankel regime, so the order sets the scale.
    return oscillatory_semiinf(
        lambda t: weight(t) * specfun.bessel_j(order, t) / t,
        _period_edges(0.5 * order + 0.25),
        tol,
        scale=order,
    )


def si_bessel_integral(n: int) -> QuadResult:
    """int_0^inf Si(t) J_{2n+1}(t) dt/t; equals alpha_n/(2n+1)."""
    n = specfun._integer(n, "n must be a nonnegative integer", 0)
    return _bessel_moment(specfun.si, 2 * n + 1, 1e-8)


def ci_bessel_integral(n: int) -> QuadResult:
    """int_0^inf [gamma + log t - Ci(t)] J_{2n}(t) dt/t; equals beta_n/(2n)."""
    n = specfun._integer(n, "n must be a positive integer", 1)
    return _bessel_moment(specfun.gamma_log_minus_ci, 2 * n, 1e-8)


def j0_orthogonality_integral() -> QuadResult:
    """int_0^inf [gamma + log t - Ci(t)] J_0(t) dt/t, which vanishes."""
    return _bessel_moment(specfun.gamma_log_minus_ci, 0, 2e-7)


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


def corollary5_rhs(a: float) -> QuadResult:
    """int_0^inf [gamma + log t - Ci(t)] J_0(sqrt(a^2 + t^2)) dt/t.

    Equals the alternating Neumann series sum_n (-1)^n J_{2n}(a) beta_n / n.
    Partition edges follow the shifted argument: they sit where
    sqrt(a^2 + t^2) reaches (k + 1/4) pi, for each k >= 1 with (k + 1/4) pi > a.
    The residual phase drift a^2/(2t) of the shifted argument must settle
    inside the collocation window, so a sets the partition scale; from
    a ~ 62 on the floor reaches the cap, and QuadratureError is raised
    without integrating.
    """
    if not math.isfinite(a):
        raise ValueError("a must be finite")
    a = abs(a)
    _partition_limits(a)  # raise before counting edges, which spins at huge a
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
        scale=a,
    )
