"""Numerical integration engine and one operation per verified integral.

Integrands are array callables: ``f(t)`` takes a 1-D float ndarray of
abscissae and returns the integrand values as a real array of the same
shape; any other result raises ValueError.
The engine evaluates only interior Gauss-Kronrod nodes, so an integrand
with a removable singularity at an endpoint (``cot t`` or ``1/t`` at 0)
needs no special value there.

One driver, ``_refine``, refines every integral: an adaptive 15-point
Gauss-Kronrod rule (QUADPACK dqk15) over the caller's starting panels, in one
heap, built only if a panel needs bisecting.  Each step bisects the panel
with the largest error estimate and evaluates both halves in one integrand
call, until the error sum over all the panels is at most tol; after
``_MAX_SUBDIVISIONS`` bisections it raises QuadratureError.  A panel's
estimate is at least 15 eps times its Kronrod sum of |f|, the rounding bound
of the 15-term sum (dqk15 uses 50 eps); once every panel sits at that floor
the refinement stops, and the floor sum is the estimate.  Its two callers:

* ``integrate_finite`` -- [a, b] from ``pieces`` equal starting panels, all
  evaluated in one integrand call, to the error sum ``_FINITE_TOL``.  A
  cot-weighted integral on [0, pi/2] of frequency m (2n+1 for Lemma 1, 2n
  for Lemma 3, max(5, ceil(a)) for the transforms) starts from ceil(m/2)
  panels at most pi/m wide, half a period of sin(m t), which one GK15 panel
  resolves, so it needs no bisection.  m <= ``_MAX_FREQUENCY`` bounds n and
  a.  The Clausen integrals, whose t log t endpoint at 0 bisected 17 times
  from one panel, start from 18 panels graded toward it, as QUADPACK
  treats an endpoint singularity, and call ``_refine`` themselves.
* ``oscillatory_semiinf`` -- every integral over [0, inf) (the Bessel
  moments, the J_1(t)/t self-test, Example 2, Corollaries 5 and 6): one
  GK15 panel between each pair of the edges (k + 1/4) pi from 0 up to B,
  the first at or above max(50, s^2/2), for an integrand of order s, then
  its asymptotic expansion (``_Expansion``, a product of J_nu, Y_nu, Si,
  gamma + log t - Ci, log(t/2), 1/t and J_0(sqrt(a^2 + t^2)) expansions)
  integrated term by term (``_Expansion.tail``, computed once per
  expansion, at its own shape).  A lower order's panels are a prefix of a
  higher one's, so those of every order up to 25, integer or not, are a
  prefix of order 25's.  Every factor with a special-function kernel keeps
  one read-only table on those, keyed by the specfun call that fills it
  (J_0 .. J_25 from one bessel_j_all, Y_0, Y_1, Si, gamma + log t - Ci;
  0.36 MB in all, each built on first use; log(t/2) and 1/t are computed on
  the nodes), and the first pass of an integrand of order up to 25 combines
  its factors' lattice values as it combines their f, calling no special
  function: Corollary 5's J_0(sqrt(a^2 + t^2)) combines the J rows by
  Neumann's multiplication theorem for |a| up to ``_SHIFT_CAP`` = 6, and
  past it evaluates its kernel.  An expansion is read-only from
  construction; each served integrand's is built once per key in a bounded
  cache, so its tail is integrated once per key.

Each passes ``_refine`` a frequency kappa, and its estimate adds the
rounding of the abscissae, by up to eps |t|, which moves an f of frequency
kappa by up to eps |t| kappa |f|: kappa is the expansion's largest frequency,
or for ``integrate_finite`` pi pieces / (b - a), half a period per starting
panel (2 for Clausen, one panel's on [0, pi/2]).  At frequency 4000 it is
all the error of a cot integral.

Each verified integral gets its own operation below so the harness can bind
it to an exact or closed-form counterpart.
"""

from __future__ import annotations

import cmath
import dataclasses
import functools
import heapq
import math
from typing import Callable

import numpy as np

from . import specfun

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


@dataclasses.dataclass
class QuadResult:
    """An integral's value and error estimate, ``subdivisions`` the final panel count.

    ``partitions_used`` counts the [0, B] starting panels of ``oscillatory_semiinf``; 0 for
    ``integrate_finite``.
    """

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
_NODE_WK = np.ascontiguousarray(_NODE_W[:, 0])  # the Kronrod column, for the |f| sums


def _nodes(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    # The GK15 nodes of the panels [a[i], b[i]], one row of 15 per panel
    nodes = np.multiply.outer(0.5 * (b - a), _NODE_X)
    nodes += (0.5 * a + 0.5 * b)[:, None]  # a + b overflows near the float limit
    return nodes


def _evaluate(f: ArrayFn, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    # f at the GK15 nodes of the panels [a[i], b[i]] in one call, a row per panel
    nodes = _nodes(a, b)
    values = f(nodes.ravel())
    array = isinstance(values, np.ndarray)
    if not (array and values.dtype.kind in "iuf" and values.shape == (nodes.size,)):
        got = f"{values.dtype} array of shape {values.shape}" if array else type(values).__name__
        raise ValueError(f"integrand must return a real array of shape ({nodes.size},), got {got}")
    return values.astype(float, copy=False).reshape(nodes.shape)


def _gk15(values: np.ndarray, a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, ...]:
    """The Gauss-Kronrod rule on the panels [a[i], b[i]] from f's ``values`` at their nodes.

    Returns the arrays (integral, error estimate, rough, Kronrod sum of |f|),
    where rough marks the panels whose estimate exceeds its roundoff floor.
    """
    h = 0.5 * (b - a)
    sums = values @ _NODE_W
    resk, resg = sums[:, 0], sums[:, 1]
    # every Kronrod weight is positive, so any non-finite value reaches resk
    finite = np.isfinite(resk)
    if not finite.all():
        bad = int(np.argmin(finite))
        raise QuadratureError(f"integrand returned a non-finite value on [{a[bad]}, {b[bad]}]")
    abs_h = np.abs(h)
    resabs = (np.abs(values) @ _NODE_WK) * abs_h
    resasc = (np.abs(values - 0.5 * resk[:, None]) @ _NODE_WK) * abs_h
    err = np.abs(resk - resg) * abs_h
    # QUADPACK's rescaling of the Gauss-Kronrod difference, where resasc is
    # nonzero; on a panel wider than about 1e306 the ratio overflows to inf,
    # which the cap at 1 absorbs
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        scaled = resasc * np.minimum(1.0, (200.0 * err / resasc) ** 1.5)
    err = np.where(resasc != 0.0, scaled, err)
    floor = _ROUNDOFF * resabs
    return resk * h, np.maximum(err, floor), err > floor, resabs


_MAX_SUBDIVISIONS = 2000
_MAX_FREQUENCY = 2 * _MAX_SUBDIVISIONS  # of a cot integral: ceil(m/2) panels fill the budget


def _refine(
    f: ArrayFn, low: np.ndarray, high: np.ndarray, values: np.ndarray, tol: float, kappa: float
) -> tuple[float, float, int]:
    """Adaptive GK15 over the starting panels [low[i], high[i]] to an error sum of tol.

    ``values`` are f at the starting panels' nodes.  Unless their error sum
    is at most tol or every panel's estimate sits at its roundoff floor (the
    floor sum is then the estimate, since bisection cannot lower it), one
    heap holds every panel; a step bisects the panel with the largest
    estimate and evaluates both halves in one call of f, until one of those
    holds.  ``_MAX_SUBDIVISIONS`` bisections that leave it unconverged raise
    QuadratureError.  Returns the value, the error estimate, which adds the
    rounding of the abscissae for an f of frequency at most kappa (on a panel
    eps kappa times its largest |t| times its Kronrod sum of |f|), and the
    panel count.
    """
    values, errors, rough, absolute = _gk15(values, low, high)
    total, unsettled = float(errors.sum()), int(rough.sum())
    if total > tol and unsettled:
        # heap items are (-err, seq, a, b, value, err, rough, sum of |f|); seq
        # breaks ties deterministically
        heap = list(zip((-errors).tolist(), range(len(low)), low.tolist(), high.tolist(),
                        values.tolist(), errors.tolist(), rough.tolist(), absolute.tolist()))
        heapq.heapify(heap)
        bisections = 0
        while total > tol and unsettled:
            if bisections == _MAX_SUBDIVISIONS:
                raise QuadratureError(f"no convergence after {bisections} bisections "
                                      f"(err estimate {total:.2e} > tol {tol:.2e})")
            _, _, lo, hi, _, err, was_rough, _ = heapq.heappop(heap)
            mid = 0.5 * lo + 0.5 * hi
            a, b = np.array([lo, mid]), np.array([mid, hi])
            left, right = zip(*(x.tolist() for x in _gk15(_evaluate(f, a, b), a, b)))
            total += left[1] + right[1] - err
            unsettled += left[2] + right[2] - was_rough
            seq = len(low) + 2 * bisections
            heapq.heappush(heap, (-left[1], seq, lo, mid, *left))
            heapq.heappush(heap, (-right[1], seq + 1, mid, hi, *right))
            bisections += 1
        _, _, low, high, values, errors, _, absolute = map(np.array, zip(*heap))
    # scaled first, as |t| sum|f| overflows near 1e308; f = 0 adds 0 even if kappa is inf
    scale = np.finfo(float).eps * (kappa * np.maximum(np.abs(low), np.abs(high)))
    rounding = np.multiply(scale, absolute, out=np.zeros_like(absolute), where=absolute > 0)
    value, err, rounding = (math.fsum(x.tolist()) for x in (values, errors, rounding))
    return value, err + rounding, len(high)


# The target error sum of every finite integral: integrate_finite's (the
# Lemma integrals, the transforms) and the Clausen integrals'
_FINITE_TOL = 1e-12
# integrate_finite's least width per starting panel, the smallest normal
# float: on a subnormal width the nodes round by more than eps relative to
# it, and the frequency pi pieces / (b - a) overflows to inf
_MIN_WIDTH = float(np.finfo(float).tiny)


def integrate_finite(f: ArrayFn, a: float, b: float, *, pieces: int = 1) -> QuadResult:
    """Adaptive Gauss-Kronrod integration of f over [a, b] to absolute ``_FINITE_TOL``.

    The refinement starts from ``pieces`` equal panels.  ``a`` and ``b`` must
    be finite, ``pieces`` an integer from 1 to ``_MAX_SUBDIVISIONS``, and
    b - a finite and at least ``pieces`` times the smallest normal float,
    else ValueError before any integrand call.  The panels' error sum
    exceeds ``_FINITE_TOL`` only when every panel's estimate sits at its
    roundoff floor, which bisection cannot lower.  The returned estimate
    adds the rounding of the abscissae for an f of at most half a period per
    starting panel.  An f that is not callable is a ValueError too.
    """
    if not callable(f):
        raise ValueError(f"f must be a callable integrand, got {f!r}")
    a, b = specfun._real(a, "a must be finite"), specfun._real(b, "b must be finite")
    # each message is formatted only when its check fails
    try:
        pieces = specfun._integer(pieces, "", 1, _MAX_SUBDIVISIONS)
    except ValueError:
        raise ValueError(f"pieces must be an integer from 1 to {_MAX_SUBDIVISIONS}") from None
    try:
        specfun._real(b - a, "", pieces * _MIN_WIDTH)
    except ValueError:
        raise ValueError(
            f"requires a < b and a finite width b - a of at least pieces * {_MIN_WIDTH!r} "
            f"(a normal width per starting panel), got [{a}, {b}] with pieces={pieces}") from None
    low = a + (b - a) * np.arange(pieces) / pieces
    high = np.append(low[1:], b)
    kappa = math.pi * pieces / (b - a)
    return QuadResult(*_refine(f, low, high, _evaluate(f, low, high), _FINITE_TOL, kappa))


_HALF_PI = 0.5 * math.pi


# ---------------------------------------------------------------------------
# Finite cot-weighted integrals on [0, pi/2]
# ---------------------------------------------------------------------------


def _cot(g: ArrayFn) -> ArrayFn:
    # g(t) cot(t)
    return lambda t: g(t) * np.cos(t) / np.sin(t)


def _cot_integral(g: ArrayFn, m: int) -> QuadResult:
    # int_0^{pi/2} g(t) cot(t) dt for g of frequency m, from ceil(m/2) panels
    return integrate_finite(_cot(g), 0.0, _HALF_PI, pieces=(m + 1) // 2)


def lemma1_integral(n: int) -> QuadResult:
    """int_0^{pi/2} sin((2n+1)t) cot(t) dt; equals the exact coefficient alpha_n."""
    top = (_MAX_FREQUENCY - 1) // 2
    n = specfun._integer(n, f"n must be an integer from 0 to {top}", 0, top)
    m = 2 * n + 1
    return _cot_integral(lambda t: np.sin(m * t), m)


def lemma3_integral(n: int) -> QuadResult:
    """int_0^{pi/2} [1 - cos(2nt)] cot(t) dt; equals the exact coefficient beta_n."""
    top = _MAX_FREQUENCY // 2
    n = specfun._integer(n, f"n must be an integer from 1 to {top}", 1, top)
    m = 2 * n
    return _cot_integral(lambda t: 1.0 - np.cos(m * t), m)


def _transform(g: ArrayFn, a: float, positive: bool) -> QuadResult:
    # int_0^{pi/2} g(a sin t) cot(t) dt, of frequency ceil(a) but at least 5, as
    # g(a sin t) holds harmonics J_k(a) sin(kt) past k = a (to k ~ 11 at a ~ 1)
    message = f"a must be finite and in {'(' if positive else '['}0, {_MAX_FREQUENCY}]"
    a = specfun._real(a, message, 0.0, positive, _MAX_FREQUENCY)
    return _cot_integral(lambda t: g(a * np.sin(t)), max(5, math.ceil(a)))


def si_transform_integral(a: float) -> QuadResult:
    """int_0^{pi/2} sin(a sin t) cot(t) dt = Si(a), for 0 <= a <= 4000."""
    return _transform(np.sin, a, False)


def ci_transform_integral(a: float) -> QuadResult:
    """int_0^{pi/2} [1 - cos(a sin t)] cot(t) dt = gamma + log(a) - Ci(a), for 0 < a <= 4000."""
    # 1 - cos(x) as 2 sin^2(x/2), which does not cancel for small x
    return _transform(lambda x: 2.0 * np.sin(0.5 * x) ** 2, a, True)


def clausen_cot_integral(k: int) -> QuadResult:
    """int_0^{pi/2} [zeta(2k+3) - Cl_{2k+3}(2t)] cot(t) dt.

    For k = 0 this evaluates to (7/4) log(2) zeta(3); for k >= 1 it equals
    half the even-weight Euler-sum closed form of weight 2k+3.
    """
    k = specfun._integer(k, "k must be a nonnegative integer", 0)
    weight = 2 * k + 3
    z = specfun.zeta(weight)
    f = _cot(lambda t: z - specfun.clausen_odd(weight, 2.0 * t))
    # graded toward the t log t endpoint at 0: [0, pi/2^18], [pi/2^18,
    # pi/2^17], ..., [pi/4, pi/2], those bisection from [0, pi/2] needs at k = 0
    high = _HALF_PI * 0.5 ** np.arange(17.0, -1.0, -1.0)
    low = np.r_[0.0, high[:-1]]
    # frequency 2, as integrate_finite gives one panel on [0, pi/2]
    return QuadResult(*_refine(f, low, high, _evaluate(f, low, high), _FINITE_TOL, 2.0))


# ---------------------------------------------------------------------------
# Semi-infinite integrals: a Gauss-Kronrod range and an asymptotic tail
# ---------------------------------------------------------------------------

def _conv2(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    # The product of two coefficient arrays indexed (log power j, half power h)
    if len(a) == len(b) == 1:
        return np.convolve(a[0], b[0])[None]
    out = np.zeros((len(a) + len(b) - 1, a.shape[1] + b.shape[1] - 1), np.result_type(a, b))
    for i, row in enumerate(a):
        for k, col in enumerate(b):
            out[i + k] += np.convolve(row, col)
    return out


def _plus(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    # The sum of two (j, h) coefficient arrays, the smaller padded with zeros
    out = np.zeros(np.maximum(a.shape, b.shape), np.result_type(a, b))
    out[: len(a), : a.shape[1]] += a
    out[: len(b), : b.shape[1]] += b
    return out


@dataclasses.dataclass(frozen=True)
class _Expansion:
    """A real function f and its asymptotic expansion, valid from t = max(50, order^2/2).

    ``terms[kappa][j, h]`` is the coefficient of t^(-h/2) (log t)^j e^(i kappa t)
    for kappa >= 0, and f is the kappa = 0 part plus twice the real part of
    the rest.  What the cut series leave out is at most ``cut`` times the
    majorant of |f| whose coefficients are ``size``.  ``lattice(t)`` gives
    f at the first nodes t of the tabled panels (see ``_table``), read from
    the factors' tables; a factor without one (``lattice`` None) evaluates
    its f on t.  Products and sums act on f, on the lattice values, on the
    terms (a product convolves them) and on the majorants.
    """

    f: ArrayFn
    terms: dict[int, np.ndarray]
    size: np.ndarray
    cut: float = 0.0
    order: float = 0.0
    lattice: ArrayFn | None = None

    def __post_init__(self):
        for a in (self.size, *self.terms.values()):
            a.flags.writeable = False

    def on_lattice(self, t: np.ndarray) -> np.ndarray:
        """f at the first t.size nodes t of the tabled panels."""
        return self.f(t) if self.lattice is None else self.lattice(t)

    def __mul__(self, other: _Expansion | float) -> _Expansion:
        if not isinstance(other, _Expansion):
            constant = other
            other = _factor(lambda t: constant, {0: np.array([[constant]])})
        terms: dict[int, np.ndarray] = {}
        # each frequency with its conjugate at -kappa
        mine, theirs = ([*x.terms.items(), *((-k, c.conj()) for k, c in x.terms.items() if k)]
                        for x in (self, other))
        for k1, c1 in mine:
            for k2, c2 in theirs:
                if k1 + k2 >= 0:
                    c = _conv2(c1, c2)
                    terms[k1 + k2] = _plus(terms[k1 + k2], c) if k1 + k2 in terms else c
        return _Expansion(lambda t: self.f(t) * other.f(t), terms, _conv2(self.size, other.size),
                          self.cut + other.cut + self.cut * other.cut, max(self.order, other.order),
                          lambda t: self.on_lattice(t) * other.on_lattice(t))

    def __add__(self, other: _Expansion) -> _Expansion:
        terms = dict(self.terms)
        for kappa, c in other.terms.items():
            terms[kappa] = _plus(terms[kappa], c) if kappa in terms else c
        return _Expansion(lambda t: self.f(t) + other.f(t), terms, _plus(self.size, other.size),
                          max(self.cut, other.cut), max(self.order, other.order),
                          lambda t: self.on_lattice(t) + other.on_lattice(t))

    def __sub__(self, other: _Expansion) -> _Expansion:
        return self + other * -1.0

    @functools.cached_property
    def tail(self) -> tuple[float, float]:
        """int_B^inf f term by term, and a bound of what the cut series leave out.

        B is the last of the engine's edges for the expansion's order (see
        ``_edges``).  Computed on first use and kept: the expansion is read-only.
        """
        if self.size[:, :3].any():
            raise ValueError("the tail's majorant decays no faster than 1/t")
        table = _tail_integrals(max(self.terms), self.size.shape, _edges(self.order)[-1])
        value = math.fsum(
            (2.0 if kappa else 1.0) * float(np.sum(c * table[kappa, : len(c), : c.shape[1]]).real)
            for kappa, c in self.terms.items()
        )
        return value, self.cut * float(np.sum(self.size * table[0].real))


def _tail_integrals(top: int, shape: tuple[int, int], b: float) -> np.ndarray:
    # I_j(p) = int_b^inf e^(i kappa t) t^-p (log t)^j dt for kappa = 0 .. top
    # at p = h/2, h >= 3, by parts: for kappa = 0, I_j(p) = (b^(1-p) log^j b
    # + j I_(j-1)(p)) / (p - 1); else I_j(p) = (p I_j(p+1) - j I_(j-1)(p+1)
    # - e^(i kappa b) b^-p log^j b) / (i kappa), run downward in R_j(p) =
    # b^(p-1) I_j(p) (stable for p < kappa b) on the ladders of odd and of
    # even h, from leading terms 20 levels up, whose error shrinks by
    # p/(kappa b) a level.  With Q_i = prod_(m<i) p_m / (i kappa b),
    # R_j(p_i) = sum_(k>=i) Q_k g_j(p_k) / Q_i for its inhomogeneous part g_j.
    rows, count = shape
    log_b = math.log(b)
    p = 1.5 + 0.5 * np.arange(2)[:, None] + np.arange(count // 2 + 20)  # a ladder per row
    kappa = np.arange(1, top + 1)[:, None, None]
    step = 1.0 / (1j * kappa * b)
    q = np.cumprod(np.concatenate((np.ones((top, 2, 1)), p[:, :-1] * step), axis=2), axis=2)
    step_q, flat = step * q, 1.0 / (p - 1.0)
    lead = -np.exp(1j * kappa * b) * step_q
    out = np.zeros((top + 1, rows, count), dtype=complex)
    r = np.zeros((top + 1, 2, p.shape[1] + 1), dtype=complex)  # a last level of zeros
    for j in range(rows):
        g = lead * log_b**j - j * step_q * r[1:, :, 1:]  # r holds R_(j-1)
        r[0, :, :-1] = (log_b**j + j * r[0, :, :-1]) * flat
        r[1:, :, :-1] = np.cumsum(g[..., ::-1], axis=2)[..., ::-1] / q
        out[:, j, 3:] = r[:, :, :-1].transpose(0, 2, 1).reshape(top + 1, -1)[:, : count - 3]
    return out * b ** (1.0 - 0.5 * np.arange(count))


# The tail starts at B = max(50, s^2/2) for an integral of order s, and at
# most at 80,000 = 400^2/2, where [0, B] holds 25,500 panels (about 0.7 s
# for a moment).  That bounds the J order of a moment and |a| of Corollary 5.
_MAX_TAIL_START = 80_000
_MAX_MOMENT_ORDER = math.isqrt(2 * _MAX_TAIL_START)
_ORDER_CAP = f"J order at most quad._MAX_MOMENT_ORDER = {_MAX_MOMENT_ORDER}"


def _tail_start(order: float) -> float:
    # B, from which an integrand's expansion of this order serves its tail
    return max(50.0, 0.5 * order * order)


def _edges(order: float) -> np.ndarray:
    # The right edges of the engine's panels for an integral of this order:
    # (k + 1/4) pi for k >= 0, up to the first at or above _tail_start(order).
    # A lower order's edges are a prefix of a higher one's.
    count = math.ceil(_tail_start(order) / math.pi - 0.25) + 1
    return (np.arange(count) + 0.25) * math.pi


# The engine's panels for every order up to _TABLE_CAP, integer or not, are
# a prefix of those of _TABLE_CAP.  Each factor with a special-function
# kernel keeps one table, the kernel at all their nodes (J_0 .. J_25 from one
# bessel_j_all), and Corollary 5's J_0(sqrt(a^2 + t^2)) reads the J rows up
# to |a| = _SHIFT_CAP, so the first pass of an integrand of such an order
# calls no special function.  log(t/2) and 1/t are computed on the nodes, in
# 2.3-2.6 and 1.4 us against 0.2 us for a table read.  The 5 tables take
# 0.36 MB (0.32 MB the J rows) and 4.9-5.4 ms to build (the J rows 0.7-0.9
# ms, Y_0 and Y_1 1.3-1.5 each, Si and gamma + log t - Ci 0.75-0.85 each),
# where the first pass of a moment of order 25 evaluates f in 1.5 ms direct
# and 0.024 ms on the lattice; the J rows' size grows as the cube of the cap
# (in-process, warm, best of 5, on a 2-core x86-64 host).  Orders past the
# cap evaluate f on the same lattice.
_TABLE_CAP = 25
# Corollary 5's J_0(sqrt(t^2 + a^2)) = sum_k (-a^2/(2t))^k / k! J_k(t)
# (DLMF 10.23.1) reads the J rows up to |a| = _SHIFT_CAP.  It uses no J(a), so
# the check stays independent of its series side, as Graf's addition theorem
# would not.  Its terms cancel more as a grows: against 30-digit mpmath on the
# 255 nodes its worst error is 5.4e-15 for a <= 6 (the kernel's, 3.1e-15 to
# 1.5e-14), 1.1e-14 at 6.4 and 1.5e-13 at 10.
_SHIFT_CAP = 6.0


@functools.lru_cache(maxsize=5)
def _table(kernel: str, *args) -> np.ndarray:
    # specfun's kernel(*args, t) at the nodes t of the panels of order
    # _TABLE_CAP, in the engine's order; read-only.  One table per (kernel, args).
    high = _edges(_TABLE_CAP)
    table = getattr(specfun, kernel)(*args, _nodes(np.r_[0.0, high[:-1]], high).ravel())
    table.flags.writeable = False
    return table


def _tabled(kernel: str, *args, row: tuple = ()) -> ArrayFn:
    # A factor's values at the first nodes t of the tabled panels: the
    # table of kernel(*args) (row ``row`` of it, if given) up to t.size
    return lambda t: _table(kernel, *args)[(*row, slice(t.size))]


def _factor(f: ArrayFn, terms: dict, cut: float = 0.0, order: float = 0.0,
            lattice: Callable | None = None) -> _Expansion:
    # An expansion whose majorant is its terms' moduli
    size = functools.reduce(_plus, ((2.0 if k else 1.0) * abs(c) for k, c in terms.items()))
    return _Expansion(f, terms, size, cut, order, lattice)


def _spread(coeffs: np.ndarray, first: int) -> np.ndarray:
    # A one-row (j, h) array holding coeffs at h = first, first + 2, ...
    c = np.zeros((1, first + 2 * len(coeffs) - 1), dtype=complex)
    c[0, first::2] = coeffs
    return c


def _cut(coeffs: np.ndarray, b: float) -> tuple[int, float]:
    # How many terms of sum_k coeffs[k] t^-k to keep from t = b on, and what
    # that leaves out relative to the first: at most the next two terms at b
    # (each series here leaves out at most its first omitted term in its real
    # and in its imaginary part).  The cut is where the larger of those two
    # falls below 1e-18 or grows, so an accidental zero ends nothing.
    size = np.abs(coeffs) * b ** -np.arange(len(coeffs), dtype=float) / abs(coeffs[0])
    envelope = np.maximum(size[:-1], size[1:])
    k = int(np.flatnonzero((envelope[1:] < 1e-18) | (envelope[1:] > envelope[:-1]))[0]) + 1
    return k, float(size[k] + size[k + 1])


def _binomial(a: float, x: float, count: int) -> np.ndarray:
    # binom(a, l) x^l for l < count
    return np.cumprod(np.concatenate(([1.0], (a - np.arange(count - 1)) / np.arange(1, count) * x)))


@functools.lru_cache(maxsize=128)
def _bessel(order: int, second_kind: bool = False) -> _Expansion:
    # J_order, or Y_order if second_kind: sqrt(2/pi) Re[(1 or -i) e^(i(t - omega))
    # sum_k i^k a_k t^(-k-1/2)], omega = (2 order + 1) pi/4, a_k the Hankel
    # coefficients (DLMF 10.17.1, 10.17.3), whose auxiliary series P and Q
    # each leave out at most their first omitted term (DLMF 10.17(iii))
    a = np.cumprod(np.concatenate(([1.0], 0.125j * np.array(specfun._hankel_ratios(order)))))
    k, cut = _cut(a, _tail_start(order))
    rot = cmath.exp(-0.5j * (order + 0.5) * math.pi) * (-1j if second_kind else 1.0)
    kernel = "bessel_y" if second_kind else "bessel_j"

    def f(t):
        return getattr(specfun, kernel)(order, t)

    # Y_0 and Y_1 have tables of their own, J up to _TABLE_CAP a row of bessel_j_all's
    lattice = (_tabled(kernel, order) if second_kind else
               _tabled("bessel_j_all", _TABLE_CAP, row=(order,)) if order <= _TABLE_CAP else None)
    return _factor(f, {1: _spread(math.sqrt(0.5 / math.pi) * rot * a[:k], 1)}, cut, order, lattice)


@functools.cache
def _sici(ci: bool) -> _Expansion:
    # Si = pi/2 - Re[e^(-it) E], or gamma + log t - Ci = gamma + log t
    # + Im[e^(-it) E] if ci, E = sum_m i^m m! t^(-m-1) (DLMF 6.12.3-4), whose
    # real and imaginary parts each leave out at most their first omitted
    # term (DLMF 6.12(ii))
    e = np.cumprod(np.concatenate(([1.0], 1j * np.arange(1.0, 60.0))))
    m, cut = _cut(e, _tail_start(0))
    flat = np.array([[specfun.CONSTANTS.euler_gamma], [1.0]]) if ci else np.array([[_HALF_PI]])
    kernel = "gamma_log_minus_ci" if ci else "si"

    def f(t):
        return getattr(specfun, kernel)(t)

    return _factor(f, {0: flat, 1: _spread((0.5j if ci else -0.5) * e[:m].conj(), 2)}, cut,
                   lattice=_tabled(kernel))


def _shifted_j0(a: float) -> _Expansion:
    # J_0(u), u = sqrt(a^2 + t^2): J_0's Hankel series in u, re-expanded in
    # 1/t (convergent for t > a) through u^(-k-1/2) = t^(-k-1/2)
    # (1 + a^2/t^2)^(-k/2-1/4) and e^(iu) = e^(it) e^(i(u - t)), u - t =
    # sum_m binom(1/2, m) a^(2m) t^(1-2m).  What the Hankel series leaves out
    # is bounded as for J_0, since u >= t; the re-expansion is cut as a series.
    n, a2, j0 = 60, a * a, _bessel(0)
    hank = j0.terms[1][0, 1::2]  # J_0's Hankel coefficients with their factor
    series = np.zeros(n, dtype=complex)  # sum_k hank_k u^(-k) in powers of 1/t
    for k in range(len(hank)):
        series[k::2] += hank[k] * _binomial(-0.5 * k - 0.25, a2, (n - k + 1) // 2)
    drift = np.zeros(n)  # u - t, and k times its coefficient of t^-k
    drift[1::2] = _binomial(0.5, a2, n // 2 + 1)[1:]
    drift *= np.arange(n)
    phase = np.zeros(n, dtype=complex)  # e^(i(u - t)), by m E_m = i sum_k k drift_k E_(m-k)
    phase[0] = 1.0
    for m in range(1, n):
        phase[m] = 1j / m * (drift[1 : m + 1] @ phase[m - 1 :: -1])
    composite = np.convolve(phase, series)[:n]
    k, cut = _cut(composite, _tail_start(a))

    def lattice(t):
        # the multiplication theorem (see _SHIFT_CAP) by Horner over the J rows
        rows, x = _table("bessel_j_all", _TABLE_CAP)[:, : t.size], -0.5 * a2 / t
        out = rows[_TABLE_CAP]
        for j in range(_TABLE_CAP, 0, -1):
            out = rows[j - 1] + x / j * out
        return out

    return _factor(lambda t: specfun.bessel_j(0, np.sqrt(a2 + t * t)),
                   {1: _spread(composite[:k], 1)}, cut + j0.cut, a,
                   lattice if abs(a) <= _SHIFT_CAP else None)


# Computed on the lattice's nodes: a ufunc of t costs little more than a table read
_LOG_HALF = _factor(lambda t: np.log(0.5 * t), {0: np.array([[-specfun.CONSTANTS.log2], [1.0]])})
_INVERSE_T = _factor(lambda t: 1.0 / t, {0: np.array([[0.0, 0.0, 1.0]])})

# The [0, B] range's target error sum: 12 times the largest first-pass sum of
# a served integral (8.4e-12, Corollary 6's), and the moments' registry tolerance
_SEMIINF_TOL = 1e-10


def oscillatory_semiinf(integrand: _Expansion) -> QuadResult:
    """int_0^inf f for a decaying oscillatory f, ``integrand.f``, with its expansion at infinity.

    The integrand's order s (a Bessel order, or Corollary 5's a) sets the
    range: one GK15 panel between each pair of consecutive edges (k + 1/4)
    pi from 0 up to B, the first edge at or above max(50, s^2/2).  All the
    panels are evaluated in one call of f (for s up to ``_TABLE_CAP``, of
    ``integrand.on_lattice``, which reads the factors' tables) and refined
    by bisection, whose halves call f, until their error sum is at most
    ``_SEMIINF_TOL``; from B on the expansion is integrated term by term.
    The estimate adds the rounding of the abscissae and what the
    expansion's series leave out.  An integrand that is not an expansion, or
    whose majorant decays no faster than 1/t, raises ValueError before any
    call of f.
    """
    if not isinstance(integrand, _Expansion):
        raise ValueError(f"integrand must be an expansion (quad._Expansion), got {integrand!r}")
    tail, left_out = integrand.tail
    high = _edges(integrand.order)
    low = np.r_[0.0, high[:-1]]
    tabled = integrand.order <= _TABLE_CAP  # its panels are a prefix of the tables'
    values = _evaluate(integrand.on_lattice if tabled else integrand.f, low, high)
    kappa = max(1, *integrand.terms)
    value, estimate, panels = _refine(integrand.f, low, high, values, _SEMIINF_TOL, kappa)
    return QuadResult(value + tail, estimate + left_out, panels, len(high))


# Each served integrand's expansion is built once per key in a bounded cache,
# as its factors are, and keeps its tail: the product and sum algebra of its
# terms costs a moment 70-110 us a call, and Example 2 or Corollary 6 more
# than its lattice, GK15 and tail together.


@functools.lru_cache(maxsize=128)
def _moment_integrand(ci: bool, order: int) -> _Expansion:
    # weight(t) J_order(t) / t, the weight gamma + log t - Ci if ci, else Si
    return _sici(ci) * (_bessel(order) * _INVERSE_T)


def _moment(ci: bool, order: int) -> QuadResult:
    return oscillatory_semiinf(_moment_integrand(ci, order))


def si_bessel_integral(n: int) -> QuadResult:
    """int_0^inf Si(t) J_{2n+1}(t) dt/t = alpha_n/(2n+1), for n up to 199."""
    top = (_MAX_MOMENT_ORDER - 1) // 2
    n = specfun._integer(n, f"n must be an integer from 0 to {top} ({_ORDER_CAP})", 0, top)
    return _moment(False, 2 * n + 1)


def ci_bessel_integral(n: int) -> QuadResult:
    """int_0^inf [gamma + log t - Ci(t)] J_{2n}(t) dt/t = beta_n/(2n), for n up to 200."""
    top = _MAX_MOMENT_ORDER // 2
    n = specfun._integer(n, f"n must be an integer from 1 to {top} ({_ORDER_CAP})", 1, top)
    return _moment(True, 2 * n)


def j0_orthogonality_integral() -> QuadResult:
    """int_0^inf [gamma + log t - Ci(t)] J_0(t) dt/t, which vanishes."""
    return _moment(True, 0)


@functools.lru_cache(maxsize=1)
def _j1_over_t() -> _Expansion:
    return _bessel(1) * _INVERSE_T


def bessel_j1_over_t_integral() -> QuadResult:
    """Engine self-test: int_0^inf J_1(t)/t dt = 1."""
    return oscillatory_semiinf(_j1_over_t())


@functools.lru_cache(maxsize=1)
def _example2() -> _Expansion:
    # The two log-divergent pieces inside the bracket are combined before the
    # multiplication; their difference stays O(1) as t -> 0.
    bracket = _bessel(0, True) * _HALF_PI - _LOG_HALF * _bessel(0)
    return _sici(True) * (bracket * _INVERSE_T)


def example2_integral() -> QuadResult:
    """int_0^inf (glmc(t)/t) (pi/2 Y_0(t) - log(t/2) J_0(t)) dt.

    Evaluates to (pi^2/4) log 2 - (7/8) zeta(3).
    """
    return oscillatory_semiinf(_example2())


@functools.lru_cache(maxsize=2)
def _corollary6(g1: float) -> _Expansion:
    # Si(t) (log(t/2) J_1 - pi/2 Y_1 - J_0/t + g1 J_1) / t
    j1 = _bessel(1)
    bracket = _LOG_HALF * j1 - _bessel(1, True) * _HALF_PI - _bessel(0) * _INVERSE_T
    if g1:
        bracket = bracket + j1 * g1
    return _sici(False) * (bracket * _INVERSE_T)


def corollary6_integral() -> QuadResult:
    """int_0^inf Si(t) (log(t/2) J_1 - pi/2 Y_1 - J_0/t) dt/t = 4 - 4G - gamma."""
    return oscillatory_semiinf(_corollary6(0.0))


def corollary6_intermediate_integral() -> QuadResult:
    """Same integral with the (gamma - 1) J_1 term kept inside; equals 3 - 4G."""
    return oscillatory_semiinf(_corollary6(specfun.CONSTANTS.euler_gamma - 1.0))


@functools.lru_cache(maxsize=128)
def _corollary5(a: float) -> _Expansion:
    # [gamma + log t - Ci(t)] J_0(sqrt(a^2 + t^2)) / t
    return _sici(True) * (_shifted_j0(a) * _INVERSE_T)


def corollary5_rhs(a: float) -> QuadResult:
    """int_0^inf [gamma + log t - Ci(t)] J_0(sqrt(a^2 + t^2)) dt/t, |a| <= 400.

    Equals the alternating Neumann series sum_n (-1)^n J_{2n}(a) beta_n / n.
    Its tail from B = max(50, a^2/2) on re-expands J_0's Hankel series in
    1/t.  Past |a| = 400 (``_MAX_MOMENT_ORDER``) ValueError is raised before
    any integrand call.
    """
    top = _MAX_MOMENT_ORDER
    a = abs(specfun._real(a, f"a must be finite with |a| <= {top}", -top, maximum=top))
    return oscillatory_semiinf(_corollary5(a))
