import dataclasses
import functools
import math
import os
import re
import subprocess
import sys
import time
import warnings
from fractions import Fraction

import mpmath
import numpy as np
import pytest

import neumann_sici
from neumann_sici import coeffs, eulersum, harness, neumann, quad
from neumann_sici import specfun as sf
from neumann_sici.quad import (
    QuadratureError,
    QuadResult,
    bessel_j1_over_t_integral,
    ci_bessel_integral,
    ci_transform_integral,
    clausen_cot_integral,
    corollary5_rhs,
    corollary6_integral,
    corollary6_intermediate_integral,
    example2_integral,
    integrate_finite,
    j0_orthogonality_integral,
    lemma1_integral,
    lemma3_integral,
    oscillatory_semiinf,
    si_bessel_integral,
    si_transform_integral,
)

HALF_PI = 0.5 * math.pi
_J1_OVER_T_TAIL = quad._bessel(1) * quad._INVERSE_T


def _j1_over_t(t):
    return sf.bessel_j(1, t) / t


_KERNEL_NAMES = ("bessel_j", "bessel_j_all", "bessel_y", "si", "ci", "gamma_log_minus_ci")


def _direct(expansion, f):
    # The expansion with f as its function and no tables, so that the engine's
    # first pass calls f too
    return dataclasses.replace(expansion, f=f, lattice=None)


# ---------------------------------------------------------------------------
# finite-interval engine
# ---------------------------------------------------------------------------

def test_integrate_cos_exactly():
    r = integrate_finite(np.cos, 0.0, HALF_PI)
    assert abs(r.value - 1.0) <= 1e-14
    assert r.abs_err_estimate <= 1e-14
    assert r.subdivisions >= 1


def test_cos_times_cos2kt_elementary_integral():
    # int_0^{pi/2} cos t cos(2kt) dt = -cos(pi k)/(4k^2 - 1); k = 3 gives 1/35
    r = integrate_finite(lambda t: np.cos(t) * np.cos(6.0 * t), 0.0, HALF_PI)
    assert abs(r.value - 1.0 / 35.0) <= 1e-14


@pytest.mark.parametrize("k", range(2, 9))
def test_cos_times_sin_odd_antiderivative_oracle(k):
    # int_0^{pi/2} 2 cos t sin((2k-1)t) dt = (1-(-1)^k)/(2k) + (1+(-1)^k)/(2k-2)
    r = integrate_finite(lambda t: 2.0 * np.cos(t) * np.sin((2 * k - 1) * t), 0.0, HALF_PI)
    expected = (1.0 - (-1.0) ** k) / (2.0 * k) + (1.0 + (-1.0) ** k) / (2.0 * k - 2.0)
    assert abs(r.value - expected) <= 1e-13


def test_cos_times_sin_k_equals_one():
    # the k = 1 instance of the closed form is 0/0; the integral itself is 1
    r = integrate_finite(lambda t: 2.0 * np.cos(t) * np.sin(t), 0.0, HALF_PI)
    assert abs(r.value - 1.0) <= 1e-14


def test_integrate_finite_validates_interval():
    with pytest.raises(ValueError):
        integrate_finite(np.cos, 1.0, 1.0)


def test_nan_integrand_raises():
    with pytest.raises(QuadratureError):
        integrate_finite(lambda t: np.full_like(t, np.nan), 0.0, 1.0)


def test_nonintegrable_endpoint_raises_nonconvergence():
    # sin(1/t) oscillates without bound towards 0: the bisection budget runs out
    with pytest.raises(QuadratureError):
        integrate_finite(lambda t: np.sin(1.0 / t), 1e-300, 1.0)


def test_one_heap_refines_the_starting_panels_on_one_error_sum():
    # sqrt t needs bisection towards 0; cos does not.  The starting panels,
    # 3 on [0, 1] next to 2 on [1, 1 + pi/2], share one heap and one error
    # sum: only the sqrt t panels bisect, each bisection one call of f.  The
    # estimate adds the rounding of the abscissae at cos's frequency 1
    calls = []

    def f(t):
        calls.append(t.tolist())
        return np.where(t < 1.0, np.sqrt(t), np.cos(t))

    low, high = [], []
    for lo, hi, p in ((0.0, 1.0, 3), (1.0, 1.0 + HALF_PI, 2)):
        cuts = [lo + (hi - lo) * i / p for i in range(p)] + [hi]
        low += cuts[:-1]
        high += cuts[1:]
    low, high = np.array(low), np.array(high)
    value, estimate, panels = quad._refine(f, low, high, quad._evaluate(f, low, high), 1e-12, 1.0)
    exact = 2.0 / 3.0 + math.cos(1.0) - math.sin(1.0)
    assert abs(value - exact) <= estimate <= 1e-12
    bisections = calls[1:]
    assert len(bisections) == panels - 5 > 0
    assert all(len(t) == 30 and max(t) < 1.0 for t in bisections)


def test_gk_estimate_has_a_roundoff_floor():
    # a 7th-degree polynomial integrates exactly in both rules, so only the
    # floor, 15 eps times the Kronrod sum of |f|, is left in the error sum;
    # the estimate adds the abscissae's rounding, eps times the frequency of
    # half a period on [-1, 1] (pi/2) times max |t| (1) times that sum
    r = integrate_finite(lambda t: 1.0 - t ** 7, -1.0, 1.0)
    assert r.subdivisions == 1
    eps = np.finfo(float).eps
    floor = 15 * eps * 2.0  # int_{-1}^{1} |1 - t^7| dt = 2
    assert r.abs_err_estimate == pytest.approx(floor + eps * HALF_PI * 2.0, rel=1e-12, abs=0.0)


def test_finite_estimate_counts_the_rounding_of_the_abscissae():
    # on [-3, -2] the largest |t| is the left edge's 3; cos at its abscissae
    # sits at the floor, so the estimate is the floor sum plus eps pi 3 times
    # the Kronrod sum of |cos|
    r = integrate_finite(np.cos, -3.0, -2.0)
    total = math.sin(3.0) - math.sin(2.0)
    assert r.subdivisions == 1
    assert r.abs_err_estimate == pytest.approx(
        (15.0 + 3.0 * math.pi) * np.finfo(float).eps * abs(total), rel=1e-12, abs=0.0)


def test_refinement_stops_at_the_roundoff_floor(monkeypatch):
    # the floor sum over [0, 10], 15 eps int |cos| ~ 2.2e-14, exceeds a
    # target of 1e-14: once every panel sits at its floor the refinement
    # stops and reports that sum, rather than bisecting until the bisection
    # budget runs out
    monkeypatch.setattr(quad, "_FINITE_TOL", 1e-14)
    r = integrate_finite(np.cos, 0.0, 10.0)
    assert r.subdivisions < 10
    assert 1e-14 < r.abs_err_estimate < 3e-14
    assert abs(r.value - math.sin(10.0)) <= r.abs_err_estimate


def test_oscillatory_range_stops_at_the_roundoff_floor():
    # every [0, B] panel of J_1(t)/t sits at its roundoff floor, and their
    # sum, 4.9e-15, is the range's error sum: the engine's tol is met
    # unrefined, and at 1e-15, below that sum, _refine stops there as well;
    # its estimate adds the rounding of the abscissae at J_1's frequency 1
    r = oscillatory_semiinf(_J1_OVER_T_TAIL)
    assert abs(r.value - 1.0) <= r.abs_err_estimate <= 1e-11
    assert r.subdivisions == r.partitions_used
    high = quad._edges(1)
    low = np.r_[0.0, high[:-1]]
    values = quad._evaluate(_j1_over_t, low, high)
    _, estimate, panels = quad._refine(_j1_over_t, low, high, values, 1e-15, 1.0)
    assert 1e-15 < estimate < 1e-14
    assert panels == len(high)


@pytest.mark.parametrize("f,got", [
    (lambda t: t * 1j, "complex128 array of shape (15,)"),
    (lambda t: 1.0, "float"),
], ids=["complex", "scalar"])
def test_integrate_finite_rejects_a_result_that_is_not_a_real_array_of_its_argument_shape(f, got):
    # a complex result was cast to 0.0 with a ComplexWarning, and a float
    # leaked numpy's reshape error
    with pytest.raises(ValueError, match=re.escape(f"real array of shape (15,), got {got}")):
        integrate_finite(f, 0.0, 1.0)


def test_integrate_finite_starts_from_its_pieces():
    # a GK15 panel pi/8 wide resolves cos to the floor at once
    r = integrate_finite(np.cos, 0.0, HALF_PI, pieces=4)
    assert r.subdivisions == 4
    assert abs(r.value - 1.0) <= r.abs_err_estimate <= 1e-14


@pytest.mark.parametrize("pieces", [0, -1, quad._MAX_SUBDIVISIONS + 1, 1.5, "3"])
def test_integrate_finite_rejects_bad_pieces_before_any_call(pieces):
    calls = []

    def f(t):
        calls.append(t.size)
        return np.cos(t)

    with pytest.raises(ValueError, match="pieces must be an integer"):
        integrate_finite(f, 0.0, 1.0, pieces=pieces)
    assert calls == []


@pytest.mark.parametrize(
    "a, b", [(0.0, math.inf), (-math.inf, 1.0), (math.nan, 1.0), (0.0, math.nan)]
)
def test_integrate_finite_rejects_nonfinite_input_before_any_call(a, b):
    calls = []

    def f(t):
        calls.append(t.size)
        return np.sin(50.0 * t)

    with pytest.raises(ValueError, match="must be finite"):
        integrate_finite(f, a, b)
    assert calls == []


def test_integrate_finite_keeps_a_finite_estimate_near_the_float_limit():
    # max |t| times the sum of |f| overflowed to an estimate of inf, with a
    # RuntimeWarning, in the first two cases, and a + b in the nodes' midpoint
    # in the third; the last is the least width, the smallest normal float
    cases = [(1.0, 1e307, 1.5e307), (1e200, 1e100, 2e100), (1.0, 1e308, 1.5e308),
             (1.0, 0.0, quad._MIN_WIDTH)]
    for height, a, b in cases:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            r = integrate_finite(lambda t: np.full_like(t, height), a, b)
        exact = Fraction(height) * (Fraction(b) - Fraction(a))
        assert math.isfinite(r.abs_err_estimate), (a, b)
        assert abs(Fraction(r.value) - exact) <= r.abs_err_estimate, (a, b)


@pytest.mark.parametrize("b", [1e306, 1e307, 1.7e308])
def test_integrate_finite_rescales_the_error_of_a_panel_wider_than_1e306(b):
    # QUADPACK's ratio 200 err / resasc overflowed, with a RuntimeWarning,
    # from b = 1e307 on; its cap at 1 takes inf as it takes any ratio past 1
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        r = integrate_finite(lambda t: np.cos(60.0 * (t / b)), 0.0, b)
    assert abs(r.value - b * (math.sin(60.0) / 60.0)) <= r.abs_err_estimate
    assert r.subdivisions == 30


@pytest.mark.parametrize("a, b, pieces", [
    (0.0, 1e-310, 1),
    (1e-308, 1.1e-308, 1),
    (-1e-320, 0.0, 1),
    (0.0, quad._MIN_WIDTH, 2),
    (0.0, 1999 * quad._MIN_WIDTH, 2000),
])
def test_integrate_finite_rejects_a_subnormal_width_before_any_call(monkeypatch, a, b, pieces):
    # f = 1 on [0, 1e-310] returned an estimate of inf: on a subnormal width
    # the frequency pi pieces / (b - a) overflows, and the nodes round by more
    # than eps relative to the width
    def unreachable(*args):
        raise AssertionError("integrand evaluated")

    monkeypatch.setattr(quad, "_evaluate", unreachable)
    with pytest.raises(ValueError, match=re.escape("of at least pieces * 2.2250738585072014e-308")):
        integrate_finite(lambda t: np.ones_like(t), a, b, pieces=pieces)


def test_integrate_finite_rejects_an_overflowing_width_before_any_call():
    # b - a = inf used to run the rule on nan nodes: two RuntimeWarnings, then
    # QuadratureError "... on [nan, 1e+308]"
    calls = []

    def f(t):
        calls.append(t.size)
        return np.cos(t)

    with pytest.raises(ValueError, match="finite width"):
        integrate_finite(f, -1e308, 1e308)
    assert calls == []


# ---------------------------------------------------------------------------
# cot-weighted integrals vs exact coefficients
# ---------------------------------------------------------------------------

def test_lemma1_integral_values():
    assert abs(lemma1_integral(0).value - 1.0) <= 1e-13
    assert abs(lemma1_integral(1).value - 5.0 / 3.0) <= 1e-12
    assert abs(lemma1_integral(25).value - float(coeffs.alpha(25))) <= 1e-11


def test_lemma3_integral_values():
    assert abs(lemma3_integral(1).value - 1.0) <= 1e-12
    assert abs(lemma3_integral(2).value - 2.0) <= 1e-12
    assert abs(lemma3_integral(30).value - float(coeffs.beta(30))) <= 1e-11


@pytest.mark.parametrize("integral", [lemma1_integral, lemma3_integral])
def test_lemma_integral_at_n50_makes_one_integrand_call(monkeypatch, integral):
    # ceil(m/2) starting panels at most pi/m wide, half a period each,
    # converge without bisection (from one starting panel, bisecting one
    # panel per call, these took 55 and 54 sequential calls)
    panels_per_call = []
    evaluate = quad._evaluate

    def counting(f, a, b):
        panels_per_call.append(len(a))
        return evaluate(f, a, b)

    monkeypatch.setattr(quad, "_evaluate", counting)
    r = integral(50)
    pieces = 51 if integral is lemma1_integral else 50
    assert panels_per_call == [pieces]
    assert r.subdivisions == pieces


def test_cot_integrals_run_through_integrate_finite(monkeypatch):
    # the benchmark's tracer counts panels and integrand calls there
    seen = []
    inner = quad.integrate_finite

    def recording(f, a, b, *, pieces=1):
        seen.append(pieces)
        return inner(f, a, b, pieces=pieces)

    monkeypatch.setattr(quad, "integrate_finite", recording)
    lemma1_integral(50)
    lemma3_integral(50)
    si_transform_integral(1.0)
    si_transform_integral(20.0)
    clausen_cot_integral(0)
    # ceil(m/2) pieces for frequency m: 101, 100, 5 (a transform's least) and
    # 20; Clausen starts from its own graded panels
    assert seen == [51, 50, 3, 10]


def test_lemma_integral_domains():
    with pytest.raises(ValueError):
        lemma1_integral(-1)
    with pytest.raises(ValueError):
        lemma3_integral(0)


@pytest.mark.parametrize(
    "integral,low,top,exact",
    [(lemma1_integral, 0, 1999, coeffs.alpha), (lemma3_integral, 1, 2000, coeffs.beta)],
)
def test_lemma_integral_bound_names_n(monkeypatch, integral, low, top, exact):
    # n + 1 (Lemma 1) or n (Lemma 3) starting panels, at most
    # quad._MAX_SUBDIVISIONS; one past it used to raise about `pieces`, an
    # argument the caller never passed
    assert abs(integral(top).value - float(exact(top))) <= 1e-11
    calls = []
    monkeypatch.setattr(quad, "_evaluate", lambda *args: calls.append(args))
    with pytest.raises(ValueError, match=f"^n must be an integer from {low} to {top}$"):
        integral(top + 1)
    assert calls == []


def test_si_transform_integral():
    assert si_transform_integral(0.0).value == 0.0
    assert abs(si_transform_integral(1.0).value - sf.si(1.0)) <= 1e-12
    assert abs(si_transform_integral(12.0).value - sf.si(12.0)) <= 1e-11


def test_ci_transform_integral():
    assert abs(ci_transform_integral(1.0).value - sf.gamma_log_minus_ci(1.0)) <= 1e-12
    assert abs(ci_transform_integral(20.0).value - sf.gamma_log_minus_ci(20.0)) <= 1e-11
    assert abs(ci_transform_integral(1e-6).value) <= 1e-12
    with pytest.raises(ValueError):
        ci_transform_integral(0.0)


@pytest.mark.parametrize("fn", (si_transform_integral, ci_transform_integral))
@pytest.mark.parametrize("a", [4000.5, 1e6])
def test_transforms_past_their_bound_raise_before_any_call(monkeypatch, fn, a):
    # their ceil(a/2) starting panels would exceed quad._MAX_SUBDIVISIONS; from
    # one starting panel they bisected until QuadratureError from a ~ 6,510 on
    calls = []
    monkeypatch.setattr(quad, "_evaluate", lambda *args: calls.append(args))
    with pytest.raises(ValueError, match=r"^a must be finite and in [(\[]0, 4000\]$"):
        fn(a)
    assert calls == []


@pytest.mark.parametrize("fn", (si_transform_integral, ci_transform_integral))
def test_transforms_reject_non_finite_arguments(fn):
    # nan and +inf reached the integrand and raised QuadratureError
    for a in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match="a must be finite"):
            fn(a)


# ---------------------------------------------------------------------------
# oscillatory engine and the semi-infinite Bessel moments
# ---------------------------------------------------------------------------

def test_engine_selftest_unit_bessel_integral():
    r = bessel_j1_over_t_integral()
    assert abs(r.value - 1.0) <= 1e-9
    assert r.partitions_used > 0


def test_oscillatory_rejects_a_tail_that_does_not_decay_before_any_integrand_call():
    # J_1 alone decays like t^(-1/2): its tail has no term-by-term integral
    calls = []

    def f(t):
        calls.append(t.size)
        return sf.bessel_j(1, t)

    with pytest.raises(ValueError, match="decays no faster than 1/t"):
        oscillatory_semiinf(_direct(quad._bessel(1), f))
    assert not calls


def test_a_non_settling_integrand_raises_after_one_bisection_budget():
    # J_1(t)/t plus a 1e-6 square wave of period 0.002, which no bisection
    # settles, with the J_1/t tail and no tables: one call for the [0, B]
    # panels and one per bisection, _MAX_SUBDIVISIONS in all for the call,
    # then QuadratureError naming the engine's tol, 1e-10.  A budget per
    # panel took 1,019,745 nodes.  In a subprocess, so that a regression
    # fails here instead of hanging the suite.
    code = (
        "import dataclasses\n"
        "import numpy as np\n"
        "from neumann_sici import quad, specfun\n"
        "calls = []\n"
        "def f(t):\n"
        "    calls.append(t.size)\n"
        "    return specfun.bessel_j(1, t) / t + 1e-6 * (np.floor(1000.0 * t) % 2.0)\n"
        "try:\n"
        "    integrand = quad._bessel(1) * quad._INVERSE_T\n"
        "    integrand = dataclasses.replace(integrand, f=f, lattice=None)\n"
        "    quad.oscillatory_semiinf(integrand)\n"
        "except quad.QuadratureError as exc:\n"
        "    print(len(calls), sum(calls), exc)\n"
    )
    env = dict(os.environ, PYTHONPATH=os.path.dirname(neumann_sici.__path__[0]))
    done = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=30
    )
    assert done.returncode == 0, done.stderr
    calls, nodes, message = done.stdout.split(maxsplit=2)
    assert 1 < int(calls) <= quad._MAX_SUBDIVISIONS + 1
    assert int(nodes) == 15 * len(quad._edges(1)) + 30 * (int(calls) - 1)
    assert message.startswith(f"no convergence after {quad._MAX_SUBDIVISIONS} bisections")
    assert "> tol 1.00e-10)" in message


def test_high_order_bessel_moment_integrand_matches_exact_coefficient():
    # The engine on the Si-weighted J_81 moment's integrand and tail, whose
    # range runs to the first edge at or above 81^2/2
    r = oscillatory_semiinf(quad._sici(False) * (quad._bessel(81) * quad._INVERSE_T))
    diff = abs(r.value - float(coeffs.alpha(40) / 81))
    assert diff <= r.abs_err_estimate <= 1e-8
    assert r.partitions_used == math.ceil(0.5 * 81**2 / math.pi - 0.25) + 1


def test_bessel_moment_past_the_order_cap_raises_without_integrating(monkeypatch):
    # J orders above 400 would take more than about 25,000 partitions
    def unreachable(order, t):
        raise AssertionError("integrand evaluated")

    monkeypatch.setattr(sf, "bessel_j", unreachable)
    for moment, n in ((si_bessel_integral, 200), (ci_bessel_integral, 201), (si_bessel_integral, 10**30)):
        with pytest.raises(ValueError, match="_MAX_MOMENT_ORDER = 400") as raised:
            moment(n)
        assert re.match("^n must", str(raised.value))


def test_oscillatory_engine_batches_partitions_per_block():
    # J_1(t)/t with no tables, counting the integrand calls and the nodes in
    # each: the panels up to B, [0, 0.25 pi] and then one between each pair
    # of edges (k + 1/4) pi, are one block, evaluated in one call and with no
    # bisection
    calls = []

    def f(t):
        calls.append(t.size)
        return _j1_over_t(t)

    r = oscillatory_semiinf(_direct(_J1_OVER_T_TAIL, f))
    assert abs(r.value - 1.0) <= 1e-12
    assert (r.partitions_used - 0.75) * math.pi >= 50.0 > (r.partitions_used - 1.75) * math.pi
    assert r.subdivisions == r.partitions_used
    assert calls == [15 * r.subdivisions]


def test_high_order_moment_makes_one_integrand_call_per_block():
    # The engine on the J_21 moment's integrand and tail, with f evaluated
    # directly instead of the tables: the panels [0, 0.25 pi], ..., [69.25 pi,
    # 70.25 pi] in the one call, with no serial bisection calls after it
    sizes = []

    def f(t):
        sizes.append(t.size)
        return sf.si(t) * sf.bessel_j(21, t) / t

    tail = quad._sici(False) * (quad._bessel(21) * quad._INVERSE_T)
    r = oscillatory_semiinf(_direct(tail, f))
    assert r.partitions_used == math.ceil(0.5 * 21**2 / math.pi - 0.25) + 1 == 71
    assert r.subdivisions == r.partitions_used
    assert sizes == [15 * r.subdivisions]


def _counting_kernels(monkeypatch, names=_KERNEL_NAMES):
    # Every call of the named specfun kernels from here on, as (name, size)
    calls = []
    for name in names:
        def counting(*args, name=name, kernel=getattr(sf, name)):
            calls.append((name, np.size(args[-1])))
            return kernel(*args)

        monkeypatch.setattr(sf, name, counting)
    return calls


@pytest.mark.parametrize("n", [0, 4, 10, 31])
def test_bessel_moment_is_one_integrand_call_up_to_the_tail(monkeypatch, n):
    # The finite part is one panel from 0 to each edge (k + 1/4) pi, up to
    # the first at or above max(50, order^2/2).  Up to the table cap a
    # moment's second call reads its panels from the tables its first built
    # and calls no kernel; past it, all its panels are one bessel_j call
    si_bessel_integral(n)
    calls = _counting_kernels(monkeypatch, ("bessel_j", "bessel_j_all"))
    order = 2 * n + 1

    def edge(k):
        return (k + 0.25) * math.pi

    r = si_bessel_integral(n)
    last = r.partitions_used - 1
    assert edge(last) >= max(50.0, 0.5 * order * order) > edge(last - 1)
    assert r.subdivisions == r.partitions_used
    assert calls == ([] if order <= quad._TABLE_CAP else [("bessel_j", 15 * r.subdivisions)])


_TABLE_KERNELS = {
    "J_0..J_25": quad._j_rows,
    "Y_0": quad._bessel(0, True).f,
    "Y_1": quad._bessel(1, True).f,
    "Si": quad._sici(False).f,
    "glmc": quad._sici(True).f,
    "log_half": quad._LOG_HALF.f,
    "inverse_t": quad._INVERSE_T.f,
}


def _panel_nodes(order):
    # The nodes of the engine's panels for an integral of this order
    high = quad._edges(order)
    return quad._nodes(np.r_[0.0, high[:-1]], high).ravel()


def test_kernel_tables_are_lazy_read_only_and_bounded():
    # Neither importing the package nor the exact checks build a table; a
    # moment builds those of its three factors
    code = (
        "from neumann_sici import harness, quad\n"
        "print(quad._table.cache_info().currsize)\n"
        "harness.run_registry('coeffs.*')\n"
        "print(quad._table.cache_info().currsize)\n"
        "quad.ci_bessel_integral(3)\n"
        "print(quad._table.cache_info().currsize)\n"
    )
    env = dict(os.environ, PYTHONPATH=os.path.dirname(neumann_sici.__path__[0]))
    done = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=30
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == ["0", "0", "3"]
    # one table for each of seven kernels, 0.39 MB in all
    assert quad._table.cache_parameters()["maxsize"] == len(_TABLE_KERNELS) == 7
    tables = [quad._table(kernel) for kernel in _TABLE_KERNELS.values()]
    assert sum(table.nbytes for table in tables) < 0.4e6
    for table in tables:
        assert not table.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            table[..., 0] = 1.0


@pytest.mark.parametrize("odd", [False, True], ids=["even", "odd"])
@pytest.mark.parametrize("name", _TABLE_KERNELS)
def test_every_table_equals_its_kernel_on_the_lattice(name, odd):
    # Orders of both parities read one table: the top even order, 24, a
    # prefix of it, and the top odd order, 25, all of it.  Either equals the
    # kernel evaluated on that order's nodes alone
    top = quad._TABLE_CAP - (quad._TABLE_CAP % 2 != odd)
    kernel, t = _TABLE_KERNELS[name], _panel_nodes(top)
    assert np.array_equal(quad._table(kernel)[..., : t.size], kernel(t))
    assert quad._table(kernel).shape[-1] == _panel_nodes(quad._TABLE_CAP).size


# For a kernel table: the float kernel, the nodes at which the array kernel
# runs the float's own arithmetic (series, Y bridge, Miller) and their count
_FLOAT_KERNELS = {
    "Y_0": (functools.partial(sf.bessel_y, 0), lambda t: t < sf._Y_ASYMPTOTIC_MIN, 94),
    "Y_1": (functools.partial(sf.bessel_y, 1), lambda t: t < sf._Y_ASYMPTOTIC_MIN, 94),
    "Si": (sf.si, lambda t: t <= sf._SICI_CROSSOVER, 50),
    "glmc": (sf.gamma_log_minus_ci, lambda t: t <= sf._SICI_CROSSOVER, 50),
    "J_0..J_25": (functools.partial(sf.bessel_j_all, quad._TABLE_CAP), lambda t: t < 25.0, 130),
}


@pytest.mark.parametrize(
    "name", [pytest.param("Y_0", id="0"), pytest.param("Y_1", id="1"), "Si", "glmc", "J_0..J_25"]
)
def test_each_y_table_equals_the_float_kernel_at_every_node(name):
    # The table comes from the array kernel.  On its float bands (below
    # x = 17 for Y, the series and bridge nodes, 94 of its 1,515; up to 8 for
    # Si and gamma + log t - Ci, 50) and on J's Miller band below 25 each node
    # equals the float kernel by repr.  Elsewhere the array's Hankel sum,
    # continued fraction or upward recurrence runs the count of its smallest
    # element, and agrees to rounding (Y_1 at t = 18.06 by 4.8e-18, Si and
    # gamma + log t - Ci by 1.8e-16)
    kernel, exact, count = _FLOAT_KERNELS[name]
    table, t = quad._table(_TABLE_KERNELS[name]), _panel_nodes(quad._TABLE_CAP)
    assert table.shape[-1] == t.size == 1515
    floats = np.array([kernel(v) for v in t.tolist()]).T
    below = exact(t)
    assert np.count_nonzero(below) == count
    assert [repr(v) for v in table[..., below].ravel().tolist()] == [
        repr(v) for v in floats[..., below].ravel().tolist()
    ]
    assert np.all(np.abs(table - floats) <= 1e-14 * np.maximum(1.0, np.abs(floats)))


@pytest.mark.parametrize("order", [*range(quad._TABLE_CAP + 1), 0.5, 2.5, 24.5])
def test_each_tabled_order_reads_a_prefix_of_its_lattice(order):
    # An order's panels, integer or not, are the first panels of the tables'
    # lattice, edge for edge.  An integer order's J factor reads its row of
    # J_0 .. J_25 there; Corollary 5's integrand of a non-integer a reads the
    # gamma + log t - Ci and 1/t tables, and J_0(sqrt(a^2 + t^2)) from the J
    # rows up to the shift bound, within the two routes' errors against
    # mpmath (at most 5.4e-15 and 1.5e-14 up to a = 6) times the other
    # factors, (gamma + log t - Ci)/t < 1, else from its kernel
    high = quad._edges(order)
    assert np.array_equal(high, quad._edges(quad._TABLE_CAP)[: len(high)])
    t = _panel_nodes(order)
    if float(order).is_integer():
        assert np.array_equal(quad._bessel(order).on_lattice(t),
                              sf.bessel_j_all(quad._TABLE_CAP, t)[order])
        return
    integrand = quad._sici(True) * (quad._shifted_j0(order) * quad._INVERSE_T)
    if order <= quad._SHIFT_CAP:
        assert np.max(np.abs(integrand.on_lattice(t) - integrand.f(t))) <= 2e-14
    else:
        assert np.array_equal(integrand.on_lattice(t), integrand.f(t))


@pytest.mark.parametrize("a", np.linspace(0.0, quad._SHIFT_CAP, 9))
def test_the_shifted_j0_lattice_matches_mpmath_up_to_its_bound(a):
    # J_0(sqrt(a^2 + t^2)) by the multiplication theorem over the J rows, at
    # every third node, against 30-digit mpmath: within 1e-14, the level of
    # the kernel's own error there (3.1e-15 to 1.5e-14 for a up to 6)
    t = _panel_nodes(a)
    with mpmath.workdps(30):
        exact = [float(mpmath.besselj(0, mpmath.sqrt(mpmath.mpf(a) ** 2 + mpmath.mpf(x) ** 2)))
                 for x in t[::3].tolist()]
    assert np.max(np.abs(quad._shifted_j0(a).lattice(t)[::3] - exact)) <= 1e-14


@pytest.mark.parametrize("ci", [False, True], ids=["si", "ci"])
def test_every_tabled_order_matches_the_engine_fed_bessel_j(ci):
    # Each moment order up to the cap, read from the tables, against the same
    # engine evaluating Si or gamma + log t - Ci and bessel_j on the same
    # panels: within the direct result's estimate
    weight = sf.gamma_log_minus_ci if ci else sf.si
    for order in range(0 if ci else 1, quad._TABLE_CAP + 1, 2):
        integrand = quad._sici(ci) * (quad._bessel(order) * quad._INVERSE_T)
        direct = oscillatory_semiinf(
            _direct(integrand, lambda t, order=order: weight(t) * sf.bessel_j(order, t) / t))
        tabled = quad._moment(ci, order)
        assert tabled.partitions_used == direct.partitions_used
        assert abs(tabled.value - direct.value) <= direct.abs_err_estimate, order


def test_a_tabled_moment_bisects_through_the_direct_integrand(monkeypatch):
    # A J_1 table whose panel 5 is off by 1e-6 at one node forces that panel's
    # refinement: its halves, and only they, call the direct integrand, and
    # the result is within its estimate of alpha_0 = 1
    table = quad._table(quad._j_rows).copy()
    table[1, 15 * 5 + 3] += 1e-6
    tables = quad._table
    monkeypatch.setattr(quad, "_table", lambda kernel: table if kernel is quad._j_rows
                        else tables(kernel))
    calls = _counting_kernels(monkeypatch, ("bessel_j",))
    r = si_bessel_integral(0)
    assert calls and set(calls) == {("bessel_j", 30)}
    assert r.subdivisions == r.partitions_used + len(calls)
    assert abs(r.value - 1.0) <= r.abs_err_estimate <= 1e-8


@pytest.mark.parametrize("integral,kernels", [
    (bessel_j1_over_t_integral, []),
    (example2_integral, []),
    (corollary6_intermediate_integral, []),
    (corollary6_integral, []),
    *((functools.partial(corollary5_rhs, a), []) for a in (0.0, 2.0, 5.0, 2.5, 6.0)),
    (functools.partial(corollary5_rhs, 6.5), ["bessel_j"]),
], ids=["j1_over_t", "example2", "catalan_intermediate", "catalan_eval",
        "corollary5.a=0", "corollary5.a=2", "corollary5.a=5", "corollary5.a=2.5",
        "corollary5.a=6", "corollary5.a=6.5"])
def test_a_second_call_reads_every_kernel_from_the_tables(monkeypatch, integral, kernels):
    # Once the tables are built, the closed-form integrals call no kernel:
    # Corollary 5's J_0(sqrt(a^2 + t^2)) reads the J rows up to the shift
    # bound, and past it calls its kernel on every node
    integral()
    calls = _counting_kernels(monkeypatch)
    r = integral()
    assert calls == [(name, 15 * r.subdivisions) for name in kernels]


def test_high_order_moments_match_the_exact_coefficients():
    # Orders 62 to 201 within 1e-12 and their own estimates, 2 s in all
    targets = {
        n: (float(coeffs.alpha(n) / (2 * n + 1)), float(coeffs.beta(n) / (2 * n)))
        for n in (31, 50, 100)
    }
    start = time.perf_counter()
    results = {n: (si_bessel_integral(n), ci_bessel_integral(n)) for n in targets}
    elapsed = time.perf_counter() - start
    for n, pair in results.items():
        for r, target in zip(pair, targets[n]):
            diff = abs(r.value - target)
            assert diff <= min(1e-12, r.abs_err_estimate), (n, target, diff, r.abs_err_estimate)
    assert elapsed < 2.0


def test_si_weighted_j1_moment_is_one():
    r = si_bessel_integral(0)
    assert abs(r.value - 1.0) <= 1e-8


@pytest.mark.parametrize("n", [1, 4])
def test_si_bessel_integral_matches_exact_coefficient(n):
    r = si_bessel_integral(n)
    assert abs(r.value - float(coeffs.alpha(n)) / (2 * n + 1)) <= 1e-8


@pytest.mark.parametrize("n", [1, 2, 6])
def test_ci_bessel_integral_matches_exact_coefficient(n):
    r = ci_bessel_integral(n)
    assert abs(r.value - float(coeffs.beta(n)) / (2 * n)) <= 1e-8


def test_j0_weighted_moment_vanishes():
    r = j0_orthogonality_integral()
    assert abs(r.value) <= 1e-6


def test_bessel_moment_domains():
    with pytest.raises(ValueError):
        si_bessel_integral(-1)
    with pytest.raises(ValueError):
        ci_bessel_integral(0)


# ---------------------------------------------------------------------------
# named-constant integrals
# ---------------------------------------------------------------------------

def _example2_target():
    return (math.pi ** 2 / 4.0) * sf.CONSTANTS.log2 - 0.875 * sf.zeta(3)


def test_example2_integral():
    r = example2_integral()
    assert abs(r.value - _example2_target()) <= 1e-5


def test_example2_integrand_small_t_leading_order():
    # glmc(t)/t * bracket(t) ~ (t/4) * gamma near 0
    t = 1e-8
    bracket = HALF_PI * sf.bessel_y(0, t) - math.log(0.5 * t) * sf.bessel_j(0, t)
    integrand = sf.gamma_log_minus_ci(t) / t * bracket
    leading = 0.25 * t * sf.CONSTANTS.euler_gamma
    assert abs(integrand / leading - 1.0) <= 1e-6


def test_clausen_cot_integral_weight3():
    r = clausen_cot_integral(0)
    assert abs(r.value - 1.75 * sf.CONSTANTS.log2 * sf.zeta(3)) <= 1e-9


def test_clausen_cot_integral_weight5_matches_closed_form():
    r = clausen_cot_integral(1)
    assert abs(r.value - 0.5 * eulersum.corollary3_rhs(4).value) <= 1e-9


@pytest.mark.parametrize("k,subdivisions", [(k, 18) for k in range(7)])
def test_clausen_cot_integral_one_kernel_call_per_gk_step(monkeypatch, k, subdivisions):
    # the 18 dyadic panels graded toward t = 0 in one call, and no bisection
    # (from one panel, k = 0 bisected 17 times and k = 1 4 times, a call each)
    sizes = []
    kernel = sf.clausen_odd

    def counting(weight, theta):
        sizes.append(np.size(theta))
        return kernel(weight, theta)

    monkeypatch.setattr(sf, "clausen_odd", counting)
    r = clausen_cot_integral(k)
    assert r.subdivisions == subdivisions
    assert sizes == [15 * subdivisions]


def test_clausen_cot_integral_domain():
    with pytest.raises(ValueError):
        clausen_cot_integral(-1)


_INDEXED = (
    (lemma1_integral, "n", 0),
    (lemma3_integral, "n", 1),
    (si_bessel_integral, "n", 0),
    (ci_bessel_integral, "n", 1),
    (clausen_cot_integral, "k", 0),
    *((getattr(coeffs, name), "n", 0) for name in (
        "harmonic", "alt_harmonic", "alpha", "lemma1_closed", "alpha_factorial_form")),
    *((getattr(coeffs, name), "n", 1) for name in (
        "beta", "beta_variant", "beta_factorial_form")),
)


@pytest.mark.parametrize("fn,arg,smallest", _INDEXED, ids=lambda v: getattr(v, "__name__", ""))
def test_indexed_operations_take_only_integers(fn, arg, smallest):
    # a float index used to be evaluated as if the identity held for it
    # (si_bessel_integral(1.5) gave the J_4 moment) or leaked a TypeError
    for bad in (1.5, 2.0, "3", None):
        with pytest.raises(ValueError, match=f"^{arg} must be"):
            fn(bad)
    assert fn(np.int64(smallest)) == fn(smallest)


@pytest.mark.parametrize(
    "a,error",
    [
        ("math.nan", "ValueError"),
        ("math.inf", "ValueError"),
        ("1e300", "ValueError"),
    ],
)
def test_corollary5_rhs_rejects_unreachable_arguments(a, error):
    # nan leaked int()'s conversion error, and inf and 1e300 counted skipped
    # edges forever (1e300 then raised QuadratureError, past |a| = 400).  In
    # a subprocess, so that a regression fails here instead of hanging the
    # suite.
    code = (
        "import math\n"
        "from neumann_sici import quad\n"
        f"try:\n    quad.corollary5_rhs({a})\n"
        "except (ValueError, quad.QuadratureError) as exc:\n"
        "    print(type(exc).__name__)\n"
    )
    env = dict(os.environ, PYTHONPATH=os.path.dirname(neumann_sici.__path__[0]))
    done = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=10
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == error


def test_corollary5_rhs_matches_series():
    series = neumann.corollary5_series(2.0)
    r = corollary5_rhs(2.0)
    assert abs(r.value - series.value) <= 1e-6


@pytest.mark.parametrize("a", [400.01, -400.01])
def test_corollary5_rhs_past_its_bound_raises_before_integrating(monkeypatch, a):
    # a ValueError, as the moments raise past order 400 (it was a
    # QuadratureError, a RuntimeError)
    def unreachable(*args):
        raise AssertionError("integrand evaluated")

    monkeypatch.setattr(sf, "gamma_log_minus_ci", unreachable)
    monkeypatch.setattr(quad, "_evaluate", unreachable)
    with pytest.raises(ValueError, match=r"^a must be finite with \|a\| <= 400$"):
        corollary5_rhs(a)


def test_corollary6_integrals():
    g = sf.CONSTANTS
    r = corollary6_integral()
    assert abs(r.value - (4.0 - 4.0 * g.catalan_g - g.euler_gamma)) <= 1e-4
    ri = corollary6_intermediate_integral()
    assert abs(ri.value - (3.0 - 4.0 * g.catalan_g)) <= 1e-4


# ---------------------------------------------------------------------------
# error-estimate honesty on exact targets
# ---------------------------------------------------------------------------

_OSCILLATORY_IDS = re.compile(
    r"(si|ci)_coeff_integral\.n=\d+|j0_orthogonality|engine_selftest\.j1_over_t"
    r"|example2|catalan_(eval|intermediate)|corollary5\.a=[\d.]+"
)
_OSCILLATORY_CHECKS = [
    c for c in harness.build_registry() if _OSCILLATORY_IDS.fullmatch(c.id)
]


def test_oscillatory_deck_is_complete():
    # 21 moments, j0, J_1/t, example 2, both Corollary 6 integrals, corollary 5 at 3 shifts
    assert len(_OSCILLATORY_CHECKS) == 29


@pytest.mark.parametrize("check", _OSCILLATORY_CHECKS, ids=lambda c: c.id)
def test_oscillatory_estimates_hold_over_the_registry_deck(check):
    # the estimate (with the series' tail bound on Corollary 5's other side)
    # holds with no slack, and |diff| stays under 0.03 of the registry
    # tolerance; corollary5.a=5, at 0.0098, is the whole deck's worst ratio
    sides = [check.lhs(), check.rhs()]
    (integral,) = [side for side in sides if isinstance(side, QuadResult)]
    (other,) = [side for side in sides if side is not integral]
    diff = abs(integral.value - getattr(other, "value", other))
    assert diff <= integral.abs_err_estimate + getattr(other, "tail_bound", 0.0)
    assert diff <= 0.03 * check.tolerance


@pytest.mark.parametrize("check", _OSCILLATORY_CHECKS, ids=lambda c: c.id)
def test_no_served_semi_infinite_integral_bisects(check):
    # every [0, B] range of the deck meets the engine's tol, 1e-10, as first
    # evaluated (the largest error sum is 8.4e-12, Corollary 6's): the final
    # panel count is the starting one
    (integral,) = [side for side in (check.lhs(), check.rhs()) if isinstance(side, QuadResult)]
    assert integral.subdivisions == integral.partitions_used


def _semi_infinite(check):
    (integral,) = [side for side in (check.lhs(), check.rhs()) if isinstance(side, QuadResult)]
    return integral


_INTEGRAND_CACHES = (quad._moment_integrand, quad._j1_over_t, quad._example2,
                     quad._corollary6, quad._corollary5)


@pytest.mark.parametrize("check", _OSCILLATORY_CHECKS, ids=lambda c: c.id)
def test_a_served_integrand_is_built_once(check, monkeypatch):
    # A second call does none of the expansion's product and sum algebra; a
    # rebuild after the caches are cleared does, and gives the same value
    # and estimate
    warm = repr(_semi_infinite(check))
    calls = []
    for name in ("_conv2", "_plus"):
        original = getattr(quad, name)
        monkeypatch.setattr(quad, name, lambda *args, name=name, original=original:
                            calls.append(name) or original(*args))
    assert repr(_semi_infinite(check)) == warm
    assert calls == []
    for cache in _INTEGRAND_CACHES:
        cache.cache_clear()
    assert repr(_semi_infinite(check)) == warm
    assert "_conv2" in calls


def test_served_integrands_are_cached_read_only_and_bounded(monkeypatch):
    # Two passes over the deck hand the engine the same 29 expansions, whose
    # terms and majorants are read-only, from caches that each have a bound
    seen = []
    engine = quad.oscillatory_semiinf
    monkeypatch.setattr(quad, "oscillatory_semiinf",
                        lambda integrand: seen.append(integrand) or engine(integrand))
    for _ in range(2):
        for check in _OSCILLATORY_CHECKS:
            _semi_infinite(check)
    first, second = seen[: len(_OSCILLATORY_CHECKS)], seen[len(_OSCILLATORY_CHECKS) :]
    assert len(first) == len(second) == 29
    assert all(a is b for a, b in zip(first, second))
    for integrand in first:
        for a in (integrand.size, *integrand.terms.values()):
            assert not a.flags.writeable
            with pytest.raises(ValueError, match="read-only"):
                a[0, 0] = 1.0
    for cache in _INTEGRAND_CACHES:
        assert isinstance(cache.cache_parameters()["maxsize"], int)


def test_each_registry_tail_is_integrated_once_at_its_own_shape(monkeypatch):
    # With the integrand caches cleared, one pass over the deck integrates 29
    # tails, each at its expansion's own (log powers, half powers) shape; a
    # second pass integrates none, as each cached expansion keeps its tail,
    # and gives the same results
    shapes, seen = [], []
    tail_integrals, engine = quad._tail_integrals, quad.oscillatory_semiinf

    def recording(top, shape, b):
        shapes.append(shape)
        return tail_integrals(top, shape, b)

    monkeypatch.setattr(quad, "_tail_integrals", recording)
    monkeypatch.setattr(quad, "oscillatory_semiinf",
                        lambda integrand: seen.append(integrand) or engine(integrand))
    for cache in _INTEGRAND_CACHES:
        cache.cache_clear()
    cold = [repr(_semi_infinite(check)) for check in _OSCILLATORY_CHECKS]
    assert len(shapes) == 29
    assert shapes == [integrand.size.shape for integrand in seen]
    shapes.clear()
    assert [repr(_semi_infinite(check)) for check in _OSCILLATORY_CHECKS] == cold
    assert shapes == []


def test_an_expansion_built_outside_every_cache_is_read_only():
    # Read-only from construction, not by its builder: a product no cache
    # holds has read-only terms and majorant, and the tail it keeps equals
    # that of the same product built by a served integrand's cache
    integrand = quad._sici(True) * (quad._bessel(3) * quad._INVERSE_T)
    for a in (integrand.size, *integrand.terms.values()):
        assert not a.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            a[0, 0] = 1.0
    assert integrand.tail is integrand.tail
    assert integrand.tail == quad._moment_integrand(True, 3).tail


def test_the_tail_starts_at_the_last_edge(monkeypatch):
    # B, where an expansion's tail is integrated from, is the engine's last
    # edge for its order, and equals (k + 1/4) pi at k = edges - 1 bit for bit
    starts, tail_integrals = [], quad._tail_integrals

    def recording(top, shape, b):
        starts.append(b)
        return tail_integrals(top, shape, b)

    monkeypatch.setattr(quad, "_tail_integrals", recording)
    for order in (0, 10, 11, 25, 81, 400):
        assert (quad._bessel(order) * quad._INVERSE_T).tail
        high = quad._edges(order)
        assert starts.pop() == float(high[-1]) == (len(high) - 0.75) * math.pi


_FINITE_IDS = re.compile(
    r"lemma[13]_quad\.n=\d+|(si|ci)_transform\.a=[\d.]+|clausen_integral\.k=\d+"
)
_FINITE_CHECKS = [c for c in harness.build_registry() if _FINITE_IDS.fullmatch(c.id)]


def test_finite_deck_is_complete():
    # 51 + 50 Lemma integrals, 6 + 6 transforms, 2 Clausen integrals
    assert len(_FINITE_CHECKS) == 115


@pytest.mark.parametrize("check", _FINITE_CHECKS, ids=lambda c: c.id)
def test_finite_estimates_hold_over_the_registry_deck(check):
    integral, other = check.lhs(), check.rhs()
    assert isinstance(integral, QuadResult)
    diff = abs(integral.value - getattr(other, "value", other))
    assert diff <= integral.abs_err_estimate


def _frequency(check_id):
    # m of a Lemma integral or transform: 2n+1, 2n, or max(5, ceil(a))
    family, x = check_id.split(".")[0], float(check_id.split("=")[1])
    return {"lemma1_quad": 2 * x + 1, "lemma3_quad": 2 * x}.get(family, max(5, math.ceil(x)))


@pytest.mark.parametrize(
    "check", [c for c in _FINITE_CHECKS if not c.id.startswith("clausen")], ids=lambda c: c.id
)
def test_no_registry_lemma_integral_or_transform_bisects(check):
    # each meets its tol as first evaluated, on its ceil(m/2) starting panels
    # for frequency m (the transforms started from one panel and bisected, 7
    # times at a = 20)
    assert check.lhs().subdivisions == (int(_frequency(check.id)) + 1) // 2


def _starting_panels(check_id, integral):
    # the panels an integral of the registry starts from: the [0, B] panels
    # of a semi-infinite one, Clausen's 18 graded ones, or ceil(m/2)
    if _OSCILLATORY_IDS.fullmatch(check_id):
        return integral.partitions_used
    if check_id.startswith("clausen"):
        return 18
    return (int(_frequency(check_id)) + 1) // 2


def test_no_registry_integral_bisects():
    # every integral of the registry, 115 finite and 29 semi-infinite, meets
    # its tol on its starting panels: Clausen's t log t endpoint, from one
    # panel, bisected 17 times at k = 0 and 4 at k = 1
    integrals = {check.id: check.lhs() for check in _FINITE_CHECKS}
    integrals.update((check.id, _semi_infinite(check)) for check in _OSCILLATORY_CHECKS)
    assert len(integrals) == 144
    bisected = {cid: r.subdivisions for cid, r in integrals.items()
                if r.subdivisions != _starting_panels(cid, r)}
    assert not bisected


@pytest.mark.parametrize("transform", [si_transform_integral, ci_transform_integral])
def test_no_transform_bisects_on_its_domain(transform):
    # from ceil(a)/2 panels (frequency ceil(a), not at least 5) they bisected
    # once on (0.73, 2] and (3.5, 4]
    for a in [1e-300, *np.linspace(0.05, 12.0, 240), 100.0, 1000.0, 4000.0]:
        assert transform(a).subdivisions == (max(5, math.ceil(a)) + 1) // 2, a


def test_error_estimates_are_honest():
    cases = [
        (lemma1_integral(12), float(coeffs.alpha(12))),
        (lemma3_integral(12), float(coeffs.beta(12))),
        (si_transform_integral(5.0), sf.si(5.0)),
        (bessel_j1_over_t_integral(), 1.0),
        (si_bessel_integral(0), 1.0),
        (si_bessel_integral(3), float(coeffs.alpha(3)) / 7.0),
        (ci_bessel_integral(2), 0.5),
        (j0_orthogonality_integral(), 0.0),
        (example2_integral(), _example2_target()),
        (clausen_cot_integral(0), 1.75 * sf.CONSTANTS.log2 * sf.zeta(3)),
    ]
    for result, target in cases:
        assert abs(result.value - target) <= result.abs_err_estimate
