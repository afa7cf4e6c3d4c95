import math
import os
import subprocess
import sys

import numpy as np
import pytest

import neumann_sici
from neumann_sici import coeffs, eulersum, neumann
from neumann_sici import specfun as sf
from neumann_sici.quad import (
    QuadratureError,
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


# ---------------------------------------------------------------------------
# finite-interval engine
# ---------------------------------------------------------------------------

def test_integrate_cos_exactly():
    r = integrate_finite(np.cos, 0.0, HALF_PI, 1e-14)
    assert abs(r.value - 1.0) <= 1e-14
    assert r.abs_err_estimate <= 1e-14
    assert r.subdivisions >= 1


def test_cos_times_cos2kt_elementary_integral():
    # int_0^{pi/2} cos t cos(2kt) dt = -cos(pi k)/(4k^2 - 1); k = 3 gives 1/35
    r = integrate_finite(lambda t: np.cos(t) * np.cos(6.0 * t), 0.0, HALF_PI, 1e-14)
    assert abs(r.value - 1.0 / 35.0) <= 1e-14


@pytest.mark.parametrize("k", range(2, 9))
def test_cos_times_sin_odd_antiderivative_oracle(k):
    # int_0^{pi/2} 2 cos t sin((2k-1)t) dt = (1-(-1)^k)/(2k) + (1+(-1)^k)/(2k-2)
    r = integrate_finite(
        lambda t: 2.0 * np.cos(t) * np.sin((2 * k - 1) * t), 0.0, HALF_PI, 1e-14
    )
    expected = (1.0 - (-1.0) ** k) / (2.0 * k) + (1.0 + (-1.0) ** k) / (2.0 * k - 2.0)
    assert abs(r.value - expected) <= 1e-13


def test_cos_times_sin_k_equals_one():
    # the k = 1 instance of the closed form is 0/0; the integral itself is 1
    r = integrate_finite(lambda t: 2.0 * np.cos(t) * np.sin(t), 0.0, HALF_PI, 1e-14)
    assert abs(r.value - 1.0) <= 1e-14


def test_integrate_finite_validates_interval():
    with pytest.raises(ValueError):
        integrate_finite(np.cos, 1.0, 1.0, 1e-10)
    with pytest.raises(ValueError):
        integrate_finite(np.cos, 0.0, 1.0, 0.0)


def test_nan_integrand_raises():
    with pytest.raises(QuadratureError):
        integrate_finite(lambda t: np.full_like(t, np.nan), 0.0, 1.0, 1e-10)


def test_nonintegrable_endpoint_raises_nonconvergence():
    with pytest.raises(QuadratureError):
        integrate_finite(lambda t: t ** -0.9, 1e-300, 1.0, 1e-12, max_subdivisions=300)


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


def test_lemma_integral_domains():
    with pytest.raises(ValueError):
        lemma1_integral(-1)
    with pytest.raises(ValueError):
        lemma3_integral(0)


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


def test_oscillatory_rejects_bad_spacing():
    # a block's edges must rise strictly from 0
    bad_edges = [
        lambda m: -m * math.pi,
        lambda m: 0.0 * m,  # the first partition is empty
        lambda m: 1.0,
        lambda m: (m + 0.25) * math.pi if m < 10 else 5.0,  # falls mid-block
        lambda m: math.nan,
    ]
    calls = []

    def f(t):
        calls.append(t.size)
        return np.zeros_like(t)

    for edge in bad_edges:
        with pytest.raises(ValueError, match="rise strictly"):
            oscillatory_semiinf(f, edge, 1e-6)
    assert not calls  # rejected before the integrand runs


def test_oscillatory_nonconvergence_raises():
    with pytest.raises(QuadratureError):
        oscillatory_semiinf(lambda t: np.sin(t) / t, lambda m: m * math.pi, 1e-16)


def test_oscillatory_partition_floor_above_cap_raises_before_any_edge():
    # scale 62: the floor max(32, 0.75 s^2) = 2883 exceeds the cap 400 + 40 s = 2880
    edges = []

    def edge(m):
        edges.append(m)
        return m * math.pi

    with pytest.raises(QuadratureError, match="partition floor"):
        oscillatory_semiinf(lambda t: np.sin(t) / t, edge, 1e-6, scale=62.0)
    assert not edges


def test_high_order_bessel_moment_raises_without_integrating(monkeypatch):
    # J_81: the floor 4920 exceeds the cap 3640, which the moment used to
    # reach only after integrating all 3640 partitions
    def unreachable(order, t):
        raise AssertionError("integrand evaluated")

    monkeypatch.setattr(sf, "bessel_j", unreachable)
    with pytest.raises(QuadratureError, match="partition floor"):
        si_bessel_integral(40)


def test_oscillatory_engine_batches_partitions_per_block():
    # J_1(t)/t, counting the integrand calls and the nodes in each
    calls = []

    def f(t):
        calls.append(t.size)
        return sf.bessel_j(1, t) / t

    r = oscillatory_semiinf(f, lambda m: (m + 0.75) * math.pi, 2e-10)
    assert abs(r.value - 1.0) <= 1e-9
    # extrapolation checkpoints at 32, 48, 72, ... partitions; one block each
    checkpoints = [32]
    while checkpoints[-1] < r.partitions_used:
        checkpoints.append(int(1.5 * checkpoints[-1]))
    assert checkpoints[-1] == r.partitions_used
    bisections = r.subdivisions - r.partitions_used
    assert bisections >= 1
    # one call per block plus one per refinement step; here every refinement
    # step bisects a single panel
    assert len(calls) == len(checkpoints) + bisections
    assert calls[0] == 15 * checkpoints[0]
    assert min(calls) >= 15
    assert sum(calls) == 15 * (r.partitions_used + 2 * bisections)


@pytest.mark.parametrize("n,partitions", [(0, 243), (4, 681)])
def test_si_bessel_integral_partition_counts(n, partitions):
    assert si_bessel_integral(n).partitions_used == partitions


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


@pytest.mark.parametrize("k,subdivisions", [(0, 14), (1, 4)])
def test_clausen_cot_integral_one_kernel_call_per_gk_step(monkeypatch, k, subdivisions):
    sizes = []
    kernel = sf.clausen_odd

    def counting(weight, theta):
        sizes.append(np.size(theta))
        return kernel(weight, theta)

    monkeypatch.setattr(sf, "clausen_odd", counting)
    r = clausen_cot_integral(k)
    assert r.subdivisions == subdivisions
    # the first step evaluates one panel, every bisection step two
    assert sizes == [15] + [30] * (subdivisions - 1)


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
        ("1e300", "QuadratureError"),
        ("62.0", "QuadratureError"),
    ],
)
def test_corollary5_rhs_rejects_unreachable_arguments(a, error):
    # nan leaked int()'s conversion error, and inf and 1e300 counted skipped
    # edges forever.  In a subprocess, so that a regression fails here
    # instead of hanging the suite.
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


def test_corollary6_integrals():
    g = sf.CONSTANTS
    r = corollary6_integral()
    assert abs(r.value - (4.0 - 4.0 * g.catalan_g - g.euler_gamma)) <= 1e-4
    ri = corollary6_intermediate_integral()
    assert abs(ri.value - (3.0 - 4.0 * g.catalan_g)) <= 1e-4


# ---------------------------------------------------------------------------
# error-estimate honesty on exact targets
# ---------------------------------------------------------------------------

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
        assert abs(result.value - target) <= 5.0 * max(result.abs_err_estimate, 1e-16)
