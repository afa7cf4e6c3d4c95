"""Every public real argument takes a finite real and rejects anything else.

A finite int, float, numpy real scalar or Fraction gives the float's result.
A str, None, list, complex, nan or +-inf raises ValueError (UsageError in the
harness), never an internal TypeError, and a kernel rejects an array of a
complex or object dtype instead of casting it.  The non-numeric arguments (a
report path, a convergence grid, a flag, an integrand) are checked where they
enter, too.
"""

import inspect
import json
import math
import os
import warnings
from fractions import Fraction

import numpy as np
import pytest

from neumann_sici import coeffs, eulersum, harness, neumann, quad, specfun

_BAD = ("1", None, [1.0], 1 + 0j, 1 + 1j, np.complex128(1.0), math.nan, math.inf, -math.inf)
_GOOD = (2, np.float32(1.5), Fraction(3, 2), np.int64(2))


# one call per public real argument, taking the argument's value v
_REAL_ARGUMENTS = {
    "bessel_j": lambda v: specfun.bessel_j(3, v),
    "bessel_j_all": lambda v: specfun.bessel_j_all(3, v),
    "bessel_y": lambda v: specfun.bessel_y(1, v),
    "si": specfun.si,
    "ci": specfun.ci,
    "gamma_log_minus_ci": specfun.gamma_log_minus_ci,
    "clausen_odd": lambda v: specfun.clausen_odd(3, v),
    "si_neumann.a": neumann.si_neumann,
    "ci_neumann.a": neumann.ci_neumann,
    "corollary5_series": neumann.corollary5_series,
    "addition_theorem_check.a": lambda v: neumann.addition_theorem_check(v, 1.0),
    "addition_theorem_check.t": lambda v: neumann.addition_theorem_check(1.0, v),
    "convergence_table": lambda v: neumann.convergence_table([v], [2]),
    "integrate_finite.a": lambda v: quad.integrate_finite(np.cos, v, 3.0),
    "integrate_finite.b": lambda v: quad.integrate_finite(np.cos, 0.0, v),
    "si_transform_integral": quad.si_transform_integral,
    "ci_transform_integral": quad.ci_transform_integral,
    "corollary5_rhs": quad.corollary5_rhs,
}


@pytest.mark.parametrize("name", _REAL_ARGUMENTS)
def test_real_arguments_reject_what_is_not_a_finite_real(name):
    # a str, None or list leaked math.isfinite's TypeError, a numpy complex
    # was cast with a ComplexWarning, and clausen_odd(3, 1+1j) returned
    # Cl_3(sqrt 2)
    call = _REAL_ARGUMENTS[name]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for bad in _BAD:
            with pytest.raises(ValueError, match="must be finite|requires a < b"):
                call(bad)


@pytest.mark.parametrize("name", _REAL_ARGUMENTS)
def test_real_arguments_take_any_finite_real_as_its_float(name):
    call = _REAL_ARGUMENTS[name]
    for good in _GOOD:
        assert call(good) == call(float(good)), good


@pytest.mark.parametrize(
    "kernel",
    [lambda x: specfun.bessel_j(3, x), lambda x: specfun.bessel_y(0, x), specfun.si,
     specfun.ci, specfun.gamma_log_minus_ci, lambda x: specfun.clausen_odd(3, x),
     lambda x: specfun.bessel_j_all(3, x)],
)
def test_kernels_reject_complex_and_object_arrays(kernel):
    # bessel_j(1, np.array([1+1j])) returned J_1(1) with only a ComplexWarning
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for bad in (np.array([1.0 + 1j]), np.array([1.0 + 0j]), np.array([1.0], dtype=object),
                    np.array(["1"]), np.array(1.0 + 0j)):
            with pytest.raises(ValueError, match="must be finite"):
                kernel(bad)
    x = np.array([1.0, 2.0, 30.0])
    assert kernel(x.astype(int)).tolist() == kernel(x).tolist()


def test_harness_overrides_and_max_n_raise_usage_errors(tmp_path):
    # an override of "1" and a max_n of 1.5 leaked a TypeError
    check = "coeffs.lemma1_alpha.n=0"
    for bad in _BAD:
        with pytest.raises(harness.UsageError, match="tolerance override"):
            harness.run_registry(check, {check: bad})
    for bad in ("1", 1.5, 2.0, -1, [1], 1 + 0j, math.nan):
        with pytest.raises(harness.UsageError, match="max_n must be >= 0"):
            harness.run_registry(check, max_n=bad)
        with pytest.raises(harness.UsageError, match="max_n must be >= 0"):
            harness.build_registry(max_n=bad)
    for good in _GOOD:
        report = harness.run_registry(check, {check: good}, max_n=np.int64(0))
        assert report.checks[0].tolerance == float(good)
        # the report holds the int and the float, so it serializes
        path = tmp_path / "report.json"
        harness.emit_report(report, "json", str(path))
        assert json.loads(path.read_text())["options"]["max_n"] == 0


def test_non_numeric_arguments_are_checked_where_they_enter():
    # an int report path was opened as a file descriptor and closed; an int
    # grid leaked a TypeError and a numpy grid numpy's ambiguous truth value;
    # beta_weighted_sum(2, "no") returned the alternating sum; an int
    # integrand leaked a TypeError or an AttributeError
    report = harness.run_registry("coeffs.lemma1_alpha.n=0")
    read, write = os.pipe()
    try:
        with pytest.raises(harness.UsageError, match="report path"):
            harness.emit_report(report, "text", write)
        with pytest.raises(harness.UsageError, match="report path"):
            harness.emit_convergence_tables([1.0], [2], write)
        os.fstat(write)
    finally:
        os.close(read)
        os.close(write)
    for a_grid, n_grid in (([1.0], 5), (5, [2])):
        with pytest.raises(ValueError, match="grids must be"):
            neumann.convergence_table(a_grid, n_grid)
        with pytest.raises(ValueError, match="grids must be"):
            harness.emit_convergence_tables(a_grid, n_grid, os.devnull)
    assert (neumann.convergence_table(np.array([1.0, 2.0]), np.array([2, 5]))
            == neumann.convergence_table([1.0, 2.0], [2, 5]))
    for bad in ("no", None, 1, [True]):
        with pytest.raises(ValueError, match="alternating must be True or False"):
            eulersum.beta_weighted_sum(2, bad)
    assert eulersum.beta_weighted_sum(2, np.True_) == eulersum.beta_weighted_sum(2, True)
    with pytest.raises(ValueError, match="callable"):
        quad.integrate_finite(5, 0.0, 1.0)
    with pytest.raises(ValueError, match="expansion"):
        quad.oscillatory_semiinf(5)
    with pytest.raises(ValueError, match="expansion"):
        quad.oscillatory_semiinf(np.cos)


def test_no_public_numerical_function_takes_a_tolerance():
    # each operation refines to its module's own target (the finite integrals
    # to quad._FINITE_TOL, the semi-infinite ones to quad._SEMIINF_TOL): no
    # caller picks an accuracy
    takes = [
        f"{module.__name__}.{name}"
        for module in (quad, neumann, eulersum, specfun, coeffs)
        for name in module.__all__
        if callable(fn := getattr(module, name)) and not inspect.isclass(fn)
        and "tol" in inspect.signature(fn).parameters
    ]
    assert takes == []
