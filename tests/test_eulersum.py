import math

import numpy as np
import pytest

from neumann_sici import quad
from neumann_sici import specfun as sf
from neumann_sici._accel import alternating_series_limit
from neumann_sici.eulersum import (
    assembly_value,
    beta_weighted_partial_sums,
    beta_weighted_sum,
    catalan_alpha_sum,
    catalan_auxiliary_sum,
    corollary3_rhs,
    corollary4_rhs,
    corollary6_rhs,
    euler_linear_sum,
    euler_sum_oracle,
    nielsen_sum,
    nielsen_sum_oracle,
    sitaramachandrarao_a,
    sitaramachandrarao_a_oracle,
    sitaramachandrarao_h,
    sitaramachandrarao_h_oracle,
)

LOG2 = sf.CONSTANTS.log2
G = sf.CONSTANTS.catalan_g


# ---------------------------------------------------------------------------
# closed forms
# ---------------------------------------------------------------------------

def test_euler_linear_sum_k2_is_2_zeta3():
    assert euler_linear_sum(2) == pytest.approx(2.0 * sf.zeta(3), abs=1e-15)


def test_euler_linear_sum_k3_assembly():
    assert euler_linear_sum(3) == pytest.approx(3.0 * sf.zeta(4) - sf.zeta(2) ** 2, abs=1e-15)


@pytest.mark.parametrize("k", [2, 3, 4, 5])
def test_euler_formula_matches_oracle(k):
    assert abs(euler_linear_sum(k) - euler_sum_oracle(k)) <= 1e-9


def test_nielsen_k2_assembly():
    expected = 2.0 * LOG2 * sf.zeta(2) - 2.0 * sf.zeta(3) + 2.0 * sf.eta(2) * sf.eta(1)
    assert nielsen_sum(2) == pytest.approx(expected, abs=1e-15)


@pytest.mark.parametrize("k", [2, 3, 4, 5])
def test_nielsen_formula_matches_oracle(k):
    assert abs(nielsen_sum(k) - nielsen_sum_oracle(k)) <= 1e-9


def test_sitaramachandrarao_h_k1_trivial_form():
    assert sitaramachandrarao_h(1) == pytest.approx(sf.zeta(3) - sf.eta(3), abs=1e-15)


@pytest.mark.parametrize("k", [1, 2, 3])
def test_sitaramachandrarao_formulas_match_oracles(k):
    assert abs(sitaramachandrarao_h(k) - sitaramachandrarao_h_oracle(k)) <= 1e-9
    assert abs(sitaramachandrarao_a(k) - sitaramachandrarao_a_oracle(k)) <= 1e-9


def test_closed_form_domains():
    with pytest.raises(ValueError):
        euler_linear_sum(1)
    with pytest.raises(ValueError):
        nielsen_sum(1)
    with pytest.raises(ValueError):
        sitaramachandrarao_h(0)
    with pytest.raises(ValueError):
        sitaramachandrarao_a(0)
    with pytest.raises(ValueError):
        corollary3_rhs(0)
    with pytest.raises(ValueError):
        corollary4_rhs(0)


_K_INDEXED = (
    (euler_linear_sum, 2),
    (nielsen_sum, 2),
    (sitaramachandrarao_h, 1),
    (sitaramachandrarao_a, 1),
    (corollary3_rhs, 1),
    (corollary4_rhs, 1),
    (euler_sum_oracle, 2),
    (nielsen_sum_oracle, 2),
    (sitaramachandrarao_h_oracle, 1),
    (sitaramachandrarao_a_oracle, 1),
)


@pytest.mark.parametrize("fn,smallest", _K_INDEXED, ids=lambda v: getattr(v, "__name__", ""))
def test_euler_sums_take_only_integer_indices(fn, smallest):
    # euler_sum_oracle(2.5) was evaluated (1.033); 3.0, "3" and None leaked
    # a TypeError or zeta's message
    for bad in (2.5, 3.0, "3", None, smallest - 1):
        with pytest.raises(ValueError, match="^k must be an integer"):
            fn(bad)
    assert fn(np.int64(smallest)) == fn(smallest)


@pytest.mark.parametrize("alternating,smallest", [(True, 1), (False, 2)])
def test_beta_weighted_sum_takes_only_integer_exponents(alternating, smallest):
    # beta_weighted_sum("3", True) returned -1.618
    for bad in (2.5, 3.0, "3", None, smallest - 1):
        with pytest.raises(ValueError, match="exponent"):
            beta_weighted_sum(bad, alternating)
    assert beta_weighted_sum(np.int64(smallest), alternating) == beta_weighted_sum(
        smallest, alternating
    )


# ---------------------------------------------------------------------------
# assembled right-hand sides vs the beta-weighted oracles
# ---------------------------------------------------------------------------

def test_corollary3_k1_assembly_value():
    expected = (
        2.0 * LOG2 * sf.zeta(2) + sf.zeta(3) + sf.eta(3) + 2.0 * sf.eta(2) * sf.eta(1)
    )
    assert corollary3_rhs(1).value == pytest.approx(expected, abs=1e-15)


@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_corollary3_matches_beta_oracle(k):
    assert abs(corollary3_rhs(k).value - beta_weighted_sum(k + 1, False)) <= 1e-8


def test_corollary4_k1_is_paper_example_value():
    expected = 1.75 * sf.zeta(3) - 0.5 * math.pi ** 2 * LOG2
    assert corollary4_rhs(1).value == pytest.approx(expected, abs=1e-14)


@pytest.mark.parametrize("k", [1, 2, 3])
def test_corollary4_matches_beta_oracle(k):
    assert abs(corollary4_rhs(k).value - beta_weighted_sum(2 * k, True)) <= 1e-8


@pytest.mark.parametrize("k", [1, 2, 3])
def test_corollary4_decomposition_identity(k):
    # 2 sum (-1)^n beta_n/n^2k = sitaH(k) + sitaA(k) - zeta(2k+1) - eta(2k+1)
    lhs = beta_weighted_sum(2 * k, True)
    rhs = (
        sitaramachandrarao_h(k)
        + sitaramachandrarao_a(k)
        - sf.zeta(2 * k + 1)
        - sf.eta(2 * k + 1)
    )
    assert abs(lhs - rhs) <= 1e-9


def test_assembly_dot_product_invariant():
    for cf in (corollary3_rhs(1), corollary3_rhs(4), corollary4_rhs(1), corollary4_rhs(3)):
        assert abs(assembly_value(cf.assembly) - cf.value) <= 1e-15 * max(1.0, abs(cf.value))


def test_assembly_rejects_unknown_name():
    with pytest.raises(ValueError):
        assembly_value([("nope(3)", 1.0)])


# ---------------------------------------------------------------------------
# beta-weighted oracles
# ---------------------------------------------------------------------------

def test_beta_weighted_first_term():
    # first alternating partial sum is -2 beta_1 = -2
    partial = beta_weighted_partial_sums(2, True, 5)
    assert partial[0] == pytest.approx(-2.0, abs=1e-15)


def test_beta_weighted_nonalternating_monotone():
    partial = beta_weighted_partial_sums(3, False, 200)
    assert np.all(np.diff(partial) > 0.0)


def test_beta_weighted_requires_exponent_two():
    with pytest.raises(ValueError):
        beta_weighted_sum(1, False)


# ---------------------------------------------------------------------------
# Catalan evaluations
# ---------------------------------------------------------------------------

def test_catalan_alpha_sum():
    assert abs(catalan_alpha_sum() - (3.0 - 4.0 * G)) <= 1e-10


def test_catalan_auxiliary_sum():
    assert abs(catalan_auxiliary_sum() - (-G)) <= 1e-10


def test_corollary6_rhs_value():
    assert corollary6_rhs() == 4.0 - 4.0 * G - sf.CONSTANTS.euler_gamma
    assert corollary6_rhs() == pytest.approx(4.0 - 4.0 * 0.9159655941 - 0.5772156649, abs=1e-9)


# ---------------------------------------------------------------------------
# The shared extrapolator
# ---------------------------------------------------------------------------

def test_extrapolator_power_ladder_removes_smooth_remainder():
    # sum (-1)^(m+1)/m + 1/m^2: averaging alone leaves the 1/m tail of zeta(2)
    m = np.arange(1.0, 2001.0)
    partial = np.cumsum((-1.0) ** (m + 1) / m + 1.0 / m**2)
    value, shift = alternating_series_limit(partial)
    assert abs(value - (LOG2 + math.pi**2 / 6.0)) <= 1e-12
    assert shift <= 1e-12


def test_extrapolator_uses_the_given_basis():
    # Longman-like partial sums at partition edges b: a b^(-3/2) (1 + 0.3 log b)
    # remainder that the integer power ladder cannot represent
    k = np.arange(1.0, 200.0)
    b = (k + 0.25) * math.pi
    partial = 1.0 - b**-1.5 * (1.0 + 0.3 * np.log(b)) + (-1.0) ** k / b
    longman, _ = alternating_series_limit(partial, b, quad._LONGMAN_BASIS)
    ladder, _ = alternating_series_limit(partial, b)
    assert abs(longman - 1.0) <= 1e-7
    assert abs(ladder - 1.0) >= 100.0 * abs(longman - 1.0)
