import math
import tracemalloc

import numpy as np
import pytest

from neumann_sici import eulersum, harness
from neumann_sici import specfun as sf
from neumann_sici.eulersum import (
    alternating_series_limit,
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
    assert abs(euler_linear_sum(k) - euler_sum_oracle(k)) <= 1e-12


def test_nielsen_k2_assembly():
    expected = 2.0 * LOG2 * sf.zeta(2) - 2.0 * sf.zeta(3) + 2.0 * sf.eta(2) * sf.eta(1)
    assert nielsen_sum(2) == pytest.approx(expected, abs=1e-15)


@pytest.mark.parametrize("k", [2, 3, 4, 5])
def test_nielsen_formula_matches_oracle(k):
    assert abs(nielsen_sum(k) - nielsen_sum_oracle(k)) <= 1e-12


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
    # a TypeError or zeta's message, 10**400 an OverflowError, and
    # euler_linear_sum(10**6) looped for seconds; the parts of
    # corollary3_rhs(k) have index k + 1
    largest = 63 if fn is corollary3_rhs else 64
    for bad in (2.5, 3.0, "3", None, smallest - 1, largest + 1, 10**6, 10**400):
        with pytest.raises(ValueError, match=f"^k must be an integer from {smallest} to {largest}$"):
            fn(bad)
    assert fn(np.int64(smallest)) == fn(smallest)
    assert fn(np.int64(largest)) == fn(largest)


@pytest.mark.parametrize("alternating,smallest", [(True, 1), (False, 2)])
def test_beta_weighted_sum_takes_only_integer_exponents(alternating, smallest):
    # beta_weighted_sum("3", True) returned -1.618, and 10**400 raised OverflowError
    for bad in (2.5, 3.0, "3", None, smallest - 1, 65, 10**400):
        with pytest.raises(ValueError, match=f"^exponent must be an integer from {smallest} to 64$"):
            beta_weighted_sum(bad, alternating)
    assert beta_weighted_sum(np.int64(smallest), alternating) == beta_weighted_sum(
        smallest, alternating
    )


def test_closed_forms_match_oracles_at_the_largest_index():
    # zeta and eta are 1.0 from weight 55 on, so the sums settle to their first terms
    assert abs(euler_linear_sum(64) - euler_sum_oracle(64)) <= 1e-13
    assert abs(nielsen_sum(64) - nielsen_sum_oracle(64)) <= 1e-13
    assert abs(sitaramachandrarao_h(64) - sitaramachandrarao_h_oracle(64)) <= 1e-13
    assert abs(sitaramachandrarao_a(64) - sitaramachandrarao_a_oracle(64)) <= 1e-13
    assert abs(corollary3_rhs(63).value - beta_weighted_sum(64, False)) <= 1e-13


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
    assert abs(corollary3_rhs(k).value - beta_weighted_sum(k + 1, False)) <= 1e-12


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


@pytest.mark.parametrize(
    "rhs,k", [*((corollary3_rhs, k) for k in (1, 2, 3, 4)), *((corollary4_rhs, k) for k in (1, 2, 3))]
)
def test_corollary_value_is_the_sum_of_its_named_parts(rhs, k):
    # each part is a call of a public eulersum or specfun function, e.g. "nielsen_sum(3)"
    cf = rhs(k)
    assert len(cf.assembly) == 4
    total = 0.0
    for name, coeff in cf.assembly:
        fn_name, arg = name.rstrip(")").split("(")
        module = eulersum if fn_name in eulersum.__all__ else sf
        assert fn_name in module.__all__
        total += coeff * getattr(module, fn_name)(int(arg))
    assert total == cf.value


# ---------------------------------------------------------------------------
# beta-weighted oracles
# ---------------------------------------------------------------------------

def _terms_of(call, monkeypatch):
    # the terms that one oracle call passes to alternating_series_limit
    seen = []
    monkeypatch.setattr(eulersum, "alternating_series_limit",
                        lambda terms: seen.append(terms.copy()) or alternating_series_limit(terms))
    call()
    (terms,) = seen
    return terms


def test_beta_weighted_first_term(monkeypatch):
    # first alternating partial sum is -2 beta_1 = -2
    partial = np.cumsum(_terms_of(lambda: beta_weighted_sum(2, True), monkeypatch)[:5])
    assert partial[0] == pytest.approx(-2.0, abs=1e-15)


def test_beta_weighted_nonalternating_monotone(monkeypatch):
    partial = np.cumsum(_terms_of(lambda: beta_weighted_sum(3, False), monkeypatch)[:200])
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
    m = np.arange(1.0, eulersum._N_TERMS + 1.0)
    value, shift = alternating_series_limit((-1.0) ** (m + 1) / m + 1.0 / m**2)
    assert abs(value - (LOG2 + math.pi**2 / 6.0)) <= 1e-12
    assert shift <= 1e-12


@pytest.mark.parametrize("n", [eulersum._N_TERMS])
def test_tail_sums_cover_the_rows_the_fit_reads(n):
    # The fit reads the same reversed cumsum bit for bit at each of its rows,
    # every row lies in the last half, and only that half is summed: terms
    # before it do not reach the sums
    terms = np.random.default_rng(n).standard_normal(n)
    full = np.append(-np.cumsum(terms[:0:-1])[::-1], 0.0)
    rows, _ = _direct_design(n)
    assert rows.min() >= n // 2
    assert (n - 2 - eulersum._grid().back).tolist() == rows[:-1].tolist()
    sums = eulersum._tail_sums(terms)
    assert sums.tolist() == full[rows].tolist()
    terms[: n // 2 + 1] = math.nan
    assert eulersum._tail_sums(terms).tolist() == sums.tolist()


_ORACLE_KINDS = {
    "H": lambda: euler_sum_oracle(3),
    "A": lambda: nielsen_sum_oracle(3),
    "alternating-H": lambda: sitaramachandrarao_h_oracle(2),
    "alternating-A": lambda: sitaramachandrarao_a_oracle(2),
    "beta": lambda: beta_weighted_sum(3, False),
    "alternating-beta": lambda: beta_weighted_sum(2, True),
    "catalan-alpha": catalan_alpha_sum,
    "catalan-auxiliary": catalan_auxiliary_sum,
}


def _direct_design(n):
    # the fit's rows and normalised design, built here independently: the
    # last half of the sums at stride 9, a constant, then alternating and
    # smooth columns (m/n)^(-q) [log(m/n)] for q = 1, 2, 3
    rows = np.arange(n - 1, n // 2 - 1, -9)[::-1]
    m = rows + 1.0
    columns = [np.ones_like(m)]
    for q in (1, 2, 3):
        for with_log in (False, True):
            smooth = (m / n) ** -q * (np.log(m / n) if with_log else 1.0)
            columns += [(-1.0) ** m * smooth, smooth]
    design = np.stack(columns, axis=1)
    return rows, design / np.linalg.norm(design, axis=0)


@pytest.mark.parametrize("kind", _ORACLE_KINDS)
def test_cached_weights_match_a_direct_solve(kind, monkeypatch):
    # the cached weight rows against a least-squares solve of the same design
    terms = _terms_of(_ORACLE_KINDS[kind], monkeypatch)
    assert len(terms) == eulersum._N_TERMS
    value, shift = alternating_series_limit(terms)
    rows, design = _direct_design(len(terms))
    tails = -np.array([np.sum(terms[r + 1 :]) for r in rows])
    norm = math.sqrt(len(rows))
    full, dropped = (
        np.linalg.lstsq(d, tails, rcond=None)[0][0] / norm for d in (design, design[:, :-2])
    )
    assert value == pytest.approx(np.sum(terms) + full, rel=0, abs=1e-14)
    assert shift == pytest.approx(abs(full - dropped), rel=0, abs=1e-14)


def _today_terms(kind):
    # Each kind's terms as the oracles formed them before the coefficient
    # tables, from the grid's n, sign and cumulative sums built here
    n = np.arange(1.0, eulersum._N_TERMS + 1.0)
    sign = np.where(np.arange(1, eulersum._N_TERMS + 1) % 2 == 1, 1.0, -1.0)
    h, a, leib = np.cumsum(1.0 / n), np.cumsum(sign / n), np.cumsum(sign / (2.0 * n - 1.0))
    beta = h + a - (1.0 + sign) / (2.0 * n)
    alpha = 2.0 * leib - sign / (2.0 * n + 1.0)
    return {
        "H": 2.0 * (h - 1.0 / n) * n ** (-3.0),
        "A": 2.0 * (a - sign / n) * n ** (-3.0),
        "alternating-H": 2.0 * (h - 1.0 / n) * n ** (-4.0) * -sign,
        "alternating-A": 2.0 * (a - sign / n) * n ** (-4.0) * -sign,
        "beta": 2.0 * beta * n ** (-3.0),
        "alternating-beta": 2.0 * beta * n ** (-2.0) * -sign,
        "catalan-alpha": -sign * alpha / (n * (n + 1.0)),
        "catalan-auxiliary": -sign * leib / n,
    }[kind]


@pytest.mark.parametrize("kind", _ORACLE_KINDS)
def test_oracle_terms_come_from_the_tables_bit_for_bit(kind, monkeypatch):
    terms = _terms_of(_ORACLE_KINDS[kind], monkeypatch)
    assert terms.tolist() == _today_terms(kind).tolist()


@pytest.mark.parametrize("kind", _ORACLE_KINDS)
def test_an_oracle_call_allocates_its_terms_and_a_half_length_sum(kind):
    # Once the tables are built, a call holds at most two arrays of 20000
    # floats at a time: its terms and the cumulative sum of their last half.
    # A Catalan call reads its terms from the grid, so it holds only the sum.
    _ORACLE_KINDS[kind]()
    tracemalloc.start()
    try:
        _ORACLE_KINDS[kind]()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    arrays = 0.75 if kind.startswith("catalan") else 2
    assert peak <= arrays * eulersum._N_TERMS * 8


def test_fixed_design_caches_are_bounded_and_read_only():
    euler_sum_oracle(2)
    grid = eulersum._grid()
    for name in ("n", "flip", "h", "a", "beta", "catalan_alpha", "catalan_auxiliary"):
        assert getattr(grid, name).shape == (eulersum._N_TERMS,), name
    for a in grid:
        with pytest.raises(ValueError, match="read-only"):
            a[0] = 1.0
    info = eulersum._grid.cache_info()
    assert info.maxsize == 1
    assert info.currsize == 1
    # one n^-k table per exponent: a registry pass's 21 power-based oracle
    # calls use the exponents 2 to 6, so they build exactly 5 tables
    eulersum._inverse_power.cache_clear()
    assert harness.run_registry().summary["pass"] == 586
    info = eulersum._inverse_power.cache_info()
    assert info.maxsize == 8
    assert (info.misses, info.hits) == (5, 16)
    for exponent in range(2, 7):
        power = eulersum._inverse_power(exponent)
        assert power.shape == (eulersum._N_TERMS,)
        with pytest.raises(ValueError, match="read-only"):
            power[0] = 1.0
