"""Acceptance suite: one test per criterion, each printed as a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines alongside the pytest output.
"""

import contextlib
import json
import math
import time

import pytest

from neumann_sici import cli, coeffs, eulersum, harness, neumann, quad
from neumann_sici import specfun as sf


@contextlib.contextmanager
def _criterion(name: str, budget_s: float):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"[acceptance] {name}: FAIL ({time.perf_counter() - start:.1f}s)")
        raise
    elapsed = time.perf_counter() - start
    status = "PASS" if elapsed < budget_s else f"FAIL (runtime {elapsed:.1f}s over budget)"
    print(f"[acceptance] {name}: {status} ({elapsed:.1f}s)")
    assert elapsed < budget_s, f"{name} exceeded runtime budget: {elapsed:.1f}s"


def test_exact_coefficient_suite():
    with _criterion("exact coefficient suite", 5.0):
        for n in range(101):
            assert coeffs.lemma1_closed(n) == coeffs.alpha(n)
            assert coeffs.alpha_factorial_form(n) == coeffs.alpha(n) / (2 * n + 1)
        for n in range(1, 101):
            assert coeffs.beta(n) == coeffs.beta_variant(n)
            assert coeffs.beta_factorial_form(n) == coeffs.beta(n) / (2 * n)


def test_lemma_quadrature_suite():
    with _criterion("lemma quadrature suite", 30.0):
        for n in range(51):
            r = quad.lemma1_integral(n)
            assert abs(r.value - float(coeffs.alpha(n))) <= 1e-11, f"lemma1 n={n}"
        for n in range(1, 51):
            r = quad.lemma3_integral(n)
            assert abs(r.value - float(coeffs.beta(n))) <= 1e-11, f"lemma3 n={n}"


def test_expansion_suite():
    with _criterion("Si/Ci expansion suite", 10.0):
        for a in (0.1, 0.5, 1.0, 2.0, 5.0, 10.0, 20.0):
            s = neumann.si_neumann(a)
            assert abs(s.value - sf.si(a)) <= 1e-10, f"Si expansion a={a}"
            c = neumann.ci_neumann(a)
            assert abs(c.value - sf.ci(a)) <= 1e-10, f"Ci expansion a={a}"
            # reported tail bounds are never exceeded by the remainders
            # observed against the kernels, allowing the kernels' own 1e-15
            assert abs(s.value - sf.si(a)) <= s.tail_bound + 1e-15, f"Si tail bound a={a}"
            assert abs(c.value - sf.ci(a)) <= c.tail_bound + 1e-15, f"Ci tail bound a={a}"


def test_oscillatory_integral_suite():
    with _criterion("oscillatory integral suite", 120.0):
        for n in range(11):
            r = quad.si_bessel_integral(n)
            target = float(coeffs.alpha(n)) / (2 * n + 1)
            assert abs(r.value - target) <= 1e-7, f"Si moment n={n}"
        for n in range(1, 11):
            r = quad.ci_bessel_integral(n)
            target = float(coeffs.beta(n)) / (2 * n)
            assert abs(r.value - target) <= 1e-7, f"Ci moment n={n}"
        assert abs(quad.j0_orthogonality_integral().value) <= 1e-6
        assert abs(quad.bessel_j1_over_t_integral().value - 1.0) <= 1e-9


def test_euler_sum_suite():
    with _criterion("Euler-sum suite", 20.0):
        for k in (1, 2, 3, 4):
            diff = eulersum.corollary3_rhs(k).value - eulersum.beta_weighted_sum(k + 1, False)
            assert abs(diff) <= 1e-8, f"even sum k={k}"
        for k in (1, 2, 3):
            diff = eulersum.corollary4_rhs(k).value - eulersum.beta_weighted_sum(2 * k, True)
            assert abs(diff) <= 1e-8, f"alternating sum k={k}"
        for k in (2, 3, 4, 5):
            assert abs(eulersum.euler_linear_sum(k) - eulersum.euler_sum_oracle(k)) <= 1e-9
            assert abs(eulersum.nielsen_sum(k) - eulersum.nielsen_sum_oracle(k)) <= 1e-9
        for k in (1, 2, 3):
            assert abs(eulersum.sitaramachandrarao_h(k) - eulersum.sitaramachandrarao_h_oracle(k)) <= 1e-9
            assert abs(eulersum.sitaramachandrarao_a(k) - eulersum.sitaramachandrarao_a_oracle(k)) <= 1e-9


def test_named_constant_evaluations():
    with _criterion("named-constant evaluations", 120.0):
        example2_target = (math.pi ** 2 / 4.0) * sf.CONSTANTS.log2 - 0.875 * sf.zeta(3)
        assert abs(quad.example2_integral().value - example2_target) <= 1e-5
        g = sf.CONSTANTS.catalan_g
        assert abs(quad.corollary6_integral().value - eulersum.corollary6_rhs()) <= 1e-4
        assert abs(eulersum.catalan_alpha_sum() - (3.0 - 4.0 * g)) <= 1e-10
        clausen_target = 1.75 * sf.CONSTANTS.log2 * sf.zeta(3)
        assert abs(quad.clausen_cot_integral(0).value - clausen_target) <= 1e-9


def test_corollary5_suite():
    with _criterion("shifted-argument identity suite", 60.0):
        for a in (0.0, 2.0, 5.0):
            series = neumann.corollary5_series(a)
            integral = quad.corollary5_rhs(a)
            assert abs(series.value - integral.value) <= 1e-6, f"a={a}"
        for a, t in ((2.0, 3.0), (1.0, 5.0), (4.0, 0.5)):
            lhs, rhs = neumann.addition_theorem_check(a, t)
            assert abs(lhs - rhs) <= 1e-12, f"addition identity ({a},{t})"


def test_harness_contract(tmp_path):
    with _criterion("harness contract", 180.0):
        out = tmp_path / "full.json"
        rc = cli.main(["--format", "json", "--out", str(out)])
        assert rc == 0, "full registry run must exit 0"
        first = json.loads(out.read_text())
        assert first["summary"]["fail"] == 0 and first["summary"]["error"] == 0
        # a second run's JSON report holds its summary and its checks in order
        report = harness.run_registry("*")
        harness.emit_report(report, "json", str(tmp_path / "second.json"))
        second = json.loads((tmp_path / "second.json").read_text())
        assert second["summary"] == report.summary
        assert [c["id"] for c in second["checks"]] == [c.id for c in report.checks]
        # deterministic numeric fields across the two runs
        assert len(first["checks"]) == len(second["checks"])
        for ca, cb in zip(first["checks"], second["checks"]):
            assert ca["id"] == cb["id"]
            for field in ("lhs", "rhs", "abs_diff", "tolerance", "status", "lhs_err", "rhs_err"):
                assert ca[field] == cb[field], f'{ca["id"]}: {field} differs'
