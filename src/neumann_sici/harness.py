"""Identity registry, batch runner, and report emission.

Every verified identity is registered as an ``IdentityCheck`` binding a
left-hand recipe to an independent right-hand recipe with a per-check
tolerance.  A check whose two sides are both ``Fraction``s (the exact rational
identities, registered with tolerance 0) is compared in exact arithmetic;
every other check compares floats to its tolerance.
Check ids use content-based family names (the source's corollary numbering
is inconsistent), so filters look like ``coeffs.*`` or ``si_coeff_integral.*``.
"""

from __future__ import annotations

import csv
import fnmatch
import io
import json
import math
import os
import sys
import time
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable

from . import __version__, coeffs, eulersum, neumann, quad, specfun

__all__ = [
    "IdentityCheck",
    "CheckOutcome",
    "Report",
    "UsageError",
    "build_registry",
    "run_registry",
    "emit_report",
    "emit_convergence_tables",
    "TOL_SCALE_ENV",
]

TOL_SCALE_ENV = "NEUMANN_SICI_TOL_SCALE"


class UsageError(ValueError):
    """Bad filter, option, or configuration; maps to exit status 2."""


@dataclass
class IdentityCheck:
    id: str
    description: str
    lhs: Callable[[], object]
    rhs: Callable[[], object]
    tolerance: float


@dataclass
class CheckOutcome:
    id: str
    description: str
    lhs: float
    rhs: float
    abs_diff: float
    tolerance: float
    status: str  # pass | fail | error
    runtime_ms: int
    lhs_err: float = 0.0
    rhs_err: float = 0.0
    detail: str = ""


@dataclass
class Report:
    version: str
    timestamp: str
    options: dict
    checks: list[CheckOutcome] = field(default_factory=list)

    @property
    def summary(self) -> dict:
        counts = {"pass": 0, "fail": 0, "error": 0}
        for c in self.checks:
            counts[c.status] += 1
        counts["total"] = len(self.checks)
        return counts

    def to_dict(self) -> dict:
        def clean(c: CheckOutcome) -> dict:
            d = vars(c).copy()
            for key in ("lhs", "rhs", "abs_diff"):
                if not math.isfinite(d[key]):
                    d[key] = None  # keep the JSON strictly valid for errored checks
            return d

        return {
            "version": self.version,
            "timestamp": self.timestamp,
            "options": self.options,
            "checks": [clean(c) for c in self.checks],
            "summary": self.summary,
        }


# ---------------------------------------------------------------------------
# Registry
# ---------------------------------------------------------------------------

_EXPANSION_GRID = (0.1, 0.5, 1.0, 2.0, 5.0, 10.0, 20.0)
_TRANSFORM_GRID = (0.5, 1.0, 2.0, 5.0, 12.0, 20.0)
_ADDITION_POINTS = ((2.0, 3.0), (1.0, 5.0), (4.0, 0.5))


def _cap(n: int, max_n: int | None) -> int:
    return n if max_n is None else min(n, max_n)


def build_registry(max_n: int | None = None) -> list[IdentityCheck]:
    """The full check registry in canonical (deterministic) order."""
    checks: list[IdentityCheck] = []
    add = checks.append

    # -- exact rational coefficient identities (tolerance 0) -----------------
    for n in range(_cap(100, max_n) + 1):
        add(IdentityCheck(
            f"coeffs.lemma1_alpha.n={n}",
            "closed form of the cot-weighted sine integral equals the Si coefficient",
            lambda n=n: coeffs.lemma1_closed(n),
            lambda n=n: coeffs.alpha(n),
            0.0))
    for n in range(_cap(100, max_n) + 1):
        add(IdentityCheck(
            f"coeffs.alpha_factorial.n={n}",
            "factorial-form finite sum equals Si coefficient over odd order",
            lambda n=n: coeffs.alpha_factorial_form(n),
            lambda n=n: coeffs.alpha(n) / (2 * n + 1),
            0.0))
    for n in range(1, _cap(100, max_n) + 1):
        add(IdentityCheck(
            f"coeffs.beta_forms.n={n}",
            "the two harmonic-number forms of the Ci coefficient coincide",
            lambda n=n: coeffs.beta(n),
            lambda n=n: coeffs.beta_variant(n),
            0.0))
    for n in range(1, _cap(100, max_n) + 1):
        add(IdentityCheck(
            f"coeffs.beta_factorial.n={n}",
            "factorial-form finite sum equals Ci coefficient over even order",
            lambda n=n: coeffs.beta_factorial_form(n),
            lambda n=n: coeffs.beta(n) / (2 * n),
            0.0))

    # -- finite cot-weighted quadrature vs exact coefficients ----------------
    for n in range(_cap(50, max_n) + 1):
        add(IdentityCheck(
            f"lemma1_quad.n={n}",
            "quadrature of sin((2n+1)t) cot t over [0, pi/2] equals the exact coefficient",
            lambda n=n: quad.lemma1_integral(n),
            lambda n=n: float(coeffs.alpha(n)),
            1e-11))
    for n in range(1, _cap(50, max_n) + 1):
        add(IdentityCheck(
            f"lemma3_quad.n={n}",
            "quadrature of [1 - cos(2nt)] cot t over [0, pi/2] equals the exact coefficient",
            lambda n=n: quad.lemma3_integral(n),
            lambda n=n: float(coeffs.beta(n)),
            1e-11))

    # -- truncated expansions vs independent kernels -------------------------
    for a in _EXPANSION_GRID:
        add(IdentityCheck(
            f"si_expansion.a={a:g}",
            "truncated odd-order Bessel expansion reproduces the Si kernel",
            lambda a=a: neumann.si_neumann(a, 1e-11),
            lambda a=a: specfun.si(a),
            1e-10))
    for a in _EXPANSION_GRID:
        add(IdentityCheck(
            f"ci_expansion.a={a:g}",
            "truncated even-order Bessel expansion reproduces the Ci kernel",
            lambda a=a: neumann.ci_neumann(a, 1e-11),
            lambda a=a: specfun.ci(a),
            1e-10))

    # -- the sine/cosine transform integrals on [0, pi/2] --------------------
    for a in _TRANSFORM_GRID:
        add(IdentityCheck(
            f"si_transform.a={a:g}",
            "quadrature of sin(a sin t) cot t equals Si(a)",
            lambda a=a: quad.si_transform_integral(a),
            lambda a=a: specfun.si(a),
            1e-11))
    for a in _TRANSFORM_GRID:
        add(IdentityCheck(
            f"ci_transform.a={a:g}",
            "quadrature of [1 - cos(a sin t)] cot t equals gamma + log a - Ci(a)",
            lambda a=a: quad.ci_transform_integral(a),
            lambda a=a: specfun.gamma_log_minus_ci(a),
            1e-11))

    # -- semi-infinite oscillatory Bessel moments ----------------------------
    for n in range(_cap(10, max_n) + 1):
        add(IdentityCheck(
            f"si_coeff_integral.n={n}",
            "Si-weighted odd Bessel moment equals coefficient over order",
            lambda n=n: quad.si_bessel_integral(n),
            lambda n=n: float(coeffs.alpha(n)) / (2 * n + 1),
            1e-7))
    for n in range(1, _cap(10, max_n) + 1):
        add(IdentityCheck(
            f"ci_coeff_integral.n={n}",
            "log-cosine-weighted even Bessel moment equals coefficient over order",
            lambda n=n: quad.ci_bessel_integral(n),
            lambda n=n: float(coeffs.beta(n)) / (2 * n),
            1e-7))
    add(IdentityCheck(
        "j0_orthogonality",
        "the J_0-weighted moment of gamma + log t - Ci(t) vanishes",
        lambda: quad.j0_orthogonality_integral(),
        lambda: 0.0,
        1e-6))
    add(IdentityCheck(
        "engine_selftest.j1_over_t",
        "oscillatory engine reproduces the unit Bessel integral of J_1/t",
        lambda: quad.bessel_j1_over_t_integral(),
        lambda: 1.0,
        1e-9))

    # -- Euler-sum identities -------------------------------------------------
    for k in range(1, 5):
        add(IdentityCheck(
            f"euler_sum_even.k={k}",
            "even-weight Ci-coefficient sum closed form vs direct oracle",
            lambda k=k: eulersum.corollary3_rhs(k),
            lambda k=k: eulersum.beta_weighted_sum(k + 1, False),
            1e-8))
    for k in range(1, 4):
        add(IdentityCheck(
            f"euler_sum_alt.k={k}",
            "alternating Ci-coefficient sum closed form vs accelerated oracle",
            lambda k=k: eulersum.corollary4_rhs(k),
            lambda k=k: eulersum.beta_weighted_sum(2 * k, True),
            1e-8))
    for k in range(2, 6):
        add(IdentityCheck(
            f"euler_formula.k={k}",
            "Euler's linear-sum evaluation vs direct partial-sum oracle",
            lambda k=k: eulersum.euler_linear_sum(k),
            lambda k=k: eulersum.euler_sum_oracle(k),
            1e-9))
    for k in range(2, 6):
        add(IdentityCheck(
            f"nielsen_formula.k={k}",
            "Nielsen's alternating-harmonic formula vs direct partial-sum oracle",
            lambda k=k: eulersum.nielsen_sum(k),
            lambda k=k: eulersum.nielsen_sum_oracle(k),
            1e-9))
    for k in range(1, 4):
        add(IdentityCheck(
            f"sitaramachandrarao_h.k={k}",
            "alternating harmonic-weighted sum closed form vs accelerated oracle",
            lambda k=k: eulersum.sitaramachandrarao_h(k),
            lambda k=k: eulersum.sitaramachandrarao_h_oracle(k),
            1e-9))
    for k in range(1, 4):
        add(IdentityCheck(
            f"sitaramachandrarao_a.k={k}",
            "alternating alternating-harmonic sum closed form vs accelerated oracle",
            lambda k=k: eulersum.sitaramachandrarao_a(k),
            lambda k=k: eulersum.sitaramachandrarao_a_oracle(k),
            1e-9))

    # -- Clausen cot integrals -------------------------------------------------
    add(IdentityCheck(
        "clausen_integral.k=0",
        "weight-3 Clausen cot integral equals (7/4) log2 zeta(3)",
        lambda: quad.clausen_cot_integral(0),
        lambda: 1.75 * specfun.CONSTANTS.log2 * specfun.zeta(3),
        1e-9))
    add(IdentityCheck(
        "clausen_integral.k=1",
        "weight-5 Clausen cot integral equals half the even Euler-sum closed form",
        lambda: quad.clausen_cot_integral(1),
        lambda: 0.5 * eulersum.corollary3_rhs(4).value,
        1e-9))

    # -- shifted-argument series vs integral -----------------------------------
    for a in (0.0, 2.0, 5.0):
        add(IdentityCheck(
            f"corollary5.a={a:g}",
            "alternating even-order expansion equals shifted-argument J_0 moment",
            lambda a=a: neumann.corollary5_series(a),
            lambda a=a: quad.corollary5_rhs(a),
            1e-6))
    for a, t in _ADDITION_POINTS:
        add(IdentityCheck(
            f"addition_identity.a={a:g},t={t:g}",
            "two-argument J_0 addition identity, both sides computed independently",
            lambda a=a, t=t: neumann.addition_theorem_check(a, t)[0],
            lambda a=a, t=t: neumann.addition_theorem_check(a, t)[1],
            1e-12))

    # -- Catalan-constant evaluations ------------------------------------------
    add(IdentityCheck(
        "catalan_series",
        "accelerated alternating Si-coefficient sum equals 3 - 4G",
        lambda: eulersum.catalan_alpha_sum(),
        lambda: 3.0 - 4.0 * specfun.CONSTANTS.catalan_g,
        1e-10))
    add(IdentityCheck(
        "catalan_auxiliary",
        "accelerated Leibniz-partial-sum series equals -G",
        lambda: eulersum.catalan_auxiliary_sum(),
        lambda: -specfun.CONSTANTS.catalan_g,
        1e-10))
    add(IdentityCheck(
        "catalan_intermediate",
        "Si-weighted Bessel bracket with the extra J_1 term equals 3 - 4G",
        lambda: quad.corollary6_intermediate_integral(),
        lambda: 3.0 - 4.0 * specfun.CONSTANTS.catalan_g,
        1e-4))
    add(IdentityCheck(
        "catalan_eval",
        "Si-weighted Bessel bracket integral equals 4 - 4G - gamma",
        lambda: quad.corollary6_integral(),
        lambda: eulersum.corollary6_rhs(),
        1e-4))
    add(IdentityCheck(
        "example2",
        "log-cosine-weighted Y_0/J_0 bracket equals (pi^2/4) log2 - (7/8) zeta(3)",
        lambda: quad.example2_integral(),
        lambda: (math.pi ** 2 / 4.0) * specfun.CONSTANTS.log2 - 0.875 * specfun.zeta(3),
        1e-5))
    return checks


# ---------------------------------------------------------------------------
# Runner
# ---------------------------------------------------------------------------

def _value_and_err(raw: object) -> tuple[float | Fraction, float, str]:
    if isinstance(raw, Fraction):
        return raw, 0.0, ""
    if isinstance(raw, quad.QuadResult):
        return raw.value, raw.abs_err_estimate, ""
    if isinstance(raw, neumann.SeriesEval):
        return raw.value, raw.tail_bound, ""
    if isinstance(raw, eulersum.ClosedFormValue):
        # carry the assembly so a failure shows which constant term diverged
        note = "assembly: " + " + ".join(
            f"{coeff:g}*{name}" for name, coeff in raw.assembly
        )
        return raw.value, 0.0, note
    return float(raw), 0.0, ""  # type: ignore[arg-type]


def _run_check(check: IdentityCheck, tolerance: float) -> CheckOutcome:
    start = time.perf_counter()
    try:
        lhs_raw, lhs_err, lhs_note = _value_and_err(check.lhs())
        rhs_raw, rhs_err, rhs_note = _value_and_err(check.rhs())
        if isinstance(lhs_raw, Fraction) and isinstance(rhs_raw, Fraction):
            status = "pass" if lhs_raw == rhs_raw else "fail"
            diff = abs(lhs_raw - rhs_raw)
            lhs_f, rhs_f, diff_f = float(lhs_raw), float(rhs_raw), float(diff)
        else:
            lhs_f, rhs_f = float(lhs_raw), float(rhs_raw)
            diff_f = abs(lhs_f - rhs_f)
            ok = math.isfinite(diff_f) and diff_f <= tolerance
            status = "pass" if ok else "fail"
        detail = "; ".join(note for note in (lhs_note, rhs_note) if note)
    except Exception as exc:  # quadrature/oracle non-convergence, domain errors
        lhs_f = rhs_f = diff_f = math.nan
        lhs_err = rhs_err = 0.0
        status = "error"
        detail = f"{type(exc).__name__}: {exc}"
    runtime_ms = int(round(1000.0 * (time.perf_counter() - start)))
    return CheckOutcome(
        check.id, check.description, lhs_f, rhs_f, diff_f,
        tolerance, status, runtime_ms, lhs_err, rhs_err, detail,
    )


def run_registry(
    filter_glob: str = "*",
    tol_overrides: dict[str, float] | None = None,
    max_n: int | None = None,
) -> Report:
    """Execute all registry checks matching ``filter_glob``, in registry order.

    Tolerances come from the registry, scaled by the ``NEUMANN_SICI_TOL_SCALE``
    environment variable when set, with per-id overrides taking precedence.
    """
    overrides = dict(tol_overrides or {})
    scale = 1.0
    raw_scale = os.environ.get(TOL_SCALE_ENV)
    if raw_scale is not None:
        try:
            scale = float(raw_scale)
        except ValueError as exc:
            raise UsageError(f"bad {TOL_SCALE_ENV} value {raw_scale!r}") from exc
        if scale <= 0:
            raise UsageError(f"{TOL_SCALE_ENV} must be positive")
    registry = build_registry(max_n=max_n)
    matched = [c for c in registry if fnmatch.fnmatchcase(c.id, filter_glob)]
    if not matched:
        raise UsageError(f"filter {filter_glob!r} matches no registered check")
    unknown = set(overrides) - {c.id for c in registry}
    if unknown:
        raise UsageError(f"tolerance overrides for unknown ids: {sorted(unknown)}")

    def tol_for(check: IdentityCheck) -> float:
        if check.id in overrides:
            return overrides[check.id]
        return check.tolerance * scale

    options = {
        "filter": filter_glob,
        "tol_overrides": {k: overrides[k] for k in sorted(overrides)},
        "jobs": 1,  # checks run serially; the key keeps the report schema
        "max_n": max_n,
        "tol_scale": scale,
    }
    return Report(
        version=__version__,
        timestamp=time.strftime("%Y-%m-%dT%H:%M:%S", time.gmtime()),
        options=options,
        checks=[_run_check(c, tol_for(c)) for c in matched],
    )


# ---------------------------------------------------------------------------
# Emission
# ---------------------------------------------------------------------------

def _write(text: str, path: str | None) -> None:
    if path is None or path == "-":
        sys.stdout.write(text)
        return
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


def emit_report(report: Report, format: str = "text", path: str | None = None) -> None:
    """Serialize a report as text, JSON, or CSV to ``path`` (stdout if None)."""
    if format == "json":
        _write(json.dumps(report.to_dict(), indent=2) + "\n", path)
        return
    if format == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf)
        writer.writerow(
            ["id", "description", "lhs", "rhs", "abs_diff", "tolerance", "status", "runtime_ms"]
        )
        for c in report.checks:
            writer.writerow(
                [c.id, c.description, repr(c.lhs), repr(c.rhs), repr(c.abs_diff),
                 repr(c.tolerance), c.status, c.runtime_ms]
            )
        _write(buf.getvalue(), path)
        return
    if format != "text":
        raise UsageError(f"unknown report format {format!r}")
    lines = []
    width = max([len(c.id) for c in report.checks], default=10)
    for c in report.checks:
        lines.append(
            f"{c.id:<{width}}  {c.status:<5}  lhs={c.lhs: .15e}  rhs={c.rhs: .15e}"
            f"  |diff|={c.abs_diff:9.3e}  tol={c.tolerance:9.3e}  {c.runtime_ms:6d} ms"
            + (f"  [{c.detail}]" if c.detail else "")
        )
    s = report.summary
    lines.append(
        f"{s['total']} checks: {s['pass']} pass, {s['fail']} fail, {s['error']} error"
        f"  (version {report.version}, {report.timestamp})"
    )
    _write("\n".join(lines) + "\n", path)


def emit_convergence_tables(
    a_grid: list[float], n_grid: list[int], path: str | None = None
) -> None:
    """CSV table of truncation errors of the Si expansion on a grid."""
    rows = neumann.convergence_table(a_grid, n_grid)
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(["a", "N", "abs_error", "tail_bound"])
    for a, n, err, bound in rows:
        writer.writerow([repr(a), n, repr(err), repr(bound)])
    _write(buf.getvalue(), path)
