"""Identity registry, batch runner, and report emission.

Every verified identity is registered as an ``IdentityCheck`` binding a
left-hand recipe to an independent right-hand recipe with a per-check
tolerance.  A check whose two sides are both ``Fraction``s (the exact rational
identities, registered with tolerance 0) is compared in exact arithmetic;
every other check compares floats to its tolerance.
Check ids use content-based family names (the source's corollary numbering
is inconsistent), so filters look like ``coeffs.*`` or ``si_coeff_integral.*``.

``build_registry`` builds one row per check family on each call, so a check
calls what the modules hold then, a patched function included.  A row is an
id template, an index set, ``lhs(*index)``, ``rhs(*index)``, the tolerance and
the description; one loop makes a check of each index, with the id
``template % index``.  A ``range`` index set is an n range, which
``max_n`` (``--max-n``) caps at n <= max_n.  The a-grids, the k sets and the
(a, t) points are tuples and a single check is ``[()]``: none is capped.  The
``addition_identity`` row computes each (a, t) pair once per build, for both
sides.
"""

from __future__ import annotations

import contextlib
import csv
import fnmatch
import json
import math
import os
import sys
import time
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cache, partial
from typing import Callable, Iterable, Iterator, Mapping, TextIO

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


def _clean(c: CheckOutcome) -> dict:
    # a check's JSON object: its fields, a non-finite value as null
    d = vars(c).copy()
    for key in ("lhs", "rhs", "abs_diff"):
        if not math.isfinite(d[key]):
            d[key] = None  # keep the JSON strictly valid for errored checks
    return d


# ---------------------------------------------------------------------------
# Registry
# ---------------------------------------------------------------------------

_EXPANSION_GRID = (0.1, 0.5, 1.0, 2.0, 5.0, 10.0, 20.0)
_TRANSFORM_GRID = (0.5, 1.0, 2.0, 5.0, 12.0, 20.0)


def _max_n(max_n: int | None) -> int | None:
    # None, or max_n as an int >= 0, else UsageError
    try:
        return None if max_n is None else specfun._integer(max_n, "", 0)
    except ValueError:
        raise UsageError(f"max_n must be >= 0 and an integer, got {max_n!r}") from None


def build_registry(max_n: int | None = None) -> list[IdentityCheck]:
    """The full check registry in canonical (deterministic) order; a ``max_n``
    that is not None or an integer >= 0 raises UsageError."""
    max_n = _max_n(max_n)
    # one (lhs, rhs) pair serves both sides of an addition_identity check
    addition = cache(neumann.addition_theorem_check)
    rows = (
        ("coeffs.lemma1_alpha.n=%d", range(101), coeffs.lemma1_closed, coeffs.alpha, 0.0,
         "closed form of the cot-weighted sine integral equals the Si coefficient"),
        ("coeffs.alpha_factorial.n=%d", range(101), coeffs.alpha_factorial_form,
         lambda n: coeffs.alpha(n) / (2 * n + 1), 0.0,
         "factorial-form finite sum equals Si coefficient over odd order"),
        ("coeffs.beta_forms.n=%d", range(1, 101), coeffs.beta, coeffs.beta_variant, 0.0,
         "the two harmonic-number forms of the Ci coefficient coincide"),
        ("coeffs.beta_factorial.n=%d", range(1, 101), coeffs.beta_factorial_form,
         lambda n: coeffs.beta(n) / (2 * n), 0.0,
         "factorial-form finite sum equals Ci coefficient over even order"),
        ("lemma1_quad.n=%d", range(51), quad.lemma1_integral,
         lambda n: float(coeffs.alpha(n)), 1e-12,
         "quadrature of sin((2n+1)t) cot t over [0, pi/2] equals the exact coefficient"),
        ("lemma3_quad.n=%d", range(1, 51), quad.lemma3_integral,
         lambda n: float(coeffs.beta(n)), 1e-12,
         "quadrature of [1 - cos(2nt)] cot t over [0, pi/2] equals the exact coefficient"),
        ("si_expansion.a=%g", _EXPANSION_GRID, neumann.si_neumann, specfun.si, 1e-10,
         "truncated odd-order Bessel expansion reproduces the Si kernel"),
        ("ci_expansion.a=%g", _EXPANSION_GRID, neumann.ci_neumann, specfun.ci, 1e-10,
         "truncated even-order Bessel expansion reproduces the Ci kernel"),
        ("si_transform.a=%g", _TRANSFORM_GRID, quad.si_transform_integral, specfun.si, 1e-12,
         "quadrature of sin(a sin t) cot t equals Si(a)"),
        ("ci_transform.a=%g", _TRANSFORM_GRID, quad.ci_transform_integral,
         specfun.gamma_log_minus_ci, 1e-12,
         "quadrature of [1 - cos(a sin t)] cot t equals gamma + log a - Ci(a)"),
        ("si_coeff_integral.n=%d", range(11), quad.si_bessel_integral,
         lambda n: float(coeffs.alpha(n)) / (2 * n + 1), 1e-10,
         "Si-weighted odd Bessel moment equals coefficient over order"),
        ("ci_coeff_integral.n=%d", range(1, 11), quad.ci_bessel_integral,
         lambda n: float(coeffs.beta(n)) / (2 * n), 1e-10,
         "log-cosine-weighted even Bessel moment equals coefficient over order"),
        ("j0_orthogonality", [()], quad.j0_orthogonality_integral, lambda: 0.0, 1e-10,
         "the J_0-weighted moment of gamma + log t - Ci(t) vanishes"),
        ("engine_selftest.j1_over_t", [()], quad.bessel_j1_over_t_integral, lambda: 1.0, 1e-12,
         "oscillatory engine reproduces the unit Bessel integral of J_1/t"),
        ("euler_sum_even.k=%d", (1, 2, 3, 4), eulersum.corollary3_rhs,
         lambda k: eulersum.beta_weighted_sum(k + 1, False), 1e-8,
         "even-weight Ci-coefficient sum closed form vs direct oracle"),
        ("euler_sum_alt.k=%d", (1, 2, 3), eulersum.corollary4_rhs,
         lambda k: eulersum.beta_weighted_sum(2 * k, True), 1e-8,
         "alternating Ci-coefficient sum closed form vs accelerated oracle"),
        ("euler_formula.k=%d", (2, 3, 4, 5), eulersum.euler_linear_sum,
         eulersum.euler_sum_oracle, 1e-9,
         "Euler's linear-sum evaluation vs direct partial-sum oracle"),
        ("nielsen_formula.k=%d", (2, 3, 4, 5), eulersum.nielsen_sum,
         eulersum.nielsen_sum_oracle, 1e-9,
         "Nielsen's alternating-harmonic formula vs direct partial-sum oracle"),
        ("sitaramachandrarao_h.k=%d", (1, 2, 3), eulersum.sitaramachandrarao_h,
         eulersum.sitaramachandrarao_h_oracle, 1e-9,
         "alternating harmonic-weighted sum closed form vs accelerated oracle"),
        ("sitaramachandrarao_a.k=%d", (1, 2, 3), eulersum.sitaramachandrarao_a,
         eulersum.sitaramachandrarao_a_oracle, 1e-9,
         "alternating alternating-harmonic sum closed form vs accelerated oracle"),
        ("clausen_integral.k=%d", (0,), quad.clausen_cot_integral,
         lambda k: 1.75 * specfun.CONSTANTS.log2 * specfun.zeta(3), 1e-11,
         "weight-3 Clausen cot integral equals (7/4) log2 zeta(3)"),
        ("clausen_integral.k=%d", (1,), quad.clausen_cot_integral,
         lambda k: 0.5 * eulersum.corollary3_rhs(4).value, 1e-11,
         "weight-5 Clausen cot integral equals half the even Euler-sum closed form"),
        ("corollary5.a=%g", (0.0, 2.0, 5.0), neumann.corollary5_series, quad.corollary5_rhs,
         1e-10, "alternating even-order expansion equals shifted-argument J_0 moment"),
        ("addition_identity.a=%g,t=%g", ((2.0, 3.0), (1.0, 5.0), (4.0, 0.5)),
         lambda a, t: addition(a, t)[0], lambda a, t: addition(a, t)[1], 1e-12,
         "two-argument J_0 addition identity, both sides computed independently"),
        ("catalan_series", [()], eulersum.catalan_alpha_sum,
         lambda: 3.0 - 4.0 * specfun.CONSTANTS.catalan_g, 1e-10,
         "accelerated alternating Si-coefficient sum equals 3 - 4G"),
        ("catalan_auxiliary", [()], eulersum.catalan_auxiliary_sum,
         lambda: -specfun.CONSTANTS.catalan_g, 1e-10,
         "accelerated Leibniz-partial-sum series equals -G"),
        ("catalan_intermediate", [()], quad.corollary6_intermediate_integral,
         lambda: 3.0 - 4.0 * specfun.CONSTANTS.catalan_g, 1e-10,
         "Si-weighted Bessel bracket with the extra J_1 term equals 3 - 4G"),
        ("catalan_eval", [()], quad.corollary6_integral, eulersum.corollary6_rhs, 1e-10,
         "Si-weighted Bessel bracket integral equals 4 - 4G - gamma"),
        ("example2", [()], quad.example2_integral,
         lambda: (math.pi ** 2 / 4.0) * specfun.CONSTANTS.log2 - 0.875 * specfun.zeta(3), 1e-10,
         "log-cosine-weighted Y_0/J_0 bracket equals (pi^2/4) log2 - (7/8) zeta(3)"),
    )
    checks = []
    for template, indices, lhs, rhs, tolerance, description in rows:
        if isinstance(indices, range) and max_n is not None:
            indices = range(indices.start, min(indices.stop, max_n + 1))
        for index in indices:
            args = index if isinstance(index, tuple) else (index,)
            checks.append(IdentityCheck(
                template % args, description,
                partial(lhs, *args), partial(rhs, *args), tolerance))
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
        # carry the parts, so a failing corollary names the linear-sum checks to inspect
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
        lhs_f, rhs_f = float(lhs_raw), float(rhs_raw)
        if isinstance(lhs_raw, Fraction) and isinstance(rhs_raw, Fraction):
            # |lhs - rhs| costs a subtraction and a gcd, formed only on a miss
            if lhs_raw == rhs_raw:
                status, diff_f = "pass", 0.0
            else:
                status, diff_f = "fail", float(abs(lhs_raw - rhs_raw))
        else:
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
    tol_overrides: Mapping[str, float] | None = None,
    max_n: int | None = None,
) -> Report:
    """Execute all registry checks matching ``filter_glob``, in registry order.

    Tolerances come from the registry, scaled by the ``NEUMANN_SICI_TOL_SCALE``
    environment variable when set, with per-id overrides taking precedence.
    A ``filter_glob`` that is not a str, overrides that are not a mapping, a
    scale not finite and positive, an override not a finite real, or a
    ``max_n`` that is not None or an integer >= 0 raises UsageError.
    """
    if not isinstance(filter_glob, str):
        raise UsageError(f"filter must be a glob pattern str, got {filter_glob!r}")
    if not isinstance(tol_overrides, (Mapping, type(None))):
        raise UsageError(f"tolerance overrides must be a mapping of ids, got {tol_overrides!r}")
    max_n = _max_n(max_n)
    overrides = dict(tol_overrides or {})
    for k, v in overrides.items():
        try:
            overrides[k] = specfun._real(v, "")
        except ValueError:
            raise UsageError(f"tolerance override for {k} must be finite, got {v!r}") from None
    raw = os.environ.get(TOL_SCALE_ENV, "1")
    try:  # float() rejects what is not a number, _real a nonfinite or nonpositive one
        scale = specfun._real(float(raw), "", 0.0, True)
    except ValueError:
        raise UsageError(f"{TOL_SCALE_ENV} must be finite and positive, got {raw!r}") from None
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

@contextlib.contextmanager
def _destination(path: str | os.PathLike | None) -> Iterator[TextIO]:
    # stdout, or the file at path; a path that is not a str or os.PathLike
    # (an int would be opened as a file descriptor, and closed), or an
    # OSError opening, writing or closing it, is a UsageError
    if path is not None and not isinstance(path, (str, os.PathLike)):
        raise UsageError(f"a report path must be a str or os.PathLike, got {path!r}")
    if path is None or path == "-":
        yield sys.stdout
        return
    try:
        with open(path, "w", encoding="utf-8") as fh:
            yield fh
    except OSError as exc:
        raise UsageError(f"cannot write {path}: {exc}") from exc


def emit_report(
    report: Report, format: str = "text", path: str | os.PathLike | None = None
) -> None:
    """Serialize a report as text, JSON, or CSV to ``path`` (stdout if None).

    The JSON report is one object with its top-level keys one per line and
    each check one compact object per line, in registry order, so ``grep``
    and ``diff`` line up by check id.  Every object is encoded without an
    indent, which keeps ``json`` on its C encoder, and the checks 32 to a
    call.  Each format is written as it is encoded (a JSON batch, a CSV row,
    a text line at a time), so no copy of the whole report is held.
    """
    if format not in ("text", "json", "csv"):
        raise UsageError(f"unknown report format {format!r}")
    with _destination(path) as fh:
        if format == "json":
            fh.write("{")
            for key in ("version", "timestamp", "options"):
                fh.write(f'\n  "{key}": {json.dumps(getattr(report, key))},')
            fh.write('\n  "checks": [')
            # each batch cleaned as it is encoded, and split at its check
            # boundaries: a check's first key is "id", and '}, {"id": ' cannot
            # occur inside an encoded string, whose quotes are escaped
            checks = report.checks
            for i in range(0, len(checks), 32):
                batch = json.dumps([_clean(c) for c in checks[i : i + 32]])[1:-1]
                fh.write((",\n    " if i else "\n    ")
                         + batch.replace('}, {"id": ', '},\n    {"id": '))
            fh.write("\n  ]" if checks else "]")
            fh.write(f',\n  "summary": {json.dumps(report.summary)}\n}}\n')
        elif format == "csv":
            writer = csv.writer(fh)
            writer.writerow(
                ["id", "description", "lhs", "rhs", "abs_diff", "tolerance", "status", "runtime_ms"]
            )
            writer.writerows(
                [c.id, c.description, repr(c.lhs), repr(c.rhs), repr(c.abs_diff),
                 repr(c.tolerance), c.status, c.runtime_ms] for c in report.checks
            )
        else:
            width = max([len(c.id) for c in report.checks], default=10)
            fh.writelines(
                f"{c.id:<{width}}  {c.status:<5}  lhs={c.lhs: .15e}  rhs={c.rhs: .15e}"
                f"  |diff|={c.abs_diff:9.3e}  tol={c.tolerance:9.3e}  {c.runtime_ms:6d} ms"
                + (f"  [{c.detail}]" if c.detail else "") + "\n" for c in report.checks
            )
            s = report.summary
            fh.write(
                f"{s['total']} checks: {s['pass']} pass, {s['fail']} fail, {s['error']} error"
                f"  (version {report.version}, {report.timestamp})\n"
            )


def emit_convergence_tables(
    a_grid: Iterable[float], n_grid: Iterable[int], path: str | os.PathLike | None = None
) -> None:
    """CSV table of truncation errors of the Si expansion on a grid."""
    rows = neumann.convergence_table(a_grid, n_grid)
    with _destination(path) as fh:
        writer = csv.writer(fh)
        writer.writerow(["a", "N", "abs_error", "tail_bound"])
        writer.writerows([repr(a), n, repr(err), repr(bound)] for a, n, err, bound in rows)
