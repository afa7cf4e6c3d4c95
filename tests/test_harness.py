import csv
import hashlib
import io
import json
import math
import os
import tracemalloc
from fractions import Fraction

import pytest

from neumann_sici import cli, coeffs, harness, neumann, quad


def _ids(registry):
    return [c.id for c in registry]


def _count(ids, prefix):
    return sum(1 for i in ids if i.startswith(prefix))


# n-indexed family: (full count, count at max_n=10, count at max_n=0)
_N_FAMILIES = {
    "coeffs.lemma1_alpha.": (101, 11, 1),
    "coeffs.alpha_factorial.": (101, 11, 1),
    "coeffs.beta_forms.": (100, 10, 0),
    "coeffs.beta_factorial.": (100, 10, 0),
    "lemma1_quad.": (51, 11, 1),
    "lemma3_quad.": (50, 10, 0),
    "si_coeff_integral.": (11, 11, 1),
    "ci_coeff_integral.": (10, 10, 0),
}

# grid, k-set, point and singleton families: their count, whatever max_n is
_FIXED_FAMILIES = {
    "si_expansion.": 7,
    "ci_expansion.": 7,
    "si_transform.": 6,
    "ci_transform.": 6,
    "j0_orthogonality": 1,
    "engine_selftest.j1_over_t": 1,
    "euler_sum_even.": 4,
    "euler_sum_alt.": 3,
    "euler_formula.": 4,
    "nielsen_formula.": 4,
    "sitaramachandrarao_h.": 3,
    "sitaramachandrarao_a.": 3,
    "clausen_integral.": 2,
    "corollary5.": 3,
    "addition_identity.": 3,
    "catalan_series": 1,
    "catalan_auxiliary": 1,
    "catalan_intermediate": 1,
    "catalan_eval": 1,
    "example2": 1,
}


def test_registry_contains_required_families():
    ids = _ids(harness.build_registry())
    for prefix, (full, _, _) in _N_FAMILIES.items():
        assert _count(ids, prefix) == full, prefix
    for prefix, full in _FIXED_FAMILIES.items():
        assert _count(ids, prefix) == full, prefix
    assert len(ids) == 586


def test_registry_ids_unique_and_ordered_deterministically():
    r1 = _ids(harness.build_registry())
    r2 = _ids(harness.build_registry())
    assert r1 == r2
    assert len(set(r1)) == len(r1)


def test_max_n_caps_indexed_families():
    for column, max_n, total in ((1, 10, 146), (2, 0, 66)):
        ids = _ids(harness.build_registry(max_n=max_n))
        for prefix, counts in _N_FAMILIES.items():
            assert _count(ids, prefix) == counts[column], (max_n, prefix)
        # fixed families are untouched
        for prefix, full in _FIXED_FAMILIES.items():
            assert _count(ids, prefix) == full, (max_n, prefix)
        assert len(ids) == total


# sha256 of the (id, description, tolerance) lines of build_registry(max_n)
_REGISTRY_DIGESTS = {
    None: (586, "cd9b2cdf2463e1bd0cecb7c0f29b3de2376c72038e0d457534988166164760d8"),
    0: (66, "2adf4647402ef0522332a01d83b7ad80ed623849e41e093ab5058f8f805455c5"),
    3: (90, "228eb4e41adc4bcbb9855928310f094702786ea90c8ba01c62908b9a4d765882"),
}


def test_registry_contract_digest():
    for max_n, expected in _REGISTRY_DIGESTS.items():
        registry = harness.build_registry(max_n)
        text = "\n".join(f"{c.id}\t{c.description}\t{c.tolerance!r}" for c in registry)
        got = (len(registry), hashlib.sha256(text.encode()).hexdigest())
        assert got == expected, (
            f"the ids, descriptions, tolerances or order of build_registry({max_n}) changed; "
            "a deliberate change must update this digest and record it in CHANGES.md"
        )


def test_checks_call_operations_patched_after_import(monkeypatch):
    calls = []

    def fake(name, value):
        def op(n):
            calls.append((name, n))
            return value
        return op

    monkeypatch.setattr(quad, "lemma1_integral", fake("quad.lemma1_integral", 1.0))
    monkeypatch.setattr(coeffs, "lemma1_closed", fake("coeffs.lemma1_closed", Fraction(1)))
    by_id = {c.id: c for c in harness.build_registry()}
    assert by_id["lemma1_quad.n=0"].lhs() == 1.0
    assert by_id["coeffs.lemma1_alpha.n=0"].lhs() == Fraction(1)
    assert calls == [("quad.lemma1_integral", 0), ("coeffs.lemma1_closed", 0)]


def test_addition_identity_computes_each_pair_once(monkeypatch):
    # both sides of a check read one addition_theorem_check pair, the one the
    # module holds at the build
    calls = []

    def counting(a, t):
        calls.append((a, t))
        return (a + t, a - t)

    monkeypatch.setattr(neumann, "addition_theorem_check", counting)
    checks = [c for c in harness.build_registry() if c.id.startswith("addition_identity.")]
    for check in checks:
        lhs, rhs = check.lhs(), check.rhs()
        a, t = calls[-1]
        assert (lhs, rhs) == (a + t, a - t)
    assert calls == [(2.0, 3.0), (1.0, 5.0), (4.0, 0.5)]


def test_exact_coefficient_checks_all_pass_with_zero_tolerance():
    report = harness.run_registry("coeffs.*", max_n=25)
    assert report.summary["fail"] == 0 and report.summary["error"] == 0
    assert all(c.tolerance == 0.0 for c in report.checks)
    assert all(c.abs_diff == 0.0 for c in report.checks)


def test_single_check_lemma1_n0():
    report = harness.run_registry("lemma1_quad.n=0")
    (c,) = report.checks
    assert c.status == "pass"
    assert c.lhs == pytest.approx(1.0, abs=1e-12)
    assert c.rhs == 1.0


def test_unknown_filter_is_usage_error():
    with pytest.raises(harness.UsageError):
        harness.run_registry("does-not-exist-*")


def test_a_filter_that_is_not_a_str_is_usage_error(monkeypatch):
    # run_registry(None) and run_registry(5) leaked fnmatch's TypeError after
    # building the whole registry
    def unreachable(*args, **kwargs):
        raise AssertionError("registry built")

    monkeypatch.setattr(harness, "build_registry", unreachable)
    for bad in (None, 5, b"coeffs.*", ["coeffs.*"]):
        with pytest.raises(harness.UsageError, match="filter must be a glob pattern str"):
            harness.run_registry(bad)


def test_overrides_that_are_not_a_mapping_are_usage_error(monkeypatch):
    # 5 and [1.0] leaked dict()'s TypeError and "x" its ValueError
    def unreachable(*args, **kwargs):
        raise AssertionError("registry built")

    monkeypatch.setattr(harness, "build_registry", unreachable)
    for bad in (5, [1.0], "x"):
        with pytest.raises(harness.UsageError, match="tolerance overrides must be a mapping"):
            harness.run_registry("coeffs.*", bad)


def test_unknown_override_id_is_usage_error():
    with pytest.raises(harness.UsageError):
        harness.run_registry("coeffs.*", {"bogus.id": 1e-3}, max_n=5)


def test_tolerance_override_can_force_failure():
    report = harness.run_registry("si_expansion.a=2", {"si_expansion.a=2": 1e-18})
    assert report.checks[0].status == "fail"
    assert report.summary["fail"] == 1


def test_tol_scale_env_applies_to_defaults(monkeypatch):
    monkeypatch.setenv(harness.TOL_SCALE_ENV, "1e6")
    report = harness.run_registry("si_expansion.a=2")
    assert report.checks[0].tolerance == pytest.approx(1e-10 * 1e6)
    for bad in ("bogus", "0", "-1", "nan", "inf", "-inf"):
        monkeypatch.setenv(harness.TOL_SCALE_ENV, bad)
        with pytest.raises(harness.UsageError):
            harness.run_registry("si_expansion.a=2")


def test_error_status_on_exception(monkeypatch, tmp_path):
    checks = [
        harness.IdentityCheck("boom", "always raises", lambda: 1 / 0, lambda: 0.0, 1e-9)
    ]
    monkeypatch.setattr(harness, "build_registry", lambda max_n=None: checks)
    report = harness.run_registry("*")
    assert report.checks[0].status == "error"
    assert "ZeroDivisionError" in report.checks[0].detail
    assert math.isnan(report.checks[0].lhs)
    # errored checks serialize as strictly valid JSON (no bare NaN tokens)
    path = tmp_path / "error.json"
    harness.emit_report(report, "json", str(path))

    def reject(name):
        raise AssertionError(f"the written report holds {name}")

    parsed = json.loads(path.read_text(), parse_constant=reject)
    assert parsed["checks"][0]["lhs"] is None


def test_exact_checks_compare_in_exact_arithmetic(monkeypatch):
    # a Fraction pair is compared exactly and forms |lhs - rhs| only when the
    # sides differ; a Fraction against a float compares floats to a tolerance
    third, tiny = Fraction(1, 3), Fraction(1, 10**30)
    checks = [
        harness.IdentityCheck("near", "equal floats", lambda: third, lambda: third + tiny, 0.0),
        harness.IdentityCheck("equal", "equal values", lambda: third, lambda: Fraction(2, 6), 0.0),
        harness.IdentityCheck("mixed", "Fraction vs float", lambda: third, lambda: 1 / 3, 0.0),
        harness.IdentityCheck("mixed_miss", "Fraction vs float", lambda: third,
                              lambda: 1 / 3 + 1e-10, 1e-11),
    ]
    monkeypatch.setattr(harness, "build_registry", lambda max_n=None: checks)
    near, equal, mixed, mixed_miss = harness.run_registry("*").checks
    assert near.lhs == near.rhs
    assert (near.status, near.abs_diff) == ("fail", float(tiny))
    assert near.abs_diff != 0.0
    assert (equal.status, equal.abs_diff) == ("pass", 0.0)
    assert (mixed.status, mixed.abs_diff) == ("pass", 0.0)
    assert mixed_miss.status == "fail"
    assert mixed_miss.abs_diff == abs(float(third) - (1 / 3 + 1e-10))


# ---------------------------------------------------------------------------
# report emission
# ---------------------------------------------------------------------------

def _json_object(report):
    # what the JSON report holds: the report's fields and each check's, a
    # non-finite lhs, rhs or abs_diff as null
    def check(c):
        return {k: None if k in ("lhs", "rhs", "abs_diff") and not math.isfinite(v) else v
                for k, v in vars(c).items()}

    return {"version": report.version, "timestamp": report.timestamp, "options": report.options,
            "checks": [check(c) for c in report.checks], "summary": report.summary}


@pytest.fixture(scope="module")
def small_report():
    return harness.run_registry("coeffs.beta_forms.*", max_n=8)


def test_json_roundtrip(small_report, tmp_path):
    path = tmp_path / "report.json"
    harness.emit_report(small_report, "json", str(path))
    parsed = json.loads(path.read_text())
    assert parsed == _json_object(small_report)
    assert parsed["summary"]["total"] == len(parsed["checks"])
    assert parsed["version"]


def test_json_report_writes_one_line_per_check(small_report, tmp_path):
    # the top-level keys one per line, then each check as one compact object
    # on its own line, in registry order, and a trailing newline
    path = tmp_path / "report.json"
    harness.emit_report(small_report, "json", str(path))
    text = path.read_text()
    checks = _json_object(small_report)["checks"]
    lines = [line for line in text.splitlines() if line.startswith('    {"id": ')]
    assert len(checks) == 8
    assert len(lines) == len(checks)
    assert len(text.splitlines()) == len(checks) + 8
    assert text.endswith("}\n")
    for line, check in zip(lines, checks):
        assert json.loads(line.removesuffix(",")) == check


def test_json_checks_across_a_batch_boundary_equal_per_check_encoding(tmp_path):
    # 40 checks span the 32-check batches; their strings hold the batch
    # separator, quotes, backslashes, a newline and non-ASCII text
    nasty = 'x}, {"id": "y", \\"q\\" \\\\ a\nb, βₙ é'
    checks = [
        harness.CheckOutcome(f"c{i}}}, {{\"id\": {i}", nasty * (i % 3), 0.1 * i, -1.0, 0.5,
                             1e-12, "pass", i, 0.0, 1e-15, nasty if i % 2 else "")
        for i in range(40)
    ]
    report = harness.Report(version="x", timestamp="t", options={}, checks=checks)
    path = tmp_path / "report.json"
    harness.emit_report(report, "json", str(path))
    text = path.read_text(encoding="utf-8")
    dicts = _json_object(report)["checks"]
    assert ",\n".join("    " + json.dumps(c) for c in dicts) in text
    assert len([line for line in text.splitlines() if line.startswith('    {"id": ')]) == 40
    assert json.loads(text) == _json_object(report)


def test_json_emission_holds_no_copy_of_the_whole_report(tmp_path):
    # each 32-check batch is cleaned and written as it is encoded, so the
    # emission's allocation peak stays below three quarters of the report's
    # length
    checks = [
        harness.CheckOutcome(
            f"lemma1_quad.n={i}", "quadrature of sin((2n+1)t) cot t over [0, pi/2] equals "
            "the exact coefficient", 1.0 + i / 7.0, 1.0 + i / 7.0 + 2.2e-16,
            2.220446049250313e-16, 1e-12, "pass", 0, 3.1e-15 * (i + 1))
        for i in range(600)
    ]
    report = harness.Report(version="x", timestamp="t", options={"filter": "*"}, checks=checks)
    path = tmp_path / "report.json"
    harness.emit_report(report, "json", str(path))
    length = len(path.read_text(encoding="utf-8"))
    # to the null device, whose small write buffer the peak then includes
    tracemalloc.start()
    try:
        harness.emit_report(report, "json", os.devnull)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 0.75 * length, (peak, length)


def test_csv_schema_and_row_count(small_report, tmp_path):
    path = tmp_path / "report.csv"
    harness.emit_report(small_report, "csv", str(path))
    rows = list(csv.reader(io.StringIO(path.read_text())))
    assert rows[0] == [
        "id", "description", "lhs", "rhs", "abs_diff", "tolerance", "status", "runtime_ms",
    ]
    assert len(rows) - 1 == len(small_report.checks)


def test_text_report_has_summary_footer(small_report, capsys):
    harness.emit_report(small_report, "text", None)
    out = capsys.readouterr().out
    assert f"{len(small_report.checks)} checks:" in out
    assert " pass, " in out


def test_unknown_format_rejected(small_report):
    with pytest.raises(harness.UsageError):
        harness.emit_report(small_report, "yaml", None)


def test_empty_report_serializes_cleanly(capsys):
    empty = harness.Report(version="x", timestamp="t", options={})
    harness.emit_report(empty, "json", None)
    parsed = json.loads(capsys.readouterr().out)
    assert parsed["checks"] == []
    assert parsed["summary"] == {"pass": 0, "fail": 0, "error": 0, "total": 0}


def test_full_registry_csv_row_count(tmp_path):
    report = harness.run_registry("*")
    path = tmp_path / "full.csv"
    harness.emit_report(report, "csv", str(path))
    rows = list(csv.reader(io.StringIO(path.read_text())))
    assert len(rows) - 1 == len(harness.build_registry())


def test_closed_form_assembly_lands_in_report_detail():
    report = harness.run_registry("euler_sum_alt.k=1")
    (c,) = report.checks
    assert c.status == "pass"
    assert "assembly:" in c.detail
    assert "1*sitaramachandrarao_h(1)" in c.detail and "-1*zeta(3)" in c.detail


def test_jobs_option_is_accepted_and_runs_serially(tmp_path, capsys):
    cfg = tmp_path / "jobs.cfg"
    cfg.write_text("jobs = 3\n")
    runs = []
    for extra in (["--jobs", "2"], ["--jobs", "1"], ["--config", str(cfg)]):
        out = tmp_path / f"r{len(runs)}.json"
        rc = cli.main(["--check", "si_expansion.*", "--format", "json", "--out", str(out), *extra])
        assert rc == 0
        parsed = json.loads(out.read_text())
        assert parsed["options"]["jobs"] == 1
        runs.append([(c["id"], c["lhs"], c["rhs"], c["abs_diff"], c["lhs_err"], c["rhs_err"])
                     for c in parsed["checks"]])
    assert len(runs[0]) == 7
    assert runs[0] == runs[1] == runs[2]
    # a non-integer is still a usage error
    assert cli.main(["--check", "si_expansion.*", "--jobs", "x"]) == 2
    cfg.write_text("jobs = x\n")
    assert cli.main(["--check", "si_expansion.*", "--config", str(cfg)]) == 2
    capsys.readouterr()


def test_emit_convergence_tables(tmp_path):
    path = tmp_path / "table.csv"
    harness.emit_convergence_tables([0.0, 2.0], [5, 10, 20], str(path))
    rows = list(csv.reader(io.StringIO(path.read_text())))
    assert rows[0] == ["a", "N", "abs_error", "tail_bound"]
    assert len(rows) - 1 == 6
    data = [(float(r[0]), int(r[1])) for r in rows[1:]]
    assert data == sorted(data)


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------

def test_cli_pass_run_exits_zero(tmp_path):
    out = tmp_path / "r.json"
    rc = cli.main(["--check", "coeffs.beta_forms.*", "--max-n", "6",
                   "--format", "json", "--out", str(out)])
    assert rc == 0
    parsed = json.loads(out.read_text())
    assert parsed["summary"]["fail"] == 0


def test_cli_bad_filter_exits_two(capsys):
    assert cli.main(["--check", "nothing-matches-this"]) == 2
    assert "error" in capsys.readouterr().err


def test_cli_forced_failure_exits_one(tmp_path):
    rc = cli.main([
        "--check", "coeffs.lemma1_alpha.n=3",
        "--tol-override", "coeffs.lemma1_alpha.n=3=-1",  # exact check unaffected...
        "--format", "csv", "--out", str(tmp_path / "r.csv"),
    ])
    # exact checks ignore the tolerance, so force failure on a float check
    assert rc == 0
    rc = cli.main([
        "--check", "si_expansion.a=2",
        "--tol-override", "si_expansion.a=2=1e-18",
        "--out", str(tmp_path / "r.txt"),
    ])
    assert rc == 1


def test_cli_bad_override_syntax_exits_two(capsys):
    assert cli.main(["--tol-override", "no-equals-sign"]) == 2
    # a non-finite tolerance would put NaN or Infinity into the JSON report
    for value in ("nan", "inf", "-inf"):
        assert cli.main(["--check", "si_expansion.a=2",
                         "--tol-override", f"si_expansion.a=2={value}"]) == 2
    with pytest.raises(harness.UsageError):
        harness.run_registry("si_expansion.a=2", {"si_expansion.a=2": math.nan})
    capsys.readouterr()


def test_cli_config_file(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(
        "# reproducible run\n"
        "check = coeffs.beta_factorial.*\n"
        "max_n = 5\n"
        "format = json\n"
        f"out = {tmp_path / 'from_cfg.json'}\n"
    )
    rc = cli.main(["--config", str(cfg)])
    assert rc == 0
    parsed = json.loads((tmp_path / "from_cfg.json").read_text())
    assert parsed["summary"]["total"] == 5
    # CLI flags win over the config file
    rc = cli.main(["--config", str(cfg), "--max-n", "3",
                   "--out", str(tmp_path / "cli_wins.json")])
    assert rc == 0
    parsed = json.loads((tmp_path / "cli_wins.json").read_text())
    assert parsed["summary"]["total"] == 3


@pytest.mark.parametrize("key, value", [
    ("format", "xml"), ("max_n", "1.5"), ("jobs", "x"), ("tol_override", "no-equals-sign"),
])
def test_cli_bad_config_value_exits_two_as_its_flag_does(tmp_path, capsys, key, value):
    # a config line gets the checks its flag gets
    out = tmp_path / "r.txt"
    flag = f"--{key.replace('_', '-')}={value}"
    assert cli.main(["--check", "coeffs.lemma1_alpha.n=1", "--out", str(out), flag]) == 2
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(f"{key} = {value}\n")
    assert cli.main(["--config", str(cfg), "--check", "coeffs.lemma1_alpha.n=1",
                     "--out", str(out)]) == 2
    assert not out.exists()
    capsys.readouterr()


def test_cli_tol_override_replaces_the_config_files_list(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("check = si_expansion.*\n"
                   "tol_override = si_expansion.a=2=1e-3\n"
                   "tol_override = si_expansion.a=5=1e-4\n"
                   "format = json\n")
    out = tmp_path / "r.json"
    assert cli.main(["--config", str(cfg), "--out", str(out)]) == 0
    options = json.loads(out.read_text())["options"]
    assert options["tol_overrides"] == {"si_expansion.a=2": 1e-3, "si_expansion.a=5": 1e-4}
    assert cli.main(["--config", str(cfg), "--tol-override", "si_expansion.a=1=1e-5",
                     "--out", str(out)]) == 0
    options = json.loads(out.read_text())["options"]
    assert options["tol_overrides"] == {"si_expansion.a=1": 1e-5}


def test_cli_negative_max_n_exits_two(tmp_path, capsys):
    # a negative cap used to drop every n-indexed family and exit 0
    out = tmp_path / "r.txt"
    assert cli.main(["--max-n", "-1", "--out", str(out)]) == 2
    cfg = tmp_path / "neg.cfg"
    cfg.write_text("max_n = -1\n")
    assert cli.main(["--config", str(cfg), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.count("max_n must be >= 0") == 2
    assert not out.exists()
    with pytest.raises(harness.UsageError):
        harness.run_registry("coeffs.*", max_n=-1)


@pytest.mark.parametrize("key", ["max-n", "tol-override", "config"])
def test_cli_unknown_config_key_exits_two(tmp_path, capsys, key):
    # a misspelt key was dropped: "max-n = 0" ran all 101 coeffs.lemma1* checks, exit 0
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(f"{key} = 0\n")
    out = tmp_path / "r.txt"
    assert cli.main(["--config", str(cfg), "--check", "coeffs.lemma1*", "--out", str(out)]) == 2
    assert repr(key) in capsys.readouterr().err
    assert not out.exists()


def test_cli_missing_config_exits_two(capsys):
    assert cli.main(["--config", "/nonexistent/path.cfg"]) == 2
    capsys.readouterr()


def test_cli_convergence_table(tmp_path):
    table = tmp_path / "conv.csv"
    rc = cli.main([
        "--check", "coeffs.beta_forms.n=1",
        "--convergence-out", str(table),
        "--a-grid", "0,2", "--n-grid", "4,8",
        "--out", str(tmp_path / "r.txt"),
    ])
    assert rc == 0
    rows = list(csv.reader(io.StringIO(table.read_text())))
    assert len(rows) - 1 == 4


@pytest.mark.parametrize(
    "grid",
    ["--n-grid=-3", "--n-grid=", "--n-grid=100000", "--a-grid=-1", "--a-grid=nan", "--a-grid=inf"],
)
def test_cli_bad_convergence_grid_exits_two(tmp_path, capsys, grid):
    # each used to print a traceback from convergence_table and exit 1
    rc = cli.main(["--check", "coeffs.beta_forms.n=1", "--out", str(tmp_path / "r.txt"),
                   "--convergence-out", str(tmp_path / "conv.csv"), grid])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "grid" in err


def test_cli_unreadable_config_exits_two(tmp_path, capsys):
    # a config file that is not UTF-8 escaped as a UnicodeDecodeError traceback
    cfg = tmp_path / "latin1.cfg"
    cfg.write_bytes(b"check = caf\xe9\n")
    assert cli.main(["--config", str(cfg), "--out", str(tmp_path / "r.txt")]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and str(cfg) in err


@pytest.mark.parametrize("flag", ["--out", "--convergence-out"])
def test_cli_unwritable_output_exits_two(tmp_path, capsys, flag):
    # an unwritable path escaped as a FileNotFoundError traceback, exit 1
    path = str(tmp_path / "missing" / "r.txt")
    # a second --out replaces the first
    args = ["--check", "coeffs.beta_forms.n=1", "--out", str(tmp_path / "r.txt"), flag, path]
    assert cli.main(args) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and f"cannot write {path}" in err


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
@pytest.mark.parametrize("args", [
    ["--format", "text", "--out", "/dev/full"],
    ["--format", "json", "--out", "/dev/full"],
    ["--format", "csv", "--out", "/dev/full"],
    ["--out", os.devnull, "--convergence-out", "/dev/full"],
], ids=["text", "json", "csv", "convergence"])
def test_cli_output_to_a_full_device_exits_two(capsys, args):
    # the open succeeds and the writes fail (ENOSPC), mid-report or at the
    # close: exit 2, naming the path, as for a path that cannot be opened
    assert cli.main(["--check", "coeffs.beta_forms.*", *args]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "cannot write /dev/full" in err
