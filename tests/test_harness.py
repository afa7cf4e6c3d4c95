import csv
import io
import json
import math

import pytest

from neumann_sici import cli, harness


def _ids(registry):
    return [c.id for c in registry]


def test_registry_contains_required_families():
    ids = _ids(harness.build_registry())
    def count(prefix):
        return sum(1 for i in ids if i.startswith(prefix))

    assert count("coeffs.lemma1_alpha.") == 101
    assert count("coeffs.alpha_factorial.") == 101
    assert count("coeffs.beta_forms.") == 100
    assert count("coeffs.beta_factorial.") == 100
    assert count("lemma1_quad.") == 51
    assert count("lemma3_quad.") == 50
    assert count("si_expansion.") == 7
    assert count("ci_expansion.") == 7
    assert count("si_transform.") == 6
    assert count("ci_transform.") == 6
    assert count("si_coeff_integral.") == 11
    assert count("ci_coeff_integral.") == 10
    assert count("euler_sum_even.") == 4
    assert count("euler_sum_alt.") == 3
    assert count("euler_formula.") == 4
    assert count("nielsen_formula.") == 4
    assert count("sitaramachandrarao_h.") == 3
    assert count("sitaramachandrarao_a.") == 3
    assert count("clausen_integral.") == 2
    assert count("corollary5.") == 3
    assert count("addition_identity.") == 3
    for singleton in (
        "j0_orthogonality",
        "engine_selftest.j1_over_t",
        "catalan_series",
        "catalan_auxiliary",
        "catalan_intermediate",
        "catalan_eval",
        "example2",
    ):
        assert singleton in ids


def test_registry_ids_unique_and_ordered_deterministically():
    r1 = _ids(harness.build_registry())
    r2 = _ids(harness.build_registry())
    assert r1 == r2
    assert len(set(r1)) == len(r1)


def test_max_n_caps_indexed_families():
    ids = _ids(harness.build_registry(max_n=10))
    assert sum(1 for i in ids if i.startswith("coeffs.lemma1_alpha.")) == 11
    assert sum(1 for i in ids if i.startswith("lemma3_quad.")) == 10
    # fixed families are untouched
    assert sum(1 for i in ids if i.startswith("euler_sum_even.")) == 4


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
    monkeypatch.setenv(harness.TOL_SCALE_ENV, "bogus")
    with pytest.raises(harness.UsageError):
        harness.run_registry("si_expansion.a=2")


def test_error_status_on_exception(monkeypatch):
    checks = [
        harness.IdentityCheck("boom", "always raises", lambda: 1 / 0, lambda: 0.0, 1e-9)
    ]
    monkeypatch.setattr(harness, "build_registry", lambda max_n=None: checks)
    report = harness.run_registry("*")
    assert report.checks[0].status == "error"
    assert "ZeroDivisionError" in report.checks[0].detail
    assert math.isnan(report.checks[0].lhs)
    # errored checks serialize as strictly valid JSON (no bare NaN tokens)
    text = json.dumps(report.to_dict(), allow_nan=False)
    assert json.loads(text)["checks"][0]["lhs"] is None


# ---------------------------------------------------------------------------
# report emission
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def small_report():
    return harness.run_registry("coeffs.beta_forms.*", max_n=8)


def test_json_roundtrip(small_report, tmp_path):
    path = tmp_path / "report.json"
    harness.emit_report(small_report, "json", str(path))
    parsed = json.loads(path.read_text())
    assert parsed == small_report.to_dict()
    assert parsed["summary"]["total"] == len(parsed["checks"])
    assert parsed["version"]


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
    assert "zeta(3)" in c.detail and "eta(1)*eta(2)" in c.detail


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
