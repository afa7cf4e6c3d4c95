"""Benchmark of neumann-sici: one command for every workload and metric.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

Run it from anywhere; it benchmarks the package under ``src/`` next to this
directory and needs nothing built.  Each run is a closed loop with one
caller: a fresh interpreter (``worker.py``) runs one pass after another, each
issued when the previous one completes, in a single thread.

Workloads:

* ``registry_serial``   ``neumann-sici --jobs 1 --format json`` (586 checks)
* ``registry_exact``    ``neumann-sici --jobs 1 --check 'coeffs.*'`` (402
  exact rational checks)
* ``library_scalar``    a seeded list of scalar kernel and expansion calls,
  drawn per branch band (``scalar.py``), each checked against mpmath

The registry runner's thread pool (``--jobs`` > 1) is not run: its wall time
waits on thread wake-ups, which on a shared 2-core host varied by 15-30%
between runs while CPU time held within 5%.

The registry decks are fixed, so the seed is unused there.  OpenBLAS is held
at one thread for every workload (``OPENBLAS_NUM_THREADS=1``): with its
default of one thread per core, a 10^5-element dot product in ``clausen_odd``
takes either 1 ms or 8 ms on a 2-core machine, which no run length averages
out.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics from a traced run with ``--trace 1``.
The lines above it show the same numbers as a table.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKER = HERE / "worker.py"

sys.path.insert(0, str(HERE))
import scalar  # noqa: E402

WORKLOADS = ("registry_serial", "registry_exact", "library_scalar")
REGISTRY_DECK_SIZE = {"registry_serial": 586, "registry_exact": 402}
# Extra fresh interpreters per run that time set-up and one cold pass, so that
# setup_s and first_pass_s are medians; a cold registry_serial pass takes ~4 s.
COLD_PROCESSES = {"registry_serial": 2, "registry_exact": 8, "library_scalar": 8}
RUN_BUDGET_S = 170.0      # every worker must have ended within this much of the start
ERR_FLOOR = 2.0 ** -52    # an exact or bit-identical result reads as one ulp ratio

END_TO_END = {
    "setup_s": "s",
    "first_pass_s": "s",
    "wall_s": "s",
    "ops_per_s": "1/s",
    "cpu_s": "s",
    "op_p50_us": "us",
    "op_p99_us": "us",
    "max_err_ratio": "ratio",
    "peak_rss_mb": "MB",
}

QUAD_OPS = (
    "lemma1_integral", "lemma3_integral", "si_transform_integral",
    "ci_transform_integral", "si_bessel_integral", "ci_bessel_integral",
    "j0_orthogonality_integral", "bessel_j1_over_t_integral", "example2_integral",
    "clausen_cot_integral", "corollary5_rhs", "corollary6_integral",
    "corollary6_intermediate_integral",
)
SPECFUN_FNS = ("bessel_j", "bessel_j_all", "bessel_y", "si", "ci",
               "gamma_log_minus_ci", "clausen_odd", "zeta", "eta")
COEFFS_FNS = ("alpha", "beta", "beta_variant", "harmonic", "alt_harmonic",
              "lemma1_closed", "alpha_factorial_form", "beta_factorial_form")
NEUMANN_FNS = ("si_neumann", "ci_neumann", "corollary5_series", "addition_theorem_check")
EULERSUM_GROUPS = {
    "closed_forms": ("euler_linear_sum", "nielsen_sum", "sitaramachandrarao_h",
                     "sitaramachandrarao_a", "corollary3_rhs", "corollary4_rhs",
                     "corollary6_rhs", "assembly_value"),
    "oracles": ("euler_sum_oracle", "nielsen_sum_oracle", "sitaramachandrarao_h_oracle",
                "sitaramachandrarao_a_oracle", "beta_weighted_sum",
                "beta_weighted_partial_sums", "catalan_alpha_sum", "catalan_auxiliary_sum"),
}
# library_scalar bands timed per call, as specfun.<kernel>.<band>_us
SPECFUN_BANDS = [(k, b) for k, b, _n, _g in scalar.BANDS if scalar.KERNELS[k][0] == "specfun"]
ERR_KERNELS = [k for k, (m, _f, _t) in scalar.KERNELS.items() if m == "specfun"]


def per_layer_units() -> dict[str, str]:
    """Every per-layer metric name with its unit, in report order."""
    units = {"cli.main.self_s": "s", "cli.emit_report_s": "s"}
    units.update({
        "harness.build_registry_s": "s", "harness.run_registry.self_s": "s",
        "harness.check_busy_s": "s", "harness.cpu_over_wall": "ratio",
        "harness.slowest_check_s": "s", "harness.checks_failed": "count",
    })
    for op in QUAD_OPS:
        units[f"quad.{op}.calls"] = "count"
        units[f"quad.{op}.total_s"] = "s"
    units.update({
        "quad.integrate_finite.calls": "count", "quad.integrate_finite.self_s": "s",
        "quad.gk_panels": "count", "quad.integrand_evals": "count", "quad.integrand_us": "us",
        "quad.oscillatory_semiinf.calls": "count", "quad.oscillatory_semiinf.self_s": "s",
        "quad.partitions": "count", "quad.quadrature_errors": "count",
        "quad.err_bound_held_frac": "ratio",
    })
    for fn in SPECFUN_FNS:
        units[f"specfun.{fn}.calls"] = "count"
        units[f"specfun.{fn}.self_s"] = "s"
    for kernel, band in SPECFUN_BANDS:
        units[_band_metric(kernel, band)] = "us"
    for kernel in ERR_KERNELS:
        units[f"specfun.{kernel}.max_err"] = "ratio"
    for fn in COEFFS_FNS:
        units[f"coeffs.{fn}.calls"] = "count"
        units[f"coeffs.{fn}.self_s"] = "s"
    for fn in NEUMANN_FNS:
        units[f"neumann.{fn}.calls"] = "count"
        units[f"neumann.{fn}.self_s"] = "s"
    units.update({"neumann.terms_used": "count", "neumann.unconverged": "count"})
    for group in (*EULERSUM_GROUPS, "alternating_series_limit"):
        units[f"eulersum.{group}.calls"] = "count"
        units[f"eulersum.{group}.self_s"] = "s"
    units.update({"trace.overhead_s": "s", "trace.traced_wall_s": "s"})
    return units


def _band_metric(kernel: str, band: str) -> str:
    return f"specfun.{kernel}_us" if band == "all" else f"specfun.{kernel}.{band}_us"


# ---------------------------------------------------------------------------
# Running the worker
# ---------------------------------------------------------------------------

def _worker_env() -> dict:
    env = dict(os.environ)
    env["OPENBLAS_NUM_THREADS"] = "1"
    env.pop("PYTHONPATH", None)  # the worker puts src/ first itself
    return env


def _run_worker(argv: list[str], out: Path, deadline: float) -> dict:
    cmd = [sys.executable, str(WORKER), "--src", str(SRC), "--out", str(out), *argv]
    proc = subprocess.run(cmd, env=_worker_env(), timeout=max(deadline - time.monotonic(), 1.0),
                          stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True)
    if proc.returncode != 0:
        raise RuntimeError(f"worker failed ({proc.returncode}): {proc.stderr.strip()[-2000:]}")
    with open(out, encoding="utf-8") as fh:
        return json.load(fh)


# ---------------------------------------------------------------------------
# Correctness gate and metrics
# ---------------------------------------------------------------------------

def registry_gate(passes: list[dict], expected: int) -> tuple[int, int, list[str]]:
    """(attempted, failed, problems) over registry passes.

    A pass succeeds only when the CLI exits 0 and its report lists exactly
    ``expected`` checks, all passed.  Missing checks count as failed.
    """
    attempted = failed = 0
    problems = []
    for i, p in enumerate(passes):
        attempted += expected
        failed += max(expected - p["passed"], 0)
        if p["rc"] != 0 or p["checks"] != expected or p["passed"] != p["checks"]:
            problems.append(
                f"pass {i}: exit {p['rc']}, {p['passed']}/{p['checks']} passed "
                f"(deck {expected}) {p['failed_ids']}"
            )
    return attempted, failed, problems


def library_gate(calls: list, refs: list[float], result: dict) -> tuple[int, int, list[str], dict]:
    """(attempted, failed, problems, max error ratio per kernel) for library_scalar.

    A call fails when it raises or misses its reference by more than its
    kernel's tolerance; every pass repeats the first pass's values exactly.
    """
    outputs = result["outputs"]
    n_passes = 1 + len(result["warm"]) + len(result.get("traced", []))
    failing, problems = [], []
    worst: dict[str, float] = {}
    scaled: dict[str, float] = {}
    for (kernel, band, args), value, ref in zip(calls, outputs, refs):
        ratio = scalar.error_ratio(kernel, value, ref)
        worst[kernel] = max(worst.get(kernel, 0.0), ratio)
        scaled[kernel] = max(scaled.get(kernel, 0.0), ratio * scalar.KERNELS[kernel][2])
        if not ratio <= 1.0:
            failing.append(f"{kernel}{tuple(args)} [{band}] = {value!r}, ref {ref!r}")
    errors = result["cold"]["errors"]
    if errors:
        problems.append(f"{len(errors)} calls raised, e.g. {next(iter(errors.values()))}")
    if failing:
        problems.append(f"{len(failing)} calls out of tolerance, e.g. {failing[0]}")
    if not result["outputs_stable"]:
        problems.append("values differ between passes")
    attempted = len(calls) * n_passes
    return attempted, len(failing) * n_passes, problems, {"ratio": worst, "scaled": scaled}


def _at_ref(record: dict, key: str) -> float:
    """A pass's time at the reference machine speed (see worker.probe)."""
    return record[key] / record["slowdown"]


def end_to_end(workload: str, result: dict, colds: list[dict], max_err: float) -> dict:
    """``colds`` are the cold-only processes plus the main one."""
    warm = result["warm"]
    wall = statistics.median(_at_ref(p, "wall_s") for p in warm)
    ops = REGISTRY_DECK_SIZE.get(workload) or len(result["outputs"])
    return {
        "setup_s": statistics.median(c["setup_s"] / c["setup_slowdown"] for c in colds),
        "first_pass_s": statistics.median(_at_ref(c["cold"], "wall_s") for c in colds),
        "wall_s": wall,
        "ops_per_s": ops / wall,
        "cpu_s": statistics.median(_at_ref(p, "cpu_s") for p in warm),
        "op_p50_us": result["latency"]["op_p50_us"],
        "op_p99_us": result["latency"]["op_p99_us"],
        "max_err_ratio": min(max(max_err, ERR_FLOOR), 1e300),  # inf: a check failed
        "peak_rss_mb": result["peak_rss_mb"],
    }


def per_layer(workload: str, result: dict, kernel_err: dict | None) -> dict:
    trace = result["trace"]
    traced = result["traced"]
    n = len(traced)
    slowdown = statistics.median(p["slowdown"] for p in traced)
    by_name = trace["by_name"]
    counters = trace["counters"]

    def span(name: str, key: str) -> float:
        """Per traced pass; times at the reference speed."""
        value = by_name.get(name, {}).get(key, 0) / n
        return value if key == "calls" else value / slowdown

    values: dict[str, float] = {
        "cli.main.self_s": span("cli.main", "self_s"),
        "cli.emit_report_s": span("harness.emit_report", "total_s"),
        "harness.build_registry_s": span("harness.build_registry", "total_s"),
        "harness.run_registry.self_s": span("harness.run_registry", "self_s"),
    }
    registry_wall = by_name.get("harness.run_registry", {}).get("total_s", 0.0)
    values["harness.cpu_over_wall"] = (
        counters.get("harness.run_registry.cpu_s", 0.0) / registry_wall if registry_wall else 0.0
    )
    warm = result["warm"]
    if workload in REGISTRY_DECK_SIZE:
        values["harness.check_busy_s"] = statistics.median(_at_ref(p, "busy_s") for p in warm)
        values["harness.slowest_check_s"] = statistics.median(_at_ref(p, "slowest_s") for p in warm)
        values["harness.checks_failed"] = max(p["checks"] - p["passed"] for p in warm)
        held = warm[0]["err_est_held"]
        total = warm[0]["err_est_checks"]
    else:
        values["harness.check_busy_s"] = 0.0
        values["harness.slowest_check_s"] = 0.0
        values["harness.checks_failed"] = 0
        held = total = 0
    for op in QUAD_OPS:
        values[f"quad.{op}.calls"] = span(f"quad.{op}", "calls")
        values[f"quad.{op}.total_s"] = span(f"quad.{op}", "total_s")
    evals = span("quad.integrand", "calls")
    values.update({
        "quad.integrate_finite.calls": span("quad.integrate_finite", "calls"),
        "quad.integrate_finite.self_s": span("quad.integrate_finite", "self_s"),
        "quad.gk_panels": counters.get("quad.gk_panels", 0) / n,
        "quad.integrand_evals": evals,
        "quad.integrand_us": 1e6 * span("quad.integrand", "total_s") / evals if evals else 0.0,
        "quad.oscillatory_semiinf.calls": span("quad.oscillatory_semiinf", "calls"),
        "quad.oscillatory_semiinf.self_s": span("quad.oscillatory_semiinf", "self_s"),
        "quad.partitions": counters.get("quad.partitions", 0) / n,
        "quad.quadrature_errors": counters.get("quad.quadrature_errors", 0) / n,
        # checks whose reported error estimate covers the actual deviation;
        # vacuously 1 where no check carries an estimate
        "quad.err_bound_held_frac": held / total if total else 1.0,
    })
    for fn in SPECFUN_FNS:
        values[f"specfun.{fn}.calls"] = span(f"specfun.{fn}", "calls")
        values[f"specfun.{fn}.self_s"] = span(f"specfun.{fn}", "self_s")
    for kernel, band in SPECFUN_BANDS:
        key = f"{kernel}.{band}"
        values[_band_metric(kernel, band)] = statistics.median(
            p["band_ns"][key] / p["slowdown"] for p in warm) / 1000.0 if "band_ns" in warm[0] else 0.0
    for kernel in ERR_KERNELS:
        values[f"specfun.{kernel}.max_err"] = kernel_err["scaled"][kernel] if kernel_err else 0.0
    for fn in COEFFS_FNS:
        values[f"coeffs.{fn}.calls"] = span(f"coeffs.{fn}", "calls")
        values[f"coeffs.{fn}.self_s"] = span(f"coeffs.{fn}", "self_s")
    for fn in NEUMANN_FNS:
        values[f"neumann.{fn}.calls"] = span(f"neumann.{fn}", "calls")
        values[f"neumann.{fn}.self_s"] = span(f"neumann.{fn}", "self_s")
    values["neumann.terms_used"] = counters.get("neumann.terms_used", 0) / n
    values["neumann.unconverged"] = counters.get("neumann.unconverged", 0) / n
    for group, fns in EULERSUM_GROUPS.items():
        values[f"eulersum.{group}.calls"] = sum(span(f"eulersum.{f}", "calls") for f in fns)
        values[f"eulersum.{group}.self_s"] = sum(span(f"eulersum.{f}", "self_s") for f in fns)
    values["eulersum.alternating_series_limit.calls"] = span(
        "eulersum.alternating_series_limit", "calls")
    values["eulersum.alternating_series_limit.self_s"] = span(
        "eulersum.alternating_series_limit", "self_s")
    traced_wall = statistics.median(_at_ref(p, "wall_s") for p in traced)
    values["trace.traced_wall_s"] = traced_wall
    values["trace.overhead_s"] = traced_wall - statistics.median(_at_ref(p, "wall_s") for p in warm)
    return values


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------

def run(workload: str, seed: int, seconds: float, trace: int) -> dict:
    """One benchmark run; returns the result object printed as the last line."""
    deadline = time.monotonic() + RUN_BUDGET_S
    if not (SRC / "neumann_sici" / "__init__.py").is_file():
        raise FileNotFoundError(f"no package source under {SRC}")
    with tempfile.TemporaryDirectory(dir=ROOT, prefix=".perfbench-") as tmp:
        tmp = Path(tmp)
        argv = ["--workload", workload, "--seconds", str(seconds), "--trace", str(trace)]
        calls = refs = None
        if workload == "library_scalar":
            calls = scalar.make_calls(seed)
            refs = [scalar.reference(kernel, args) for kernel, _band, args in calls]
            kernels = {k: [m, f] for k, (m, f, _tol) in scalar.KERNELS.items()}
            with open(tmp / "calls.json", "w", encoding="utf-8") as fh:
                json.dump({"kernels": kernels, "calls": calls}, fh)
            argv += ["--calls", str(tmp / "calls.json")]
        else:
            argv += ["--report", str(tmp / "report.json")]
        colds = [
            _run_worker(argv + ["--cold-only"], tmp / f"cold{i}.json", deadline)
            for i in range(0 if trace else COLD_PROCESSES[workload])
        ]
        result = _run_worker(argv, tmp / "result.json", deadline)

    passes = [c["cold"] for c in colds] + [result["cold"], *result["warm"],
                                            *result.get("traced", [])]
    kernel_err = None
    if workload == "library_scalar":
        attempted, failed, problems, kernel_err = library_gate(calls, refs, result)
        attempted += len(calls) * len(colds)
        if any(c["outputs"] != result["outputs"] for c in colds):
            problems.append("values differ between processes")
        max_err = max(kernel_err["ratio"].values())
    else:
        expected = REGISTRY_DECK_SIZE[workload]
        attempted, failed, problems = registry_gate(passes, expected)
        max_err = max(p["max_err_ratio"] for p in passes)
    if trace:
        metrics = per_layer(workload, result, kernel_err)
        units = per_layer_units()
        dump = ROOT / ".perfbench-out" / f"trace-{workload}-seed{seed}.json"
        dump.parent.mkdir(exist_ok=True)
        with open(dump, "w", encoding="utf-8") as fh:
            json.dump({"edges": result["trace"]["edges"], "patched": result["trace"]["patched"],
                       "passes": len(result["traced"])}, fh, indent=1)
    else:
        metrics = end_to_end(workload, result, [*colds, result], max_err)
        units = END_TO_END
    if set(metrics) != set(units):
        raise RuntimeError(f"metric set mismatch: {sorted(set(metrics) ^ set(units))}")
    return {
        "correct": not problems and failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": float(metrics[name]), "unit": units[name]} for name in units},
        "notes": {
            "problems": problems,
            "passes": {"cold": 1 + len(colds), "warm": len(result["warm"]),
                       "traced": len(result.get("traced", []))},
            "slowdown": [round(p["slowdown"], 3) for p in passes],
            "raw_wall_s": [round(p["wall_s"], 4) for p in passes],
            "seed": seed if workload == "library_scalar" else "unused (fixed deck)",
        },
    }


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    try:
        out = run(args.workload, args.seed, args.seconds, args.trace)
    except (OSError, RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    notes = out.pop("notes")
    print(f"workload {args.workload}  seed {notes['seed']}  passes {notes['passes']}")
    print(f"  raw pass walls {notes['raw_wall_s']} s; machine slowdown against the"
          f" reference speed {notes['slowdown']}; times below are at the reference speed")
    for problem in notes["problems"]:
        print(f"  FAIL {problem}")
    for name, m in out["metrics"].items():
        print(f"  {name:<44} {m['value']:>14.6g} {m['unit']}")
    print(f"  correct={out['correct']} attempted={out['attempted']} failed={out['failed']}"
          f" fail_frac={out['failed'] / out['attempted']:.3g}")
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
