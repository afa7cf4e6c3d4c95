"""Self-test of the benchmark's own logic; exits non-zero on the first failure.

    python3 perfbench/selftest.py

Checks that the correctness gate rejects wrong results (a perturbed mpmath
reference, a missing or failed registry check), that seeds change the inputs
but not the bands, that the tracer patches every name and splits self time
per thread, and that ``BENCHMARK.json`` and ``layer_map.json`` name exactly
the metrics ``run.py`` reports.
"""

from __future__ import annotations

import json
import sys
import threading
from collections import Counter
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import run  # noqa: E402
import scalar  # noqa: E402
from tracer import IMPORTED_NAMES, Tracer  # noqa: E402


def check(ok: bool, what: str) -> None:
    if not ok:
        raise SystemExit(f"selftest FAILED: {what}")
    print(f"ok  {what}")


def library_gate_catches_perturbed_reference() -> None:
    import neumann_sici

    calls = [c for c in scalar.make_calls(7) if c[0] != "clausen_odd"][:150]
    outputs = []
    for kernel, _band, args in calls:
        module, fn, _tol = scalar.KERNELS[kernel]
        value = getattr(getattr(neumann_sici, module), fn)(*args)
        outputs.append(getattr(value, "value", value))
    refs = [scalar.reference(kernel, args) for kernel, _band, args in calls]
    result = {"outputs": outputs, "warm": [{}], "cold": {"errors": {}}, "outputs_stable": True}
    attempted, failed, problems, _ = run.library_gate(calls, refs, result)
    check(attempted == 2 * len(calls) and failed == 0 and not problems,
          "library gate passes exact references")
    perturbed = [ref * (1 + 1e-9) if kernel == "bessel_j" else ref
                 for (kernel, _b, _a), ref in zip(calls, refs)]
    attempted, failed, problems, _ = run.library_gate(calls, perturbed, result)
    check(failed > 0 and problems, f"perturbed bessel_j reference raises fail_frac "
                                   f"to {failed / attempted:.3f}")
    raising = dict(result, cold={"errors": {"0": "ValueError: x"}}, outputs=[None] + outputs[1:])
    _, failed, problems, _ = run.library_gate(calls, refs, raising)
    check(failed > 0 and problems, "a raising call fails")


def registry_gate_catches_bad_reports() -> None:
    good = {"rc": 0, "checks": 586, "passed": 586, "failed_ids": []}
    check(run.registry_gate([good, good], 586) == (1172, 0, []), "registry gate passes a clean deck")
    short = dict(good, checks=585, passed=585)
    _, failed, problems = run.registry_gate([good, short], 586)
    check(failed == 1 and problems, "a missing check fails the pass")
    bad = dict(good, rc=1, passed=585, failed_ids=["x"])
    _, failed, problems = run.registry_gate([bad], 586)
    check(failed == 1 and problems, "a failed check fails the pass")


def seeds_vary_inputs_not_bands() -> None:
    a, b = scalar.make_calls(1), scalar.make_calls(2)
    check([c[2] for c in a] != [c[2] for c in b], "different seeds give different inputs")
    bands = lambda calls: Counter((k, band) for k, band, _ in calls)  # noqa: E731
    check(bands(a) == bands(b), "different seeds cover the same bands with the same counts")
    check(all(scalar.in_band(*c) for c in a + b), "every seeded input lies in its band")
    check(scalar.make_calls(1) == a, "the same seed gives the same inputs")
    share = sum(n for k, _b, n, _g in scalar.BANDS if k == "clausen_odd") / len(a)
    check(share > 0.01, f"clausen_odd calls are {share:.3%} of a pass, above the p99 cut")


def tracer_patches_and_splits_threads() -> None:
    import neumann_sici
    from neumann_sici import eulersum, neumann, specfun

    tracer = Tracer()
    tracer.install()
    check({f"{m}.{a}" for m, a in IMPORTED_NAMES} <= set(tracer.patched),
          "tracer patches the directly imported names")
    check(neumann.bessel_j_all is specfun.bessel_j_all and eulersum.zeta is specfun.zeta,
          "an imported name shares the original's wrapper")

    def work():
        for _ in range(50):
            specfun.bessel_y(0, 5.0)  # calls bessel_j(0, x) inside

    threads = [threading.Thread(target=work) for _ in range(2)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=60)
    check(not any(t.is_alive() for t in threads), "traced threads finish")
    by_name, _ = tracer.totals()
    y, j = by_name["specfun.bessel_y"], by_name["specfun.bessel_j"]
    check(y["calls"] == 100 and j["calls"] == 100, "calls are counted in every thread")
    check(abs(y["total_s"] - y["self_s"] - j["total_s"]) < 1e-3 * y["total_s"] + 1e-9,
          "bessel_y self time excludes its bessel_j child")
    parents = {(e["name"], e["parent"]) for e in tracer.edges()}
    check(("specfun.bessel_j", "specfun.bessel_y") in parents
          and ("specfun.bessel_y", None) in parents,
          "spans nest per thread, not across threads")
    neumann_sici.quad.lemma1_integral(3)
    _, counters = tracer.totals()
    check(counters.get("quad.gk_panels", 0) > 0, "integrate_finite results feed quad.gk_panels")


def benchmark_json_matches_run() -> None:
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    check({m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END,
          "BENCHMARK.json end_to_end matches run.py")
    per_layer = run.per_layer_units()
    check({m["name"]: m["unit"] for m in spec["per_layer"]} == per_layer,
          f"BENCHMARK.json per_layer matches run.py ({len(per_layer)} metrics)")
    check([w["name"] for w in spec["workloads"]] == list(run.WORKLOADS),
          "BENCHMARK.json workloads match run.py")
    layer_map = json.loads((HERE / "layer_map.json").read_text())["metrics"]
    check(set(layer_map) == set(per_layer), "layer_map.json covers every per-layer metric")
    pairs = [pair.split("@") for entry in layer_map.values()
             for pair in entry["moves"] + entry.get("holds", [])]
    check(all(metric in run.END_TO_END and workload in run.WORKLOADS for metric, workload in pairs),
          "layer_map.json names only real end-to-end metrics and workloads")


def main() -> int:
    library_gate_catches_perturbed_reference()
    registry_gate_catches_bad_reports()
    seeds_vary_inputs_not_bands()
    benchmark_json_matches_run()
    tracer_patches_and_splits_threads()  # last: it leaves the package patched
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
