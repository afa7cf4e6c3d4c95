"""One benchmark run in a fresh interpreter; ``run.py`` starts it.

    python3 worker.py --workload W --src SRC --out FILE [--cold-only]
                      [--seconds S] [--trace 0|1] [--calls FILE] [--report FILE]

Times the set-up (``import neumann_sici``, plus ``harness.build_registry()``
on the registry workloads), then one cold pass, then (unless ``--cold-only``)
warm passes until ``--seconds`` have passed since the cold pass began.  With ``--trace 1`` the
second half of that window runs with the span tracer installed.  Writes raw
timings, per-pass outputs and the trace aggregate to ``--out`` as JSON; the
correctness gate and the metrics are computed by ``run.py``.

The speed of a shared 2-core machine drifts by up to 1.6x within seconds,
and pure-Python code slows with it.  ``SpeedMeter`` therefore times a fixed
pure-Python probe between passes and, on the registry workloads, about every
0.2 s inside a pass (between checks, outside their timing).  Each pass
records its ``slowdown`` against the probe time ``PROBE_REF_S``; dividing a
time by it gives the time at the reference speed.  Probe time inside a pass
is subtracted from the pass's wall and CPU time.
"""

from __future__ import annotations

import argparse
import bisect
import json
import math
import os
import resource
import statistics
import sys
import threading
import time
from collections import Counter

REGISTRY_DECKS = {
    # workload -> CLI flags before --format
    "registry_serial": ["--jobs", "1"],
    "registry_exact": ["--jobs", "1", "--check", "coeffs.*"],
}

PROBE_REF_S = 2.5e-4    # one probe at the reference speed (fast phase of a 2-core Xeon VM)
PROBE_EVERY_S = 0.2     # in-pass probe interval on the registry workloads
HIST_STEP = 1.01        # latency histogram bin ratio


def probe() -> float:
    """Time of a fixed float loop, the same kind of work as the kernels."""
    start = time.perf_counter()
    total = 0.0
    for k in range(1, 2000):
        x = k * 1e-3
        total += math.sin(x) * x / (1.0 + x * x)
    return time.perf_counter() - start


class SpeedMeter:
    """Probe marks around and inside passes; a pass's slowdown is read between them."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._marks: list[tuple] = []  # (wall0, cpu0, wall1, cpu1, probe_s) per probe
        self._next = 0.0

    def _mark(self, wall0: float, cpu0: float, probe_s: float) -> None:
        with self._lock:
            self._marks.append((wall0, cpu0, time.perf_counter(), time.process_time(), probe_s))

    def between(self) -> None:
        """A burst of probes between passes, where nothing else runs."""
        wall0, cpu0 = time.perf_counter(), time.process_time()
        self._mark(wall0, cpu0, statistics.median(probe() for _ in range(15)))

    def inside(self) -> None:
        """A short probe (median of 3) inside a pass, at most every PROBE_EVERY_S."""
        wall0 = time.perf_counter()
        if wall0 < self._next:
            return
        self._next = wall0 + PROBE_EVERY_S
        self._mark(wall0, time.process_time(), statistics.median(probe() for _ in range(3)))

    def close_pass(self, record: dict) -> list[tuple[float, float]]:
        """Set the pass's slowdown and take probe time out of its wall and CPU time.

        Each stretch between two probes runs at the mean of their speeds; the
        pass's slowdown is its raw time over the sum of stretches at the
        reference speed.  Returns (stretch start, slowdown) per stretch.  The
        closing probe also opens the next pass.
        """
        with self._lock:
            marks = sorted(self._marks)
            self._marks = [marks[-1]]
            self._next = time.perf_counter() + PROBE_EVERY_S
        raw = at_ref = 0.0
        stretches = []
        for (_, _, end, _, p0), (begin, _, _, _, p1) in zip(marks, marks[1:]):
            slowdown = 0.5 * (p0 + p1) / PROBE_REF_S
            stretches.append((end, slowdown))
            raw += begin - end
            at_ref += (begin - end) / slowdown
        inner = marks[1:-1]
        record["wall_s"] -= sum(m[2] - m[0] for m in inner)
        record["cpu_s"] -= sum(m[3] - m[1] for m in inner)
        record["slowdown"] = raw / at_ref
        return stretches


class LatencyHistogram:
    """Per-operation latencies at the reference speed, in log-spaced bins."""

    def __init__(self) -> None:
        self.bins: Counter[int] = Counter()

    def add(self, latencies: list[tuple[int, int]], stretches: list[tuple[float, float]]) -> None:
        """Add (start ns, duration ns) pairs, each at the slowdown of its stretch."""
        log_step = math.log(HIST_STEP)
        begins = [1e9 * begin for begin, _ in stretches]
        for start, ns in latencies:
            slowdown = stretches[max(bisect.bisect_right(begins, start) - 1, 0)][1]
            self.bins[int(math.log(max(ns / slowdown, 1.0)) / log_step)] += 1

    def quantile(self, q: float) -> float:
        """Quantile ``q`` in µs, smoothed over neighbouring ranks.

        The geometric mean of the latencies ranked within ``q ± h``, where
        ``h = min(0.25, (1 - q) / 2)``: for the median, the middle half.  Near
        the registry's median, latency rises ~8% per 1% of rank, and a single
        order statistic varied by 20% between runs.
        """
        total = sum(self.bins.values())
        h = min(0.25, 0.5 * (1.0 - q))
        lo, hi = (q - h) * total, (q + h) * total
        seen = 0
        weight = log_sum = 0.0
        for idx in sorted(self.bins):
            count = self.bins[idx]
            overlap = min(seen + count, hi) - max(seen, lo)
            if overlap > 0:
                weight += overlap
                log_sum += overlap * (idx + 0.5)
            seen += count
        return HIST_STEP ** (log_sum / weight) / 1000.0


def _setup(workload: str, src: str) -> float:
    start = time.perf_counter()
    import neumann_sici
    if workload in REGISTRY_DECKS:
        neumann_sici.harness.build_registry()
    elapsed = time.perf_counter() - start
    expected = os.path.join(os.path.abspath(src), "neumann_sici", "__init__.py")
    if os.path.abspath(neumann_sici.__file__) != expected:
        raise SystemExit(f"imported {neumann_sici.__file__}, expected {expected}")
    return elapsed


class RegistryPasses:
    """``cli.main`` on a fixed deck; one pass is one CLI call."""

    def __init__(self, workload: str, report: str, meter: SpeedMeter):
        import neumann_sici.cli
        from neumann_sici import harness

        self.cli = neumann_sici.cli
        self.argv = REGISTRY_DECKS[workload] + ["--format", "json", "--out", report]
        self.report = report
        self._lat: list[tuple[int, int]] = []
        run_check = harness._run_check

        def timed_check(*args):
            meter.inside()
            # per-check latency, as the check experiences it (GIL waits included)
            start = time.perf_counter_ns()
            try:
                return run_check(*args)
            finally:
                self._lat.append((start, time.perf_counter_ns() - start))

        harness._run_check = timed_check

    def run(self) -> dict:
        if os.path.exists(self.report):
            os.remove(self.report)
        self._lat = []
        wall0, cpu0 = time.perf_counter(), time.process_time()
        rc = self.cli.main(self.argv)
        wall, cpu = time.perf_counter() - wall0, time.process_time() - cpu0
        with open(self.report, encoding="utf-8") as fh:
            checks = json.load(fh)["checks"]
        ratios = [
            (c["abs_diff"] / c["tolerance"] if c["tolerance"] > 0 else 0.0)
            if c["status"] == "pass" else math.inf
            for c in checks
        ]
        estimated = [c for c in checks if c["lhs_err"] + c["rhs_err"] > 0]
        return {
            "wall_s": wall,
            "cpu_s": cpu,
            "latencies_ns": self._lat,
            "rc": rc,
            "checks": len(checks),
            "passed": sum(c["status"] == "pass" for c in checks),
            "failed_ids": [c["id"] for c in checks if c["status"] != "pass"][:20],
            "max_err_ratio": max(ratios, default=0.0),
            "busy_s": sum(c["runtime_ms"] for c in checks) / 1000.0,
            "slowest_s": max((c["runtime_ms"] for c in checks), default=0) / 1000.0,
            "err_est_checks": len(estimated),
            "err_est_held": sum(
                c["lhs_err"] + c["rhs_err"] >= c["abs_diff"] for c in estimated
            ),
        }


class LibraryPasses:
    """The seeded scalar call list; one pass is the whole list."""

    def __init__(self, calls_path: str):
        with open(calls_path, encoding="utf-8") as fh:
            spec = json.load(fh)
        self.kernels = spec["kernels"]  # kernel -> [module, function]
        self.calls = spec["calls"]      # [kernel, band, args]
        self.bands: dict[str, list[int]] = {}
        for i, (kernel, band, _args) in enumerate(self.calls):
            self.bands.setdefault(f"{kernel}.{band}", []).append(i)
        self.first: list | None = None
        self.stable = True

    def run(self) -> dict:
        import neumann_sici

        # resolve at pass start, so an installed tracer's wrappers are called
        fns = {k: getattr(getattr(neumann_sici, m), f) for k, (m, f) in self.kernels.items()}
        calls = [(fns[kernel], args) for kernel, _band, args in self.calls]
        values, lat, errors = [], [], {}
        clock = time.perf_counter_ns
        wall0, cpu0 = time.perf_counter(), time.process_time()
        for i, (fn, args) in enumerate(calls):
            start = clock()
            try:
                value = fn(*args)
            except Exception as exc:  # a raising call is a failed operation
                value = None
                errors[i] = f"{type(exc).__name__}: {exc}"
            lat.append((start, clock() - start))
            values.append(value)
        wall, cpu = time.perf_counter() - wall0, time.process_time() - cpu0
        values = [getattr(v, "value", v) for v in values]  # SeriesEval -> float
        if self.first is None:
            self.first = values
        elif values != self.first:
            self.stable = False
        band_ns = {key: sum(lat[i][1] for i in idx) / len(idx) for key, idx in self.bands.items()}
        return {"wall_s": wall, "cpu_s": cpu, "latencies_ns": lat, "errors": errors,
                "band_ns": band_ns}


def main() -> int:
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True)
    p.add_argument("--src", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--cold-only", action="store_true")
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--calls")
    p.add_argument("--report")
    args = p.parse_args()

    sys.path.insert(0, os.path.abspath(args.src))
    meter = SpeedMeter()
    meter.between()
    setup = {"wall_s": _setup(args.workload, args.src), "cpu_s": 0.0}
    meter.between()
    meter.close_pass(setup)
    result: dict = {"setup_s": setup["wall_s"], "setup_slowdown": setup["slowdown"]}

    if args.workload in REGISTRY_DECKS:
        passes = RegistryPasses(args.workload, args.report, meter)
    else:
        passes = LibraryPasses(args.calls)
    histogram = LatencyHistogram()

    def timed_pass(warm: bool) -> dict:
        record = passes.run()
        meter.between()
        stretches = meter.close_pass(record)
        latencies = record.pop("latencies_ns")
        if warm:
            histogram.add(latencies, stretches)
        return record

    start = time.perf_counter()
    result["cold"] = timed_pass(False)
    if args.cold_only:
        return _finish(result, passes, args.out)
    untraced_until = start + (0.5 * args.seconds if args.trace else args.seconds)
    warm = [timed_pass(True)]
    while time.perf_counter() < untraced_until:
        warm.append(timed_pass(True))
    result["warm"] = warm
    result["latency"] = {"op_p50_us": histogram.quantile(0.5),
                         "op_p99_us": histogram.quantile(0.99),
                         "samples": sum(histogram.bins.values())}

    if args.trace:
        sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
        traced = [timed_pass(False)]
        while time.perf_counter() < start + args.seconds:
            traced.append(timed_pass(False))
        by_name, counters = tracer.totals()
        result["traced"] = traced
        result["trace"] = {"by_name": by_name, "counters": counters,
                           "edges": tracer.edges(), "patched": tracer.patched}

    return _finish(result, passes, args.out)


def _finish(result: dict, passes, out: str) -> int:
    if isinstance(passes, LibraryPasses):
        result["outputs"] = passes.first
        result["outputs_stable"] = passes.stable
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    with open(out, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
