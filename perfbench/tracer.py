"""Span tracer for the package's public functions.

``Tracer.install`` replaces every public function of the seven package
modules with a wrapper that records a span around the call.  Names that a
module imported directly from another (``neumann.bessel_j_all``,
``eulersum.zeta``, ...) get the same wrapper as the original, so a call is
traced whichever name it was made through.  The callable handed to
``quad.integrate_finite`` is wrapped as ``quad.integrand``.

Spans are not stored one by one: a registry pass makes more than 300k
integrand calls.  Each thread aggregates its spans per (name, parent name)
into calls, total time and self time, where self time is the span's duration
minus the durations of its child spans.  Parent stacks are per thread, so
spans of concurrent registry workers do not nest into each other.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import threading
import time
from collections import defaultdict

MODULES = ("cli", "harness", "quad", "specfun", "coeffs", "neumann", "eulersum")

# Functions imported by name into another module; each must be traced there too.
IMPORTED_NAMES = (
    ("neumann", "bessel_j_all"),
    ("neumann", "si_kernel"),
    ("eulersum", "zeta"),
    ("eulersum", "eta"),
    ("eulersum", "alternating_series_limit"),
)


class Tracer:
    def __init__(self) -> None:
        self._local = threading.local()
        self._lock = threading.Lock()
        self._threads: list[tuple[dict, dict]] = []  # per-thread (spans, counters)
        self.patched: list[str] = []

    # -- per-thread state -----------------------------------------------------

    def _state(self):
        local = self._local
        try:
            return local.stack, local.spans, local.counters
        except AttributeError:
            local.stack = []
            local.spans = {}
            local.counters = defaultdict(float)
            local.last_error = None
            with self._lock:
                self._threads.append((local.spans, local.counters))
            return local.stack, local.spans, local.counters

    def count(self, name: str, amount: float = 1.0) -> None:
        self._state()[2][name] += amount

    # -- wrapping ---------------------------------------------------------------

    def wrap(self, name: str, fn, *, on_args=None, on_result=None, on_error=None,
             cpu: bool = False):
        perf = time.perf_counter
        clock = time.process_time
        state = self._state

        def traced(*args, **kwargs):
            stack, spans, counters = state()
            if on_args is not None:
                args = on_args(args)
            parent = stack[-1][0] if stack else None
            frame = [name, 0.0]
            stack.append(frame)
            cpu0 = clock() if cpu else 0.0
            start = perf()
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                if on_error is not None:
                    on_error(exc)
                raise
            finally:
                duration = perf() - start
                if cpu:
                    counters[name + ".cpu_s"] += clock() - cpu0
                stack.pop()
                if stack:
                    stack[-1][1] += duration
                entry = spans.get((name, parent))
                if entry is None:
                    spans[(name, parent)] = [1, duration, duration - frame[1]]
                else:
                    entry[0] += 1
                    entry[1] += duration
                    entry[2] += duration - frame[1]
            if on_result is not None:
                on_result(result)
            return result

        if inspect.isfunction(fn):
            traced = functools.wraps(fn)(traced)
        return traced

    def install(self, package: str = "neumann_sici") -> None:
        """Patch the public functions of every module in ``MODULES``."""
        modules = {m: importlib.import_module(f"{package}.{m}") for m in MODULES}
        quad = modules["quad"]
        hooks = self._hooks(quad)
        wrappers = {}  # original function -> wrapper
        for mod_name, module in modules.items():
            public = getattr(module, "__all__", None) or [
                attr for attr in vars(module) if not attr.startswith("_")
            ]  # cli has no __all__
            for attr in public:
                fn = getattr(module, attr)
                if inspect.isfunction(fn) and fn.__module__ == module.__name__:
                    name = f"{mod_name}.{attr}"
                    wrappers[fn] = self.wrap(name, fn, **hooks.get(name, {}))
        for mod_name, attr in IMPORTED_NAMES:
            fn = getattr(modules[mod_name], attr)
            if fn not in wrappers:  # defined outside the seven modules
                wrappers[fn] = self.wrap(f"{mod_name}.{attr}", fn)
        for mod_name, module in modules.items():
            for attr, value in list(vars(module).items()):
                if inspect.isfunction(value) and value in wrappers:
                    setattr(module, attr, wrappers[value])
                    self.patched.append(f"{mod_name}.{attr}")
        missing = {f"{m}.{a}" for m, a in IMPORTED_NAMES} - set(self.patched)
        if missing:
            raise RuntimeError(f"tracer could not patch {sorted(missing)}")

    def _hooks(self, quad) -> dict:
        """Per-function hooks that read counts from arguments and results."""
        local = self._local

        def integrand(args):
            return (self.wrap("quad.integrand", args[0]),) + tuple(args[1:])

        def quad_error(exc):
            # count each QuadratureError once, where it is first raised
            if isinstance(exc, quad.QuadratureError) and local.last_error is not exc:
                local.last_error = exc
                self.count("quad.quadrature_errors")

        def panels(result):
            self.count("quad.gk_panels", result.subdivisions)

        def partitions(result):
            self.count("quad.partitions", result.partitions_used)

        def series(result):
            self.count("neumann.terms_used", result.terms_used)
            self.count("neumann.unconverged", 0 if result.converged else 1)

        hooks = {f"quad.{attr}": {"on_error": quad_error} for attr in quad.__all__}
        hooks["quad.integrate_finite"].update(on_args=integrand, on_result=panels)
        hooks["quad.oscillatory_semiinf"]["on_result"] = partitions
        for name in ("neumann.si_neumann", "neumann.ci_neumann", "neumann.corollary5_series"):
            hooks[name] = {"on_result": series}
        hooks["harness.run_registry"] = {"cpu": True}
        return hooks

    # -- results ----------------------------------------------------------------

    def edges(self) -> list[dict]:
        """Per (name, parent) {calls, total_s, self_s}, summed over threads."""
        merged: dict[tuple, list] = {}
        with self._lock:
            threads = list(self._threads)
        for spans, _ in threads:
            for key, values in spans.items():
                entry = merged.setdefault(key, [0, 0.0, 0.0])
                for i, value in enumerate(values):
                    entry[i] += value
        return [
            {"name": name, "parent": parent, "calls": c, "total_s": t, "self_s": s}
            for (name, parent), (c, t, s) in sorted(merged.items(), key=lambda kv: -kv[1][1])
        ]

    def totals(self) -> tuple[dict, dict]:
        """(per-name {calls, total_s, self_s}, counters) summed over parents and threads."""
        by_name: dict[str, dict] = {}
        for edge in self.edges():
            agg = by_name.setdefault(edge["name"], {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            for key in agg:
                agg[key] += edge[key]
        counters: dict[str, float] = defaultdict(float)
        with self._lock:
            threads = list(self._threads)
        for _, thread_counters in threads:
            for key, value in thread_counters.items():
                counters[key] += value
        return by_name, dict(counters)
