"""Command-line entry point for the identity-verification harness.

Exit status: 0 when every executed check passes, 1 when any check fails or
errors, 2 on usage or configuration problems.
"""

from __future__ import annotations

import argparse
import sys

from . import __version__, harness


def _parse_override(text: str) -> tuple[str, float]:
    # check ids themselves contain '=', so split at the last one
    ident, sep, value = text.rpartition("=")
    if not sep or not ident:
        raise harness.UsageError(f"--tol-override expects <id>=<value>, got {text!r}")
    try:
        return ident, float(value)
    except ValueError as exc:
        raise harness.UsageError(f"bad tolerance value in {text!r}") from exc


def _read_config(path: str) -> dict[str, list[str]]:
    """Flat ``key = value`` lines; later duplicate keys append (tol_override)."""
    values: dict[str, list[str]] = {}
    try:
        with open(path, encoding="utf-8") as fh:
            for lineno, raw in enumerate(fh, 1):
                line = raw.strip()
                if not line or line.startswith("#"):
                    continue
                key, sep, value = line.partition("=")
                if not sep:
                    raise harness.UsageError(
                        f"{path}:{lineno}: expected 'key = value', got {line!r}"
                    )
                values.setdefault(key.strip(), []).append(value.strip())
    except OSError as exc:
        raise harness.UsageError(f"cannot read config file {path}: {exc}") from exc
    return values


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="neumann-sici",
        description="Run the registered identity checks and emit a report.",
    )
    parser.add_argument("--check", metavar="GLOB", default=None,
                        help="id glob selecting checks to run (default '*')")
    parser.add_argument("--tol-override", metavar="ID=VAL", action="append", default=None,
                        help="override the tolerance of one check id (repeatable)")
    parser.add_argument("--format", choices=("text", "json", "csv"), default=None,
                        help="report format (default text)")
    parser.add_argument("--out", metavar="PATH", default=None,
                        help="report destination (default stdout)")
    parser.add_argument("--max-n", type=int, default=None, metavar="N",
                        help="cap the n ranges of indexed check families")
    parser.add_argument("--jobs", type=int, default=None, metavar="J",
                        help="accepted for compatibility; checks run serially in registry order")
    parser.add_argument("--config", metavar="PATH", default=None,
                        help="flat key=value config file; CLI flags win")
    parser.add_argument("--convergence-out", metavar="PATH", default=None,
                        help="also write the expansion convergence table CSV here")
    parser.add_argument("--a-grid", metavar="LIST", default=None,
                        help="comma-separated a values for the convergence table")
    parser.add_argument("--n-grid", metavar="LIST", default=None,
                        help="comma-separated truncation lengths for the table")
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    return parser


_DEFAULT_A_GRID = "0.5,1,2,5,10,20"
_DEFAULT_N_GRID = "2,5,10,15,20,30,40"


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse reports its own usage errors
        return 0 if not exc.code else 2
    try:
        config: dict[str, list[str]] = {}
        if args.config:
            config = _read_config(args.config)

        def pick(cli_value, key: str, default: str | None) -> str | None:
            if cli_value is not None:
                return str(cli_value)
            if key in config:
                return config[key][-1]
            return default

        check = pick(args.check, "check", "*")
        fmt = pick(args.format, "format", "text")
        if fmt not in ("text", "json", "csv"):
            raise harness.UsageError(f"bad format {fmt!r} in config")
        out = pick(args.out, "out", None)
        max_n_s = pick(args.max_n, "max_n", None)
        jobs_s = pick(args.jobs, "jobs", None)
        try:
            max_n = int(max_n_s) if max_n_s is not None else None
            if jobs_s is not None:
                int(jobs_s)  # validated, but has no effect
        except ValueError as exc:
            raise harness.UsageError(f"bad integer option: {exc}") from exc
        override_texts = list(config.get("tol_override", []))
        if args.tol_override is not None:
            override_texts = list(args.tol_override)  # CLI wins wholesale
        overrides = dict(_parse_override(t) for t in override_texts)

        convergence_out = pick(args.convergence_out, "convergence_out", None)
        if convergence_out is not None:
            a_grid_s = pick(args.a_grid, "a_grid", _DEFAULT_A_GRID)
            n_grid_s = pick(args.n_grid, "n_grid", _DEFAULT_N_GRID)
            try:
                a_grid = [float(v) for v in a_grid_s.split(",") if v.strip()]
                n_grid = [int(v) for v in n_grid_s.split(",") if v.strip()]
            except ValueError as exc:
                raise harness.UsageError(f"bad grid value: {exc}") from exc
            harness.emit_convergence_tables(a_grid, n_grid, convergence_out)

        report = harness.run_registry(check, overrides, max_n=max_n)
        harness.emit_report(report, fmt, out)
    except harness.UsageError as exc:
        print(f"neumann-sici: error: {exc}", file=sys.stderr)
        return 2
    summary = report.summary
    return 0 if summary["fail"] == 0 and summary["error"] == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
