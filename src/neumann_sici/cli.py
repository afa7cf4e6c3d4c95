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
        raise argparse.ArgumentTypeError(f"expected <id>=<value>, got {text!r}")
    try:
        return ident, float(value)
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad tolerance value in {text!r}") from None


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
    except (OSError, UnicodeDecodeError) as exc:
        raise harness.UsageError(f"cannot read config file {path}: {exc}") from exc
    return values


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="neumann-sici",
        description="Run the registered identity checks and emit a report.",
    )
    parser.add_argument("--check", metavar="GLOB", default="*",
                        help="id glob selecting checks to run (default '*')")
    parser.add_argument("--tol-override", metavar="ID=VAL", action="append",
                        type=_parse_override,
                        help="override the tolerance of one check id (repeatable)")
    parser.add_argument("--format", choices=("text", "json", "csv"), default="text",
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
    parser.add_argument("--a-grid", metavar="LIST", default="0.5,1,2,5,10,20",
                        help="comma-separated a values for the convergence table")
    parser.add_argument("--n-grid", metavar="LIST", default="2,5,10,15,20,30,40",
                        help="comma-separated truncation lengths for the table")
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    return parser


def _config_flags(args: argparse.Namespace) -> list[str]:
    # each line of the --config file as its flag, ``key = value`` as
    # ``--key=value``; a command-line --tol-override drops the file's list
    config = _read_config(args.config)
    unknown = sorted(set(config) - (set(vars(args)) - {"config"}))
    if unknown:
        raise harness.UsageError(f"unknown config keys in {args.config}: {unknown}")
    if args.tol_override is not None:
        config.pop("tol_override", None)
    return [f"--{key.replace('_', '-')}={value}"
            for key, values in config.items() for value in values]


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    argv = sys.argv[1:] if argv is None else list(argv)
    try:
        try:
            args = parser.parse_args(argv)
            if args.config:  # the file's flags go first, so the command line's win
                args = parser.parse_args(_config_flags(args) + argv)
        except SystemExit as exc:  # argparse reports its own usage errors
            return 0 if not exc.code else 2
        if args.convergence_out is not None:
            try:  # convergence_table rejects a value outside the expansion's domain
                a_grid = [float(v) for v in args.a_grid.split(",") if v.strip()]
                n_grid = [int(v) for v in args.n_grid.split(",") if v.strip()]
                harness.emit_convergence_tables(a_grid, n_grid, args.convergence_out)
            except harness.UsageError:  # an unwritable path
                raise
            except ValueError as exc:
                raise harness.UsageError(f"bad grid value: {exc}") from exc
        report = harness.run_registry(args.check, dict(args.tol_override or ()), max_n=args.max_n)
        harness.emit_report(report, args.format, args.out)
    except harness.UsageError as exc:
        print(f"neumann-sici: error: {exc}", file=sys.stderr)
        return 2
    summary = report.summary
    return 0 if summary["fail"] == 0 and summary["error"] == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
