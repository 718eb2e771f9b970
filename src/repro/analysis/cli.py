"""The ``monlint`` command line interface.

Usage::

    python -m repro.analysis src examples     # or: monlint src examples
    monlint --select W001,W004 src/repro/problems
    monlint --format json examples/quickstart.py

Exit status: 0 when clean, 1 when findings were reported, 2 on usage
errors.  Findings can be silenced per line with ``# monlint: disable=W00x``
or per file with ``# monlint: disable-file=W00x``.

``--format json`` emits one finding per line (JSON-lines: ``code``,
``path``, ``line``, ``message``, …) so CI pipelines and editors can
consume findings with a line-oriented reader.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Sequence

from repro.analysis import aot  # noqa: F401 — registers W013
from repro.analysis import liveness  # noqa: F401 — registers W010–W012
from repro.analysis.linter import lint_paths
from repro.analysis.rules import ALL_RULES

EXIT_CLEAN = 0
EXIT_FINDINGS = 1
EXIT_USAGE = 2


def _parse_codes(text: str | None) -> set[str] | None:
    if text is None:
        return None
    codes = {c.strip().upper() for c in text.split(",") if c.strip()}
    known = {rule.code for rule in ALL_RULES}
    unknown = codes - known
    if unknown:
        raise SystemExit(
            f"monlint: unknown rule code(s): {', '.join(sorted(unknown))} "
            f"(known: {', '.join(sorted(known))})"
        )
    return codes or None


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="monlint",
        description=(
            "Static monitor-usage lint for the repro framework: predicate "
            "closure (W001/W002), relay invariance (W003), lock ordering "
            "and deadlock cycles (W004), tagging hints (W005), "
            "signal-obligation liveness (W010-W012), opaque read "
            "sets (W013), and free-threaded atomicity (W014)."
        ),
    )
    parser.add_argument(
        "paths", nargs="*", help="python files or directories to lint"
    )
    parser.add_argument(
        "--select", metavar="CODES",
        help="comma-separated rule codes to run (default: all)",
    )
    parser.add_argument(
        "--disable", metavar="CODES",
        help="comma-separated rule codes to skip",
    )
    parser.add_argument(
        "--format", choices=("text", "json"), default="text",
        help="output format (default: text)",
    )
    parser.add_argument(
        "--list-rules", action="store_true",
        help="print the rule catalogue and exit",
    )
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)

    if args.list_rules:
        for rule in ALL_RULES:
            print(f"{rule.code}  {rule.severity!s:<8} {rule.name}")
        return EXIT_CLEAN

    if not args.paths:
        parser.print_usage(sys.stderr)
        print("monlint: error: no paths given", file=sys.stderr)
        return EXIT_USAGE

    try:
        select = _parse_codes(args.select)
        disable = _parse_codes(args.disable)
        findings = lint_paths(args.paths, select=select, disable=disable)
    except FileNotFoundError as exc:
        print(f"monlint: error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except SystemExit as exc:
        print(exc, file=sys.stderr)
        return EXIT_USAGE

    if args.format == "json":
        for finding in findings:
            print(json.dumps(finding.to_dict(), sort_keys=True))
    else:
        for finding in findings:
            print(finding.format())
        if findings:
            print(f"monlint: {len(findings)} finding(s)")
    return EXIT_FINDINGS if findings else EXIT_CLEAN


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
