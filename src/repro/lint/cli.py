"""Command-line front-end: ``python -m repro.lint`` / ``repro lint``.

Exit codes: 0 = clean (no new findings), 1 = new findings (or parse
errors), 2 = usage error.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import List, Optional, TextIO

from .engine import lint_paths
from .rules import RULES

__all__ = ["main", "build_parser", "run"]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro.lint",
        description="Determinism & purity static analysis for the repro "
        "codebase (rules REP001-REP011; see docs/static-analysis.md).",
    )
    parser.add_argument(
        "paths", nargs="*", default=["src"],
        help="files or directories to scan (default: src)",
    )
    parser.add_argument(
        "--format", choices=("text", "json"), default="text",
        help="diagnostic output format (default: text)",
    )
    parser.add_argument(
        "--select", default=None, metavar="CODES",
        help="comma-separated rule codes to run (default: all)",
    )
    parser.add_argument(
        "--list-rules", action="store_true",
        help="print every rule code and summary, then exit",
    )
    parser.add_argument(
        "--quiet", action="store_true",
        help="suppress the summary line (diagnostics only)",
    )
    return parser


def _print_rules(out: TextIO) -> None:
    for rule in RULES:
        out.write("%s %-24s %s\n" % (rule.code, rule.name, rule.summary))


def run(args: argparse.Namespace, out: TextIO, err: TextIO) -> int:
    if args.list_rules:
        _print_rules(out)
        return 0

    codes = None
    if args.select:
        codes = [code.strip().upper() for code in args.select.split(",") if code.strip()]

    try:
        report = lint_paths(args.paths, codes=codes)
    except ValueError as exc:  # unknown --select code
        err.write("repro.lint: %s\n" % exc)
        return 2

    if args.format == "json":
        payload = {
            "new": [finding.to_dict() for finding in report.new],
            "suppressed": [finding.to_dict() for finding in report.suppressed],
            "files_scanned": len(report.files),
            "ok": report.ok,
        }
        out.write(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    else:
        for finding in report.new:
            out.write(finding.format() + "\n")
        if not args.quiet:
            err.write("repro.lint: %s\n" % report.summary())
    return 0 if report.ok else 1


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    for path in args.paths:
        if not Path(path).exists():
            parser.error("path does not exist: %s" % path)
    return run(args, sys.stdout, sys.stderr)
