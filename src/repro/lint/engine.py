"""Scanning engine: file discovery, parsing, noqa, rule dispatch.

The engine walks the given paths for ``*.py`` files, parses each once,
runs every (selected) rule over the parse trees, and splits the
findings into those a ``# repro: noqa`` directive suppresses and the
*new* ones that fail the build.
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, FrozenSet, Iterable, List, Optional, Sequence

from .findings import Finding
from .rules import PARSE_ERROR_CODE, FileRule, ProjectRule, select_rules

__all__ = ["SourceFile", "LintReport", "lint_paths", "lint_sources"]

#: ``# repro: noqa`` / ``# repro: noqa REP001,REP004 -- reason`` on the
#: flagged line suppresses findings (all codes when none are listed).
_NOQA_RE = re.compile(
    r"#\s*repro:\s*noqa\b(?P<codes>[\sA-Z0-9,:]*)", re.IGNORECASE
)
_CODE_RE = re.compile(r"REP\d{3}", re.IGNORECASE)

#: Suppress-everything marker used in the per-line noqa map.
_ALL_CODES: FrozenSet[str] = frozenset({"*"})


def _parse_noqa(lines: Sequence[str]) -> Dict[int, FrozenSet[str]]:
    """Map 1-based line number -> set of suppressed codes (``{"*"}`` = all)."""
    directives: Dict[int, FrozenSet[str]] = {}
    for lineno, text in enumerate(lines, start=1):
        if "noqa" not in text:
            continue
        match = _NOQA_RE.search(text)
        if match is None:
            continue
        codes = frozenset(code.upper() for code in _CODE_RE.findall(match.group("codes")))
        directives[lineno] = codes or _ALL_CODES
    return directives


def _package_path(path: Path) -> str:
    """*path* rebased to start at the ``repro`` package when possible.

    ``src/repro/sim/engine.py`` and ``/tmp/x/repro/sim/engine.py`` both
    normalise to ``repro/sim/engine.py``, so path-scoped rules are
    independent of the scan root.  Paths with no ``repro`` segment are
    returned relative as-is (posix separators).
    """
    parts = path.parts
    for index, part in enumerate(parts):
        if part == "repro":
            return "/".join(parts[index:])
    return path.as_posix()


class SourceFile:
    """One parsed Python file plus everything rules need to know."""

    __slots__ = (
        "display_path",
        "package_path",
        "source",
        "lines",
        "tree",
        "noqa",
        "parse_error",
    )

    def __init__(self, path: Path, source: str) -> None:
        #: Path as discovered -- what diagnostics print.
        self.display_path = path.as_posix()
        #: Path rebased at the ``repro`` package -- what rules use.
        self.package_path = _package_path(path)
        self.source = source
        self.lines: List[str] = source.splitlines()
        self.noqa = _parse_noqa(self.lines)
        self.parse_error: Optional[SyntaxError] = None
        try:
            self.tree: ast.AST = ast.parse(source, filename=self.display_path)
        except SyntaxError as exc:
            self.parse_error = exc
            self.tree = ast.Module(body=[], type_ignores=[])

    # ------------------------------------------------------------------
    def line_text(self, lineno: int) -> str:
        """Stripped source text of 1-based *lineno* (empty if out of range)."""
        if 1 <= lineno <= len(self.lines):
            return self.lines[lineno - 1].strip()
        return ""

    def in_package(self, *areas: str) -> bool:
        """``True`` if the file lives under ``repro/<area>/`` for any *area*."""
        for area in areas:
            if self.package_path.startswith("repro/" + area + "/"):
                return True
        return False

    @property
    def module_name(self) -> Optional[str]:
        """Dotted module name when the file sits in a ``repro`` tree."""
        if not self.package_path.startswith("repro/"):
            return None
        parts = self.package_path.split("/")
        if parts[-1] == "__init__.py":
            parts = parts[:-1]
        else:
            parts[-1] = parts[-1][:-3]  # strip .py
        return ".".join(parts)

    def suppresses(self, finding: Finding) -> bool:
        """``True`` if a noqa directive on the finding's line covers it."""
        codes = self.noqa.get(finding.line)
        if codes is None:
            return False
        return codes is _ALL_CODES or "*" in codes or finding.code in codes


@dataclass
class LintReport:
    """Outcome of one lint run."""

    files: List[SourceFile] = field(default_factory=list)
    #: Findings no ``# repro: noqa`` directive suppresses.
    new: List[Finding] = field(default_factory=list)
    #: Findings silenced by a ``# repro: noqa`` directive.
    suppressed: List[Finding] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        """``True`` when the run should exit 0 (no new findings)."""
        return not self.new

    def summary(self) -> str:
        return "%d file(s) scanned: %d new finding(s), %d noqa-suppressed" % (
            len(self.files), len(self.new), len(self.suppressed)
        )


def _discover(paths: Iterable[Path]) -> List[Path]:
    """All ``*.py`` files under *paths* (files pass through), sorted."""
    found: List[Path] = []
    for path in paths:
        if path.is_dir():
            found.extend(
                candidate
                for candidate in sorted(path.rglob("*.py"))
                if "__pycache__" not in candidate.parts
            )
        elif path.suffix == ".py":
            found.append(path)
    return found


def lint_sources(
    files: Sequence[SourceFile], codes: Optional[Iterable[str]] = None
) -> LintReport:
    """Run the (selected) rules over already-parsed *files*."""
    rules = select_rules(codes)
    report = LintReport(files=list(files))
    by_path: Dict[str, SourceFile] = {file.display_path: file for file in files}

    raw: List[Finding] = []
    for file in files:
        if file.parse_error is not None:
            exc = file.parse_error
            raw.append(
                Finding(
                    code=PARSE_ERROR_CODE,
                    path=file.display_path,
                    package_path=file.package_path,
                    line=exc.lineno or 1,
                    col=(exc.offset or 1) - 1,
                    message="syntax error: %s" % exc.msg,
                    text=file.line_text(exc.lineno or 1),
                )
            )
            continue
        for rule in rules:
            if isinstance(rule, FileRule):
                raw.extend(rule.check(file))
    for rule in rules:
        if isinstance(rule, ProjectRule):
            raw.extend(rule.check_project(files))

    raw.sort(key=Finding.sort_key)
    for finding in raw:
        owner = by_path.get(finding.path)
        if (
            finding.code != PARSE_ERROR_CODE
            and owner is not None
            and owner.suppresses(finding)
        ):
            report.suppressed.append(finding)
        else:
            report.new.append(finding)
    return report


def lint_paths(
    paths: Iterable[object], codes: Optional[Iterable[str]] = None
) -> LintReport:
    """Discover, parse and lint every Python file under *paths*."""
    files = []
    for path in _discover([Path(str(p)) for p in paths]):
        files.append(SourceFile(path, path.read_text(encoding="utf-8")))
    return lint_sources(files, codes=codes)
