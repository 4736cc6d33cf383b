"""Rule framework and registry.

Two kinds of rule:

- :class:`FileRule` -- checks one parsed file at a time (most rules);
- :class:`ProjectRule` -- sees every scanned file at once (REP003 needs
  the import graph to decide what is reachable from ``repro.obs``).

Rules self-describe (``code``, ``name``, ``summary``) so ``--list-rules``
and the docs stay in sync with the implementation.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterable, Iterator, List, Optional, Sequence

from .findings import Finding

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from .engine import SourceFile

__all__ = [
    "FileRule",
    "ProjectRule",
    "RULES",
    "all_codes",
    "rule_for_code",
    "PARSE_ERROR_CODE",
]

#: Pseudo-code attached to files the linter cannot parse; never
#: suppressed.
PARSE_ERROR_CODE = "REP000"


class _RuleBase:
    """Shared metadata surface of every rule."""

    #: Stable diagnostic code, e.g. ``"REP001"``.
    code: str = ""
    #: Short kebab-ish name, e.g. ``"seeded-rng-only"``.
    name: str = ""
    #: One-line description shown by ``--list-rules``.
    summary: str = ""

    def finding(
        self,
        file: "SourceFile",
        line: int,
        col: int,
        message: str,
    ) -> Finding:
        """Build a :class:`Finding` anchored in *file*."""
        return Finding(
            code=self.code,
            path=file.display_path,
            package_path=file.package_path,
            line=line,
            col=col,
            message=message,
            text=file.line_text(line),
        )


class FileRule(_RuleBase):
    """A rule evaluated independently on each scanned file."""

    def check(self, file: "SourceFile") -> Iterator[Finding]:
        raise NotImplementedError


class ProjectRule(_RuleBase):
    """A rule evaluated once over the whole set of scanned files."""

    def check_project(self, files: Sequence["SourceFile"]) -> Iterator[Finding]:
        raise NotImplementedError


def _build_registry() -> List[_RuleBase]:
    # Imported here (not at module top) so concrete rule modules can
    # `from .rules import FileRule` without a circular import.
    from .determinism import NoEnvConfig, NoWallClock, SeededRngOnly
    from .ordering import HeapKeyTotality, IterationOrder
    from .purity import ObserverPurity
    from .reentrancy import LaneReentrancy
    from .sharedstate import CrossShardState
    from .structure import SlotsManifest, KwOnlyConfigs
    from .timecmp import NoFloatTimeEquality

    return [
        SeededRngOnly(),
        NoWallClock(),
        ObserverPurity(),
        NoFloatTimeEquality(),
        SlotsManifest(),
        KwOnlyConfigs(),
        IterationOrder(),
        HeapKeyTotality(),
        LaneReentrancy(),
        CrossShardState(),
        NoEnvConfig(),
    ]


#: Every registered rule, in code order.
RULES: List[_RuleBase] = _build_registry()


def all_codes() -> List[str]:
    """The stable codes of every registered rule."""
    return [rule.code for rule in RULES]


def rule_for_code(code: str) -> Optional[_RuleBase]:
    for rule in RULES:
        if rule.code == code:
            return rule
    return None


def select_rules(codes: Optional[Iterable[str]] = None) -> List[_RuleBase]:
    """The registry filtered to *codes* (all rules when ``None``)."""
    if codes is None:
        return list(RULES)
    wanted = set(codes)
    unknown = wanted - set(all_codes())
    if unknown:
        raise ValueError("unknown rule code(s): %s" % ", ".join(sorted(unknown)))
    return [rule for rule in RULES if rule.code in wanted]
