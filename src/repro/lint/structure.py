"""REP005 / REP006 -- structural invariants of hot-path and config classes.

REP005: the classes named in :data:`SLOTS_MANIFEST` are allocated on
the simulation hot path (per event, per message, or once per
environment with attribute access in the inner loop).  Each must keep
an explicit ``__slots__`` declaration (or ``@dataclass(slots=True)``):
dropping it silently reverts every instance to a ``__dict__``, costing
both memory and the attribute-access speed the PR-3 kernel work paid
for.  The manifest is also drift-checked: a listed class that no longer
exists in its file is itself a finding, so renames keep the manifest
honest.

REP006: dataclasses whose name ends in ``Config`` are knob bags built
and overridden by keyword; they must declare ``kw_only=True`` so that
reordering or inserting a field can never silently re-bind positional
call sites to the wrong knob (cf. ``TestbedConfig``).
"""

from __future__ import annotations

import ast
from typing import Dict, Iterator, Optional

from .findings import Finding
from .rules import FileRule

__all__ = ["SlotsManifest", "KwOnlyConfigs", "SLOTS_MANIFEST"]

#: package path -> {class name: why it is hot}.
SLOTS_MANIFEST: Dict[str, Dict[str, str]] = {
    "repro/sim/engine.py": {
        "Event": "allocated per scheduled event and per sleep",
        "Environment": "attribute reads in the inner event loop",
    },
    "repro/sim/process.py": {
        "Process": "allocated per policy loop and waiting server task",
        "_Initialize": "allocated per process start",
        "_Interruption": "allocated per interrupt",
    },
    "repro/sim/resources.py": {
        "Request": "allocated per resource claim",
        "Release": "allocated per resource release",
    },
    "repro/network/link.py": {
        "_FastTransfer": "one per message on the wire (pooled)",
        "NetworkFabric": "attribute reads per message in every transport stage",
    },
    "repro/network/message.py": {
        "Message": "one per message sent through the fabric",
    },
    "repro/obs/tracer.py": {
        "Tracer": "enabled-guard read on every instrumented site",
        "RecordingTracer": "emit() on every instrumented site",
    },
    "repro/obs/counters.py": {
        "FabricCounters": "incremented inline on the message path",
    },
    "repro/sim/timers.py": {
        "CallbackLane": "swept per expiring deadline batch",
        "_Lane": "one per timer-wheel delay, swept like CallbackLane",
    },
    "repro/cdn/cohort.py": {
        "UserCohort": "attribute reads per visit on the user plane",
    },
    "repro/metrics/incremental.py": {
        "AggregateUserMetrics": "on_observe per user visit",
    },
}


def _dataclass_decorator(node: ast.ClassDef) -> Optional[ast.expr]:
    """The ``@dataclass`` / ``@dataclass(...)`` decorator, if present."""
    for decorator in node.decorator_list:
        target = decorator.func if isinstance(decorator, ast.Call) else decorator
        if isinstance(target, ast.Name) and target.id == "dataclass":
            return decorator
        if isinstance(target, ast.Attribute) and target.attr == "dataclass":
            return decorator
    return None


def _dataclass_flag(decorator: ast.expr, flag: str) -> bool:
    """``True`` if ``@dataclass(..., <flag>=True, ...)``."""
    if not isinstance(decorator, ast.Call):
        return False
    for keyword in decorator.keywords:
        if keyword.arg == flag:
            return isinstance(keyword.value, ast.Constant) and keyword.value.value is True
    return False


def _declares_slots(node: ast.ClassDef) -> bool:
    decorator = _dataclass_decorator(node)
    if decorator is not None and _dataclass_flag(decorator, "slots"):
        return True
    for statement in node.body:
        if isinstance(statement, ast.Assign):
            for target in statement.targets:
                if isinstance(target, ast.Name) and target.id == "__slots__":
                    return True
        elif isinstance(statement, ast.AnnAssign):
            target = statement.target
            if isinstance(target, ast.Name) and target.id == "__slots__":
                return True
    return False


class SlotsManifest(FileRule):
    """REP005 -- manifest-listed hot-path classes must declare __slots__."""

    code = "REP005"
    name = "slots-manifest"
    summary = (
        "hot-path classes listed in repro.lint.structure.SLOTS_MANIFEST "
        "must declare __slots__ (or @dataclass(slots=True))"
    )

    def check(self, file) -> Iterator[Finding]:
        required = SLOTS_MANIFEST.get(file.package_path)
        if not required:
            return
        classes: Dict[str, ast.ClassDef] = {
            node.name: node
            for node in ast.walk(file.tree)
            if isinstance(node, ast.ClassDef)
        }
        for name, reason in sorted(required.items()):
            node = classes.get(name)
            if node is None:
                yield self.finding(
                    file,
                    1,
                    0,
                    "class `%s` is listed in the __slots__ manifest but no "
                    "longer exists here -- update SLOTS_MANIFEST in "
                    "repro/lint/structure.py" % name,
                )
            elif not _declares_slots(node):
                yield self.finding(
                    file,
                    node.lineno,
                    node.col_offset,
                    "hot-path class `%s` (%s) must declare __slots__ or "
                    "@dataclass(slots=True)" % (name, reason),
                )


class KwOnlyConfigs(FileRule):
    """REP006 -- config dataclasses are keyword-only."""

    code = "REP006"
    name = "kw-only-configs"
    summary = (
        "dataclasses named *Config must declare kw_only=True so field "
        "reordering can never re-bind positional call sites"
    )

    def check(self, file) -> Iterator[Finding]:
        for node in ast.walk(file.tree):
            if not isinstance(node, ast.ClassDef) or not node.name.endswith("Config"):
                continue
            decorator = _dataclass_decorator(node)
            if decorator is None:
                continue
            if not _dataclass_flag(decorator, "kw_only"):
                yield self.finding(
                    file,
                    node.lineno,
                    node.col_offset,
                    "config dataclass `%s` must be declared "
                    "@dataclass(kw_only=True)" % node.name,
                )
