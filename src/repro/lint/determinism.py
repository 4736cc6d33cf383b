"""REP001 / REP002 / REP011 -- seeded randomness, wall-clock and
environment-configuration bans.

REP001: inside the simulation packages (``sim/``, ``cdn/``,
``consistency/``, ``network/``, ``scenarios/``) every random draw must
come from a seeded :class:`~repro.sim.rng.RandomStream` (or an
explicitly seeded ``random.Random`` instance).  Touching the *module-level* ``random``
state -- ``random.random()``, ``from random import choice`` -- shares
one hidden global stream, so adding any new draw silently perturbs
every existing one and breaks bit-identical replay.  Constructing
``random.Random(seed)`` is allowed (that is how seeded streams are
made); everything else on the module is not.  ``numpy.random`` module
functions are banned for the same reason.

REP002: simulation code must never read wall-clock time
(``time.time``/``perf_counter``/``monotonic``, ``datetime.now``, ...).
Simulated time comes from ``env.now``; a wall-clock read either leaks
into results (breaking run-to-run identity) or is dead measurement
code.  Deliberate carve-outs (the runner's wall-time bookkeeping,
benchmarks, harness telemetry) live in the
:data:`repro.lint.exemptions.EXEMPTIONS` manifest, one reviewable
table with a reason per entry.

REP011: nothing in the ``repro`` package reads or writes the process
environment (``os.environ``, ``os.getenv``, ``os.putenv``,
``os.unsetenv``).  An environment variable is configuration the run's
spec cannot see: it is inherited by worker processes, invisible to the
spec hash, and can change results from outside the experiment.  Every
run setting is an argument instead (``Runner(...)``, CLI flags,
``build_deployment(..., sanitizer=)``).  The rule has no exemption
entry.
"""

from __future__ import annotations

import ast
from typing import Dict, Iterator, Set

from .exemptions import is_exempt
from .findings import Finding
from .rules import FileRule

__all__ = ["SeededRngOnly", "NoWallClock", "NoEnvConfig"]

#: Packages whose randomness must be stream-threaded (REP001).
_RNG_SCOPED_AREAS = ("sim", "cdn", "consistency", "network", "scenarios")

#: ``time`` module attributes that read the wall clock.
_WALL_CLOCK_TIME_ATTRS = frozenset(
    {
        "time",
        "time_ns",
        "monotonic",
        "monotonic_ns",
        "perf_counter",
        "perf_counter_ns",
        "process_time",
        "process_time_ns",
        "clock_gettime",
        "localtime",
        "gmtime",
    }
)

#: ``datetime``/``date`` constructors that read the wall clock.
_WALL_CLOCK_DATETIME_ATTRS = frozenset({"now", "utcnow", "today"})

#: ``os`` attributes that read or write the process environment.
_ENV_ATTRS = frozenset(
    {"environ", "environb", "getenv", "getenvb", "putenv", "unsetenv"}
)


def _root_name(node: ast.AST) -> str:
    """Leftmost ``Name`` id of an attribute chain (``a.b.c`` -> ``a``)."""
    while isinstance(node, ast.Attribute):
        node = node.value
    if isinstance(node, ast.Name):
        return node.id
    return ""


class _ImportTracker(ast.NodeVisitor):
    """Records what names the module binds for a set of stdlib modules."""

    def __init__(self, modules: Set[str]) -> None:
        self.modules = modules
        #: local alias -> imported module (``import random as r`` -> r: random)
        self.module_aliases: Dict[str, str] = {}
        #: local name -> (module, original name) for ``from m import x as y``
        self.from_imports: Dict[str, tuple] = {}

    def visit_Import(self, node: ast.Import) -> None:
        for alias in node.names:
            top = alias.name.split(".")[0]
            if top in self.modules:
                self.module_aliases[alias.asname or top] = top
        self.generic_visit(node)

    def visit_ImportFrom(self, node: ast.ImportFrom) -> None:
        module = (node.module or "").split(".")[0]
        if node.level == 0 and module in self.modules:
            for alias in node.names:
                self.from_imports[alias.asname or alias.name] = (module, alias.name)
        self.generic_visit(node)


class SeededRngOnly(FileRule):
    """REP001 -- no module-level RNG in simulation packages."""

    code = "REP001"
    name = "seeded-rng-only"
    summary = (
        "sim/cdn/consistency/network code must draw randomness from a "
        "seeded RandomStream, never the global `random` module"
    )

    def check(self, file) -> Iterator[Finding]:
        if not file.in_package(*_RNG_SCOPED_AREAS):
            return
        tracker = _ImportTracker({"random", "numpy"})
        tracker.visit(file.tree)

        for name, (module, original) in tracker.from_imports.items():
            if module == "random" and original != "Random":
                node = self._find_import_from(file.tree, name)
                line, col = (node.lineno, node.col_offset) if node else (1, 0)
                yield self.finding(
                    file,
                    line,
                    col,
                    "`from random import %s` binds the shared module-level "
                    "RNG; thread a seeded RandomStream instead" % original,
                )

        for node in ast.walk(file.tree):
            if not isinstance(node, ast.Attribute):
                continue
            root = _root_name(node.value)
            module = tracker.module_aliases.get(root)
            if module == "random":
                if node.attr == "Random":
                    continue  # constructing a seeded instance is the fix
                yield self.finding(
                    file,
                    node.lineno,
                    node.col_offset,
                    "`random.%s` uses the shared module-level RNG; draw from "
                    "a seeded RandomStream (repro.sim.rng) instead" % node.attr,
                )
            elif module == "numpy" and node.attr == "random":
                yield self.finding(
                    file,
                    node.lineno,
                    node.col_offset,
                    "`numpy.random` module functions share global RNG state; "
                    "use numpy.random.Generator seeded from the run's streams",
                )

    @staticmethod
    def _find_import_from(tree: ast.AST, bound_name: str):
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and (node.module or "") == "random":
                for alias in node.names:
                    if (alias.asname or alias.name) == bound_name:
                        return node
        return None


class NoWallClock(FileRule):
    """REP002 -- no wall-clock reads outside the exemption manifest."""

    code = "REP002"
    name = "no-wall-clock"
    summary = (
        "no time.time/perf_counter/datetime.now outside the manifest "
        "exemptions (runner, benchmarks, harness telemetry) -- "
        "simulated time comes from env.now"
    )

    def _exempt(self, file) -> bool:
        return is_exempt(self.code, file)

    def check(self, file) -> Iterator[Finding]:
        if self._exempt(file):
            return
        tracker = _ImportTracker({"time", "datetime"})
        tracker.visit(file.tree)

        for name, (module, original) in tracker.from_imports.items():
            if module == "time" and original in _WALL_CLOCK_TIME_ATTRS:
                node = self._find_from_import(file.tree, module, name)
                line, col = (node.lineno, node.col_offset) if node else (1, 0)
                yield self.finding(
                    file,
                    line,
                    col,
                    "`from time import %s` reads the wall clock; simulation "
                    "code must use env.now (runner/benchmarks are exempt)"
                    % original,
                )

        for node in ast.walk(file.tree):
            if not isinstance(node, ast.Attribute):
                continue
            root = _root_name(node.value)
            root_module = tracker.module_aliases.get(root)
            if root_module == "time" and node.attr in _WALL_CLOCK_TIME_ATTRS:
                yield self.finding(
                    file,
                    node.lineno,
                    node.col_offset,
                    "`time.%s` reads the wall clock; simulation code must "
                    "use env.now (runner/benchmarks are exempt)" % node.attr,
                )
                continue
            if node.attr not in _WALL_CLOCK_DATETIME_ATTRS:
                continue
            # datetime.datetime.now(), datetime.date.today(), or
            # `from datetime import datetime; datetime.now()`.
            base = node.value
            if isinstance(base, ast.Attribute) and base.attr in ("datetime", "date"):
                if tracker.module_aliases.get(_root_name(base.value)) == "datetime":
                    yield self.finding(
                        file,
                        node.lineno,
                        node.col_offset,
                        "`datetime.%s.%s` reads the wall clock; simulation "
                        "code must use env.now" % (base.attr, node.attr),
                    )
            elif isinstance(base, ast.Name):
                bound = tracker.from_imports.get(base.id)
                if bound is not None and bound[0] == "datetime":
                    yield self.finding(
                        file,
                        node.lineno,
                        node.col_offset,
                        "`%s.%s` reads the wall clock; simulation code must "
                        "use env.now" % (base.id, node.attr),
                    )

    @staticmethod
    def _find_from_import(tree: ast.AST, module: str, bound_name: str):
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and (node.module or "") == module:
                for alias in node.names:
                    if (alias.asname or alias.name) == bound_name:
                        return node
        return None


class NoEnvConfig(FileRule):
    """REP011 -- no process-environment configuration in ``repro``."""

    code = "REP011"
    name = "no-env-config"
    summary = (
        "no os.environ/getenv/putenv/unsetenv anywhere in the repro "
        "package -- run settings are explicit arguments, never "
        "environment variables"
    )

    def check(self, file) -> Iterator[Finding]:
        if not file.package_path.startswith("repro/"):
            return
        tracker = _ImportTracker({"os"})
        tracker.visit(file.tree)

        for node in ast.walk(file.tree):
            if isinstance(node, ast.ImportFrom):
                if node.level or (node.module or "").split(".")[0] != "os":
                    continue
                for alias in node.names:
                    if alias.name in _ENV_ATTRS:
                        yield self.finding(
                            file,
                            node.lineno,
                            node.col_offset,
                            "`from os import %s` reads or writes the "
                            "process environment; pass the setting as an "
                            "argument instead" % alias.name,
                        )
            elif (
                isinstance(node, ast.Attribute)
                and node.attr in _ENV_ATTRS
                and isinstance(node.value, ast.Name)
                and tracker.module_aliases.get(node.value.id) == "os"
            ):
                yield self.finding(
                    file,
                    node.lineno,
                    node.col_offset,
                    "`os.%s` reads or writes the process environment; "
                    "pass the setting as an argument instead" % node.attr,
                )
