"""REP003 -- observer purity: ``repro.obs`` must stay side-effect free.

The observability contract (see ``repro/obs/tracer.py``) is that
attaching a tracer or reading counters can never change a simulated
outcome: traces stay bit-identical with observation on or off, which is
what makes the transport-equivalence and determinism tests meaningful.

That holds only if no code reachable from ``repro.obs`` ever

- schedules kernel events (``Environment.schedule`` / ``schedule_at``
  / ``process`` / ``timeout`` / ``pooled_timeout`` / ``all_of`` /
  ``any_of``, a callback loop's ``kickoff``, a timer-wheel ``arm``, or
  triggering events via ``succeed`` / ``fail`` / ``trigger`` /
  ``interrupt``), or
- draws randomness (``RandomStream`` draw methods or the ``random``
  module).

"Reachable" is computed over the static import graph (shared with
REP010, see :mod:`repro.lint.imports`): every module in ``repro/obs/``
seeds the closure, and any ``repro.*`` module one of them imports
(transitively) is pulled in -- including function-local (lazy) imports
and the ancestor packages a nested import executes -- so purity cannot
be dodged by moving the impure helper into a sibling package or behind
a deferred import.  The simulation kernel itself (``repro/sim/``) is
excluded from the *checked* set: it is the code being guarded against,
and scheduling inside it is its job.
"""

from __future__ import annotations

import ast
from typing import TYPE_CHECKING, Iterator, List, Sequence, Tuple

from .findings import Finding
from .imports import module_map, reachable_modules
from .rules import ProjectRule

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from .engine import SourceFile

__all__ = ["ObserverPurity"]

#: Method names that schedule or trigger kernel events.
_SCHEDULING_CALLS = frozenset(
    {
        "schedule",
        "schedule_at",
        "process",
        "timeout",
        "pooled_timeout",
        "all_of",
        "any_of",
        "kickoff",
        "arm",
        "succeed",
        "fail",
        "trigger",
        "interrupt",
    }
)

#: Draw methods of RandomStream / random.Random (any receiver counts:
#: an observer holding *any* RNG handle is already suspect).
_RNG_CALLS = frozenset(
    {
        "random",
        "uniform",
        "randint",
        "randrange",
        "getrandbits",
        "expovariate",
        "gauss",
        "normalvariate",
        "lognormvariate",
        "paretovariate",
        "betavariate",
        "vonmisesvariate",
        "weibullvariate",
        "triangular",
        "choice",
        "choices",
        "sample",
        "shuffle",
        "jitter",
        "bernoulli",
    }
)


class _PurityVisitor(ast.NodeVisitor):
    """Collects impure call sites in one module."""

    def __init__(self) -> None:
        self.hits: List[Tuple[int, int, str]] = []

    def visit_Call(self, node: ast.Call) -> None:
        func = node.func
        name = None
        if isinstance(func, ast.Attribute):
            name = func.attr
        elif isinstance(func, ast.Name):
            name = func.id
        if name in _SCHEDULING_CALLS:
            self.hits.append(
                (
                    node.lineno,
                    node.col_offset,
                    "observer code calls `%s(...)`, which schedules/triggers "
                    "kernel events; repro.obs must stay purely observational "
                    "so traces are bit-identical with observation off" % name,
                )
            )
        elif name in _RNG_CALLS:
            self.hits.append(
                (
                    node.lineno,
                    node.col_offset,
                    "observer code calls `%s(...)`, an RNG draw; repro.obs "
                    "must never touch random streams" % name,
                )
            )
        self.generic_visit(node)

    def visit_Import(self, node: ast.Import) -> None:
        for alias in node.names:
            if alias.name.split(".")[0] == "random":
                self.hits.append(
                    (
                        node.lineno,
                        node.col_offset,
                        "observer code imports the `random` module; repro.obs "
                        "must never touch random streams",
                    )
                )
        self.generic_visit(node)

    def visit_ImportFrom(self, node: ast.ImportFrom) -> None:
        if node.level == 0 and (node.module or "").split(".")[0] == "random":
            self.hits.append(
                (
                    node.lineno,
                    node.col_offset,
                    "observer code imports from the `random` module; "
                    "repro.obs must never touch random streams",
                )
            )
        self.generic_visit(node)


class ObserverPurity(ProjectRule):
    """REP003 -- code reachable from ``repro.obs`` never schedules or draws."""

    code = "REP003"
    name = "observer-purity"
    summary = (
        "code reachable from repro.obs must not schedule kernel events "
        "or draw RNG (tracers/counters are purely observational)"
    )

    def check_project(self, files: Sequence["SourceFile"]) -> Iterator[Finding]:
        by_module = module_map(files)
        seeds = [
            module
            for module in by_module
            if module == "repro.obs" or module.startswith("repro.obs.")
        ]
        # The kernel is the guarded API, not an observer: do not
        # traverse into or report on repro.sim.*.
        reachable = reachable_modules(
            by_module,
            seeds,
            stop=lambda module: module == "repro.sim"
            or module.startswith("repro.sim."),
        )

        for module in sorted(reachable):
            if module == "repro.sim" or module.startswith("repro.sim."):
                continue
            file = by_module[module]
            visitor = _PurityVisitor()
            visitor.visit(file.tree)
            for line, col, message in visitor.hits:
                yield self.finding(file, line, col, message)
