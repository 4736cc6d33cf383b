"""REP007/REP008 -- iteration order and heap-key totality.

The determinism contract (see ``repro/sim/engine.py``) is that two runs
with the same seeds process identical event sequences.  Two code shapes
silently break it:

**REP007 -- iteration-order dependence.**  ``set``/``frozenset``
iteration order follows hash order, which ``PYTHONHASHSEED`` perturbs
across processes for strings -- any loop over a set whose body matters
is a cross-process nondeterminism hazard, so set iteration is flagged
unconditionally unless wrapped in ``sorted(...)``.  ``dict`` iteration
is insertion-ordered (deterministic when the build order is), so
dict-view loops are flagged only in the high-risk combination: the loop
body *schedules kernel events, triggers them, sends messages, arms
timers or draws RNG* -- there, a later refactor that perturbs insertion
order silently reorders the event sequence or re-pairs RNG draws.
Wrap the iterable in ``sorted(...)`` to fix, or suppress with
``# repro: noqa REP007 -- <why insertion order is deterministic>``.

**REP008 -- heap-key totality.**  Every tuple pushed onto a heap must
carry a total-order tiebreak (the kernel's sequence number idiom:
``(time, priority, seq, event)``) so equal deadlines never fall through
to comparing payload objects -- comparing two ``Event`` instances
raises ``TypeError``, and "fixing" that with ``id(...)`` trades the
crash for memory-address-ordered (run-dependent) scheduling.  A pushed
tuple is flagged when any key element calls ``id(...)`` or when no
element before the final (payload) slot looks like a sequence counter.
Non-tuple pushes are out of scope (the pushed object's own ``__lt__``
is assumed total).
"""

from __future__ import annotations

import ast
import re
from typing import TYPE_CHECKING, Iterator, List, Optional, Set, Union

from .exemptions import is_exempt
from .findings import Finding
from .rules import FileRule

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from .engine import SourceFile

__all__ = ["IterationOrder", "HeapKeyTotality"]

#: Packages the order rules patrol (the simulation stack; tools like
#: repro.lint itself or the runner are not part of the event kernel).
_ORDER_AREAS = ("sim", "cdn", "network", "metrics", "experiments", "scenarios")

#: Calls that feed the event order or the RNG stream when made from a
#: loop body: scheduling/triggering kernel events, sending messages,
#: arming timers, pushing heap entries -- plus every RNG draw method.
_ORDER_SINKS = frozenset(
    {
        # kernel scheduling / triggering (superset of REP003's list)
        "schedule",
        "schedule_at",
        "process",
        "timeout",
        "pooled_timeout",
        "all_of",
        "any_of",
        "succeed",
        "fail",
        "trigger",
        "interrupt",
        # transport / timer entry points
        "send",
        "arm",
        "push",
        "heappush",
        "heapify",
        # RNG draws (mirrors repro.lint.purity._RNG_CALLS)
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

#: Dict-view accessors whose iteration order is the dict's.
_DICT_VIEWS = frozenset({"keys", "values", "items"})

#: Constructors producing hash-ordered collections.
_SET_CONSTRUCTORS = frozenset({"set", "frozenset"})

#: A heap-key element whose terminal name matches this is a credible
#: total-order tiebreak (the repo idiom: ``seq``/``_eid``/``order``).
_TIEBREAK_NAME = re.compile(r"(seq|eid|order|counter|count|idx|index|tie|rank)")


def _call_name(node: ast.Call) -> Optional[str]:
    func = node.func
    if isinstance(func, ast.Attribute):
        return func.attr
    if isinstance(func, ast.Name):
        return func.id
    return None


def _is_sorted_call(node: ast.AST) -> bool:
    return (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id in {"sorted", "min", "max", "len", "enumerate"}
        and (node.func.id != "enumerate" or _iter_is_ordered(node))
    )


def _iter_is_ordered(node: ast.Call) -> bool:
    # ``enumerate(sorted(...))`` is ordered; bare ``enumerate(s)`` is not.
    return bool(node.args) and _is_sorted_call(node.args[0])


class _ScopeTracker:
    """Names bound to hash-ordered (set) values within one scope."""

    def __init__(self) -> None:
        self.set_names: Set[str] = set()

    def observe_assign(self, node: Union[ast.Assign, ast.AnnAssign]) -> None:
        value = node.value
        if value is None:
            return
        targets: List[ast.expr]
        if isinstance(node, ast.Assign):
            targets = node.targets
        else:
            targets = [node.target]
        names = [t.id for t in targets if isinstance(t, ast.Name)]
        if not names:
            return
        if self._is_set_valued(value):
            self.set_names.update(names)
        else:
            # Rebinding to something else clears the taint.
            self.set_names.difference_update(names)

    def _is_set_valued(self, value: ast.expr) -> bool:
        if isinstance(value, (ast.Set, ast.SetComp)):
            return True
        if isinstance(value, ast.Call) and isinstance(value.func, ast.Name):
            if value.func.id in _SET_CONSTRUCTORS:
                return True
        if isinstance(value, ast.BinOp) and isinstance(
            value.op, (ast.BitOr, ast.BitAnd, ast.Sub, ast.BitXor)
        ):
            return self._is_set_valued(value.left) or self._is_set_valued(
                value.right
            )
        if isinstance(value, ast.Name):
            return value.id in self.set_names
        return False


def _classify_iterable(
    node: ast.expr, scope: _ScopeTracker
) -> Optional[str]:
    """``"set"``/``"dict-view"`` when *node* iterates hash/dict order."""
    if _is_sorted_call(node):
        return None
    if isinstance(node, (ast.Set, ast.SetComp)):
        return "set"
    if isinstance(node, ast.Call):
        name = _call_name(node)
        if isinstance(node.func, ast.Name) and name in _SET_CONSTRUCTORS:
            return "set"
        if isinstance(node.func, ast.Attribute) and name in _DICT_VIEWS:
            return "dict-view"
        if isinstance(node.func, ast.Name) and name in {"list", "tuple", "enumerate", "reversed"}:
            # list(s) / enumerate(s) preserve the inner ordering hazard.
            if node.args:
                return _classify_iterable(node.args[0], scope)
    if isinstance(node, ast.Name) and node.id in scope.set_names:
        return "set"
    return None


def _body_has_sink(nodes: List[ast.stmt]) -> Optional[str]:
    """Name of the first order sink called anywhere under *nodes*."""
    for stmt in nodes:
        for node in ast.walk(stmt):
            if isinstance(node, ast.Call):
                name = _call_name(node)
                if name in _ORDER_SINKS:
                    return name
    return None


def _expr_has_sink(expr: ast.expr) -> Optional[str]:
    for node in ast.walk(expr):
        if isinstance(node, ast.Call):
            name = _call_name(node)
            if name in _ORDER_SINKS:
                return name
    return None


class IterationOrder(FileRule):
    """REP007 -- no hash-ordered iteration feeding the event order."""

    code = "REP007"
    name = "iteration-order"
    summary = (
        "set iteration (hash order) and dict-view loops that schedule/"
        "send/draw must be sorted(...) or carry an insertion-order noqa"
    )

    def check(self, file: "SourceFile") -> Iterator[Finding]:
        if not file.in_package(*_ORDER_AREAS) or is_exempt(self.code, file):
            return
        yield from self._walk(file.tree, file, _ScopeTracker())

    def _walk(
        self, root: ast.AST, file: "SourceFile", scope: _ScopeTracker
    ) -> Iterator[Finding]:
        for node in ast.iter_child_nodes(root):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                # Fresh scope: locals do not leak across def/class bodies.
                yield from self._walk(node, file, _ScopeTracker())
                continue
            if isinstance(node, (ast.Assign, ast.AnnAssign)):
                scope.observe_assign(node)
            elif isinstance(node, (ast.For, ast.AsyncFor)):
                yield from self._check_for(node, file, scope)
            elif isinstance(
                node, (ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)
            ):
                yield from self._check_comp(node, file, scope)
            yield from self._walk(node, file, scope)

    def _check_for(
        self, node: Union[ast.For, ast.AsyncFor], file: "SourceFile", scope: _ScopeTracker
    ) -> Iterator[Finding]:
        kind = _classify_iterable(node.iter, scope)
        if kind is None:
            return
        if kind == "set":
            yield self.finding(
                file,
                node.iter.lineno,
                node.iter.col_offset,
                "iterating a set: hash order varies across processes "
                "(PYTHONHASHSEED); wrap the iterable in sorted(...)",
            )
            return
        sink = _body_has_sink(node.body + node.orelse)
        if sink is not None:
            yield self.finding(
                file,
                node.iter.lineno,
                node.iter.col_offset,
                "dict-view loop body calls `%s(...)`: iteration order feeds "
                "the event/RNG order; wrap in sorted(...) or justify the "
                "insertion order with `# repro: noqa REP007 -- ...`" % sink,
            )

    def _check_comp(
        self,
        node: Union[ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp],
        file: "SourceFile",
        scope: _ScopeTracker,
    ) -> Iterator[Finding]:
        for gen in node.generators:
            kind = _classify_iterable(gen.iter, scope)
            if kind is None:
                continue
            if kind == "set" and not isinstance(node, ast.SetComp):
                yield self.finding(
                    file,
                    gen.iter.lineno,
                    gen.iter.col_offset,
                    "comprehension iterates a set: hash order varies across "
                    "processes (PYTHONHASHSEED); wrap in sorted(...)",
                )
            elif kind == "dict-view":
                elements: List[ast.expr] = []
                if isinstance(node, ast.DictComp):
                    elements = [node.key, node.value]
                else:
                    elements = [node.elt]
                for element in elements:
                    sink = _expr_has_sink(element)
                    if sink is not None:
                        yield self.finding(
                            file,
                            gen.iter.lineno,
                            gen.iter.col_offset,
                            "dict-view comprehension calls `%s(...)`: iteration "
                            "order feeds the event/RNG order; wrap in "
                            "sorted(...)" % sink,
                        )
                        break


class HeapKeyTotality(FileRule):
    """REP008 -- heap keys must end in a total-order tiebreak."""

    code = "REP008"
    name = "heap-key-totality"
    summary = (
        "heappush tuples need a sequence-number tiebreak before the "
        "payload; id() in a heap key is run-dependent ordering"
    )

    def check(self, file: "SourceFile") -> Iterator[Finding]:
        if not file.in_package(*_ORDER_AREAS) or is_exempt(self.code, file):
            return
        for node in ast.walk(file.tree):
            if not isinstance(node, ast.Call):
                continue
            name = _call_name(node)
            if name not in {"heappush", "_heappush", "_push", "heapreplace", "heappushpop"}:
                continue
            if len(node.args) < 2:
                continue
            item = node.args[1]
            if not isinstance(item, ast.Tuple):
                continue  # non-tuple: the item's own __lt__ is the contract
            yield from self._check_key(node, item, file)

    def _check_key(
        self, call: ast.Call, item: ast.Tuple, file: "SourceFile"
    ) -> Iterator[Finding]:
        for element in item.elts:
            for sub in ast.walk(element):
                if (
                    isinstance(sub, ast.Call)
                    and isinstance(sub.func, ast.Name)
                    and sub.func.id == "id"
                ):
                    yield self.finding(
                        file,
                        call.lineno,
                        call.col_offset,
                        "heap key uses id(...): memory-address order changes "
                        "run to run; use a monotonic sequence number",
                    )
                    return
        if len(item.elts) < 2:
            return
        key_elements = item.elts[:-1]  # last slot is the payload by idiom
        for element in key_elements:
            if self._looks_like_tiebreak(element):
                return
        yield self.finding(
            file,
            call.lineno,
            call.col_offset,
            "heap key has no total-order tiebreak before the payload: equal "
            "keys fall through to comparing the payload objects (TypeError "
            "or arbitrary order); append a monotonic sequence number",
        )

    @staticmethod
    def _looks_like_tiebreak(element: ast.expr) -> bool:
        terminal: Optional[str] = None
        if isinstance(element, ast.Name):
            terminal = element.id
        elif isinstance(element, ast.Attribute):
            terminal = element.attr
        elif isinstance(element, ast.Tuple):
            # Composite tie slot, e.g. the sanitizer's (rand, seq).
            return any(
                HeapKeyTotality._looks_like_tiebreak(sub) for sub in element.elts
            )
        elif isinstance(element, ast.Call):
            name = _call_name(element)
            if name is not None and name != "id":
                terminal = name
        if terminal is None:
            return False
        return bool(_TIEBREAK_NAME.search(terminal.lower()))
