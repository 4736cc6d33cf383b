"""Per-layer self time, measured from outside the program.

:class:`LayerTracer` replaces the entry points below with timing
wrappers for the life of a ``with`` block and puts the originals back on
exit.  Nothing under ``src/`` knows about it.  A layer is named after
the module its entry points live in.

Each wrapper opens a span: it counts the call and times it with
``perf_counter``.  A span stack gives self time: a span's duration
minus the durations of the wrapped spans nested in it.  The event loop
(``Environment.run``) encloses every other simulation span, so the
engine's self time is the residual: heap pops, dispatch, and callbacks
no other layer claims.

Install the tracer before the first deployment is built: the fabric's
pooled transfers and every actor's delivery hook bind these methods
when they are constructed.
"""

from __future__ import annotations

import importlib
import time
from collections import defaultdict
from typing import Callable, DefaultDict, Dict, List, Tuple, Union

#: Layers in report order.
LAYERS = (
    "sim.engine",
    "network",
    "sim.resources",
    "sim.timers",
    "sim.process",
    "cdn.cohort",
    "cdn.server",
    "cdn.provider",
    "metrics",
    "network.topology",
    "experiments.testbed",
)

#: Methods that both the provider and the servers run (the actor
#: dispatch and the update-source fan-out) belong to whichever of the
#: two runs them.
_BY_ACTOR = "cdn.server|cdn.provider"

#: ``(layer, module, class or None for module functions, attributes)``.
ENTRY_POINTS: Tuple[Tuple[str, str, Union[str, None], Tuple[str, ...]], ...] = (
    ("sim.engine", "repro.sim.engine", "Environment", ("run",)),
    ("network", "repro.network.link", "NetworkFabric", ("send",)),
    ("network", "repro.network.link", "_FastTransfer",
     ("_transmit_done", "_deliver", "_granted")),
    ("network", "repro.network.node", "NetworkNode", ("deliver",)),
    ("sim.resources", "repro.sim.resources", "Resource", ("request", "release_fast")),
    ("sim.timers", "repro.sim.timers", "TimerWheel", ("arm",)),
    ("sim.timers", "repro.sim.timers", "CallbackLane", ("push", "_sweep")),
    ("sim.timers", "repro.sim.timers", "_Lane", ("_sweep",)),
    ("sim.process", "repro.sim.process", "Process", ("_resume",)),
    ("cdn.cohort", "repro.cdn.cohort", "UserCohort",
     ("_sweep_visits", "_consume", "_on_request_timeout")),
    (_BY_ACTOR, "repro.cdn.base", "Actor", ("_consume", "_dispatch_response")),
    (_BY_ACTOR, "repro.cdn.base", "UpdateSourceMixin",
     ("push_children", "invalidate_children", "notify_adaptive_members",
      "serve_dynamic_members")),
    ("cdn.server", "repro.cdn.server", "ServerActor", ("handle", "apply_version")),
    ("cdn.provider", "repro.cdn.provider", "ProviderActor", ("handle",)),
    ("metrics", "repro.metrics.traffic", "TrafficLedger", ("record",)),
    ("metrics", "repro.metrics.incremental", "ServerLagTracker", ("on_apply",)),
    ("metrics", "repro.metrics.incremental", "UserObservationTracker", ("on_observe",)),
    ("metrics", "repro.metrics.incremental", "AggregateUserMetrics", ("on_observe",)),
    ("metrics", "repro.experiments.testbed", "Deployment", ("_collect",)),
    ("network.topology", "repro.network.topology", "TopologyBuilder", ("build",)),
    ("experiments.testbed", "repro.experiments.testbed", None,
     ("build_deployment", "build_system")),
)


class LayerTracer:
    """Counts calls and accumulates self time per layer (see module doc)."""

    def __init__(self) -> None:
        #: ``(layer, entry point) -> calls``.
        self.calls: DefaultDict[Tuple[str, str], int] = defaultdict(int)
        self.self_s: Dict[str, float] = dict.fromkeys(LAYERS, 0.0)
        #: One slot per open span: the summed duration of its children.
        self._stack: List[float] = []
        self._originals: List[Tuple[object, str, object]] = []

    def __enter__(self) -> "LayerTracer":
        provider_class = importlib.import_module("repro.cdn.provider").ProviderActor

        def by_actor(actor: object) -> str:
            return "cdn.provider" if isinstance(actor, provider_class) else "cdn.server"

        for layer, module_name, class_name, attrs in ENTRY_POINTS:
            module = importlib.import_module(module_name)
            owner = module if class_name is None else getattr(module, class_name)
            for attr in attrs:
                original = vars(owner)[attr]
                self._originals.append((owner, attr, original))
                layer_of = by_actor if layer == _BY_ACTOR else None
                entry = "%s.%s" % (class_name or module_name, attr)
                setattr(owner, attr, self._span(original, entry, layer, layer_of))
        return self

    def __exit__(self, *exc_info: object) -> None:
        for owner, attr, original in reversed(self._originals):
            setattr(owner, attr, original)
        self._originals.clear()

    def _span(self, fn: Callable, entry: str, layer: str, layer_of=None) -> Callable:
        """Wrap *fn*, the entry point named *entry*, in a span of
        *layer*, or of ``layer_of(self_arg)``."""
        stack = self._stack
        calls = self.calls
        self_s = self.self_s
        clock = time.perf_counter

        def span(*args, **kwargs):
            name = layer if layer_of is None else layer_of(args[0])
            calls[name, entry] += 1
            stack.append(0.0)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                self_s[name] += elapsed - stack.pop()
                if stack:
                    stack[-1] += elapsed

        return span

    def entry_calls(self) -> Dict[str, int]:
        """Calls per entry point, e.g. ``{"Resource.request": 12}``."""
        out: Dict[str, int] = {}
        for (_, entry), count in sorted(self.calls.items()):
            out[entry] = out.get(entry, 0) + count
        return out

    def report(self, wall_s: float) -> Dict[str, Dict[str, float]]:
        """``{layer: {"calls", "self_s", "share"}}``; share is self time
        over *wall_s*, the traced wall time the spans should cover."""
        calls = dict.fromkeys(LAYERS, 0)
        for (layer, _), count in self.calls.items():
            calls[layer] += count
        return {
            layer: {
                "calls": calls[layer],
                "self_s": self.self_s[layer],
                "share": self.self_s[layer] / wall_s,
            }
            for layer in LAYERS
        }


def coverage(report: Dict[str, Dict[str, float]]) -> float:
    """Summed layer shares: the fraction of the traced wall the spans
    account for (1.0 when nothing runs outside a wrapped entry point)."""
    return sum(row["share"] for row in report.values())
