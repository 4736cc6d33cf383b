"""Observability: structured tracing, per-layer counters, cause attribution.

The paper's cause analysis (Sections 3.4.2-3.4.5) attributes observed
inconsistency to concrete mechanisms -- TTL expiry, propagation
distance, inter-ISP hops, provider bandwidth, server failures.  This
package gives the simulator the same per-event visibility:

- :mod:`repro.obs.tracer` -- a :class:`Tracer` attached to the sim
  :class:`~repro.sim.engine.Environment`.  The default
  :data:`NULL_TRACER` is a no-op (no per-event allocation on the off
  path); :class:`RecordingTracer` records structured
  :class:`TraceEvent` rows and can dump them as JSONL with filtering.
- :mod:`repro.obs.counters` -- :class:`FabricCounters`, the always-on
  per-layer accounting (per-link and per-ISP-crossing bytes, queueing /
  propagation / inter-ISP seconds, drops) aggregated into
  :class:`~repro.experiments.testbed.DeploymentMetrics`.  Counters are
  independent of the tracer, so metrics are bit-identical with tracing
  on or off.
- :mod:`repro.obs.attribution` -- turns one deployment's counters into
  the per-layer cause-attribution table mirroring the paper's
  Figs. 6-10 breakdown.
- :mod:`repro.obs.telemetry` -- *harness* telemetry (as opposed to the
  simulated CDN): the process-wide :data:`TELEMETRY` metrics registry
  (counters / gauges) and the ``span("phase")`` profiler,
  rolled up across Runner workers into a ``telemetry.json`` artifact and
  surfaced by ``repro metrics`` / ``repro profile``.
- :mod:`repro.obs.sampling` -- planet-scale tracing:
  :class:`SamplingTracer` (deterministic seeded per-kind sampling into
  stratified reservoirs, bounded memory) with the rotating
  :class:`JsonlTraceSink` (bounded disk), and :class:`StreamTracer`
  (write-through filtered dumps for ``repro trace``).
- :mod:`repro.obs.live` -- live run progress: per-worker
  :class:`Heartbeat` snapshots and the Runner-side
  :class:`ProgressTracker` behind ``<registry>.progress.json`` and the
  ``repro watch`` CLI.

The tracer, the counters and telemetry load with the package: every
deployment run uses them.  Attribution, sampling and live progress load
on first use (PEP 562 ``__getattr__``), so a run that uses none of them
does not import them.
"""

from typing import Any

from .counters import FabricCounters, staleness_histogram
from .telemetry import (
    TELEMETRY,
    MetricsRegistry,
    profiled,
    span,
)
from .tracer import (
    EVENT_KINDS,
    NULL_TRACER,
    RecordingTracer,
    Tracer,
    TraceEvent,
)


def __getattr__(name: str) -> Any:
    # The import system probes a package with hasattr() for ``from .
    # import submodule`` (as below), so only the names in ``__all__``
    # import anything.
    if name in __all__:
        from . import attribution, live, sampling

        for module in (attribution, live, sampling):
            if name in module.__all__:
                return getattr(module, name)
    raise AttributeError("module %r has no attribute %r" % (__name__, name))


__all__ = [
    "Tracer",
    "TraceEvent",
    "RecordingTracer",
    "NULL_TRACER",
    "EVENT_KINDS",
    "SamplingTracer",
    "JsonlTraceSink",
    "StreamTracer",
    "Heartbeat",
    "ProgressTracker",
    "default_progress_path",
    "FabricCounters",
    "staleness_histogram",
    "attribution_components",
    "format_attribution_table",
    "TELEMETRY",
    "MetricsRegistry",
    "span",
    "profiled",
]
