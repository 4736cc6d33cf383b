"""Parallel experiment runner: fan independent deployments out over a
worker pool and memoize finished runs on disk.

The paper's Section 4/5 evaluation is embarrassingly parallel -- every
figure is a sweep of independent deterministic deployments (method x
infrastructure x TTL x packet size x network size x seed).  This
package gives all sweep drivers one execution path:

- :class:`RunSpec` -- one deployment to run, as pure data (config +
  method + infrastructure + kind).  Hashable and JSON-serializable, so
  it can cross a process boundary and key an on-disk cache.
- :class:`Runner` -- executes a batch of specs, either serially or on a
  ``multiprocessing`` pool (``workers=``), and merges the
  :class:`~repro.experiments.testbed.DeploymentMetrics` back in spec
  order.  Serial and parallel execution are bit-identical: each
  deployment is self-contained and seeded from its spec alone.
  ``trace=`` (:class:`TraceSettings`) streams a sampled trace per spec.
- :class:`RunRegistry` -- a JSON file memoizing finished runs, keyed by
  spec hash + code version, so regenerating figures or re-running
  benchmarks skips already-computed deployments (``registry=<path>``).
- :class:`RunStats` -- per-batch counters (deployments run, cache hits,
  wall/busy time, worker utilization, simulator events processed),
  attached to every batch result so speedups are observable.
"""

from .registry import RunRegistry, code_version
from .runner import (
    Runner,
    RunOutcome,
    RunStats,
    TraceSettings,
    resolve_workers,
    run_specs,
)
from .spec import RunSpec

__all__ = [
    "RunSpec",
    "Runner",
    "RunOutcome",
    "RunStats",
    "RunRegistry",
    "TraceSettings",
    "run_specs",
    "resolve_workers",
    "code_version",
]
