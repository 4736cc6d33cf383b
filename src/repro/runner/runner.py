"""Runner: execute a batch of RunSpecs serially or on a process pool."""

from __future__ import annotations

import multiprocessing
import os
import time
from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple, Union

from ..obs.live import (
    Heartbeat,
    ProgressTracker,
    default_progress_path,
    heartbeat_dir,
)
from ..obs.telemetry import (
    TELEMETRY,
    append_run_entry,
    default_artifact_path,
    empty_snapshot,
    merge_snapshots,
    span,
)
from .registry import RunRegistry
from .spec import RunSpec

__all__ = [
    "Runner",
    "RunOutcome",
    "RunStats",
    "TraceSettings",
    "run_specs",
    "resolve_workers",
]


def resolve_workers(workers: Union[int, str] = 1) -> int:
    """Turn a worker knob (int or "auto") into a count."""
    if isinstance(workers, str):
        if workers.strip().lower() == "auto":
            workers = 0
        else:
            try:
                workers = int(workers)
            except ValueError:
                raise ValueError(
                    "workers must be an integer, 0, or 'auto'; got %r" % workers
                ) from None
    if workers <= 0:
        workers = multiprocessing.cpu_count()
    return max(1, int(workers))


@dataclass(frozen=True)
class TraceSettings:
    """Sampled tracing inside Runner workers: each executed spec streams
    a :class:`~repro.obs.sampling.SamplingTracer` (seeded with the
    spec's own seed) to a rotating ``<label>-<hash>.trace.jsonl`` sink
    under *directory*.  Observational only: metrics are bit-identical
    with or without it."""

    directory: str
    rate: float = 1.0
    budget: int = 256


@dataclass
class RunStats:
    """Counters for one :meth:`Runner.run` batch."""

    n_specs: int
    executed: int
    cache_hits: int
    workers: int
    wall_time_s: float
    #: Sum of per-deployment execution times (>= wall time when the
    #: pool overlaps work).
    busy_time_s: float
    #: Simulator events processed by the deployments executed in this
    #: batch (cache hits did no simulation work).
    events_processed: int
    #: Messages sent across the fabric by the executed deployments
    #: (update + light messages; cache hits contribute nothing).
    messages: int = 0
    #: Messages dropped by the fabric (sender or receiver down).
    dropped_messages: int = 0
    #: Registry entries merged in from disk at save time (runs another
    #: concurrent process persisted between our load and our save).
    registry_merged: int = 0
    #: Registry lookups that missed (== executed when a registry is
    #: attached; 0 means every spec was a cache hit).
    cache_misses: int = 0
    #: Peak resident set size across the main process and every worker
    #: that executed a deployment in this batch, in KiB (0 if unknown).
    peak_rss_kb: int = 0
    #: Harness-telemetry rollup for this batch (worker deltas merged
    #: counter-sum / gauge-last / span-sum); ``None`` when
    #: telemetry is disabled (``TELEMETRY.enabled = False``).
    telemetry: Optional[Dict[str, Any]] = field(default=None, repr=False)

    @property
    def worker_utilization(self) -> float:
        """busy / (workers * wall); 1.0 means the pool never idled."""
        denominator = self.workers * self.wall_time_s
        if denominator <= 0.0:
            return 0.0
        return min(1.0, self.busy_time_s / denominator)

    @property
    def registry_hit_rate(self) -> float:
        """cache hits / specs (0.0 for an empty batch)."""
        if self.n_specs <= 0:
            return 0.0
        return self.cache_hits / self.n_specs

    @property
    def events_per_s(self) -> float:
        """Simulator events per second of busy time (0.0 if none)."""
        if self.busy_time_s <= 0.0:
            return 0.0
        return self.events_processed / self.busy_time_s

    def to_dict(self) -> Dict:
        return {
            "n_specs": self.n_specs,
            "executed": self.executed,
            "cache_hits": self.cache_hits,
            "cache_misses": self.cache_misses,
            "workers": self.workers,
            "wall_time_s": self.wall_time_s,
            "busy_time_s": self.busy_time_s,
            "events_processed": self.events_processed,
            "messages": self.messages,
            "dropped_messages": self.dropped_messages,
            "registry_merged": self.registry_merged,
            "worker_utilization": self.worker_utilization,
            "registry_hit_rate": self.registry_hit_rate,
            "events_per_s": self.events_per_s,
            "peak_rss_kb": self.peak_rss_kb,
            "telemetry": self.telemetry,
        }

    def summary(self) -> str:
        """One line for CLI / log output."""
        line = (
            "ran %d deployment(s) (%d cache hit(s)) in %.2f s with %d "
            "worker(s); utilization %.0f%%; %d simulator events; "
            "%d message(s), %d dropped"
            % (
                self.executed,
                self.cache_hits,
                self.wall_time_s,
                self.workers,
                100.0 * self.worker_utilization,
                self.events_processed,
                self.messages,
                self.dropped_messages,
            )
        )
        if self.registry_merged:
            line += "; merged %d registry entr%s" % (
                self.registry_merged,
                "y" if self.registry_merged == 1 else "ies",
            )
        return line


@dataclass
class RunOutcome:
    """Metrics for a batch of specs, merged back in spec order."""

    specs: List[RunSpec]
    metrics: List  # List[DeploymentMetrics], aligned with ``specs``
    stats: RunStats

    def __len__(self) -> int:
        return len(self.metrics)

    def __iter__(self):
        return iter(self.metrics)

    def __getitem__(self, index):
        return self.metrics[index]

    def pairs(self) -> List[Tuple[RunSpec, object]]:
        return list(zip(self.specs, self.metrics))


def _spec_stem(spec: RunSpec) -> str:
    """Filesystem-safe per-spec file stem (label plus short hash, so
    grid cells that share a label never collide)."""
    safe = "".join(
        c if c.isalnum() or c in "._-" else "_" for c in spec.label
    )
    return "%s-%s" % (safe, spec.key()[:8])


def _execute_spec(
    spec: RunSpec,
    beats_dir: Optional[str] = None,
    trace: Optional[TraceSettings] = None,
):
    """Top-level worker entry point (must be picklable for spawn).

    Returns ``(metrics, elapsed_s, telemetry_delta)``.  The telemetry
    delta covers exactly this execution -- fork-started workers inherit
    the parent's telemetry state, so shipping a raw snapshot back would
    double-count everything recorded before the fork.

    With *beats_dir* the deployment writes a live heartbeat there; with
    *trace* it streams a sampled trace.  Both are purely observational:
    the returned metrics are bit-identical either way.
    """
    before = TELEMETRY.snapshot()
    started = time.perf_counter()
    with span("spec.execute"):
        heartbeat = None
        if beats_dir is not None:
            heartbeat = Heartbeat(
                os.path.join(beats_dir, _spec_stem(spec) + ".json"),
                label=spec.label,
                horizon=spec.config.run_horizon_s,
            )
        tracer = None
        if trace is not None:
            from ..obs.sampling import JsonlTraceSink, SamplingTracer

            tracer = SamplingTracer(
                seed=spec.config.seed,
                rate=trace.rate,
                per_kind_budget=trace.budget,
                sink=JsonlTraceSink(
                    os.path.join(
                        trace.directory, _spec_stem(spec) + ".trace.jsonl"
                    )
                ),
            )
        try:
            metrics = spec.execute(tracer=tracer, progress=heartbeat)
        finally:
            if tracer is not None:
                tracer.close()
        if heartbeat is not None:
            heartbeat.finish(
                spec.config.run_horizon_s, metrics.events_processed
            )
    elapsed = time.perf_counter() - started
    return metrics, elapsed, TELEMETRY.delta_since(before)


class Runner:
    """Executes batches of :class:`RunSpec`, optionally in parallel and
    optionally memoized through a :class:`RunRegistry`.

    Parameters
    ----------
    workers:
        Worker count (default 1 = serial); ``0`` or ``"auto"`` uses one
        worker per CPU.  With one worker the pool is bypassed entirely
        (serial fallback).
    registry:
        A :class:`RunRegistry` or a path to open/create one there;
        ``None`` (the default) disables memoization.
    trace:
        :class:`TraceSettings` to stream a sampled trace of every
        executed spec; ``None`` (the default) traces nothing.

    The pool starts its workers with ``fork`` where available (cheap on
    Linux) and the platform default elsewhere.
    """

    def __init__(
        self,
        workers: Union[int, str] = 1,
        registry: Union[RunRegistry, str, None] = None,
        trace: Optional[TraceSettings] = None,
    ) -> None:
        self.workers = resolve_workers(workers)
        if isinstance(registry, str):
            registry = RunRegistry(registry)
        self.registry: Optional[RunRegistry] = registry
        self.trace = trace

    # ------------------------------------------------------------------
    def run(self, specs: Iterable[RunSpec]) -> RunOutcome:
        """Execute every spec; metrics come back in spec order.

        Results are bit-identical regardless of worker count or cache
        state: each deployment is deterministic given its spec, and the
        registry stores exact float round-trips.
        """
        specs = list(specs)
        before = TELEMETRY.snapshot()
        started = time.perf_counter()
        metrics: List = [None] * len(specs)

        pending: List[Tuple[int, RunSpec]] = []
        cache_hits = 0
        busy = 0.0
        events = 0
        messages = 0
        dropped = 0
        merged = 0
        worker_deltas: List[Dict[str, Any]] = []
        pooled = False
        tracker = self._progress_tracker()
        with span("runner.run"):
            TELEMETRY.gauge("runner.workers", self.workers)
            for index, spec in enumerate(specs):
                cached = (
                    self.registry.get(spec) if self.registry is not None else None
                )
                if cached is not None:
                    metrics[index] = cached
                    cache_hits += 1
                else:
                    pending.append((index, spec))

            if tracker is not None:
                tracker.begin(
                    len(specs), cache_hits, len(pending), self.workers
                )
            if pending:
                pooled = self.workers > 1 and len(pending) > 1
                outputs = self._execute(
                    [spec for _, spec in pending], tracker
                )
                for (index, spec), (result, elapsed, delta) in zip(
                    pending, outputs
                ):
                    metrics[index] = result
                    busy += elapsed
                    events += result.events_processed
                    messages += result.update_messages + result.light_messages
                    dropped += getattr(result, "dropped_messages", 0)
                    # Serial execution recorded into this process's
                    # registry already; merging the delta again would
                    # double-count, so worker deltas only count when the
                    # pool actually ran them in another process.
                    if pooled:
                        worker_deltas.append(delta)
                    if self.registry is not None:
                        self.registry.put(spec, result, elapsed)
                if self.registry is not None:
                    merged = self.registry.save()
        wall_time = time.perf_counter() - started

        rollup: Optional[Dict[str, Any]] = None
        if TELEMETRY.enabled:
            rollup = merge_snapshots(empty_snapshot(), TELEMETRY.delta_since(before))
            for delta in worker_deltas:
                merge_snapshots(rollup, delta)

        stats = RunStats(
            n_specs=len(specs),
            executed=len(pending),
            cache_hits=cache_hits,
            workers=self.workers,
            wall_time_s=wall_time,
            busy_time_s=busy,
            events_processed=events,
            messages=messages,
            dropped_messages=dropped,
            registry_merged=merged,
            cache_misses=len(pending) if self.registry is not None else 0,
            peak_rss_kb=rollup["peak_rss_kb"] if rollup is not None else 0,
            telemetry=rollup,
        )
        if rollup is not None and self.registry is not None:
            self._emit_telemetry_artifact(stats, rollup)
        if tracker is not None:
            tracker.finish(
                {
                    "executed": stats.executed,
                    "cache_hits": stats.cache_hits,
                    "wall_time_s": stats.wall_time_s,
                    "events_processed": stats.events_processed,
                    "peak_rss_kb": stats.peak_rss_kb,
                }
            )
        return RunOutcome(specs=specs, metrics=metrics, stats=stats)

    def _progress_tracker(self) -> Optional[ProgressTracker]:
        """A :class:`ProgressTracker` next to the run registry, or
        ``None`` without one (nowhere canonical to put the file)."""
        if self.registry is None:
            return None
        return ProgressTracker(default_progress_path(self.registry.path))

    def _emit_telemetry_artifact(
        self, stats: RunStats, rollup: Dict[str, Any]
    ) -> None:
        """Append this batch's rollup next to the run registry.

        Telemetry is best-effort: an unwritable artifact path must not
        fail the sweep that produced real results.
        """
        assert self.registry is not None
        path = default_artifact_path(self.registry.path)
        entry = {
            "created_unix": time.time(),
            "n_specs": stats.n_specs,
            "executed": stats.executed,
            "cache_hits": stats.cache_hits,
            "workers": stats.workers,
            "wall_time_s": stats.wall_time_s,
            "rollup": rollup,
        }
        try:
            append_run_entry(path, entry)
        except OSError:  # pragma: no cover - disk-full / permissions
            pass

    def _execute(
        self,
        specs: Sequence[RunSpec],
        tracker: Optional[ProgressTracker] = None,
    ) -> List:
        """Run *specs*, reporting each completion to *tracker* live.

        Results come back in spec order regardless of completion order
        (``apply_async`` handles are collected in submission order), so
        outcomes stay bit-identical with or without a tracker.
        """
        beats_dir = self._heartbeat_dir(tracker)
        tasks = [(spec, beats_dir, self.trace) for spec in specs]
        if self.workers > 1 and len(specs) > 1:
            fork = "fork" in multiprocessing.get_all_start_methods()
            context = multiprocessing.get_context("fork" if fork else None)
            pool_size = min(self.workers, len(specs))
            with context.Pool(pool_size) as pool:
                if tracker is None:
                    # chunksize=1: deployments are coarse, balance the
                    # load.
                    return pool.starmap(_execute_spec, tasks, chunksize=1)
                # One task per apply_async call is the same chunksize=1
                # balancing, plus a completion callback (fires on the
                # pool's result-handler thread) that feeds the live
                # progress file as specs finish.
                handles = []
                for task in tasks:

                    def _done(output: Any, _label: str = task[0].label) -> None:
                        tracker.spec_done(_label, output[1])

                    handles.append(
                        pool.apply_async(_execute_spec, task, callback=_done)
                    )
                return [handle.get() for handle in handles]
        outputs = []
        for task in tasks:
            output = _execute_spec(*task)
            if tracker is not None:
                tracker.spec_done(task[0].label, output[1])
            outputs.append(output)
        return outputs

    @staticmethod
    def _heartbeat_dir(tracker: Optional[ProgressTracker]) -> Optional[str]:
        """A fresh worker-heartbeat directory next to *tracker*'s
        progress file (stale beats from a past run removed), or ``None``
        without a tracker or when the directory is unwritable."""
        if tracker is None:
            return None
        directory = heartbeat_dir(tracker.path)
        try:
            os.makedirs(directory, exist_ok=True)
            for name in os.listdir(directory):
                if name.endswith(".json"):  # stale beats from a past run
                    try:
                        os.unlink(os.path.join(directory, name))
                    except OSError:  # pragma: no cover - races are fine
                        pass
        except OSError:  # pragma: no cover - unwritable: skip heartbeats
            return None
        return directory


def run_specs(
    specs: Iterable[RunSpec], runner: Optional[Runner] = None
) -> RunOutcome:
    """Run *specs* through *runner* (or a default-configured one)."""
    return (runner if runner is not None else Runner()).run(specs)
