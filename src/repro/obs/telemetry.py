"""Process-wide harness telemetry: metrics registry + span profiler.

Everything else in :mod:`repro.obs` watches the *simulated* CDN; this
module watches the *harness itself* -- where wall-clock time, memory and
registry churn go while the reproduction machinery runs.  It is the one
deliberate exception to lint rule REP002 (no wall-clock reads): harness
telemetry legitimately reads wall clocks, and the exemption is scoped to
exactly this module in :data:`repro.lint.exemptions.EXEMPTIONS`.

Three instrument families, all held in one process-wide
:class:`MetricsRegistry` (:data:`TELEMETRY`):

- **counters** -- monotonically increasing totals (``registry.cache_hits``,
  ``fabric.messages_sent``); merged across workers by *summing*;
- **gauges** -- last-written values (``runner.workers``); merged by
  *last write wins*;
- **histograms** -- fixed-bucket-schema distributions
  (``spec.elapsed_s``); merged *bucket-wise* (schemas must match).

Plus the **span profiler**: ``with span("phase"):`` context managers
instrument harness phases (engine hot loop, registry load/save, testbed
build, each Section 3/4/5 driver).  Spans aggregate per name into
``count`` / ``cum_s`` (wall time inside the span, recursion counted
once) / ``self_s`` (cum minus time spent in child spans).

Telemetry is *observational only*: nothing here touches the simulation
kernel, RNG streams, or any simulated outcome, so runs are bit-identical
in every :class:`~repro.experiments.result.FigureResult` metric with
telemetry on or off (``tests/test_telemetry.py`` proves it).  Disable
with ``TELEMETRY.enabled = False``.

Cross-process flow: each parallel-Runner worker captures a *delta
snapshot* around its deployment (:meth:`MetricsRegistry.snapshot` /
:func:`delta_snapshots`), the Runner merges the deltas into a run-level
rollup (:func:`merge_snapshots`), and the rollup is appended to a
``telemetry.json`` artifact next to the run registry
(:func:`append_run_entry`).  ``repro metrics`` and ``repro profile``
read that artifact back.
"""

from __future__ import annotations

import functools
import json
import os
import sys
import tempfile
import time
from bisect import bisect_right
from contextlib import contextmanager
from typing import Any, Callable, Dict, Iterator, List, Optional, Sequence, Tuple, TypeVar

__all__ = [
    "TELEMETRY",
    "SNAPSHOT_FORMAT",
    "ARTIFACT_FORMAT",
    "BUCKETS_SECONDS",
    "BUCKETS_COUNT",
    "Histogram",
    "MetricsRegistry",
    "span",
    "profiled",
    "peak_rss_kb",
    "empty_snapshot",
    "merge_snapshots",
    "delta_snapshots",
    "prometheus_exposition",
    "format_span_table",
    "span_total_s",
    "default_artifact_path",
    "load_artifact",
    "atomic_write_json",
    "append_run_entry",
    "merged_rollup",
]

#: Version tag of the snapshot dict shape.
SNAPSHOT_FORMAT = 1

#: Version tag of the ``telemetry.json`` artifact shape.
ARTIFACT_FORMAT = 1

#: Fixed bucket schema for second-valued histograms (upper edges; the
#: implicit final bucket collects everything at or above the last edge).
BUCKETS_SECONDS: Tuple[float, ...] = (
    0.001, 0.005, 0.01, 0.05, 0.1, 0.5, 1.0, 5.0, 10.0, 60.0,
)

#: Fixed bucket schema for count-valued histograms.
BUCKETS_COUNT: Tuple[float, ...] = (1.0, 10.0, 100.0, 1e3, 1e4, 1e5, 1e6)

_F = TypeVar("_F", bound=Callable[..., Any])


def peak_rss_kb() -> int:
    """Peak resident set size of this process, in KiB (0 if unknown)."""
    try:
        import resource
    except ImportError:  # pragma: no cover - non-POSIX platform
        return 0
    usage = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    # ru_maxrss units differ by platform: Linux reports KiB, macOS
    # reports bytes.  ``sys.platform`` (not ``os.uname()``) so the
    # branch is testable by monkeypatching and works where uname is
    # unavailable.
    if sys.platform == "darwin":
        usage //= 1024
    return int(usage)


class Histogram:
    """Fixed-bucket histogram; ``counts`` has ``len(edges) + 1`` slots
    (the last collects values at or above the final edge)."""

    __slots__ = ("edges", "counts", "total", "sum")

    def __init__(self, edges: Sequence[float]) -> None:
        self.edges: Tuple[float, ...] = tuple(float(edge) for edge in edges)
        self.counts: List[int] = [0] * (len(self.edges) + 1)
        self.total = 0
        self.sum = 0.0

    def observe(self, value: float) -> None:
        self.counts[bisect_right(self.edges, value)] += 1
        self.total += 1
        self.sum += value

    def to_dict(self) -> Dict[str, Any]:
        return {
            "edges": list(self.edges),
            "counts": list(self.counts),
            "total": self.total,
            "sum": self.sum,
        }


class MetricsRegistry:
    """One process's telemetry state (see the module docstring).

    All methods are no-ops when ``enabled`` is ``False``, so flipping
    telemetry off removes every cost except one attribute read per
    instrumented site.
    """

    def __init__(self, enabled: bool = True) -> None:
        #: Live switch, read at every instrumented site.
        self.enabled = enabled
        self._counters: Dict[str, float] = {}
        self._gauges: Dict[str, float] = {}
        self._histograms: Dict[str, Histogram] = {}
        #: name -> [count, cum_s, self_s]
        self._spans: Dict[str, List[float]] = {}
        #: Active-span stack: [name, start_s, child_s] frames.
        self._stack: List[List[Any]] = []
        #: name -> live nesting depth (recursion guard for cum_s).
        self._active: Dict[str, int] = {}

    # ------------------------------------------------------------------
    # instruments
    # ------------------------------------------------------------------
    def count(self, name: str, amount: float = 1.0) -> None:
        """Add *amount* to counter *name* (merge across workers: sum)."""
        if not self.enabled:
            return
        self._counters[name] = self._counters.get(name, 0.0) + amount

    def gauge(self, name: str, value: float) -> None:
        """Set gauge *name* (merge across workers: last write wins)."""
        if not self.enabled:
            return
        self._gauges[name] = float(value)

    def observe(
        self, name: str, value: float, edges: Sequence[float] = BUCKETS_SECONDS
    ) -> None:
        """Record *value* into histogram *name* (merge: bucket-wise)."""
        if not self.enabled:
            return
        histogram = self._histograms.get(name)
        if histogram is None:
            histogram = self._histograms[name] = Histogram(edges)
        histogram.observe(value)

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        """Profile the enclosed block as one execution of span *name*."""
        if not self.enabled:
            yield
            return
        frame: List[Any] = [name, time.perf_counter(), 0.0]
        self._stack.append(frame)
        self._active[name] = self._active.get(name, 0) + 1
        try:
            yield
        finally:
            elapsed = time.perf_counter() - frame[1]
            self._stack.pop()
            depth = self._active[name] - 1
            if depth:
                self._active[name] = depth
            else:
                del self._active[name]
            stats = self._spans.get(name)
            if stats is None:
                stats = self._spans[name] = [0.0, 0.0, 0.0]
            stats[0] += 1
            if not depth:  # recursion counts its wall time once
                stats[1] += elapsed
            stats[2] += elapsed - frame[2]
            if self._stack:
                self._stack[-1][2] += elapsed

    # ------------------------------------------------------------------
    # snapshots
    # ------------------------------------------------------------------
    def snapshot(self) -> Dict[str, Any]:
        """JSON-safe copy of everything recorded so far (open spans are
        excluded; they land in the snapshot taken after they close)."""
        return {
            "format": SNAPSHOT_FORMAT,
            "counters": dict(self._counters),
            "gauges": dict(self._gauges),
            "histograms": {
                name: histogram.to_dict()
                for name, histogram in self._histograms.items()
            },
            "spans": {
                name: {"count": int(stats[0]), "cum_s": stats[1], "self_s": stats[2]}
                for name, stats in self._spans.items()
            },
            "peak_rss_kb": peak_rss_kb(),
        }

    def delta_since(self, before: Dict[str, Any]) -> Dict[str, Any]:
        """What happened between *before* (an earlier :meth:`snapshot`)
        and now -- the per-worker unit the Runner rolls up."""
        return delta_snapshots(before, self.snapshot())

    def reset(self) -> None:
        """Drop all recorded data (open span frames survive)."""
        self._counters.clear()
        self._gauges.clear()
        self._histograms.clear()
        self._spans.clear()


#: The process-wide registry every instrumented site records into.
TELEMETRY = MetricsRegistry()


def span(name: str) -> Any:
    """``with span("phase"):`` against the process-wide registry."""
    return TELEMETRY.span(name)


def profiled(name: str) -> Callable[[_F], _F]:
    """Decorator form of :func:`span` for whole driver functions."""

    def decorate(fn: _F) -> _F:
        @functools.wraps(fn)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            with TELEMETRY.span(name):
                return fn(*args, **kwargs)

        return wrapper  # type: ignore[return-value]

    return decorate


# ----------------------------------------------------------------------
# snapshot algebra (plain dicts so they cross process boundaries)
# ----------------------------------------------------------------------
def empty_snapshot() -> Dict[str, Any]:
    """The identity element of :func:`merge_snapshots`."""
    return {
        "format": SNAPSHOT_FORMAT,
        "counters": {},
        "gauges": {},
        "histograms": {},
        "spans": {},
        "peak_rss_kb": 0,
    }


def merge_snapshots(into: Dict[str, Any], other: Dict[str, Any]) -> Dict[str, Any]:
    """Merge *other* into *into* (mutated and returned).

    Counter-sum, gauge-last, histogram bucket-merge (bucket schemas must
    match), span-sum; ``peak_rss_kb`` merges by max (a per-process
    high-water mark, not a sum).
    """
    counters = into.setdefault("counters", {})
    for name, value in other.get("counters", {}).items():
        counters[name] = counters.get(name, 0.0) + value
    into.setdefault("gauges", {}).update(other.get("gauges", {}))
    histograms = into.setdefault("histograms", {})
    for name, data in other.get("histograms", {}).items():
        mine = histograms.get(name)
        if mine is None:
            histograms[name] = {
                "edges": list(data["edges"]),
                "counts": list(data["counts"]),
                "total": data["total"],
                "sum": data["sum"],
            }
            continue
        if list(mine["edges"]) != list(data["edges"]):
            raise ValueError(
                "histogram %r bucket schemas differ: %r vs %r"
                % (name, mine["edges"], data["edges"])
            )
        mine["counts"] = [a + b for a, b in zip(mine["counts"], data["counts"])]
        mine["total"] += data["total"]
        mine["sum"] += data["sum"]
    spans = into.setdefault("spans", {})
    for name, data in other.get("spans", {}).items():
        mine = spans.get(name)
        if mine is None:
            spans[name] = dict(data)
        else:
            mine["count"] += data["count"]
            mine["cum_s"] += data["cum_s"]
            mine["self_s"] += data["self_s"]
    into["peak_rss_kb"] = max(
        into.get("peak_rss_kb", 0), other.get("peak_rss_kb", 0)
    )
    into.setdefault("format", SNAPSHOT_FORMAT)
    return into


def delta_snapshots(
    before: Dict[str, Any], after: Dict[str, Any]
) -> Dict[str, Any]:
    """``after - before`` for every summed family (gauges and peak RSS
    take the *after* value); zero entries are dropped."""
    delta = empty_snapshot()
    for name, value in after.get("counters", {}).items():
        changed = value - before.get("counters", {}).get(name, 0.0)
        if changed:
            delta["counters"][name] = changed
    delta["gauges"] = dict(after.get("gauges", {}))
    before_hists = before.get("histograms", {})
    for name, data in after.get("histograms", {}).items():
        base = before_hists.get(name)
        if base is None:
            delta["histograms"][name] = {
                "edges": list(data["edges"]),
                "counts": list(data["counts"]),
                "total": data["total"],
                "sum": data["sum"],
            }
            continue
        counts = [a - b for a, b in zip(data["counts"], base["counts"])]
        if any(counts):
            delta["histograms"][name] = {
                "edges": list(data["edges"]),
                "counts": counts,
                "total": data["total"] - base["total"],
                "sum": data["sum"] - base["sum"],
            }
    before_spans = before.get("spans", {})
    for name, data in after.get("spans", {}).items():
        base = before_spans.get(name, {"count": 0, "cum_s": 0.0, "self_s": 0.0})
        if data["count"] != base["count"]:
            delta["spans"][name] = {
                "count": data["count"] - base["count"],
                "cum_s": data["cum_s"] - base["cum_s"],
                "self_s": data["self_s"] - base["self_s"],
            }
    delta["peak_rss_kb"] = after.get("peak_rss_kb", 0)
    return delta


# ----------------------------------------------------------------------
# renderings
# ----------------------------------------------------------------------
def _prom_name(name: str) -> str:
    return "".join(c if c.isalnum() else "_" for c in name)


def prometheus_exposition(snapshot: Dict[str, Any]) -> str:
    """The snapshot as Prometheus text exposition format (version 0.0.4)."""
    lines: List[str] = []
    for name in sorted(snapshot.get("counters", {})):
        metric = "repro_%s_total" % _prom_name(name)
        lines.append("# TYPE %s counter" % metric)
        lines.append("%s %g" % (metric, snapshot["counters"][name]))
    for name in sorted(snapshot.get("gauges", {})):
        metric = "repro_%s" % _prom_name(name)
        lines.append("# TYPE %s gauge" % metric)
        lines.append("%s %g" % (metric, snapshot["gauges"][name]))
    rss = snapshot.get("peak_rss_kb", 0)
    lines.append("# TYPE repro_peak_rss_kb gauge")
    lines.append("repro_peak_rss_kb %g" % rss)
    for name in sorted(snapshot.get("histograms", {})):
        data = snapshot["histograms"][name]
        metric = "repro_%s" % _prom_name(name)
        lines.append("# TYPE %s histogram" % metric)
        cumulative = 0
        for edge, bucket in zip(data["edges"], data["counts"]):
            cumulative += bucket
            lines.append('%s_bucket{le="%g"} %d' % (metric, edge, cumulative))
        lines.append('%s_bucket{le="+Inf"} %d' % (metric, data["total"]))
        lines.append("%s_sum %g" % (metric, data["sum"]))
        lines.append("%s_count %d" % (metric, data["total"]))
    for name in sorted(snapshot.get("spans", {})):
        data = snapshot["spans"][name]
        label = name.replace("\\", "\\\\").replace('"', '\\"')
        lines.append('repro_span_seconds{span="%s",agg="cum"} %g' % (label, data["cum_s"]))
        lines.append('repro_span_seconds{span="%s",agg="self"} %g' % (label, data["self_s"]))
        lines.append('repro_span_count{span="%s"} %d' % (label, data["count"]))
    return "\n".join(lines) + "\n"


def span_total_s(snapshot: Dict[str, Any]) -> float:
    """Total profiled wall time: the sum of every span's *self* time
    (self times tile the profiled wall clock without double counting)."""
    return sum(data["self_s"] for data in snapshot.get("spans", {}).values())


def format_span_table(
    snapshot: Dict[str, Any],
    top: Optional[int] = None,
    sort: str = "cum",
) -> List[str]:
    """``repro profile``'s top-N span table as lines.

    ``sort`` is ``"cum"``, ``"self"`` or ``"count"``; the ``%`` column
    is each span's share of the total *self* time.
    """
    spans = snapshot.get("spans", {})
    key = {"cum": "cum_s", "self": "self_s", "count": "count"}[sort]
    ranked = sorted(spans.items(), key=lambda item: item[1][key], reverse=True)
    if top is not None:
        ranked = ranked[:top]
    total = span_total_s(snapshot)
    lines = [
        "%-38s %8s %12s %12s %7s" % ("span", "count", "self (s)", "cum (s)", "self%"),
    ]
    for name, data in ranked:
        share = data["self_s"] / total if total > 0 else 0.0
        lines.append(
            "%-38s %8d %12.4f %12.4f %6.1f%%"
            % (name, data["count"], data["self_s"], data["cum_s"], 100.0 * share)
        )
    lines.append(
        "%-38s %8s %12.4f %12s %6.1f%%" % ("total (self)", "", total, "", 100.0)
    )
    return lines


# ----------------------------------------------------------------------
# telemetry.json artifact (lives next to the run registry)
# ----------------------------------------------------------------------
def default_artifact_path(registry_path: str) -> str:
    """``runs.json`` -> ``runs.telemetry.json`` (next to the registry)."""
    base = registry_path
    if base.endswith(".json"):
        base = base[: -len(".json")]
    return base + ".telemetry.json"


def load_artifact(path: str) -> Dict[str, Any]:
    """The artifact at *path* (``{"format": 1, "runs": []}`` if absent).

    Raises ``ValueError`` for files that exist but are not a telemetry
    artifact, so callers can distinguish "no telemetry yet" from "wrong
    file".
    """
    try:
        with open(path) as handle:
            data = json.load(handle)
    except FileNotFoundError:
        return {"format": ARTIFACT_FORMAT, "runs": []}
    except (OSError, ValueError) as error:
        raise ValueError("telemetry artifact %s is unreadable: %s" % (path, error))
    if (
        not isinstance(data, dict)
        or data.get("format") != ARTIFACT_FORMAT
        or not isinstance(data.get("runs"), list)
    ):
        raise ValueError("telemetry artifact %s has an unexpected shape" % path)
    return data


def atomic_write_json(path: str, doc: Any) -> None:
    """Write *doc* as JSON to *path* through a temporary file in the
    same directory and ``os.replace``, so a reader never sees a torn
    file.  Creates the directory if needed."""
    directory = os.path.dirname(os.path.abspath(path)) or "."
    os.makedirs(directory, exist_ok=True)
    fd, tmp_path = tempfile.mkstemp(prefix=os.path.basename(path) + ".", dir=directory)
    try:
        with os.fdopen(fd, "w") as handle:
            json.dump(doc, handle)
        os.replace(tmp_path, path)
    finally:
        if os.path.exists(tmp_path):  # pragma: no cover - error path
            try:
                os.unlink(tmp_path)
            except OSError:
                pass


def append_run_entry(
    path: str, entry: Dict[str, Any], max_entries: int = 500
) -> int:
    """Append one run entry to the artifact at *path* (atomic replace).

    Entries beyond *max_entries* age out oldest-first.  Returns the
    number of entries now stored.  An unreadable existing file is left
    in place and the artifact restarts empty (telemetry must never turn
    a successful run into a failure).
    """
    try:
        artifact = load_artifact(path)
    except ValueError:
        artifact = {"format": ARTIFACT_FORMAT, "runs": []}
    runs = artifact["runs"]
    runs.append(entry)
    del runs[:-max_entries]
    atomic_write_json(path, artifact)
    return len(runs)


def merged_rollup(artifact: Dict[str, Any]) -> Dict[str, Any]:
    """Every run entry's rollup merged into one snapshot."""
    merged = empty_snapshot()
    for entry in artifact.get("runs", []):
        rollup = entry.get("rollup")
        if rollup:
            merge_snapshots(merged, rollup)
    return merged
