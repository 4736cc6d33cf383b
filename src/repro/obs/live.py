"""Live run progress: worker heartbeats and the sweep progress file.

A planet-scale ``repro sweep`` is opaque while it runs: the Runner's
workers grind through sharded deployments for minutes with nothing on
screen until the final report.  This module makes an in-flight sweep
observable without touching a single simulated outcome:

- :class:`Heartbeat` -- installed as the engine's ``progress`` hook
  inside each worker process, it periodically (wall-clock rate-limited)
  writes an atomic JSON snapshot -- sim-time, horizon fraction, events
  processed, events/s, peak RSS, telemetry counter deltas -- to
  ``<registry>.progress.d/<label>.json``;
- :class:`ProgressTracker` -- the Runner-side writer of
  ``<registry>.progress.json``: spec totals, per-spec completion,
  cache hits, and final stats, updated from pool completion callbacks
  (thread-safe; the pool's result-handler thread calls in);
- the read/merge/render helpers behind ``repro watch``, which tails
  both files and folds worker heartbeats together with the PR 5
  telemetry merge algebra (:func:`~repro.obs.telemetry.merge_snapshots`
  semantics: counters sum, ``peak_rss_kb`` maxes).

Like :mod:`repro.obs.telemetry`, this module legitimately reads wall
clocks (heartbeats are rate-limited in real time) and is exempted from
lint rule REP002 in :data:`repro.lint.exemptions.EXEMPTIONS`.  It is
still bound by REP003 observer purity: nothing here schedules events or
draws RNG, so installing a heartbeat cannot change any simulated
outcome.
"""

from __future__ import annotations

import json
import os
import tempfile
import threading
import time
from typing import Any, Dict, List, Optional

from .telemetry import TELEMETRY, peak_rss_kb

__all__ = [
    "PROGRESS_FORMAT",
    "HEARTBEAT_FORMAT",
    "Heartbeat",
    "ProgressTracker",
    "default_progress_path",
    "heartbeat_dir",
    "read_progress",
    "read_heartbeats",
    "merge_heartbeats",
    "render_watch",
]

#: Version tag of the ``<registry>.progress.json`` shape.
PROGRESS_FORMAT = 1

#: Version tag of one worker heartbeat file's shape.
HEARTBEAT_FORMAT = 1


def default_progress_path(registry_path: str) -> str:
    """``runs.json`` -> ``runs.progress.json`` (next to the registry)."""
    base = registry_path
    if base.endswith(".json"):
        base = base[: -len(".json")]
    return base + ".progress.json"


def heartbeat_dir(progress_path: str) -> str:
    """The worker-heartbeat directory for a progress file
    (``runs.progress.json`` -> ``runs.progress.d``)."""
    base = progress_path
    if base.endswith(".json"):
        base = base[: -len(".json")]
    return base + ".d"


def _atomic_write_json(path: str, doc: Dict[str, Any]) -> None:
    """Write *doc* to *path* via tempfile + rename, so readers never see
    a torn file (the same idiom as ``append_run_entry``)."""
    directory = os.path.dirname(os.path.abspath(path)) or "."
    os.makedirs(directory, exist_ok=True)
    fd, tmp_path = tempfile.mkstemp(
        prefix=os.path.basename(path) + ".", dir=directory
    )
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


def _safe_label(label: str) -> str:
    """A filesystem-safe heartbeat filename stem for *label*."""
    return "".join(c if c.isalnum() or c in "._-" else "_" for c in label)


class Heartbeat:
    """One worker's live progress hook (engine ``progress`` callable).

    Installed on :attr:`Environment.progress
    <repro.sim.engine.Environment.progress>`, the engine invokes it
    every ``PROGRESS_STRIDE`` processed events with
    ``(sim_time, events_processed)``.  Writes are rate-limited to one
    per *min_interval_s* of wall time, so the hook costs a clock read
    on most invocations and an atomic small-file write about once a
    second.

    The snapshot includes the delta of the worker's telemetry counters
    since the heartbeat was created, so ``repro watch`` can show
    per-shard message/event totals mid-run using the PR 5 merge algebra.
    """

    def __init__(
        self,
        path: str,
        label: str,
        horizon: Optional[float] = None,
        min_interval_s: float = 1.0,
    ) -> None:
        self.path = path
        self.label = label
        self.horizon = horizon
        self.min_interval_s = float(min_interval_s)
        self.writes = 0
        self._started_wall = time.time()
        self._last_write_wall = 0.0
        self._counters_before: Dict[str, float] = dict(TELEMETRY._counters)

    def __call__(self, sim_time: float, events_processed: int) -> None:
        now_wall = time.time()
        if now_wall - self._last_write_wall < self.min_interval_s:
            return
        self._last_write_wall = now_wall
        self._write(sim_time, events_processed, now_wall)

    def finish(self, sim_time: float, events_processed: int) -> None:
        """Force a final write (no rate limit) when the run completes."""
        self._write(sim_time, events_processed, time.time())

    def _write(
        self, sim_time: float, events_processed: int, now_wall: float
    ) -> None:
        elapsed = now_wall - self._started_wall
        counters: Dict[str, float] = {}
        before = self._counters_before
        for name, value in TELEMETRY._counters.items():
            changed = value - before.get(name, 0.0)
            if changed:
                counters[name] = changed
        fraction: Optional[float] = None
        if self.horizon is not None and self.horizon > 0:
            fraction = min(1.0, sim_time / self.horizon)
        doc: Dict[str, Any] = {
            "format": HEARTBEAT_FORMAT,
            "label": self.label,
            "pid": os.getpid(),
            "updated_unix": now_wall,
            "sim_time": sim_time,
            "horizon": self.horizon,
            "fraction": fraction,
            "events_processed": events_processed,
            "events_per_s": events_processed / elapsed if elapsed > 0 else 0.0,
            "elapsed_s": elapsed,
            "peak_rss_kb": peak_rss_kb(),
            "counters": counters,
        }
        _atomic_write_json(self.path, doc)
        self.writes += 1


class ProgressTracker:
    """Runner-side writer of ``<registry>.progress.json``.

    The Runner calls :meth:`begin` before dispatching, :meth:`spec_done`
    from each pool completion callback (these fire on the pool's
    result-handler thread, hence the lock), and :meth:`finish` once the
    sweep completes.  Intermediate writes are rate-limited; ``begin`` /
    ``finish`` always write.
    """

    def __init__(self, path: str, min_interval_s: float = 0.5) -> None:
        self.path = path
        self.min_interval_s = float(min_interval_s)
        self._lock = threading.Lock()
        self._started_wall = time.time()
        self._last_write_wall = 0.0
        self._doc: Dict[str, Any] = {
            "format": PROGRESS_FORMAT,
            "status": "starting",
            "started_unix": self._started_wall,
            "updated_unix": self._started_wall,
            "n_specs": 0,
            "cache_hits": 0,
            "executed": 0,
            "pending": 0,
            "workers": 0,
            "completed": [],
        }

    def begin(self, n_specs: int, cache_hits: int, pending: int, workers: int) -> None:
        with self._lock:
            self._doc.update(
                status="running",
                n_specs=n_specs,
                cache_hits=cache_hits,
                pending=pending,
                workers=workers,
            )
            self._write_locked(force=True)

    def spec_done(self, label: str, elapsed_s: float) -> None:
        with self._lock:
            self._doc["executed"] = int(self._doc["executed"]) + 1
            completed: List[Dict[str, Any]] = self._doc["completed"]
            completed.append({"label": label, "elapsed_s": elapsed_s})
            self._write_locked()

    def finish(self, stats: Optional[Dict[str, Any]] = None) -> None:
        with self._lock:
            self._doc["status"] = "done"
            if stats:
                self._doc["stats"] = stats
            self._write_locked(force=True)

    def fail(self, reason: str) -> None:
        with self._lock:
            self._doc["status"] = "failed"
            self._doc["reason"] = reason
            self._write_locked(force=True)

    def _write_locked(self, force: bool = False) -> None:
        now_wall = time.time()
        if not force and now_wall - self._last_write_wall < self.min_interval_s:
            return
        self._last_write_wall = now_wall
        self._doc["updated_unix"] = now_wall
        self._doc["elapsed_s"] = now_wall - self._started_wall
        _atomic_write_json(self.path, self._doc)


# ----------------------------------------------------------------------
# the `repro watch` read side
# ----------------------------------------------------------------------
def read_progress(path: str) -> Optional[Dict[str, Any]]:
    """The progress document at *path*, or ``None`` if absent/torn.

    Torn or foreign files read as ``None`` rather than raising: a
    watcher polls while another process writes, so transient junk is
    expected and must not kill the watch loop.
    """
    try:
        with open(path) as handle:
            doc = json.load(handle)
    except (OSError, ValueError):
        return None
    if not isinstance(doc, dict) or doc.get("format") != PROGRESS_FORMAT:
        return None
    return doc


def read_heartbeats(directory: str) -> List[Dict[str, Any]]:
    """Every readable worker heartbeat under *directory*, label-sorted."""
    try:
        names = sorted(os.listdir(directory))
    except OSError:
        return []
    beats: List[Dict[str, Any]] = []
    for name in names:
        if not name.endswith(".json"):
            continue
        try:
            with open(os.path.join(directory, name)) as handle:
                doc = json.load(handle)
        except (OSError, ValueError):
            continue
        if isinstance(doc, dict) and doc.get("format") == HEARTBEAT_FORMAT:
            beats.append(doc)
    beats.sort(key=lambda doc: str(doc.get("label", "")))
    return beats


def merge_heartbeats(beats: List[Dict[str, Any]]) -> Dict[str, Any]:
    """Fold worker heartbeats into one fleet view.

    The PR 5 merge algebra applied to heartbeat fields: events and
    counters *sum* across workers, ``peak_rss_kb`` takes the *max*
    (per-process high-water marks don't add), rates sum (workers run
    concurrently), and the fleet fraction is the mean of the workers'
    horizon fractions.
    """
    merged: Dict[str, Any] = {
        "workers": len(beats),
        "events_processed": 0,
        "events_per_s": 0.0,
        "peak_rss_kb": 0,
        "counters": {},
        "fraction": None,
    }
    fractions: List[float] = []
    counters: Dict[str, float] = merged["counters"]
    for doc in beats:
        merged["events_processed"] += int(doc.get("events_processed", 0))
        merged["events_per_s"] += float(doc.get("events_per_s", 0.0))
        merged["peak_rss_kb"] = max(
            merged["peak_rss_kb"], int(doc.get("peak_rss_kb", 0))
        )
        for name, value in (doc.get("counters") or {}).items():
            counters[name] = counters.get(name, 0.0) + value
        fraction = doc.get("fraction")
        if fraction is not None:
            fractions.append(float(fraction))
    if fractions:
        merged["fraction"] = sum(fractions) / len(fractions)
    return merged


def _bar(fraction: Optional[float], width: int = 30) -> str:
    if fraction is None:
        return "-" * width
    filled = int(round(max(0.0, min(1.0, fraction)) * width))
    return "#" * filled + "-" * (width - filled)


def render_watch(
    progress: Optional[Dict[str, Any]],
    beats: List[Dict[str, Any]],
    now_wall: Optional[float] = None,
) -> List[str]:
    """The ``repro watch`` screen as lines of text."""
    lines: List[str] = []
    if progress is None and not beats:
        return ["(no progress data yet)"]
    if progress is not None:
        n_specs = int(progress.get("n_specs", 0))
        executed = int(progress.get("executed", 0))
        cache_hits = int(progress.get("cache_hits", 0))
        done = executed + cache_hits
        fraction = done / n_specs if n_specs else None
        lines.append(
            "sweep: %s  [%s] %d/%d spec(s)  (%d cached, %d worker(s), %.1fs)"
            % (
                progress.get("status", "?"),
                _bar(fraction),
                done,
                n_specs,
                cache_hits,
                int(progress.get("workers", 0)),
                float(progress.get("elapsed_s", 0.0)),
            )
        )
        completed = progress.get("completed") or []
        for record in completed[-5:]:
            lines.append(
                "  done: %-40s %8.2fs"
                % (record.get("label", "?"), float(record.get("elapsed_s", 0.0)))
            )
    if beats:
        fleet = merge_heartbeats(beats)
        lines.append(
            "shards: %d live  [%s]  %s events  %.0f events/s  peak RSS %d KB"
            % (
                fleet["workers"],
                _bar(fleet["fraction"]),
                "{:,}".format(fleet["events_processed"]),
                fleet["events_per_s"],
                fleet["peak_rss_kb"],
            )
        )
        if now_wall is None:
            now_wall = time.time()
        for doc in beats:
            age = max(0.0, now_wall - float(doc.get("updated_unix", now_wall)))
            fraction = doc.get("fraction")
            lines.append(
                "  %-44s [%s] t=%8.1f  %10s ev  %8.0f ev/s  %4.0fs ago"
                % (
                    str(doc.get("label", "?"))[:44],
                    _bar(fraction, width=16),
                    float(doc.get("sim_time", 0.0)),
                    "{:,}".format(int(doc.get("events_processed", 0))),
                    float(doc.get("events_per_s", 0.0)),
                    age,
                )
            )
    return lines
