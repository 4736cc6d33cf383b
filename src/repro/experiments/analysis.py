"""Cross-run statistical analysis of benchmark / telemetry trajectories.

The repo accumulates evaluation history -- ``BENCH_*.json`` benchmark
trajectories and ``<registry>.telemetry.json`` run rollups -- and this
module screens those trajectories for regressions:

- **trajectory anomaly detection**: every benchmark's per-entry mean
  series is screened by the trailing-median outlier rule (the
  ``check_bench`` gate, applied over the whole history rather than just
  the newest entry) and a YouLighter-inspired windowed-centroid change
  detector (PAPERS.md: adjacent sliding windows over an aggregate
  series; a centroid jump large relative to in-window spread flags an
  infrastructure/behaviour shift that per-point thresholds miss);
- **reports**: one analysis dict, rendered as terse text
  (``repro analyze``) or as a fully self-contained HTML page -- inline
  CSS, inline SVG sparklines, zero external assets or scripts -- that
  CI uploads as an artifact.

The statistics for comparing two samples -- the Mann-Whitney U rank
test (tie-corrected normal approximation, the fuzzbench standard for
non-normal perf samples) with the Vargha-Delaney A12 effect size, and
seeded bootstrap confidence intervals on a mean -- live here too, for
cross-commit comparisons of benchmark samples.  The bootstrap runs on an
explicit ``random.Random(seed)`` (this module is harness-side analysis
-- outside the simulation's REP001 seeded-stream scope -- and is never
imported by simulated code).
"""

from __future__ import annotations

import html
import json
import math
import random
from typing import Any, Dict, List, Optional, Sequence, Tuple

__all__ = [
    "load_bench_trajectory",
    "mann_whitney_u",
    "bootstrap_mean_ci",
    "trailing_median_outliers",
    "change_points",
    "benchmark_mean_series",
    "analyze_trajectories",
    "render_text",
    "render_html",
    "sparkline_svg",
]

#: Format tag of a BENCH_*.json trajectory (benchmarks/bench_history.py).
TRAJECTORY_FORMAT = 1


# ----------------------------------------------------------------------
# loading
# ----------------------------------------------------------------------
def load_bench_trajectory(path: str) -> Dict[str, Any]:
    """The benchmark trajectory at *path*.

    Accepts the same two shapes as ``benchmarks/bench_history.py`` (a
    ``{"format": 1, "history": [...]}`` trajectory, or a legacy raw
    pytest-benchmark snapshot treated as a one-entry history) and
    raises ``ValueError`` on anything else -- ``make analyze-smoke``
    relies on malformed history being a hard failure.
    """
    try:
        with open(path) as handle:
            doc = json.load(handle)
    except FileNotFoundError:
        raise ValueError("trajectory %s does not exist" % path)
    except (OSError, ValueError) as exc:
        raise ValueError("cannot read trajectory %s: %s" % (path, exc))
    if isinstance(doc, dict) and isinstance(doc.get("history"), list):
        for index, entry in enumerate(doc["history"]):
            if not isinstance(entry, dict) or not isinstance(
                entry.get("benchmarks"), list
            ):
                raise ValueError(
                    "trajectory %s entry %d is malformed" % (path, index)
                )
        return {"format": TRAJECTORY_FORMAT, "history": doc["history"]}
    if isinstance(doc, dict) and isinstance(doc.get("benchmarks"), list):
        entry = {
            "recorded": doc.get("datetime", ""),
            "machine": (doc.get("machine_info") or {}).get("node", ""),
            "benchmarks": [
                {
                    "name": bench.get("name", "?"),
                    "stats": bench.get("stats", {}),
                }
                for bench in doc["benchmarks"]
            ],
        }
        return {"format": TRAJECTORY_FORMAT, "history": [entry]}
    raise ValueError(
        "%s is neither a benchmark trajectory nor a pytest-benchmark "
        "snapshot" % path
    )


# ----------------------------------------------------------------------
# statistics
# ----------------------------------------------------------------------
def mann_whitney_u(
    a: Sequence[float], b: Sequence[float]
) -> Dict[str, float]:
    """Two-sided Mann-Whitney U test of samples *a* vs *b*.

    Returns ``{"u", "p_value", "a12", "n_a", "n_b"}``.  ``u`` is the
    U statistic of *a*; ``a12`` is the Vargha-Delaney effect size
    (``P(a > b)`` plus half the ties -- 0.5 means no effect, 1.0 means
    *a* always wins).  The p-value uses the tie-corrected normal
    approximation with continuity correction; fine for the sample
    sizes trajectories produce, and monotone in the evidence either
    way.
    """
    n_a, n_b = len(a), len(b)
    if n_a == 0 or n_b == 0:
        raise ValueError("both samples must be non-empty")
    combined = sorted(
        [(float(v), 0) for v in a] + [(float(v), 1) for v in b]
    )
    total = n_a + n_b
    ranks = [0.0] * total
    tie_term = 0.0
    index = 0
    while index < total:
        upper = index
        while (
            upper + 1 < total and combined[upper + 1][0] == combined[index][0]
        ):
            upper += 1
        rank = (index + upper) / 2.0 + 1.0
        for position in range(index, upper + 1):
            ranks[position] = rank
        width = upper - index + 1
        if width > 1:
            tie_term += width**3 - width
        index = upper + 1
    rank_sum_a = sum(
        rank for rank, (_, group) in zip(ranks, combined) if group == 0
    )
    u_a = rank_sum_a - n_a * (n_a + 1) / 2.0
    mean_u = n_a * n_b / 2.0
    if total > 1:
        variance = (
            n_a * n_b / 12.0
        ) * ((total + 1) - tie_term / (total * (total - 1)))
    else:  # pragma: no cover - total >= 2 given both samples non-empty
        variance = 0.0
    if variance <= 0.0:
        p_value = 1.0  # all values tied: no evidence either way
    else:
        centered = u_a - mean_u
        if centered > 0.5:
            centered -= 0.5
        elif centered < -0.5:
            centered += 0.5
        else:
            centered = 0.0
        z = centered / math.sqrt(variance)
        p_value = min(1.0, math.erfc(abs(z) / math.sqrt(2.0)))
    return {
        "u": u_a,
        "p_value": p_value,
        "a12": u_a / (n_a * n_b),
        "n_a": float(n_a),
        "n_b": float(n_b),
    }


def bootstrap_mean_ci(
    values: Sequence[float],
    seed: int = 0,
    resamples: int = 2000,
    confidence: float = 0.95,
) -> Tuple[float, float]:
    """Seeded percentile-bootstrap confidence interval for the mean."""
    if not values:
        raise ValueError("cannot bootstrap an empty sample")
    if not 0.0 < confidence < 1.0:
        raise ValueError("confidence must be in (0, 1)")
    size = len(values)
    if size == 1:
        return (float(values[0]), float(values[0]))
    rng = random.Random(seed)
    draw = rng.random
    means = []
    for _ in range(max(1, resamples)):
        total = 0.0
        for _ in range(size):
            total += values[int(draw() * size)]
        means.append(total / size)
    means.sort()
    tail = (1.0 - confidence) / 2.0
    last = len(means) - 1
    return (
        means[int(tail * last)],
        means[int(math.ceil((1.0 - tail) * last))],
    )


def _median(values: Sequence[float]) -> float:
    ordered = sorted(values)
    mid = len(ordered) // 2
    if len(ordered) % 2:
        return float(ordered[mid])
    return (ordered[mid - 1] + ordered[mid]) / 2.0


def _mean(values: Sequence[float]) -> float:
    return sum(values) / len(values)


def _stdev(values: Sequence[float]) -> float:
    if len(values) < 2:
        return 0.0
    center = _mean(values)
    return math.sqrt(
        sum((value - center) ** 2 for value in values) / (len(values) - 1)
    )


def trailing_median_outliers(
    values: Sequence[float],
    window: int = 5,
    threshold: float = 1.5,
    min_history: int = 2,
) -> List[Dict[str, float]]:
    """Steps that jumped by more than *threshold*x against the trailing
    median of the previous *window* values (either direction) -- the
    ``check_bench`` regression rule applied to the whole history."""
    anomalies: List[Dict[str, float]] = []
    for index in range(min_history, len(values)):
        prior = [
            float(v) for v in values[max(0, index - window): index]
        ]
        if len(prior) < min_history:
            continue  # pragma: no cover - unreachable with default args
        med = _median(prior)
        value = float(values[index])
        if med <= 0.0:
            continue
        if value > threshold * med or value * threshold < med:
            anomalies.append(
                {
                    "index": float(index),
                    "value": value,
                    "trailing_median": med,
                    "ratio": value / med,
                }
            )
    return anomalies


def change_points(
    values: Sequence[float],
    window: int = 3,
    sensitivity: float = 3.0,
) -> List[Dict[str, float]]:
    """Level shifts via adjacent sliding-window centroids (YouLighter).

    For each split point, the centroids of the *window* values before
    and after are compared; a jump large relative to the in-window
    spread (>= *sensitivity* pooled standard deviations) marks a
    change point.  This catches sustained regime changes -- a kernel
    swap, a new machine -- that per-point outlier rules miss because
    every post-change point agrees with its neighbours.
    """
    points: List[Dict[str, float]] = []
    floats = [float(v) for v in values]
    for split in range(window, len(floats) - window + 1):
        left = floats[split - window: split]
        right = floats[split: split + window]
        centroid_jump = abs(_mean(right) - _mean(left))
        spread = (_stdev(left) + _stdev(right)) / 2.0
        if spread <= 0.0:
            # Perfectly flat windows: any jump at all is a shift.
            spread = max(abs(_mean(left)), 1e-12) * 1e-9
        score = centroid_jump / spread
        if score >= sensitivity:
            points.append(
                {
                    "index": float(split),
                    "shift": _mean(right) - _mean(left),
                    "score": score,
                }
            )
    return points


# ----------------------------------------------------------------------
# trajectory series extraction
# ----------------------------------------------------------------------
def benchmark_mean_series(
    trajectory: Dict[str, Any]
) -> Dict[str, List[float]]:
    """Per-benchmark mean runtime across history entries (missing
    entries are skipped, so a renamed benchmark starts a short series)."""
    series: Dict[str, List[float]] = {}
    for entry in trajectory.get("history", []):
        for bench in entry.get("benchmarks", []):
            mean = (bench.get("stats") or {}).get("mean")
            if isinstance(mean, (int, float)):
                series.setdefault(str(bench.get("name", "?")), []).append(
                    float(mean)
                )
    return series


# ----------------------------------------------------------------------
# the analysis driver
# ----------------------------------------------------------------------
def analyze_trajectories(
    paths: Sequence[str],
    window: int = 5,
    threshold: float = 1.5,
    telemetry_path: Optional[str] = None,
) -> Dict[str, Any]:
    """Load and screen every trajectory; returns the analysis
    dict that :func:`render_text` / :func:`render_html` consume.

    Raises ``ValueError`` if any trajectory is malformed.
    """
    trajectories: List[Dict[str, Any]] = []
    anomalies: List[Dict[str, Any]] = []
    for path in paths:
        trajectory = load_bench_trajectory(path)
        history = trajectory["history"]
        commits = sorted(
            {
                str(entry.get("commit"))[:12]
                for entry in history
                if entry.get("commit")
            }
        )
        hosts = sorted(
            {
                str(entry.get("host") or entry.get("machine") or "")
                for entry in history
            }
            - {""}
        )
        bench_series = benchmark_mean_series(trajectory)
        benchmarks: Dict[str, Any] = {}
        for name, values in sorted(bench_series.items()):
            outliers = trailing_median_outliers(
                values, window=window, threshold=threshold
            )
            changes = change_points(values)
            benchmarks[name] = {
                "means": values,
                "latest": values[-1],
                "outliers": outliers,
                "changes": changes,
            }
            for outlier in outliers:
                anomalies.append(
                    {
                        "trajectory": path,
                        "benchmark": name,
                        "kind": "outlier",
                        **outlier,
                    }
                )
            for change in changes:
                anomalies.append(
                    {
                        "trajectory": path,
                        "benchmark": name,
                        "kind": "change",
                        **change,
                    }
                )
        trajectories.append(
            {
                "path": path,
                "entries": len(history),
                "commits": commits,
                "hosts": hosts,
                "benchmarks": benchmarks,
            }
        )
    analysis: Dict[str, Any] = {
        "tool": "repro analyze",
        "window": window,
        "threshold": threshold,
        "trajectories": trajectories,
        "anomalies": anomalies,
    }
    if telemetry_path is not None:
        analysis["telemetry"] = _analyze_telemetry(
            telemetry_path, window=window, threshold=threshold
        )
    return analysis


def _analyze_telemetry(
    path: str, window: int = 5, threshold: float = 1.5
) -> Dict[str, Any]:
    """Wall-time / RSS trajectories from a ``<registry>.telemetry.json``
    artifact, screened with the same outlier rule."""
    from ..obs.telemetry import load_artifact

    artifact = load_artifact(path)
    walls: List[float] = []
    rss: List[float] = []
    for entry in artifact.get("runs", []):
        walls.append(float(entry.get("wall_time_s", 0.0)))
        rollup = entry.get("rollup") or {}
        rss.append(float(rollup.get("peak_rss_kb", 0)))
    return {
        "path": path,
        "runs": len(walls),
        "wall_time_s": walls,
        "peak_rss_kb": rss,
        "wall_outliers": trailing_median_outliers(
            walls, window=window, threshold=threshold
        ),
        "rss_outliers": trailing_median_outliers(
            rss, window=window, threshold=threshold
        ),
    }


# ----------------------------------------------------------------------
# renderers
# ----------------------------------------------------------------------
def _fmt(value: float) -> str:
    if abs(value) >= 1000:
        return "{:,.0f}".format(value)
    return "%.3g" % value


def render_text(analysis: Dict[str, Any]) -> List[str]:
    """The ``repro analyze`` stdout summary as lines."""
    lines: List[str] = []
    for trajectory in analysis["trajectories"]:
        flagged = sum(
            len(data["outliers"]) + len(data["changes"])
            for data in trajectory["benchmarks"].values()
        )
        lines.append(
            "%s: %d entr%s, %d benchmark(s), %d anomal%s%s"
            % (
                trajectory["path"],
                trajectory["entries"],
                "y" if trajectory["entries"] == 1 else "ies",
                len(trajectory["benchmarks"]),
                flagged,
                "y" if flagged == 1 else "ies",
                " [commits: %s]" % ", ".join(trajectory["commits"])
                if trajectory["commits"]
                else "",
            )
        )
    for anomaly in analysis["anomalies"]:
        if anomaly["kind"] == "outlier":
            lines.append(
                "anomaly: %s %s entry %d: %.4g vs trailing median %.4g "
                "(%.2fx)"
                % (
                    anomaly["trajectory"],
                    anomaly["benchmark"],
                    int(anomaly["index"]),
                    anomaly["value"],
                    anomaly["trailing_median"],
                    anomaly["ratio"],
                )
            )
        else:
            lines.append(
                "change: %s %s at entry %d: centroid shift %+.4g "
                "(score %.1f)"
                % (
                    anomaly["trajectory"],
                    anomaly["benchmark"],
                    int(anomaly["index"]),
                    anomaly["shift"],
                    anomaly["score"],
                )
            )
    telemetry = analysis.get("telemetry")
    if telemetry:
        lines.append(
            "telemetry %s: %d run(s), %d wall outlier(s), %d RSS outlier(s)"
            % (
                telemetry["path"],
                telemetry["runs"],
                len(telemetry["wall_outliers"]),
                len(telemetry["rss_outliers"]),
            )
        )
    return lines


def sparkline_svg(
    values: Sequence[float],
    width: int = 180,
    height: int = 40,
    marks: Sequence[int] = (),
) -> str:
    """An inline SVG sparkline of *values* (anomalous indices dotted)."""
    floats = [float(v) for v in values]
    if not floats:
        return (
            '<svg class="spark" width="%d" height="%d" '
            'viewBox="0 0 %d %d"></svg>' % (width, height, width, height)
        )
    low, high = min(floats), max(floats)
    span = (high - low) or 1.0
    count = len(floats)
    step = (width - 10) / max(1, count - 1)
    xs = [5 + index * step for index in range(count)]
    ys = [
        height - 5 - (value - low) / span * (height - 10) for value in floats
    ]
    if count == 1:
        xs = [width / 2.0]
    points = " ".join(
        "%.1f,%.1f" % (x, y) for x, y in zip(xs, ys)
    )
    dots = "".join(
        '<circle cx="%.1f" cy="%.1f" r="3"/>' % (xs[index], ys[index])
        for index in marks
        if 0 <= index < count
    )
    return (
        '<svg class="spark" width="%d" height="%d" viewBox="0 0 %d %d" '
        'role="img"><polyline fill="none" points="%s"/>%s</svg>'
        % (width, height, width, height, points, dots)
    )


_HTML_STYLE = """
body { font: 14px/1.5 -apple-system, 'Segoe UI', sans-serif; margin: 2em auto;
       max-width: 70em; color: #1c2733; padding: 0 1em; }
h1 { font-size: 1.5em; border-bottom: 2px solid #2a6f97; padding-bottom: .25em; }
h2 { font-size: 1.2em; margin-top: 2em; color: #2a6f97; }
table { border-collapse: collapse; width: 100%; margin: 1em 0; }
th, td { border: 1px solid #d4dde4; padding: .35em .6em; text-align: right; }
th { background: #eef3f7; }
td.name, th.name { text-align: left; font-family: ui-monospace, monospace;
                   font-size: .92em; }
tr.anom td { background: #fdeeee; }
.spark polyline { stroke: #2a6f97; stroke-width: 1.5; }
.spark circle { fill: #c1292e; }
.muted { color: #687688; font-size: .9em; }
.badge { display: inline-block; padding: .05em .5em; border-radius: .8em;
         font-size: .85em; background: #eef3f7; }
.badge.flag { background: #c1292e; color: #fff; }
"""


def render_html(analysis: Dict[str, Any], title: str = "repro analysis") -> str:
    """The analysis as one self-contained HTML page (no external assets,
    no scripts -- safe to archive as a CI artifact and open anywhere)."""
    esc = html.escape
    parts: List[str] = [
        "<!DOCTYPE html>",
        '<html lang="en"><head><meta charset="utf-8">',
        "<title>%s</title>" % esc(title),
        "<style>%s</style></head><body>" % _HTML_STYLE,
        "<h1>%s</h1>" % esc(title),
        '<p class="muted">outlier window %d &times; threshold %.2g</p>'
        % (analysis["window"], analysis["threshold"]),
    ]

    for trajectory in analysis["trajectories"]:
        parts.append(
            "<h2>Trajectory %s</h2>" % esc(trajectory["path"])
        )
        provenance = []
        if trajectory["commits"]:
            provenance.append(
                "commits: %s" % ", ".join(map(esc, trajectory["commits"]))
            )
        if trajectory["hosts"]:
            provenance.append(
                "hosts: %s" % ", ".join(map(esc, trajectory["hosts"]))
            )
        provenance.append("%d entr%s" % (
            trajectory["entries"],
            "y" if trajectory["entries"] == 1 else "ies",
        ))
        parts.append('<p class="muted">%s</p>' % " &middot; ".join(provenance))
        parts.append(
            "<table><tr><th class=name>benchmark</th><th>trend</th>"
            "<th>latest mean (s)</th><th>anomalies</th></tr>"
        )
        for name, data in trajectory["benchmarks"].items():
            marks = [int(a["index"]) for a in data["outliers"]] + [
                int(c["index"]) for c in data["changes"]
            ]
            flags: List[str] = []
            for outlier in data["outliers"]:
                flags.append(
                    '<span class="badge flag">%.2fx @ %d</span>'
                    % (outlier["ratio"], int(outlier["index"]))
                )
            for change in data["changes"]:
                flags.append(
                    '<span class="badge flag">shift %+.3g @ %d</span>'
                    % (change["shift"], int(change["index"]))
                )
            parts.append(
                "<tr%s><td class=name>%s</td><td>%s</td><td>%s</td>"
                "<td>%s</td></tr>"
                % (
                    ' class="anom"' if flags else "",
                    esc(name),
                    sparkline_svg(data["means"], marks=marks),
                    _fmt(data["latest"]),
                    " ".join(flags) or '<span class="muted">none</span>',
                )
            )
        parts.append("</table>")

    telemetry = analysis.get("telemetry")
    if telemetry:
        parts.append("<h2>Harness telemetry %s</h2>" % esc(telemetry["path"]))
        parts.append(
            "<table><tr><th class=name>series</th><th>trend</th>"
            "<th>latest</th><th>outliers</th></tr>"
        )
        for label, key, flagged in (
            ("wall_time_s", "wall_time_s", "wall_outliers"),
            ("peak_rss_kb", "peak_rss_kb", "rss_outliers"),
        ):
            values = telemetry[key]
            marks = [int(a["index"]) for a in telemetry[flagged]]
            parts.append(
                "<tr%s><td class=name>%s</td><td>%s</td><td>%s</td>"
                "<td>%d</td></tr>"
                % (
                    ' class="anom"' if marks else "",
                    esc(label),
                    sparkline_svg(values, marks=marks),
                    _fmt(values[-1]) if values else "-",
                    len(marks),
                )
            )
        parts.append("</table>")

    parts.append("</body></html>")
    return "\n".join(parts) + "\n"
