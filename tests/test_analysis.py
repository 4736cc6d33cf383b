"""Tests for the cross-run analysis service (repro.experiments.analysis):

- Mann-Whitney U against hand-computed values (clean separation, ties,
  identical samples, tiny n);
- seeded bootstrap confidence intervals;
- the trailing-median outlier rule and the YouLighter-style
  windowed-centroid change detector on synthetic series;
- series extraction from trajectories;
- the end-to-end analyze driver, text and self-contained HTML renderers
  over a frozen trajectory committed under tests/fixtures/bench/;
- the `repro analyze` CLI (defaults, JSON/HTML outputs, exit 2 on
  malformed history -- the `make analyze-smoke` contract -- and a skip,
  exit 0, when there is no history at all).

The frozen trajectory is real `make bench-engine` / `make bench-section4`
output, limited to a few benchmarks: four engine entries and four
Section 4 entries, the first two recorded on the since-retired legacy
kernel, so the switch to the fast kernel shows up as an anomaly.
"""

import json
import math
import os

import pytest

from repro.cli import main as cli_main
from repro.experiments.analysis import (
    analyze_trajectories,
    benchmark_mean_series,
    bootstrap_mean_ci,
    change_points,
    load_bench_trajectory,
    mann_whitney_u,
    render_html,
    render_text,
    sparkline_svg,
    trailing_median_outliers,
)

BENCH_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "fixtures", "bench")
BENCH_ENGINE = os.path.join(BENCH_DIR, "BENCH_engine.json")
BENCH_SECTION4 = os.path.join(BENCH_DIR, "BENCH_section4.json")


def _trajectory(entries):
    """A trajectory dict from [{bench_name: mean}] rows."""
    history = []
    for row in entries:
        history.append({
            "recorded": "", "machine": "ci",
            "benchmarks": [
                {"name": name, "stats": {"mean": mean}}
                for name, mean in row.items()
            ],
        })
    return {"format": 1, "history": history}


class TestMannWhitneyU:
    def test_clean_separation(self):
        # Every a beats every b: U = n_a * n_b, A12 = 1.
        result = mann_whitney_u([10, 11, 12, 13], [1, 2, 3, 4])
        assert result["u"] == 16.0
        assert result["a12"] == 1.0
        assert result["p_value"] < 0.05

    def test_symmetry(self):
        a, b = [10.0, 11, 12, 13], [1.0, 2, 3, 14]
        forward = mann_whitney_u(a, b)
        backward = mann_whitney_u(b, a)
        assert forward["p_value"] == pytest.approx(backward["p_value"])
        assert forward["a12"] == pytest.approx(1.0 - backward["a12"])
        assert forward["u"] + backward["u"] == len(a) * len(b)

    def test_identical_samples_no_evidence(self):
        result = mann_whitney_u([5.0] * 4, [5.0] * 4)
        assert result["p_value"] == 1.0
        assert result["a12"] == 0.5

    def test_ties_average_ranks(self):
        # a = [1, 2], b = [2, 3]: the tied 2s share rank 2.5, so
        # U_a = (1 + 2.5) - 3 = 0.5 and A12 = 0.125.
        result = mann_whitney_u([1.0, 2.0], [2.0, 3.0])
        assert result["u"] == 0.5
        assert result["a12"] == 0.125

    def test_interleaved_not_significant(self):
        result = mann_whitney_u([1.0, 3.0, 5.0], [2.0, 4.0, 6.0])
        assert result["p_value"] > 0.05

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            mann_whitney_u([], [1.0])
        with pytest.raises(ValueError):
            mann_whitney_u([1.0], [])


class TestBootstrapCi:
    def test_seeded_and_deterministic(self):
        values = [10.0, 12.0, 9.0, 11.0, 10.5, 13.0]
        one = bootstrap_mean_ci(values, seed=7)
        two = bootstrap_mean_ci(values, seed=7)
        assert one == two
        assert one != bootstrap_mean_ci(values, seed=8)

    def test_brackets_the_mean(self):
        values = [10.0, 12.0, 9.0, 11.0, 10.5, 13.0]
        low, high = bootstrap_mean_ci(values, seed=0)
        mean = sum(values) / len(values)
        assert low <= mean <= high
        assert min(values) <= low and high <= max(values)

    def test_wider_at_higher_confidence(self):
        values = [1.0, 5.0, 2.0, 8.0, 3.0, 9.0, 4.0]
        narrow = bootstrap_mean_ci(values, seed=0, confidence=0.5)
        wide = bootstrap_mean_ci(values, seed=0, confidence=0.99)
        assert wide[0] <= narrow[0] and narrow[1] <= wide[1]

    def test_degenerate_single_sample(self):
        assert bootstrap_mean_ci([42.0]) == (42.0, 42.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            bootstrap_mean_ci([])
        with pytest.raises(ValueError):
            bootstrap_mean_ci([1.0, 2.0], confidence=1.0)


class TestOutlierDetectors:
    def test_trailing_median_flags_spike_and_drop(self):
        series = [10.0, 10.0, 10.0, 40.0, 10.0, 10.0, 2.0]
        anomalies = trailing_median_outliers(series, window=3, threshold=1.5)
        flagged = {int(a["index"]): a for a in anomalies}
        assert 3 in flagged and flagged[3]["ratio"] == pytest.approx(4.0)
        assert 6 in flagged  # the drop: 2 * 1.5 < median 10
        assert 4 not in flagged

    def test_needs_minimum_history(self):
        assert trailing_median_outliers([1.0, 100.0]) == []
        assert trailing_median_outliers([1.0, 1.0, 100.0]) != []

    def test_flat_series_clean(self):
        assert trailing_median_outliers([5.0] * 10) == []
        assert change_points([5.0] * 10) == []

    def test_change_detector_finds_level_shift(self):
        # A sustained regime change every per-point rule would miss at
        # threshold 1.5x: the level only moves 1.2x but permanently.
        series = [10.0, 10.1, 9.9, 10.0, 12.0, 12.1, 11.9, 12.0]
        assert trailing_median_outliers(series, threshold=1.5) == []
        points = change_points(series, window=3)
        assert points
        best = max(points, key=lambda p: p["score"])
        assert int(best["index"]) == 4
        assert best["shift"] == pytest.approx(2.0, abs=0.2)

    def test_change_detector_ignores_noise(self):
        series = [10.0, 11.0, 9.0, 10.5, 9.5, 10.2, 10.8, 9.2]
        assert change_points(series, window=3) == []

    def test_flat_windows_any_jump_is_a_shift(self):
        series = [10.0, 10.0, 10.0, 11.0, 11.0, 11.0]
        points = change_points(series, window=3)
        assert len(points) == 1
        assert int(points[0]["index"]) == 3


class TestSeriesExtraction:
    def test_benchmark_mean_series(self):
        trajectory = _trajectory([
            {"bench_a": 1.0, "bench_b": 5.0},
            {"bench_a": 1.1},
            {"bench_a": 1.2, "bench_b": 5.5},
        ])
        series = benchmark_mean_series(trajectory)
        assert series == {"bench_a": [1.0, 1.1, 1.2], "bench_b": [5.0, 5.5]}

class TestLoader:
    def test_rejects_malformed(self, tmp_path):
        path = str(tmp_path / "BENCH_bad.json")
        with pytest.raises(ValueError, match="does not exist"):
            load_bench_trajectory(path)
        with open(path, "w") as handle:
            handle.write("{broken")
        with pytest.raises(ValueError, match="cannot read"):
            load_bench_trajectory(path)
        with open(path, "w") as handle:
            json.dump({"history": [{"no_benchmarks": 1}]}, handle)
        with pytest.raises(ValueError, match="entry 0 is malformed"):
            load_bench_trajectory(path)
        with open(path, "w") as handle:
            json.dump(["not", "a", "dict"], handle)
        with pytest.raises(ValueError, match="neither"):
            load_bench_trajectory(path)

    def test_accepts_legacy_snapshot(self, tmp_path):
        path = str(tmp_path / "BENCH_legacy.json")
        with open(path, "w") as handle:
            json.dump({
                "datetime": "2026-01-01",
                "machine_info": {"node": "box"},
                "benchmarks": [
                    {"name": "b", "stats": {"mean": 1.0}, "extra_info": {}}
                ],
            }, handle)
        trajectory = load_bench_trajectory(path)
        assert len(trajectory["history"]) == 1
        assert trajectory["history"][0]["machine"] == "box"

    def test_loads_frozen_trajectories(self):
        for path in (BENCH_ENGINE, BENCH_SECTION4):
            trajectory = load_bench_trajectory(path)
            assert trajectory["history"]


class TestAnalyzeDriver:
    def test_committed_history_satisfies_acceptance(self):
        # The acceptance bar of the analysis service, asserted as a
        # regression test: the frozen history, whose Section 4 series
        # switch kernels, must yield trajectory anomalies.
        analysis = analyze_trajectories([BENCH_ENGINE, BENCH_SECTION4])
        flagged = {anomaly["trajectory"] for anomaly in analysis["anomalies"]}
        assert flagged == {BENCH_SECTION4}

    def test_deterministic(self):
        one = analyze_trajectories([BENCH_ENGINE, BENCH_SECTION4])
        two = analyze_trajectories([BENCH_ENGINE, BENCH_SECTION4])
        assert one == two

    def test_carries_provenance(self, tmp_path):
        path = str(tmp_path / "BENCH_p.json")
        with open(path, "w") as handle:
            json.dump({"format": 1, "history": [{
                "commit": "a" * 40, "host": "box-1", "machine": "box-1",
                "benchmarks": [{"name": "b", "stats": {"mean": 1.0}}],
            }]}, handle)
        analysis = analyze_trajectories([path])
        trajectory = analysis["trajectories"][0]
        assert trajectory["commits"] == ["a" * 12]
        assert trajectory["hosts"] == ["box-1"]

    def test_telemetry_rollup_screening(self, tmp_path):
        telemetry = {
            "format": 1,
            "runs": [
                {"wall_time_s": w, "rollup": {"peak_rss_kb": 1000}}
                for w in (10.0, 10.0, 10.0, 50.0)
            ],
        }
        path = str(tmp_path / "runs.telemetry.json")
        with open(path, "w") as handle:
            json.dump(telemetry, handle)
        analysis = analyze_trajectories(
            [BENCH_ENGINE], telemetry_path=path
        )
        screened = analysis["telemetry"]
        assert screened["runs"] == 4
        assert len(screened["wall_outliers"]) == 1
        assert screened["rss_outliers"] == []


class TestRenderers:
    def test_text_summary(self):
        analysis = analyze_trajectories([BENCH_ENGINE, BENCH_SECTION4])
        lines = render_text(analysis)
        # One line per trajectory, then one per anomaly.
        assert [line.split(":")[0] for line in lines[:2]] == [
            BENCH_ENGINE, BENCH_SECTION4,
        ]
        assert len(lines) == 2 + len(analysis["anomalies"]) > 2
        assert all(line.startswith(("anomaly: ", "change: ")) for line in lines[2:])

    def test_html_self_contained(self):
        analysis = analyze_trajectories([BENCH_ENGINE, BENCH_SECTION4])
        page = render_html(analysis, title="t < v & w")
        assert page.startswith("<!DOCTYPE html>")
        assert "<style>" in page and "<svg" in page
        assert "badge flag" in page  # an anomaly rendered
        # Self-contained: no scripts, no external fetches.
        assert "<script" not in page
        assert "http://" not in page and "https://" not in page
        # Title is escaped.
        assert "<title>t &lt; v &amp; w</title>" in page

    def test_sparkline_marks(self):
        svg = sparkline_svg([1.0, 2.0, 3.0], marks=[1, 99])
        assert svg.count("<circle") == 1  # out-of-range mark dropped
        assert "<polyline" in svg
        assert sparkline_svg([]).endswith("</svg>")
        assert "circle" not in sparkline_svg([])


class TestAnalyzeCli:
    def test_defaults_to_trajectories_in_cwd(self, monkeypatch, capsys):
        monkeypatch.chdir(BENCH_DIR)
        assert cli_main(["analyze"]) == 0
        out = capsys.readouterr().out
        assert "BENCH_engine.json" in out

    def test_writes_json_and_html(self, tmp_path, capsys):
        json_out = str(tmp_path / "analysis.json")
        html_out = str(tmp_path / "analysis.html")
        code = cli_main([
            "analyze", BENCH_ENGINE, BENCH_SECTION4,
            "--json", json_out, "--html", html_out,
        ])
        assert code == 0
        doc = json.load(open(json_out))
        assert doc["tool"] == "repro analyze"
        assert doc["anomalies"]
        page = open(html_out).read()
        assert page.startswith("<!DOCTYPE html>")
        err = capsys.readouterr().err
        assert "wrote %s" % json_out in err
        assert "wrote %s" % html_out in err

    def test_exit_2_on_malformed_history(self, tmp_path, capsys):
        # The `make analyze-smoke` contract: malformed committed
        # history must be a hard failure, not a shrug.
        path = str(tmp_path / "BENCH_bad.json")
        with open(path, "w") as handle:
            handle.write('{"history": [42]}')
        assert cli_main(["analyze", path]) == 2
        assert "malformed" in capsys.readouterr().err

    def test_skips_when_nothing_to_analyze(self, tmp_path, monkeypatch, capsys):
        # A fresh checkout has no trajectories: a skip, like check_bench.
        monkeypatch.chdir(tmp_path)
        assert cli_main(["analyze"]) == 0
        captured = capsys.readouterr()
        assert "no BENCH_" in captured.err and "skipping" in captured.err
        assert captured.out == ""


def test_p_value_is_a_probability():
    # Property sweep: p in (0, 1] across assorted sample shapes.
    samples = [
        ([1.0], [2.0]),
        ([1.0, 1.0], [1.0, 1.0]),
        ([1.0, 2.0, 3.0], [4.0, 5.0]),
        ([1.0, 2.0, 2.0, 3.0], [2.0, 2.0, 4.0]),
        (list(range(20)), list(range(10, 30))),
    ]
    for a, b in samples:
        result = mann_whitney_u([float(v) for v in a], [float(v) for v in b])
        assert 0.0 < result["p_value"] <= 1.0
        assert 0.0 <= result["a12"] <= 1.0
        assert not math.isnan(result["u"])
