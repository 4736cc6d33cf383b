"""Tests for the scale-smoke budget gate (benchmarks/check_scale.py)."""

import json
import os
import sys

BENCH_DIR = os.path.join(os.path.dirname(os.path.dirname(__file__)), "benchmarks")
if BENCH_DIR not in sys.path:
    sys.path.insert(0, BENCH_DIR)

import check_scale  # noqa: E402


def _artifact(tmp_path, wall_s, rss_kb):
    path = tmp_path / "runs.telemetry.json"
    path.write_text(json.dumps({
        "runs": [{
            "n_specs": 1,
            "executed": 1,
            "workers": 4,
            "wall_time_s": wall_s,
            "rollup": {"peak_rss_kb": rss_kb},
        }]
    }))
    return str(path)


def _check(path, max_wall_s=420, max_rss_kb=4_000_000):
    return check_scale.main(
        [path, "--max-wall-s", str(max_wall_s), "--max-rss-kb", str(max_rss_kb)]
    )


def test_within_budget_passes(tmp_path):
    assert _check(_artifact(tmp_path, wall_s=100.0, rss_kb=1_000_000)) == 0


def test_over_budget_fails(tmp_path):
    assert _check(_artifact(tmp_path, wall_s=500.0, rss_kb=1_000_000)) == 1
    assert _check(_artifact(tmp_path, wall_s=100.0, rss_kb=5_000_000)) == 1


def test_environment_cannot_relax_the_budgets(tmp_path, monkeypatch):
    """The budgets come from the flags alone."""
    monkeypatch.setenv("REPRO_SCALE_MAX_WALL_S", "1e9")
    monkeypatch.setenv("REPRO_SCALE_MAX_RSS_KB", "1e12")
    assert _check(_artifact(tmp_path, wall_s=500.0, rss_kb=5_000_000)) == 1


def test_unreadable_artifact_exits_2(tmp_path):
    assert _check(str(tmp_path / "missing.json")) == 2
    garbled = tmp_path / "garbled.json"
    garbled.write_text("{not json")
    assert _check(str(garbled)) == 2
    empty = tmp_path / "empty.json"
    empty.write_text(json.dumps({"runs": []}))
    assert _check(str(empty)) == 2
