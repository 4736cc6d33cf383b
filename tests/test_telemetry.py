"""Tests for harness telemetry (repro.obs.telemetry) and its surfaces:

- metrics-registry semantics (counters / gauges, disabled no-ops);
- span profiler self/cumulative attribution (nesting, recursion);
- snapshot algebra: delta, counter-sum / gauge-last / span-sum /
  peak-RSS-max merges;
- Runner integration: per-worker deltas rolled into RunStats, the
  ``telemetry.json`` artifact next to the run registry, and the two
  acceptance criteria from ISSUE 5 (span-table total within 5% of the
  recorded run duration; telemetry on/off bit-identical FigureResult
  metrics);
- the ``repro metrics`` / ``repro profile`` CLI subcommands.
"""

import json
import os

import pytest

from repro.cli import main as cli_main
from repro.experiments.config import smoke_scale
from repro.experiments.section4 import fig14_unicast_inconsistency
from repro.obs.telemetry import (
    TELEMETRY,
    MetricsRegistry,
    append_run_entry,
    default_artifact_path,
    delta_snapshots,
    empty_snapshot,
    format_span_table,
    load_artifact,
    merge_snapshots,
    merged_rollup,
    peak_rss_kb,
    prometheus_exposition,
    span_total_s,
)
from repro.runner import Runner, RunSpec


def _specs(n=3, seed0=0):
    config = smoke_scale()
    return [
        RunSpec(config=config.with_overrides(seed=seed0 + i), method="ttl")
        for i in range(n)
    ]


# ----------------------------------------------------------------------
# registry instruments
# ----------------------------------------------------------------------
class TestMetricsRegistry:
    def test_counters_accumulate(self):
        reg = MetricsRegistry(enabled=True)
        reg.count("a")
        reg.count("a", 2.5)
        reg.count("b", 0.0)
        snap = reg.snapshot()
        assert snap["counters"] == {"a": 3.5, "b": 0.0}

    def test_gauges_keep_last_value(self):
        reg = MetricsRegistry(enabled=True)
        reg.gauge("workers", 4)
        reg.gauge("workers", 2)
        assert reg.snapshot()["gauges"] == {"workers": 2.0}

    def test_disabled_registry_is_inert(self):
        reg = MetricsRegistry(enabled=False)
        reg.count("a")
        reg.gauge("g", 1)
        with reg.span("s"):
            pass
        snap = reg.snapshot()
        assert snap["counters"] == {}
        assert snap["gauges"] == {}
        assert snap["spans"] == {}

    def test_peak_rss_positive_on_linux(self):
        assert peak_rss_kb() > 0

    def test_reset_clears_recorded_data(self):
        reg = MetricsRegistry(enabled=True)
        reg.count("a")
        with reg.span("s"):
            pass
        reg.reset()
        snap = reg.snapshot()
        assert snap["counters"] == {} and snap["spans"] == {}


# ----------------------------------------------------------------------
# span profiler
# ----------------------------------------------------------------------
class TestSpans:
    def test_self_time_excludes_children(self):
        reg = MetricsRegistry(enabled=True)
        with reg.span("outer"):
            with reg.span("inner"):
                pass
        spans = reg.snapshot()["spans"]
        assert spans["outer"]["count"] == 1
        assert spans["inner"]["count"] == 1
        assert spans["outer"]["cum_s"] >= spans["inner"]["cum_s"]
        assert spans["outer"]["self_s"] == pytest.approx(
            spans["outer"]["cum_s"] - spans["inner"]["cum_s"], abs=1e-6
        )
        # Self times tile the root's cumulative wall time.
        assert span_total_s(reg.snapshot()) == pytest.approx(
            spans["outer"]["cum_s"], abs=1e-6
        )

    def test_recursion_counts_wall_time_once(self):
        reg = MetricsRegistry(enabled=True)

        def recurse(depth):
            with reg.span("r"):
                if depth:
                    recurse(depth - 1)

        recurse(3)
        data = reg.snapshot()["spans"]["r"]
        assert data["count"] == 4
        # cum only accumulates at the outermost frame: it must stay in
        # the same order of magnitude as the wall time, not 4x it.
        assert data["cum_s"] == pytest.approx(data["self_s"], rel=0.5)

    def test_exception_still_records_span(self):
        reg = MetricsRegistry(enabled=True)
        with pytest.raises(RuntimeError):
            with reg.span("boom"):
                raise RuntimeError("x")
        assert reg.snapshot()["spans"]["boom"]["count"] == 1

    def test_span_table_ranking_and_top(self):
        snap = empty_snapshot()
        snap["spans"] = {
            "fast": {"count": 10, "cum_s": 0.1, "self_s": 0.1},
            "slow": {"count": 1, "cum_s": 2.0, "self_s": 1.9},
        }
        lines = format_span_table(snap, sort="self")
        assert lines[1].startswith("slow")
        assert lines[-1].startswith("total (self)")
        assert len(format_span_table(snap, top=1, sort="cum")) == 3


# ----------------------------------------------------------------------
# snapshot algebra
# ----------------------------------------------------------------------
class TestSnapshotAlgebra:
    def _sample(self):
        reg = MetricsRegistry(enabled=True)
        reg.count("c", 2)
        reg.gauge("g", 7)
        with reg.span("s"):
            pass
        return reg.snapshot()

    def test_merge_sums_counters_and_histograms(self):
        merged = merge_snapshots(self._sample(), self._sample())
        assert merged["counters"]["c"] == 4
        assert merged["spans"]["s"]["count"] == 2

    def test_merge_gauge_last_and_rss_max(self):
        a, b = self._sample(), self._sample()
        a["peak_rss_kb"], b["peak_rss_kb"] = 100, 50
        b["gauges"]["g"] = 3.0
        merged = merge_snapshots(a, b)
        assert merged["gauges"]["g"] == 3.0
        assert merged["peak_rss_kb"] == 100

    def test_merge_identity(self):
        sample = self._sample()
        merged = merge_snapshots(empty_snapshot(), sample)
        assert merged["counters"] == sample["counters"]
        assert merged["spans"] == sample["spans"]

    def test_delta_reports_only_changes(self):
        reg = MetricsRegistry(enabled=True)
        reg.count("before", 1)
        before = reg.snapshot()
        reg.count("after", 5)
        with reg.span("s"):
            pass
        delta = reg.delta_since(before)
        assert delta["counters"] == {"after": 5}
        assert set(delta["spans"]) == {"s"}

    def test_delta_of_identical_snapshots_is_empty(self):
        snap = self._sample()
        delta = delta_snapshots(snap, snap)
        assert delta["counters"] == {}
        assert delta["spans"] == {}

    def test_merge_empty_shard_is_identity_both_ways(self):
        # A worker shard that did nothing merges as a no-op whether it
        # arrives first or last.
        sample = self._sample()
        original = json.loads(json.dumps(sample))
        left = merge_snapshots(sample, empty_snapshot())
        assert left == original
        right = merge_snapshots(empty_snapshot(), sample)
        assert right["counters"] == original["counters"]
        assert right["spans"] == original["spans"]

    def test_merge_zero_activity_enabled_registry(self):
        # An enabled-but-idle registry's snapshot is a valid zero shard:
        # merging it changes nothing but the (max-merged) peak RSS.
        idle = MetricsRegistry(enabled=True).snapshot()
        sample = self._sample()
        expected_rss = max(sample["peak_rss_kb"], idle["peak_rss_kb"])
        merged = merge_snapshots(sample, idle)
        assert merged["counters"] == self._sample()["counters"]
        assert merged["peak_rss_kb"] == expected_rss

    def test_merge_peak_rss_max_with_missing_keys(self):
        a, b = self._sample(), self._sample()
        a.pop("peak_rss_kb", None)
        b["peak_rss_kb"] = 123
        assert merge_snapshots(a, b)["peak_rss_kb"] == 123
        c = self._sample()
        c["peak_rss_kb"] = 456
        assert merge_snapshots(c, {"counters": {}})["peak_rss_kb"] == 456


class TestPeakRss:
    def _patch_rusage(self, monkeypatch, maxrss):
        import resource

        class FakeUsage:
            ru_maxrss = maxrss

        monkeypatch.setattr(
            resource, "getrusage", lambda who: FakeUsage()
        )

    def test_linux_reports_kib_verbatim(self, monkeypatch):
        import repro.obs.telemetry as telemetry

        self._patch_rusage(monkeypatch, 2048)
        monkeypatch.setattr(telemetry.sys, "platform", "linux")
        assert peak_rss_kb() == 2048

    def test_darwin_bytes_normalized_to_kib(self, monkeypatch):
        # macOS ru_maxrss is bytes; the same physical footprint must
        # read identically on both platforms.
        import repro.obs.telemetry as telemetry

        self._patch_rusage(monkeypatch, 2048 * 1024)
        monkeypatch.setattr(telemetry.sys, "platform", "darwin")
        assert peak_rss_kb() == 2048

    def test_real_process_nonzero(self):
        assert peak_rss_kb() > 0


# ----------------------------------------------------------------------
# prometheus exposition
# ----------------------------------------------------------------------
class TestPrometheus:
    def test_exposition_format(self):
        reg = MetricsRegistry(enabled=True)
        reg.count("registry.cache_hits", 3)
        reg.gauge("runner.workers", 2)
        text = prometheus_exposition(reg.snapshot())
        assert "# TYPE repro_registry_cache_hits_total counter" in text
        assert "repro_registry_cache_hits_total 3" in text
        assert "repro_runner_workers 2" in text
        assert text.endswith("\n")

    def test_span_series(self):
        reg = MetricsRegistry(enabled=True)
        with reg.span("engine.run"):
            pass
        text = prometheus_exposition(reg.snapshot())
        assert 'repro_span_count{span="engine.run"} 1' in text
        assert 'agg="self"' in text and 'agg="cum"' in text


# ----------------------------------------------------------------------
# telemetry.json artifact
# ----------------------------------------------------------------------
class TestArtifact:
    def test_default_path_sits_next_to_registry(self):
        assert default_artifact_path("/x/runs.json") == "/x/runs.telemetry.json"
        assert default_artifact_path("/x/runs") == "/x/runs.telemetry.json"

    def test_append_and_load_roundtrip(self, tmp_path):
        path = str(tmp_path / "runs.telemetry.json")
        assert load_artifact(path) == {"format": 1, "runs": []}
        assert append_run_entry(path, {"rollup": empty_snapshot()}) == 1
        assert append_run_entry(path, {"rollup": empty_snapshot()}) == 2
        assert len(load_artifact(path)["runs"]) == 2

    def test_entries_age_out(self, tmp_path):
        path = str(tmp_path / "t.json")
        for index in range(5):
            append_run_entry(path, {"n": index}, max_entries=3)
        assert [entry["n"] for entry in load_artifact(path)["runs"]] == [2, 3, 4]

    def test_corrupt_artifact_restarts_empty(self, tmp_path):
        path = str(tmp_path / "t.json")
        with open(path, "w") as handle:
            handle.write("not json")
        with pytest.raises(ValueError):
            load_artifact(path)
        assert append_run_entry(path, {"n": 0}) == 1

    def test_merged_rollup_sums_runs(self):
        rollup = empty_snapshot()
        rollup["counters"]["c"] = 2
        artifact = {"format": 1, "runs": [{"rollup": rollup}, {"rollup": rollup}]}
        assert merged_rollup(artifact)["counters"]["c"] == 4


# ----------------------------------------------------------------------
# Runner integration + ISSUE 5 acceptance criteria
# ----------------------------------------------------------------------
class TestRunnerIntegration:
    def test_serial_rollup_and_artifact(self, tmp_path):
        registry_path = str(tmp_path / "runs.json")
        runner = Runner(workers=1, registry=registry_path)
        outcome = runner.run(_specs(2))
        rollup = outcome.stats.telemetry
        assert rollup is not None
        for name in ("runner.run", "spec.execute", "engine.run",
                     "testbed.build", "deployment.collect"):
            assert rollup["spans"][name]["count"] >= 1
        assert rollup["counters"]["engine.events"] == (
            outcome.stats.events_processed
        )
        assert rollup["counters"]["registry.cache_misses"] == 2
        assert rollup["gauges"]["runner.workers"] == 1
        assert outcome.stats.peak_rss_kb > 0
        artifact = load_artifact(default_artifact_path(registry_path))
        assert len(artifact["runs"]) == 1
        assert artifact["runs"][0]["n_specs"] == 2

    def test_cache_hits_recorded_on_second_run(self, tmp_path):
        registry_path = str(tmp_path / "runs.json")
        Runner(workers=1, registry=registry_path).run(_specs(2))
        outcome = Runner(workers=1, registry=registry_path).run(_specs(2))
        assert outcome.stats.cache_hits == 2
        assert outcome.stats.cache_misses == 0
        assert outcome.stats.registry_hit_rate == 1.0
        rollup = outcome.stats.telemetry
        assert rollup["counters"]["registry.cache_hits"] == 2
        assert "spec.execute" not in rollup["spans"]
        artifact = load_artifact(default_artifact_path(registry_path))
        assert len(artifact["runs"]) == 2

    def test_parallel_rollup_matches_serial_counters(self, tmp_path):
        serial = Runner(workers=1).run(_specs(3))
        parallel = Runner(workers=2).run(_specs(3))
        a, b = serial.stats.telemetry, parallel.stats.telemetry
        assert a["counters"]["engine.events"] == b["counters"]["engine.events"]
        assert (
            a["counters"]["fabric.messages_sent"]
            == b["counters"]["fabric.messages_sent"]
        )
        assert a["spans"]["engine.run"]["count"] == b["spans"]["engine.run"]["count"]
        assert b["gauges"]["runner.workers"] == 2
        # And the simulated outcomes are identical regardless of workers.
        for left, right in zip(serial.metrics, parallel.metrics):
            assert left.to_dict() == right.to_dict()

    def test_acceptance_span_total_within_5pct_of_wall(self, tmp_path):
        # ISSUE 5: `repro profile` on a registry run prints a span table
        # whose total wall time is within 5% of the recorded duration.
        registry_path = str(tmp_path / "runs.json")
        outcome = Runner(workers=1, registry=registry_path).run(_specs(3))
        artifact = load_artifact(default_artifact_path(registry_path))
        entry = artifact["runs"][-1]
        total = span_total_s(entry["rollup"])
        wall = entry["wall_time_s"]
        assert outcome.stats.wall_time_s == pytest.approx(wall)
        assert total == pytest.approx(wall, rel=0.05)

    def test_acceptance_metrics_bit_identical_telemetry_on_off(self):
        # ISSUE 5: telemetry-off runs stay bit-identical to telemetry-on
        # runs in every FigureResult metric.
        config = smoke_scale()
        was_enabled = TELEMETRY.enabled
        try:
            TELEMETRY.enabled = True
            on = fig14_unicast_inconsistency(
                config, runner=Runner(workers=1)
            )
            TELEMETRY.enabled = False
            off = fig14_unicast_inconsistency(
                config, runner=Runner(workers=1)
            )
        finally:
            TELEMETRY.enabled = was_enabled
        assert on.series == off.series
        assert on.summary == off.summary
        for method in ("push", "invalidation", "ttl"):
            assert (
                on.details.metrics[method].to_dict()
                == off.details.metrics[method].to_dict()
            )
        assert off.stats.telemetry is None
        assert on.stats.telemetry is not None

    def test_disabled_telemetry_writes_no_artifact(self, tmp_path):
        registry_path = str(tmp_path / "runs.json")
        was_enabled = TELEMETRY.enabled
        try:
            TELEMETRY.enabled = False
            outcome = Runner(workers=1, registry=registry_path).run(_specs(1))
        finally:
            TELEMETRY.enabled = was_enabled
        assert outcome.stats.telemetry is None
        assert not os.path.exists(default_artifact_path(registry_path))

    def test_stats_to_dict_surfaces_telemetry_fields(self):
        outcome = Runner(workers=1).run(_specs(1))
        data = outcome.stats.to_dict()
        assert data["cache_misses"] == 0  # no registry attached
        assert data["registry_hit_rate"] == 0.0
        assert data["events_per_s"] > 0
        assert data["peak_rss_kb"] > 0
        assert "spans" in data["telemetry"]
        assert json.dumps(data)  # JSON-safe for figures.json


# ----------------------------------------------------------------------
# repro metrics / repro profile CLI
# ----------------------------------------------------------------------
class TestTelemetryCli:
    @pytest.fixture()
    def registry_path(self, tmp_path):
        path = str(tmp_path / "runs.json")
        Runner(workers=1, registry=path).run(_specs(2))
        return path

    def test_metrics_json(self, registry_path, capsys):
        assert cli_main(["metrics", "--registry", registry_path]) == 0
        data = json.loads(capsys.readouterr().out)
        assert "engine.events" in data["counters"]
        assert "runner.run" in data["spans"]

    def test_metrics_prom(self, registry_path, capsys):
        code = cli_main(
            ["metrics", "--registry", registry_path, "--format", "prom"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "repro_engine_events_total" in out
        assert 'repro_span_count{span="runner.run"} 1' in out

    def test_metrics_check_smoke(self, registry_path, capsys):
        assert cli_main(["metrics", "--registry", registry_path, "--check"]) == 0
        assert "rollup ok" in capsys.readouterr().out

    def test_metrics_check_fails_without_runs(self, tmp_path, capsys):
        path = str(tmp_path / "empty.telemetry.json")
        with open(path, "w") as handle:
            json.dump({"format": 1, "runs": []}, handle)
        with pytest.raises(SystemExit) as excinfo:
            cli_main(["metrics", path, "--check"])
        assert excinfo.value.code == 2

    def test_metrics_requires_a_source(self):
        with pytest.raises(SystemExit):
            cli_main(["metrics"])

    def test_profile_table(self, registry_path, capsys):
        assert cli_main(["profile", "--registry", registry_path]) == 0
        out = capsys.readouterr().out
        assert "engine.run" in out
        assert "total (self)" in out
        assert "recorded wall time" in out

    def test_profile_top_and_sort(self, registry_path, capsys):
        code = cli_main(
            ["profile", "--registry", registry_path, "--top", "2",
             "--sort", "self"]
        )
        assert code == 0
        lines = [
            line for line in capsys.readouterr().out.splitlines() if line
        ]
        # header + 2 spans + total + recorded-wall-time footer
        assert len(lines) == 5

    def test_profile_compare(self, registry_path, capsys):
        # Second run is all cache hits: the delta view must show
        # spec.execute disappearing relative to run 0.
        Runner(workers=1, registry=registry_path).run(_specs(2))
        code = cli_main(
            ["profile", "--registry", registry_path, "--compare", "0"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "span deltas" in out
        assert "spec.execute" in out

    def test_profile_run_index_out_of_range(self, registry_path, capsys):
        with pytest.raises(SystemExit) as excinfo:
            cli_main(["profile", "--registry", registry_path, "--run", "5"])
        assert excinfo.value.code == 2
