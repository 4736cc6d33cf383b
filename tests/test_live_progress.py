"""Tests for live run progress (repro.obs.live + the engine hook):

- the engine's ``progress`` hook: stride-gated invocations, one final
  call on completion, and the purity differential (hook on/off leaves
  sim outcomes bit-identical);
- Heartbeat: snapshot shape, wall-clock rate limiting, forced final
  writes, telemetry counter deltas, horizon fractions;
- ProgressTracker: begin/spec_done/finish/fail lifecycle and
  thread-safe rate-limited writes;
- merge_heartbeats: the PR 5 algebra over worker heartbeats (events and
  counters sum, peak RSS maxes, fraction averages);
- render_watch output;
- Runner integration: a pooled sweep with a registry produces a
  progress file plus per-spec heartbeats, and `repro watch --once`
  renders them.
"""

import json
import os

import pytest

from repro.cli import main as cli_main
from repro.obs.live import (
    HEARTBEAT_FORMAT,
    PROGRESS_FORMAT,
    Heartbeat,
    ProgressTracker,
    default_progress_path,
    heartbeat_dir,
    merge_heartbeats,
    read_heartbeats,
    read_progress,
    render_watch,
)
from repro.obs.telemetry import TELEMETRY
from repro.runner import Runner, RunRegistry, RunSpec
from repro.sim import Environment


def _spin(env, rounds):
    for _ in range(rounds):
        yield env.timeout(1.0)


class TestEngineProgressHook:
    def test_hook_fires_on_stride_and_completion(self):
        env = Environment()
        calls = []
        env.progress = lambda t, n: calls.append((t, n))
        env.process(_spin(env, 3 * Environment.PROGRESS_STRIDE))
        env.run()
        assert len(calls) >= 3
        # Stride-gated: every mid-run call lands on a stride multiple.
        for _, n in calls[:-1]:
            assert n % Environment.PROGRESS_STRIDE == 0
        # Final call reports the true totals.
        final_time, final_events = calls[-1]
        assert final_time == env.now
        assert final_events == env.events_processed

    def test_no_hook_no_calls_and_identical_outcomes(self):
        plain = Environment()
        plain.process(_spin(plain, 500))
        plain.run()

        hooked = Environment()
        calls = []
        hooked.progress = lambda t, n: calls.append((t, n))
        hooked.process(_spin(hooked, 500))
        hooked.run()

        assert (plain.now, plain.events_processed) == (
            hooked.now, hooked.events_processed,
        )
        assert calls  # at least the final call

    def test_hook_exception_propagates(self):
        env = Environment()

        def boom(t, n):
            raise RuntimeError("hook broke")

        env.progress = boom
        env.process(_spin(env, 5))
        with pytest.raises(RuntimeError, match="hook broke"):
            env.run()


class TestHeartbeat:
    def test_snapshot_shape(self, tmp_path):
        path = str(tmp_path / "shard.json")
        beat = Heartbeat(path, label="ttl-shard0", horizon=200.0,
                         min_interval_s=0.0)
        TELEMETRY.count("live.test_counter", 3)
        beat(50.0, 4096)
        doc = json.load(open(path))
        assert doc["format"] == HEARTBEAT_FORMAT
        assert doc["label"] == "ttl-shard0"
        assert doc["pid"] == os.getpid()
        assert doc["sim_time"] == 50.0
        assert doc["horizon"] == 200.0
        assert doc["fraction"] == pytest.approx(0.25)
        assert doc["events_processed"] == 4096
        assert doc["events_per_s"] > 0
        assert doc["peak_rss_kb"] > 0
        # Counters are the delta since the heartbeat was created, not
        # the process-lifetime totals.
        assert doc["counters"]["live.test_counter"] == 3

    def test_rate_limited(self, tmp_path):
        path = str(tmp_path / "shard.json")
        beat = Heartbeat(path, label="x", min_interval_s=3600.0)
        for step in range(10):
            beat(float(step), step * 100)
        assert beat.writes == 1  # only the first call lands
        assert json.load(open(path))["sim_time"] == 0.0

    def test_finish_forces_write(self, tmp_path):
        path = str(tmp_path / "shard.json")
        beat = Heartbeat(path, label="x", horizon=100.0,
                         min_interval_s=3600.0)
        beat(10.0, 100)
        beat.finish(100.0, 12345)
        doc = json.load(open(path))
        assert doc["events_processed"] == 12345
        assert doc["fraction"] == 1.0
        assert beat.writes == 2

    def test_no_horizon_no_fraction(self, tmp_path):
        path = str(tmp_path / "shard.json")
        Heartbeat(path, label="x", min_interval_s=0.0)(5.0, 10)
        doc = json.load(open(path))
        assert doc["horizon"] is None
        assert doc["fraction"] is None

    def test_fraction_clamped_to_one(self, tmp_path):
        path = str(tmp_path / "shard.json")
        Heartbeat(path, label="x", horizon=10.0, min_interval_s=0.0)(25.0, 1)
        assert json.load(open(path))["fraction"] == 1.0


class TestProgressTracker:
    def test_lifecycle(self, tmp_path):
        path = str(tmp_path / "runs.progress.json")
        tracker = ProgressTracker(path, min_interval_s=0.0)
        tracker.begin(n_specs=4, cache_hits=1, pending=3, workers=2)
        doc = read_progress(path)
        assert doc["status"] == "running"
        assert doc["n_specs"] == 4 and doc["cache_hits"] == 1
        tracker.spec_done("ttl-a", 1.5)
        tracker.spec_done("ttl-b", 2.5)
        doc = read_progress(path)
        assert doc["executed"] == 2
        assert [r["label"] for r in doc["completed"]] == ["ttl-a", "ttl-b"]
        tracker.finish({"events_processed": 99})
        doc = read_progress(path)
        assert doc["status"] == "done"
        assert doc["stats"]["events_processed"] == 99
        assert doc["format"] == PROGRESS_FORMAT

    def test_fail_records_reason(self, tmp_path):
        path = str(tmp_path / "runs.progress.json")
        tracker = ProgressTracker(path, min_interval_s=0.0)
        tracker.begin(1, 0, 1, 1)
        tracker.fail("worker crashed")
        doc = read_progress(path)
        assert doc["status"] == "failed"
        assert doc["reason"] == "worker crashed"

    def test_intermediate_writes_rate_limited(self, tmp_path):
        path = str(tmp_path / "runs.progress.json")
        tracker = ProgressTracker(path, min_interval_s=3600.0)
        tracker.begin(10, 0, 10, 1)  # forced
        for index in range(5):
            tracker.spec_done("spec-%d" % index, 0.1)  # all throttled
        assert read_progress(path)["executed"] == 0
        tracker.finish()  # forced: flushes the real totals
        assert read_progress(path)["executed"] == 5


class TestReadHelpers:
    def test_read_progress_rejects_torn_and_foreign(self, tmp_path):
        path = str(tmp_path / "p.json")
        assert read_progress(path) is None  # absent
        with open(path, "w") as handle:
            handle.write('{"truncat')
        assert read_progress(path) is None  # torn
        with open(path, "w") as handle:
            json.dump({"format": 999}, handle)
        assert read_progress(path) is None  # foreign format

    def test_read_heartbeats_skips_junk(self, tmp_path):
        directory = str(tmp_path)
        good = {"format": HEARTBEAT_FORMAT, "label": "b-shard"}
        with open(os.path.join(directory, "b.json"), "w") as handle:
            json.dump(good, handle)
        with open(os.path.join(directory, "a.json"), "w") as handle:
            handle.write("not json")
        with open(os.path.join(directory, "c.txt"), "w") as handle:
            handle.write("ignored")
        beats = read_heartbeats(directory)
        assert [b["label"] for b in beats] == ["b-shard"]
        assert read_heartbeats(str(tmp_path / "missing")) == []

    def test_paths(self):
        assert default_progress_path("runs.json") == "runs.progress.json"
        assert heartbeat_dir("runs.progress.json") == "runs.progress.d"


class TestMergeHeartbeats:
    def _beat(self, **overrides):
        doc = {
            "format": HEARTBEAT_FORMAT,
            "label": "x",
            "events_processed": 100,
            "events_per_s": 10.0,
            "peak_rss_kb": 1000,
            "counters": {"sim.events": 100.0},
            "fraction": 0.5,
        }
        doc.update(overrides)
        return doc

    def test_algebra(self):
        merged = merge_heartbeats([
            self._beat(),
            self._beat(events_processed=300, events_per_s=30.0,
                       peak_rss_kb=5000,
                       counters={"sim.events": 300.0, "net.msgs": 7.0},
                       fraction=1.0),
        ])
        assert merged["workers"] == 2
        assert merged["events_processed"] == 400  # sums
        assert merged["events_per_s"] == 40.0  # concurrent workers sum
        assert merged["peak_rss_kb"] == 5000  # high-water marks max
        assert merged["counters"] == {"sim.events": 400.0, "net.msgs": 7.0}
        assert merged["fraction"] == pytest.approx(0.75)  # mean

    def test_empty_and_missing_fields(self):
        merged = merge_heartbeats([])
        assert merged["workers"] == 0
        assert merged["fraction"] is None
        # A heartbeat missing optional fields merges as zeros.
        merged = merge_heartbeats([{"format": HEARTBEAT_FORMAT}])
        assert merged["events_processed"] == 0
        assert merged["fraction"] is None


class TestRenderWatch:
    def test_no_data(self):
        assert render_watch(None, []) == ["(no progress data yet)"]

    def test_full_screen(self):
        progress = {
            "format": PROGRESS_FORMAT, "status": "running",
            "n_specs": 4, "executed": 1, "cache_hits": 1,
            "workers": 2, "elapsed_s": 3.0,
            "completed": [{"label": "ttl-a", "elapsed_s": 1.25}],
        }
        beats = [{
            "format": HEARTBEAT_FORMAT, "label": "push-shard1",
            "sim_time": 120.0, "events_processed": 12345,
            "events_per_s": 999.0, "peak_rss_kb": 2048,
            "fraction": 0.5, "updated_unix": 100.0, "counters": {},
        }]
        lines = render_watch(progress, beats, now_wall=103.0)
        screen = "\n".join(lines)
        assert "sweep: running" in screen
        assert "2/4 spec(s)" in screen  # executed + cached
        assert "done: ttl-a" in screen
        assert "shards: 1 live" in screen
        assert "12,345" in screen
        assert "3s ago" in screen


class TestRunnerIntegration:
    def test_sweep_writes_progress_and_heartbeats(self, tmp_path, smoke_config):
        registry_path = str(tmp_path / "runs.json")
        specs = [
            RunSpec(config=smoke_config, method=method)
            for method in ("ttl", "push", "invalidation")
        ]
        runner = Runner(workers=2, registry=RunRegistry(registry_path))
        outcome = runner.run(specs)
        assert len(outcome) == 3

        progress_path = default_progress_path(registry_path)
        doc = read_progress(progress_path)
        assert doc["status"] == "done"
        assert doc["n_specs"] == 3
        assert doc["executed"] + doc["cache_hits"] == 3
        assert {r["label"] for r in doc["completed"]} == {
            spec.label for spec in specs
        }
        assert doc["stats"]["events_processed"] > 0

        beats = read_heartbeats(heartbeat_dir(progress_path))
        assert {b["label"] for b in beats} == {spec.label for spec in specs}
        for beat in beats:
            assert beat["fraction"] == 1.0  # finish() wrote the final state
            assert beat["events_processed"] > 0

    def test_progress_identical_outcomes_and_cache_hits(
        self, tmp_path, smoke_config
    ):
        registry_path = str(tmp_path / "runs.json")
        spec = RunSpec(config=smoke_config, method="ttl")

        plain = Runner(workers=1).run([spec])
        tracked = Runner(
            workers=2, registry=RunRegistry(registry_path)
        ).run([spec])
        assert plain[0].to_dict() == tracked[0].to_dict()

        # A second sweep is all cache hits; the progress file says so.
        again = Runner(
            workers=2, registry=RunRegistry(registry_path)
        ).run([spec])
        assert again[0].to_dict() == plain[0].to_dict()
        doc = read_progress(default_progress_path(registry_path))
        assert doc["status"] == "done"
        assert doc["cache_hits"] == 1
        assert doc["executed"] == 0

    def test_no_registry_no_progress_file(self, smoke_config, tmp_path,
                                          monkeypatch):
        monkeypatch.chdir(tmp_path)
        Runner(workers=1).run(
            [RunSpec(config=smoke_config, method="ttl")]
        )
        assert list(tmp_path.iterdir()) == []


class TestWatchCli:
    def test_once_renders_snapshot(self, tmp_path, capsys):
        registry_path = str(tmp_path / "runs.json")
        progress_path = default_progress_path(registry_path)
        tracker = ProgressTracker(progress_path, min_interval_s=0.0)
        tracker.begin(2, 0, 2, 2)
        tracker.spec_done("ttl-x", 1.0)
        beats_dir = heartbeat_dir(progress_path)
        os.makedirs(beats_dir)
        Heartbeat(
            os.path.join(beats_dir, "shard.json"),
            label="ttl-x-shard0", horizon=100.0, min_interval_s=0.0,
        )(40.0, 8192)
        assert cli_main(["watch", "--once", "--registry", registry_path]) == 0
        out = capsys.readouterr().out
        assert "sweep: running" in out
        assert "ttl-x-shard0" in out
        assert "8,192" in out

    def test_exits_when_done(self, tmp_path, capsys):
        progress_path = str(tmp_path / "runs.progress.json")
        tracker = ProgressTracker(progress_path, min_interval_s=0.0)
        tracker.begin(1, 1, 0, 1)
        tracker.finish()
        assert cli_main(["watch", progress_path, "--interval", "0.1"]) == 0
        assert "sweep: done" in capsys.readouterr().out

    def test_exits_nonzero_when_failed(self, tmp_path, capsys):
        progress_path = str(tmp_path / "runs.progress.json")
        tracker = ProgressTracker(progress_path, min_interval_s=0.0)
        tracker.begin(1, 0, 1, 1)
        tracker.fail("boom")
        assert cli_main(["watch", progress_path, "--interval", "0.1"]) == 1

    def test_requires_a_source(self):
        with pytest.raises(SystemExit):
            cli_main(["watch", "--once"])
