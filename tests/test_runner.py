"""Tests for the parallel experiment runner and the run registry."""

import json

import pytest

from repro.experiments.section4 import fig14_unicast_inconsistency
from repro.obs.telemetry import TELEMETRY
from repro.runner import (
    Runner,
    RunRegistry,
    RunSpec,
    TraceSettings,
    code_version,
    resolve_workers,
    run_specs,
)
from tests.test_golden import golden, outcome


@pytest.fixture
def grid_specs(smoke_config):
    """8 independent deployments: 2 methods x 2 infras x 2 TTLs."""
    return [
        RunSpec(
            config=smoke_config.with_overrides(server_ttl_s=ttl),
            method=method,
            infrastructure=infrastructure,
        )
        for method in ("push", "ttl")
        for infrastructure in ("unicast", "multicast")
        for ttl in (10.0, 20.0)
    ]


class TestRunSpec:
    def test_key_is_stable_and_content_addressed(self, smoke_config):
        a = RunSpec(config=smoke_config, method="ttl")
        b = RunSpec(config=smoke_config.with_overrides(), method="ttl")
        assert a.key() == b.key()
        assert a == b and hash(a) == hash(b)
        changed = RunSpec(
            config=smoke_config.with_overrides(seed=1), method="ttl"
        )
        assert changed.key() != a.key()

    def test_roundtrips_through_dict(self, smoke_config):
        spec = RunSpec(
            config=smoke_config, method="push", infrastructure="multicast"
        )
        again = RunSpec.from_dict(spec.to_dict())
        assert again == spec
        assert again.key() == spec.key()

    def test_rejects_unknown_kind(self, smoke_config):
        with pytest.raises(ValueError):
            RunSpec(config=smoke_config, method="ttl", kind="daydream")

    def test_labels(self, smoke_config):
        assert (
            RunSpec(config=smoke_config, method="ttl").label
            == "ttl/unicast seed=0"
        )
        assert (
            RunSpec(config=smoke_config, method="hat", kind="system").label
            == "system:hat seed=0"
        )


class TestResolveWorkers:
    def test_default_is_serial(self):
        assert resolve_workers() == 1
        assert Runner().workers == 1

    def test_auto_uses_cpu_count(self, monkeypatch):
        import multiprocessing

        assert resolve_workers("auto") == multiprocessing.cpu_count()
        assert resolve_workers(0) == multiprocessing.cpu_count()


class TestRunnerDeterminism:
    def test_parallel_matches_serial_bit_for_bit(self, grid_specs):
        serial = Runner(workers=1).run(grid_specs)
        parallel = Runner(workers=4).run(grid_specs)
        assert serial.stats.executed == parallel.stats.executed == 8
        for left, right in zip(serial.metrics, parallel.metrics):
            assert left.to_dict() == right.to_dict()

    def test_metrics_come_back_in_spec_order(self, grid_specs):
        outcome = Runner(workers=4).run(grid_specs)
        for spec, metrics in outcome.pairs():
            assert metrics.name.startswith(spec.method)

    def test_stats_counters(self, grid_specs):
        outcome = Runner(workers=1).run(grid_specs[:2])
        stats = outcome.stats
        assert stats.n_specs == 2 and stats.executed == 2
        assert stats.cache_hits == 0
        assert stats.events_processed > 0
        assert stats.busy_time_s > 0 and stats.wall_time_s > 0
        assert 0.0 < stats.worker_utilization <= 1.0
        assert "2 deployment(s)" in stats.summary()


class TestRunRegistry:
    def test_second_run_rebuilds_nothing(self, grid_specs, tmp_path):
        path = str(tmp_path / "runs.json")
        first = Runner(workers=1, registry=path).run(grid_specs)
        assert first.stats.executed == 8 and first.stats.cache_hits == 0
        second = Runner(workers=1, registry=path).run(grid_specs)
        assert second.stats.executed == 0 and second.stats.cache_hits == 8
        for fresh, cached in zip(first.metrics, second.metrics):
            assert fresh.to_dict() == cached.to_dict()

    def test_code_version_invalidates(self, smoke_config, tmp_path):
        path = str(tmp_path / "runs.json")
        spec = RunSpec(config=smoke_config, method="push")
        Runner(workers=1, registry=RunRegistry(path)).run([spec])
        stale = RunRegistry(path, version="something-else")
        assert stale.get(spec) is None
        outcome = Runner(workers=1, registry=stale).run([spec])
        assert outcome.stats.executed == 1

    def test_corrupt_registry_file_is_ignored(self, smoke_config, tmp_path):
        path = str(tmp_path / "runs.json")
        with open(path, "w") as handle:
            handle.write("{ not json")
        spec = RunSpec(config=smoke_config, method="push")
        outcome = Runner(workers=1, registry=path).run([spec])
        assert outcome.stats.executed == 1
        # and the save() repaired the file
        with open(path) as handle:
            data = json.load(handle)
        assert data["format"] == 1 and len(data["runs"]) == 1

    def test_no_registry_by_default(self):
        assert Runner(workers=1).registry is None

    def test_code_version_is_cached_and_hexish(self):
        version = code_version()
        assert version == code_version()
        assert len(version) == 16
        int(version, 16)  # raises if not hex


class TestDriverIntegration:
    def test_driver_level_cache_hits(self, smoke_config, tmp_path):
        runner = Runner(workers=1, registry=str(tmp_path / "runs.json"))
        first = fig14_unicast_inconsistency(smoke_config, runner=runner)
        assert first.stats.executed == 3
        second = fig14_unicast_inconsistency(smoke_config, runner=runner)
        assert second.stats.executed == 0 and second.stats.cache_hits == 3
        assert first.to_dict()["series"] == second.to_dict()["series"]

    def test_run_specs_default_runner(self, smoke_config):
        outcome = run_specs([RunSpec(config=smoke_config, method="push")])
        assert len(outcome) == 1
        assert outcome.stats.workers == 1


class TestSampledTrace:
    def test_pooled_trace_writes_one_sink_per_spec(self, smoke_config, tmp_path):
        specs = [
            RunSpec(config=smoke_config, method=method)
            for method in ("ttl", "push")
        ]
        plain = Runner(workers=2).run(specs)
        trace_dir = tmp_path / "trace"
        traced = Runner(
            workers=2, trace=TraceSettings(str(trace_dir), rate=0.5, budget=8)
        ).run(specs)
        for left, right in zip(plain.metrics, traced.metrics):
            assert left.to_dict() == right.to_dict()
        sinks = sorted(trace_dir.iterdir())
        assert sorted(path.name.rsplit("-", 1)[1] for path in sinks) == sorted(
            spec.key()[:8] + ".trace.jsonl" for spec in specs
        )
        for path in sinks:
            rows = [json.loads(line) for line in path.read_text().splitlines()]
            assert rows and all("kind" in row for row in rows)


#: Every environment variable that used to configure a run, set to a
#: value that would have changed the run had it still been read.
_FORMER_KNOBS = {
    "REPRO_WORKERS": "2",
    "REPRO_RUN_REGISTRY": "{tmp}/env-runs.json",
    "REPRO_PROGRESS_DIR": "{tmp}/env-beats",
    "REPRO_TRACE_DIR": "{tmp}/env-trace",
    "REPRO_TRACE_RATE": "0.5",
    "REPRO_TRACE_BUDGET": "1",
    "REPRO_TRACE_SEED": "99",
    "REPRO_TRACE_ROTATE_KB": "1",
    "REPRO_TELEMETRY": "0",
    "REPRO_SANITIZE": "1",
    "REPRO_SANITIZE_TIES": "5",
    "REPRO_PLACEMENT_CACHE": "0",
}


class TestShellIndependence:
    """No environment variable reaches a run: results, worker count,
    files written and telemetry depend on arguments alone."""

    @pytest.fixture
    def hostile_shell(self, tmp_path, monkeypatch):
        for name, value in _FORMER_KNOBS.items():
            monkeypatch.setenv(name, value.format(tmp=tmp_path))
        return tmp_path

    @pytest.mark.parametrize(
        "label",
        ["self-adaptive/unicast/seed1", "ttl/unicast/seed0", "push/unicast@failure-storm"],
    )
    def test_golden_cells_keep_their_pins(self, hostile_shell, label):
        # Bypass the per-process cache: the cell must run in this shell.
        assert outcome.__wrapped__(label).pins == golden()[label]

    def test_default_runner_is_serial_and_writes_nothing(
        self, hostile_shell, smoke_config
    ):
        specs = [
            RunSpec(config=smoke_config, method=method)
            for method in ("ttl", "push")
        ]
        result = Runner().run(specs)
        assert result.stats.workers == 1
        assert result.stats.cache_hits == 0
        assert list(hostile_shell.iterdir()) == []
        assert TELEMETRY.enabled is True
        assert result.stats.telemetry is not None
