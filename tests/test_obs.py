"""Tests for the observability layer (repro.obs) and the failure-
injection / run-registry correctness fixes that ride with it:

- nested/overlapping ``schedule_absence`` windows no longer revive a
  node early;
- ``RunRegistry.save`` merges concurrent on-disk entries instead of
  last-writer-wins;
- a corrupt registry file is preserved at ``<path>.corrupt``;
- the TTL poll period stays TTL-anchored when the upstream is absent;
- tracing is purely observational (bit-identical metrics on/off) and
  traced ``msg_send`` events reconcile exactly with the ledger counts.
"""

import json
import logging
import os

import pytest

from repro.cdn import (
    LiveContent,
    ProviderActor,
    ServerActor,
    schedule_absence,
)
from repro.consistency import TTLPolicy, UnicastInfrastructure
from repro.experiments import TestbedConfig, build_deployment, build_system
from repro.experiments.config import smoke_scale
from repro.experiments.testbed import DeploymentMetrics
from repro.network import Message, MessageKind, NetworkFabric, TopologyBuilder
from repro.network.message import LIGHT_KINDS, UPDATE_KINDS
from repro.obs import (
    NULL_TRACER,
    RecordingTracer,
    attribution_components,
    format_attribution_table,
    staleness_histogram,
)
from repro.runner import Runner, RunRegistry, RunSpec
from repro.sim import Environment, StreamRegistry


def _one_node(tracer=None):
    env = Environment(tracer=tracer)
    streams = StreamRegistry(5)
    topology = TopologyBuilder(env, streams).build(n_servers=1, users_per_server=0)
    return env, topology.servers[0]


# ----------------------------------------------------------------------
# satellite (a): nested absence windows
# ----------------------------------------------------------------------
class TestNestedAbsences:
    def test_overlapping_windows_do_not_revive_early(self):
        tracer = RecordingTracer()
        env, node = _one_node(tracer)
        # [10, 30) and [20, 40): the node must stay down until t=40.
        schedule_absence(env, node, start=10.0, duration=20.0)
        schedule_absence(env, node, start=20.0, duration=20.0)
        seen = []

        def probe():
            while True:
                seen.append((env.now, node.is_up))
                yield env.timeout(5.0)

        env.process(probe())
        env.run(until=100.0)
        state = dict(seen)
        assert state[5.0] and state[45.0]
        # The first window's end (t=30) must NOT bring the node back.
        assert not state[15.0] and not state[25.0] and not state[35.0]
        assert node.is_up
        assert node.downtime_s() == pytest.approx(30.0)
        # Merged windows count as a single down/up transition pair.
        assert node.down_transitions == 1
        downs = tracer.events(kinds=("node_down",))
        ups = tracer.events(kinds=("node_up",))
        assert [e.time for e in downs] == [10.0]
        assert [e.time for e in ups] == [40.0]

    def test_disjoint_windows_transition_twice(self):
        env, node = _one_node()
        schedule_absence(env, node, start=10.0, duration=5.0)
        schedule_absence(env, node, start=30.0, duration=5.0)
        env.run(until=50.0)
        assert node.is_up
        assert node.down_transitions == 2
        assert node.downtime_s() == pytest.approx(10.0)

    def test_legacy_is_up_assignment_still_forces_state(self):
        env, node = _one_node()

        def script():
            yield env.timeout(10.0)
            node.is_up = False
            node.is_up = False  # idempotent
            yield env.timeout(15.0)
            node.is_up = True  # forced revival clears every window
            assert node.is_up

        env.process(script())
        env.run(until=60.0)
        assert node.is_up
        assert node.downtime_s() == pytest.approx(15.0)
        assert node.down_transitions == 1

    def test_forced_revival_tolerated_by_pending_mark_up(self):
        env, node = _one_node()
        schedule_absence(env, node, start=5.0, duration=30.0)

        def force():
            yield env.timeout(10.0)
            node.is_up = True  # e.g. a failover handler forcing recovery

        env.process(force())
        # The absence window's mark_up at t=35 must not underflow.
        env.run(until=50.0)
        assert node.is_up
        assert node.downtime_s() == pytest.approx(5.0)

    def test_open_absence_counts_into_downtime(self):
        env, node = _one_node()
        schedule_absence(env, node, start=10.0, duration=1000.0)
        env.run(until=60.0)
        assert not node.is_up
        assert node.downtime_s(60.0) == pytest.approx(50.0)


# ----------------------------------------------------------------------
# satellites (b) + (d): run-registry merge and corrupt-file backup
# ----------------------------------------------------------------------
def _metrics(name="m"):
    return DeploymentMetrics(
        name=name,
        server_lags={"s0": 1.0},
        user_lags={"u0": 2.0},
        user_stale_fractions={"u0": 0.0},
        cost_km_kb=1.0,
        update_messages=1,
        light_messages=2,
        response_messages=1,
        provider_response_messages=1,
        update_load_km=1.0,
        light_load_km=1.0,
        response_load_km=1.0,
        request_load_km=1.0,
        provider_update_messages=1,
        provider_messages=1,
    )


def _spec(seed):
    return RunSpec(config=smoke_scale(seed=seed), method="ttl")


class TestRegistryMerge:
    def test_concurrent_saves_keep_both_entries(self, tmp_path):
        path = str(tmp_path / "runs.json")
        reg_a = RunRegistry(path)
        reg_b = RunRegistry(path)  # loaded while the file is still empty
        reg_a.put(_spec(1), _metrics("a"), 0.1)
        reg_b.put(_spec(2), _metrics("b"), 0.2)
        assert reg_a.save() == 0
        # Before the fix this overwrote reg_a's entry (last-writer-wins).
        assert reg_b.save() == 1
        assert reg_b.merged_entries == 1
        reloaded = RunRegistry(path)
        assert len(reloaded) == 2
        assert reloaded.get(_spec(1)).name == "a"
        assert reloaded.get(_spec(2)).name == "b"

    def test_in_memory_entry_wins_key_collision(self, tmp_path):
        path = str(tmp_path / "runs.json")
        reg_a = RunRegistry(path)
        reg_b = RunRegistry(path)
        reg_a.put(_spec(1), _metrics("stale"), 0.1)
        reg_a.save()
        reg_b.put(_spec(1), _metrics("fresh"), 0.2)
        assert reg_b.save() == 0  # collision is not a merge
        assert RunRegistry(path).get(_spec(1)).name == "fresh"

    def test_clean_save_returns_zero_without_touching_disk(self, tmp_path):
        path = str(tmp_path / "runs.json")
        registry = RunRegistry(path)
        assert registry.save() == 0
        assert not os.path.exists(path)

    def test_corrupt_file_backed_up_and_warned(self, tmp_path, caplog):
        path = str(tmp_path / "runs.json")
        with open(path, "w") as handle:
            handle.write("{ this is not json")
        with caplog.at_level(logging.WARNING, logger="repro.runner.registry"):
            registry = RunRegistry(path)
        assert len(registry) == 0
        backup = path + ".corrupt"
        assert os.path.exists(backup)
        with open(backup) as handle:
            assert handle.read() == "{ this is not json"
        warning = "\n".join(record.getMessage() for record in caplog.records)
        assert path in warning and backup in warning

    def test_corrupt_file_not_silently_overwritten_by_save(self, tmp_path):
        path = str(tmp_path / "runs.json")
        with open(path, "w") as handle:
            handle.write("garbage")
        registry = RunRegistry(path)
        registry.put(_spec(1), _metrics(), 0.1)
        registry.save()
        with open(path) as handle:
            assert json.load(handle)["format"] == 1
        assert os.path.exists(path + ".corrupt")

    def test_wrong_format_version_ignored(self, tmp_path):
        path = str(tmp_path / "runs.json")
        with open(path, "w") as handle:
            json.dump({"format": 99, "runs": {"k": {}}}, handle)
        registry = RunRegistry(path)
        assert len(registry) == 0
        # Parseable-but-unknown format is not "corrupt": no backup.
        assert not os.path.exists(path + ".corrupt")


# ----------------------------------------------------------------------
# satellite (c): TTL poll cadence under upstream absence
# ----------------------------------------------------------------------
def _ttl_deployment(tracer, ttl_s=10.0, updates=(50.0,), horizon=200.0,
                    absence=None):
    env = Environment(tracer=tracer)
    streams = StreamRegistry(3)
    topology = TopologyBuilder(env, streams).build(n_servers=1, users_per_server=0)
    fabric = NetworkFabric(env, streams=streams)
    content = LiveContent("game", update_times=list(updates))
    provider = ProviderActor(env, topology.provider, fabric, content)
    server = ServerActor(
        env, topology.servers[0], fabric, content, policy=TTLPolicy(ttl_s)
    )
    UnicastInfrastructure().wire(provider, [server])
    if absence is not None:
        start, duration = absence
        schedule_absence(env, provider.node, start=start, duration=duration)
    server.start()
    env.run(until=horizon)
    return env, fabric, provider, server


class TestTTLPollCadence:
    def test_period_stays_one_ttl_when_upstream_absent(self):
        tracer = RecordingTracer()
        # Provider down for the whole run: every poll times out after
        # poll_timeout_s (== ttl_s by default).
        _ttl_deployment(tracer, ttl_s=10.0, horizon=100.0, absence=(0.0, 1000.0))
        rounds = [e.time for e in tracer.events(kinds=("poll_round",))]
        assert len(rounds) >= 8  # ~one per TTL; the old bug gave ~one per 2xTTL
        deltas = [b - a for a, b in zip(rounds, rounds[1:])]
        for delta in deltas:
            assert delta == pytest.approx(10.0, abs=0.5)
        assert all(
            e.detail["timed_out"] for e in tracer.events(kinds=("poll_round",))
        )

    def test_recovery_within_one_ttl_of_upstream_return(self):
        tracer = RecordingTracer()
        env, fabric, provider, server = _ttl_deployment(
            tracer, ttl_s=10.0, updates=(50.0,), horizon=200.0,
            absence=(40.0, 40.0),
        )
        successes = [
            e.time
            for e in tracer.events(kinds=("poll_round",))
            if e.detail["got_update"]
        ]
        assert successes, "server never recovered the update"
        # Upstream returns at t=80; with the TTL-anchored period the next
        # poll lands within one TTL (the 2xTTL bug pushed it past 90).
        assert successes[0] <= 80.0 + 10.0 + 2.0
        assert server.cached_version == 1

    def test_healthy_upstream_polls_once_per_ttl(self):
        tracer = RecordingTracer()
        _ttl_deployment(tracer, ttl_s=10.0, updates=(500.0,), horizon=100.0)
        rounds = [e.time for e in tracer.events(kinds=("poll_round",))]
        deltas = [b - a for a, b in zip(rounds, rounds[1:])]
        for delta in deltas:
            assert delta == pytest.approx(10.0, abs=0.5)


# ----------------------------------------------------------------------
# tracer semantics
# ----------------------------------------------------------------------
class TestTracer:
    def test_null_tracer_is_inert(self):
        assert not NULL_TRACER.enabled
        NULL_TRACER.emit(1.0, "msg_send", "n")  # no-op, no error
        assert NULL_TRACER.events() == []

    def test_recording_and_filtering(self):
        tracer = RecordingTracer()
        tracer.emit(1.0, "msg_send", "a", kb=1.0)
        tracer.emit(2.0, "msg_recv", "b", kb=1.0)
        tracer.emit(3.0, "msg_send", "a", kb=2.0)
        assert len(tracer) == 3
        assert tracer.count("msg_send") == 2
        assert tracer.count("msg_send", node="b") == 0
        assert [e.time for e in tracer.events(node="a")] == [1.0, 3.0]
        # since inclusive, until exclusive
        assert [e.time for e in tracer.events(since=2.0, until=3.0)] == [2.0]
        assert tracer.kind_counts() == {"msg_send": 2, "msg_recv": 1}

    def test_dump_jsonl_rows_and_limit(self, tmp_path):
        tracer = RecordingTracer()
        tracer.emit(1.5, "visit", "u0", server="s0", version=2)
        tracer.emit(2.5, "visit", "u1", server="s1", version=2)
        out = tmp_path / "trace.jsonl"
        with open(out, "w") as handle:
            written = tracer.dump_jsonl(handle, limit=1)
        assert written == 1
        rows = [json.loads(line) for line in out.read_text().splitlines()]
        assert rows == [
            {"t": 1.5, "kind": "visit", "node": "u0", "server": "s0", "version": 2}
        ]

    def test_metrics_bit_identical_with_and_without_tracing(self):
        config = TestbedConfig(
            n_servers=6, users_per_server=1, n_updates=8,
            game_duration_s=240.0, seed=11,
        )
        for method in ("ttl", "invalidation"):
            plain = build_deployment(config, method).run()
            traced = build_deployment(
                config, method, tracer=RecordingTracer()
            ).run()
            assert plain.to_dict() == traced.to_dict()

    def test_msg_send_trace_reconciles_with_ledger(self):
        # The fig14/fig16 grid: every (method, infrastructure) cell's
        # traced msg_send events must match the ledger's counts exactly.
        config = TestbedConfig(
            n_servers=6, users_per_server=1, n_updates=8,
            game_duration_s=240.0, seed=4,
        )
        update_values = {kind.value for kind in UPDATE_KINDS}
        light_values = {kind.value for kind in LIGHT_KINDS}
        for method in ("push", "invalidation", "ttl"):
            for infrastructure in ("unicast", "multicast"):
                tracer = RecordingTracer()
                metrics = build_deployment(
                    config, method, infrastructure, tracer=tracer
                ).run()
                sends = tracer.events(kinds=("msg_send",))
                n_update = sum(
                    1 for e in sends if e.detail["msg"] in update_values
                )
                n_light = sum(
                    1 for e in sends if e.detail["msg"] in light_values
                )
                assert n_update == metrics.update_messages
                assert n_light == metrics.light_messages
                assert metrics.message_counts == {
                    "update": n_update, "light": n_light,
                }

    def test_system_deployment_accepts_tracer(self):
        tracer = RecordingTracer()
        metrics = build_system(smoke_scale(), "hat", tracer=tracer)
        metrics = metrics.run()
        assert tracer.count("msg_send") > 0
        assert metrics.mean_server_lag >= 0.0


# ----------------------------------------------------------------------
# counters / metrics plumbing
# ----------------------------------------------------------------------
class TestCounters:
    def test_fabric_counters_record(self):
        """The transport records bytes per link and the delay split."""
        env = Environment()
        streams = StreamRegistry(3)
        topology = TopologyBuilder(env, streams).build(n_servers=2, users_per_server=0)
        fabric = NetworkFabric(env, streams=streams)
        a, b = topology.servers
        received = []
        a.consumer = b.consumer = received.append
        for src, dst, size_kb in ((a, b, 2.0), (a, b, 1.0), (b, a, 4.0)):
            fabric.send(Message(MessageKind.PUSH_UPDATE, src, dst, size_kb))
        env.run()
        counters = fabric.counters
        assert sorted(message.size_kb for message in received) == [1.0, 2.0, 4.0]
        assert counters.messages_sent == counters.messages_delivered == 3
        assert counters.bytes_kb == pytest.approx(7.0)
        assert counters.link_bytes_kb == {
            "%s->%s" % (a.node_id, b.node_id): 3.0,
            "%s->%s" % (b.node_id, a.node_id): 4.0,
        }
        assert counters.to_dict()["n_links"] == 2
        assert counters.propagation_s > 0.0
        crossings = 0 if a.isp.isp_id == b.isp.isp_id else 3
        assert counters.isp_crossing_messages == crossings
        assert counters.isp_crossing_kb == pytest.approx(7.0 if crossings else 0.0)
        assert (counters.isp_penalty_s > 0.0) == bool(crossings)

    def test_staleness_histogram_bins(self):
        edges, counts = staleness_histogram([0.5, 1.5, 7.0, 1000.0])
        assert edges == [1.0, 2.0, 5.0, 10.0, 20.0, 50.0, 100.0]
        assert len(counts) == len(edges) + 1
        assert counts == [1, 1, 0, 1, 0, 0, 0, 1]
        assert sum(counts) == 4

    def test_deployment_metrics_carry_observability_fields(self):
        metrics = build_deployment(smoke_scale(), "ttl").run()
        assert metrics.message_counts["light"] > 0
        assert metrics.propagation_s > 0.0
        assert metrics.queueing_s > 0.0
        assert metrics.link_bytes_kb  # at least provider->server links
        assert sum(metrics.staleness_hist_counts) == len(metrics.server_lags)
        assert metrics.node_downtime_s == 0.0

    def test_deployment_metrics_roundtrip(self):
        metrics = build_deployment(smoke_scale(), "invalidation").run()
        data = metrics.to_dict()
        assert DeploymentMetrics.from_dict(data).to_dict() == data

    def test_old_registry_dict_without_new_keys_loads(self):
        data = _metrics("old").to_dict()
        for key in (
            "message_counts", "dropped_messages", "isp_crossing_messages",
            "isp_crossing_kb", "isp_penalty_s", "propagation_s", "queueing_s",
            "link_bytes_kb", "node_downtime_s", "down_transitions",
            "staleness_hist_edges", "staleness_hist_counts",
        ):
            del data[key]
        restored = DeploymentMetrics.from_dict(data)
        assert restored.name == "old"
        assert restored.dropped_messages == 0
        assert restored.message_counts == {}


# ----------------------------------------------------------------------
# attribution
# ----------------------------------------------------------------------
class TestAttribution:
    def test_components_decompose_mean_lag(self):
        metrics = _metrics()
        metrics.message_counts = {"update": 2, "light": 2}
        metrics.propagation_s = 0.4
        metrics.isp_penalty_s = 0.2
        metrics.queueing_s = 0.4
        metrics.isp_crossing_messages = 1
        components = attribution_components(metrics)
        assert components["mean_server_lag_s"] == pytest.approx(1.0)
        assert components["propagation_s"] == pytest.approx(0.1)
        assert components["inter_isp_s"] == pytest.approx(0.05)
        assert components["sender_queueing_s"] == pytest.approx(0.1)
        assert components["policy_wait_s"] == pytest.approx(0.75)
        assert components["isp_crossing_fraction"] == pytest.approx(0.25)

    def test_policy_wait_clamped_at_zero(self):
        metrics = _metrics()
        metrics.message_counts = {"update": 1}
        metrics.queueing_s = 100.0
        assert attribution_components(metrics)["policy_wait_s"] == 0.0

    def test_no_messages_is_safe(self):
        components = attribution_components(_metrics())
        assert components["propagation_s"] == 0.0
        assert components["isp_crossing_fraction"] == 0.0

    def test_table_formatting(self):
        lines = format_attribution_table({"ttl/unicast": _metrics()})
        assert lines[0].startswith("Cause attribution")
        assert any("| run |" in line for line in lines)
        assert any(line.startswith("| ttl/unicast |") for line in lines)


# ----------------------------------------------------------------------
# RunStats surface
# ----------------------------------------------------------------------
class TestRunStatsSurface:
    def test_runner_aggregates_message_counters(self):
        runner = Runner(workers=1)
        outcome = runner.run([_spec(0)])
        metrics = outcome.metrics[0]
        expected = metrics.update_messages + metrics.light_messages
        assert outcome.stats.messages == expected
        assert outcome.stats.dropped_messages == metrics.dropped_messages
        assert outcome.stats.registry_merged == 0
        data = outcome.stats.to_dict()
        assert data["messages"] == expected
        assert "registry_merged" in data
        assert "dropped" in outcome.stats.summary()


# ----------------------------------------------------------------------
# repro trace CLI
# ----------------------------------------------------------------------
class TestTraceCli:
    ARGS = [
        "trace", "--servers", "4", "--users-per-server", "1",
        "--updates", "5", "--duration", "120",
    ]

    def test_dumps_filtered_jsonl(self, tmp_path, capsys):
        from repro.cli import main

        out = tmp_path / "trace.jsonl"
        code = main(
            self.ARGS + ["--method", "ttl", "--kind", "poll_round",
                         "--out", str(out)]
        )
        assert code == 0
        rows = [json.loads(line) for line in out.read_text().splitlines()]
        assert rows and all(row["kind"] == "poll_round" for row in rows)
        err = capsys.readouterr().err
        assert "event(s) recorded" in err
        # The fabric counters close the summary, port waits included.
        (fabric_line,) = [line for line in err.splitlines() if line.startswith("fabric: ")]
        assert "messages_sent=" in fabric_line and "port_waits=" in fabric_line

    def test_limit_and_window_filters(self, tmp_path):
        from repro.cli import main

        out = tmp_path / "trace.jsonl"
        code = main(
            self.ARGS + ["--method", "push", "--since", "60", "--until", "90",
                         "--limit", "7", "--out", str(out)]
        )
        assert code == 0
        rows = [json.loads(line) for line in out.read_text().splitlines()]
        assert len(rows) <= 7
        assert all(60.0 <= row["t"] < 90.0 for row in rows)

    def test_stdout_and_attribution(self, capsys):
        from repro.cli import main

        code = main(
            self.ARGS + ["--method", "invalidation", "--kind", "content_update",
                         "--attribution"]
        )
        assert code == 0
        captured = capsys.readouterr()
        rows = [json.loads(line) for line in captured.out.splitlines()]
        assert rows and all(row["kind"] == "content_update" for row in rows)
        assert "Cause attribution" in captured.err

    def test_system_mode(self, capsys):
        from repro.cli import main

        code = main(self.ARGS + ["--system", "hat", "--kind", "msg_drop"])
        assert code == 0
        assert "deployment: hat" in capsys.readouterr().err

    def test_rejects_unknown_kind(self):
        from repro.cli import build_parser

        with pytest.raises(SystemExit):
            build_parser().parse_args(["trace", "--kind", "nonsense"])


# ----------------------------------------------------------------------
# RecordingTracer filter semantics (node / kind / time windows)
# ----------------------------------------------------------------------
class TestTracerFilters:
    @staticmethod
    def _tracer():
        tracer = RecordingTracer()
        tracer.emit(0.0, "msg_send", "a", kb=1.0)
        tracer.emit(1.0, "msg_recv", "b", kb=1.0)
        tracer.emit(1.0, "msg_send", "b", kb=2.0)
        tracer.emit(2.5, "poll_round", "a", timed_out=False)
        tracer.emit(4.0, "msg_send", "a", kb=3.0)
        return tracer

    def test_node_filter(self):
        tracer = self._tracer()
        assert [e.time for e in tracer.events(node="a")] == [0.0, 2.5, 4.0]
        assert [e.kind for e in tracer.events(node="b")] == [
            "msg_recv", "msg_send",
        ]
        assert tracer.events(node="missing") == []

    def test_kind_filter_accepts_multiple_kinds(self):
        tracer = self._tracer()
        assert len(tracer.events(kinds=("msg_send",))) == 3
        both = tracer.events(kinds=("msg_send", "msg_recv"))
        assert [e.time for e in both] == [0.0, 1.0, 1.0, 4.0]

    def test_since_inclusive_until_exclusive(self):
        tracer = self._tracer()
        # since is inclusive: the t=1.0 events are in.
        assert [e.time for e in tracer.events(since=1.0)] == [1.0, 1.0, 2.5, 4.0]
        # until is exclusive: the t=4.0 event is out.
        assert [e.time for e in tracer.events(until=4.0)] == [0.0, 1.0, 1.0, 2.5]
        # An event exactly at since and below until appears exactly once.
        assert [e.time for e in tracer.events(since=2.5, until=4.0)] == [2.5]
        assert tracer.events(since=2.6, until=2.7) == []

    def test_filters_compose(self):
        tracer = self._tracer()
        hits = tracer.events(node="a", kinds=("msg_send",), since=1.0, until=5.0)
        assert [(e.time, e.node) for e in hits] == [(4.0, "a")]
        assert tracer.count("msg_send", node="a") == 2


# ----------------------------------------------------------------------
# FabricCounters reconciliation against metrics, ledger and trace
# ----------------------------------------------------------------------
class TestTransportCounterReconciliation:
    CONFIG = dict(
        n_servers=6, users_per_server=1, n_updates=8,
        game_duration_s=240.0, seed=7,
    )

    def _assert_reconciled(self, deployment, metrics, tracer):
        counters = deployment.fabric.counters
        assert metrics.dropped_messages == counters.dropped_messages
        assert metrics.isp_crossing_messages == counters.isp_crossing_messages
        assert metrics.isp_crossing_kb == counters.isp_crossing_kb
        assert metrics.isp_penalty_s == counters.isp_penalty_s
        assert metrics.propagation_s == counters.propagation_s
        assert metrics.queueing_s == counters.queueing_s
        assert metrics.link_bytes_kb == counters.link_bytes_kb
        assert sum(counters.link_bytes_kb.values()) == pytest.approx(counters.bytes_kb)
        assert counters.messages_sent == deployment.fabric.ledger.totals().count
        assert counters.messages_sent == tracer.count("msg_send")
        assert counters.messages_delivered == tracer.count("msg_recv")
        assert counters.dropped_messages == tracer.count("msg_drop")
        assert (
            counters.messages_delivered + counters.dropped_receiver_down
            <= counters.messages_sent
        )

    @pytest.mark.parametrize("method", ["push", "ttl"])
    @pytest.mark.parametrize("infrastructure", ["unicast", "multicast"])
    def test_both_transports_post_identical_counters(self, method, infrastructure):
        tracer = RecordingTracer()
        deployment = build_deployment(
            TestbedConfig(**self.CONFIG), method, infrastructure, tracer=tracer
        )
        metrics = deployment.run()
        assert deployment.fabric.counters.messages_sent > 0
        self._assert_reconciled(deployment, metrics, tracer)

    def test_counters_match_under_failure_injection(self):
        tracer = RecordingTracer()
        deployment = build_deployment(
            TestbedConfig(**self.CONFIG), "push", tracer=tracer
        )
        schedule_absence(
            deployment.env, deployment.servers[0].node, start=30.0, duration=60.0
        )
        metrics = deployment.run()
        assert deployment.fabric.counters.dropped_messages > 0
        self._assert_reconciled(deployment, metrics, tracer)
