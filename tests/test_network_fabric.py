"""Tests for nodes, messages, ISPs and the network fabric."""

import pytest

from repro.network import (
    FabricParams,
    Message,
    MessageKind,
    NetworkFabric,
    NetworkNode,
    TopologyBuilder,
)
from repro.network.geo import GeoPoint
from repro.network.message import reset_seq
from repro.obs.tracer import RecordingTracer
from repro.sim import Environment, StreamRegistry


def make_nodes(env, streams, n=2):
    topology = TopologyBuilder(env, streams).build(n_servers=n, users_per_server=0)
    return topology.provider, topology.servers


def record_deliveries(*nodes):
    """Attach a consumer to each of *nodes*; returns the list it fills
    with ``(time, node_id, message)`` per delivery."""
    received = []
    for node in nodes:
        node.consumer = lambda message, node=node: received.append(
            (node.env.now, node.node_id, message)
        )
    return received


class TestMessageTaxonomy:
    def test_update_kinds_are_consistency(self):
        message = Message(MessageKind.PUSH_UPDATE, None, None, 1.0)
        assert message.is_update
        assert message.is_consistency
        assert not message.is_light

    def test_light_kinds(self):
        message = Message(MessageKind.POLL, None, None, 1.0)
        assert message.is_light and message.is_consistency and not message.is_update

    def test_content_traffic_is_not_consistency(self):
        message = Message(MessageKind.CONTENT_RESPONSE, None, None, 1.0)
        assert not message.is_consistency

    def test_sequence_numbers_unique(self):
        a = Message(MessageKind.POLL, None, None, 1.0)
        b = Message(MessageKind.POLL, None, None, 1.0)
        assert a.seq != b.seq

    def test_reset_seq_numbers_from_one(self):
        Message(MessageKind.POLL, None, None, 1.0)
        reset_seq()
        messages = [
            Message(MessageKind.POLL, "a", "b", 1.0),
            Message(kind=MessageKind.PUSH_UPDATE, src="a", dst="b", size_kb=2.0,
                    version=3, payload={"k": 1}),
            Message(MessageKind.POLL_RESPONSE, "b", "a", 2.0, 4, 1),
            Message(MessageKind.FETCH, "a", "b", 1.0, payload={}),
        ]
        assert [message.seq for message in messages] == [1, 2, 3, 4]
        assert [message.created_at for message in messages] == [0.0] * 4
        keyword, positional = messages[1], messages[2]
        assert (keyword.kind, keyword.src, keyword.dst, keyword.size_kb,
                keyword.version, keyword.payload) == (
            MessageKind.PUSH_UPDATE, "a", "b", 2.0, 3, {"k": 1})
        assert (positional.version, positional.payload) == (4, 1)
        assert messages[0].version is None and messages[0].payload is None


class TestNode:
    def test_invalid_uplink(self):
        env = Environment()
        streams = StreamRegistry(0)
        provider, _ = make_nodes(env, streams)
        with pytest.raises(ValueError):
            NetworkNode(env, "x", GeoPoint(0, 0), provider.isp, uplink_kbps=0)


class TestFabric:
    def test_delivery_and_ledger(self):
        env = Environment()
        streams = StreamRegistry(11)
        provider, servers = make_nodes(env, streams)
        fabric = NetworkFabric(env, streams=streams)
        received = record_deliveries(servers[0])
        message = Message(MessageKind.PUSH_UPDATE, provider, servers[0], 2.0, version=1)
        assert fabric.send(message) is None
        env.run()
        assert [(node_id, delivered) for _, node_id, delivered in received] == [
            (servers[0].node_id, message)
        ]
        assert fabric.counters.messages_delivered == 1
        totals = fabric.ledger.kind_totals(MessageKind.PUSH_UPDATE)
        assert totals.count == 1
        assert totals.kb == pytest.approx(2.0)
        assert totals.km_kb == pytest.approx(2.0 * provider.distance_km(servers[0]))

    def test_delivery_without_consumer_names_the_node(self):
        env = Environment()
        streams = StreamRegistry(11)
        provider, servers = make_nodes(env, streams)
        fabric = NetworkFabric(env, streams=streams)
        fabric.send(Message(MessageKind.POLL, provider, servers[0], 1.0))
        with pytest.raises(RuntimeError, match=servers[0].node_id):
            env.run()

    def test_latency_increases_with_distance(self):
        env = Environment()
        streams = StreamRegistry(12)
        topology = TopologyBuilder(env, streams).build(n_servers=20, users_per_server=0)
        fabric = NetworkFabric(env, streams=streams)
        provider = topology.provider
        near = min(topology.servers, key=provider.distance_km)
        far = max(topology.servers, key=provider.distance_km)
        assert fabric.min_latency_s(provider, far) > fabric.min_latency_s(provider, near)
        params = fabric.params
        assert fabric.min_latency_s(provider, far) == pytest.approx(
            params.base_latency_s
            + provider.distance_km(far) * params.path_stretch / params.speed_km_per_s
        )

    def test_down_receiver_drops(self):
        env = Environment(tracer=RecordingTracer())
        streams = StreamRegistry(13)
        provider, servers = make_nodes(env, streams)
        fabric = NetworkFabric(env, streams=streams)
        received = record_deliveries(servers[0])
        servers[0].mark_down()
        fabric.send(Message(MessageKind.POLL, provider, servers[0], 1.0))
        env.run()
        assert received == []
        assert fabric.counters.dropped_messages == 1
        assert fabric.counters.dropped_receiver_down == 1
        assert fabric.counters.messages_sent == 1
        drops = env.tracer.events(kinds=("msg_drop",))
        assert [(event.node, event.detail["reason"]) for event in drops] == [
            (servers[0].node_id, "receiver_down")
        ]
        # Dropped on arrival, after the transmission and propagation.
        assert drops[0].time > 0.0

    def test_down_sender_drops_without_traffic(self):
        env = Environment(tracer=RecordingTracer())
        streams = StreamRegistry(14)
        provider, servers = make_nodes(env, streams)
        fabric = NetworkFabric(env, streams=streams)
        received = record_deliveries(servers[0])
        provider.mark_down()
        fabric.send(Message(MessageKind.POLL, provider, servers[0], 1.0))
        # Dropped inside send(): no heap event, no traffic.
        assert fabric.counters.dropped_sender_down == 1
        drops = env.tracer.events(kinds=("msg_drop",))
        assert [(event.time, event.node, event.detail["reason"]) for event in drops] == [
            (0.0, provider.node_id, "sender_down")
        ]
        env.run()
        assert env.events_processed == 0
        assert received == []
        assert fabric.counters.dropped_messages == 1
        assert fabric.ledger.totals().count == 0

    def test_output_port_serialises_transmissions(self):
        env = Environment()
        streams = StreamRegistry(15)
        provider, servers = make_nodes(env, streams, n=5)
        params = FabricParams(latency_jitter_frac=0.0, per_message_overhead_s=0.0)
        fabric = NetworkFabric(env, params=params, streams=streams)
        received = record_deliveries(*servers)
        # Each message takes 1 s of pure transmission time.
        size = provider.uplink_kbps
        for server in servers:
            fabric.send(Message(MessageKind.PUSH_UPDATE, provider, server, size))
        env.run()
        arrival_times = sorted(time for time, _, _ in received)
        assert len(arrival_times) == len(servers)
        # The k-th message cannot leave before k seconds of transmission.
        for k, arrival in enumerate(arrival_times, start=1):
            assert arrival >= k

    def test_params_validation(self):
        with pytest.raises(ValueError):
            FabricParams(speed_km_per_s=0)
        with pytest.raises(ValueError):
            FabricParams(path_stretch=0.5)
        with pytest.raises(ValueError):
            FabricParams(base_latency_s=-0.001)
        with pytest.raises(ValueError):
            FabricParams(per_message_overhead_s=-1e-9)
        with pytest.raises(ValueError):
            FabricParams(latency_jitter_frac=-0.1)
        # Zero is a legal boundary for all three.
        FabricParams(base_latency_s=0.0, per_message_overhead_s=0.0,
                     latency_jitter_frac=0.0)

    def test_min_latency_memo_stable_under_jitter(self):
        env = Environment()
        streams = StreamRegistry(21)
        provider, servers = make_nodes(env, streams, n=3)
        fabric = NetworkFabric(env, streams=streams)
        first = [fabric.min_latency_s(provider, s) for s in servers]
        # Cached lookups must return the very same floats, and the memo
        # must key on direction-sensitive node ids.
        assert [fabric.min_latency_s(provider, s) for s in servers] == first
        expected = (
            fabric.params.base_latency_s
            + provider.distance_km(servers[0]) * fabric.params.path_stretch
            / fabric.params.speed_km_per_s
        )
        assert first[0] == expected


class TestTopology:
    def test_build_shapes(self):
        env = Environment()
        streams = StreamRegistry(16)
        topology = TopologyBuilder(env, streams).build(n_servers=7, users_per_server=3)
        assert topology.n_servers == 7
        assert len(topology.users) == 7
        assert all(len(group) == 3 for group in topology.users)
        assert len(topology.all_nodes()) == 1 + 7 + 21

    def test_provider_in_requested_city(self):
        env = Environment()
        streams = StreamRegistry(17)
        topology = TopologyBuilder(env, streams).build(
            n_servers=1, users_per_server=0, provider_city="Tokyo"
        )
        assert topology.provider.city_name == "Tokyo"

    def test_users_near_their_server(self):
        env = Environment()
        streams = StreamRegistry(18)
        topology = TopologyBuilder(env, streams).build(n_servers=4, users_per_server=2)
        for server, users in zip(topology.servers, topology.users):
            for user in users:
                assert server.distance_km(user) < 40

    def test_invalid_sizes(self):
        env = Environment()
        streams = StreamRegistry(19)
        builder = TopologyBuilder(env, streams)
        with pytest.raises(ValueError):
            builder.build(n_servers=0)
        with pytest.raises(ValueError):
            builder.build(n_servers=1, users_per_server=-1)

    def test_placement_deterministic_per_seed(self):
        def build(seed):
            env = Environment()
            topology = TopologyBuilder(env, StreamRegistry(seed)).build(
                n_servers=5, users_per_server=0
            )
            return [(s.point.lat, s.point.lon) for s in topology.servers]

        assert build(1) == build(1)
        assert build(1) != build(2)
