"""Protocol tests for UpdateSourceMixin: switch notices, adaptive
notification dedup, push subscriptions, and poll/fetch answering."""

import pytest

from repro.cdn import LiveContent, ProviderActor, ServerActor
from repro.consistency import InvalidationPolicy, PushPolicy, TTLPolicy
from repro.network import Message, MessageKind, NetworkFabric, TopologyBuilder
from repro.obs.tracer import RecordingTracer
from repro.sim import Environment, StreamRegistry


@pytest.fixture
def world():
    env = Environment()
    streams = StreamRegistry(41)
    topology = TopologyBuilder(env, streams).build(n_servers=3, users_per_server=0)
    fabric = NetworkFabric(env, streams=streams)
    content = LiveContent("c", update_times=[100.0, 200.0])
    provider = ProviderActor(env, topology.provider, fabric, content)
    servers = [
        ServerActor(env, node, fabric, content, policy=TTLPolicy(30.0),
                    upstream=topology.provider)
        for node in topology.servers
    ]
    return env, fabric, content, provider, servers


def switch(provider, server, mode, version=0):
    message = Message(
        MessageKind.SWITCH_NOTICE, server.node, provider.node, 1.0,
        version=version, payload=mode,
    )
    provider.handle_switch(message)


class TestSwitchProtocol:
    def test_invalidation_registration(self, world):
        env, fabric, content, provider, servers = world
        switch(provider, servers[0], "invalidation")
        assert servers[0].node in provider.adaptive_members
        assert provider.adaptive_members[servers[0].node] is False

    def test_switch_back_to_ttl_unregisters(self, world):
        env, fabric, content, provider, servers = world
        switch(provider, servers[0], "invalidation")
        switch(provider, servers[0], "ttl")
        assert servers[0].node not in provider.adaptive_members

    def test_push_subscription_and_unsubscribe(self, world):
        env, fabric, content, provider, servers = world
        switch(provider, servers[0], "push")
        assert servers[0].node in provider.push_members
        switch(provider, servers[0], "ttl")
        assert servers[0].node not in provider.push_members

    def test_push_and_invalidation_are_exclusive(self, world):
        env, fabric, content, provider, servers = world
        switch(provider, servers[0], "invalidation")
        switch(provider, servers[0], "push")
        assert servers[0].node not in provider.adaptive_members
        assert servers[0].node in provider.push_members

    def test_malformed_switch_rejected(self, world):
        env, fabric, content, provider, servers = world
        message = Message(
            MessageKind.SWITCH_NOTICE, servers[0].node, provider.node, 1.0,
            payload="carrier-pigeon",
        )
        with pytest.raises(ValueError):
            provider.handle_switch(message)

    def test_stale_switcher_notified_immediately(self, world):
        env, fabric, content, provider, servers = world
        env.run(until=150.0)  # provider now at version 1
        switch(provider, servers[0], "invalidation", version=0)
        # member was behind: it is marked notified and a notice is sent
        assert provider.adaptive_members[servers[0].node] is True
        env.run(until=152.0)
        assert servers[0].is_invalidated

    def test_stale_push_subscriber_caught_up(self, world):
        env, fabric, content, provider, servers = world
        env.run(until=150.0)
        switch(provider, servers[0], "push", version=0)
        env.run(until=152.0)
        assert servers[0].cached_version == 1


class TestPushSubscriptions:
    def test_pushes_go_out_in_subscription_order(self):
        """A set of nodes would iterate in hash order, which for a node is
        its memory address; the send order, and every jitter draw after
        it, must follow the order in which members subscribed."""
        tracer = RecordingTracer()
        env = Environment(tracer=tracer)
        streams = StreamRegistry(41)
        topology = TopologyBuilder(env, streams).build(n_servers=32, users_per_server=0)
        fabric = NetworkFabric(env, streams=streams)
        content = LiveContent("c", update_times=[])
        provider = ProviderActor(env, topology.provider, fabric, content)
        servers = [
            ServerActor(env, node, fabric, content, policy=PushPolicy())
            for node in topology.servers
        ]
        subscribers = servers[::-1]
        for server in subscribers:
            switch(provider, server, "push")
        provider.serve_dynamic_members(1)
        env.run()
        pushed = [
            event.detail["dst"]
            for event in tracer.events(kinds=("msg_send",))
            if event.detail["msg"] == MessageKind.PUSH_UPDATE.value
        ]
        assert pushed == [server.node.node_id for server in subscribers]


class TestAdaptiveNotificationDedup:
    def test_one_notice_per_silence_period(self, world):
        env, fabric, content, provider, servers = world
        switch(provider, servers[0], "invalidation")
        provider.use_self_adaptive()
        env.run(until=250.0)  # both updates happen
        notices = fabric.ledger.kind_totals(MessageKind.INVALIDATE).count
        assert notices == 1  # second update aggregated for free

    def test_renotified_after_fetch(self, world):
        env, fabric, content, provider, servers = world
        provider.use_self_adaptive()
        server = servers[0]
        server.policy = InvalidationPolicy()  # fetch-on-demand behaviour
        server.policy.server = server
        switch(provider, server, "invalidation")

        def fetcher(env):
            yield env.timeout(120.0)  # after update 1 + notice
            refresh = server.policy.ensure_fresh()  # None: fresh already
            assert refresh is not None
            yield refresh

        env.process(fetcher(env))
        env.run(until=250.0)
        # fetch after update 1 reset the notified flag, so update 2
        # produced a second notice
        notices = fabric.ledger.kind_totals(MessageKind.INVALIDATE).count
        assert notices == 2
        assert server.cached_version >= 1


class TestPollAnswering:
    def test_poll_not_modified_when_current(self, world):
        env, fabric, content, provider, servers = world
        server = servers[0]

        def poll_twice(env):
            yield env.timeout(110.0)  # version 1 exists
            got = yield from server.policy.poll_once()
            assert got is True and server.cached_version == 1
            got = yield from server.policy.poll_once()
            assert got is False

        env.process(poll_twice(env))
        env.run(until=150.0)
        assert fabric.ledger.kind_totals(MessageKind.POLL_RESPONSE).count == 1
        assert fabric.ledger.kind_totals(MessageKind.POLL_NOT_MODIFIED).count == 1

    def test_fetch_always_returns_body(self, world):
        env, fabric, content, provider, servers = world
        server = servers[0]
        results = []

        def fetcher(env):
            message, waiter = server.open_request(
                MessageKind.FETCH, provider.node, 1.0, timeout=10.0
            )
            response = yield waiter
            results.append(server.close_request(message, response))

        env.process(fetcher(env))
        env.run(until=50.0)
        assert results[0].kind is MessageKind.FETCH_RESPONSE
        assert results[0].version == 0
        assert results[0].size_kb == content.update_size_kb
