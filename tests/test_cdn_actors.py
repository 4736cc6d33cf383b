"""Integration tests for provider / server / user actors."""

import pytest

from repro.cdn import (
    EndUserActor,
    FixedSelector,
    LiveContent,
    ProviderActor,
    ServerActor,
    SwitchEveryVisitSelector,
    schedule_absence,
)
from repro.consistency import PushPolicy, TTLPolicy, UnicastInfrastructure
from repro.network import NetworkFabric, TopologyBuilder
from repro.sim import Environment, StreamRegistry


def make_world(n_servers=3, updates=(50.0, 100.0, 150.0), seed=1, users_per_server=1):
    env = Environment()
    streams = StreamRegistry(seed)
    topology = TopologyBuilder(env, streams).build(
        n_servers=n_servers, users_per_server=users_per_server
    )
    fabric = NetworkFabric(env, streams=streams)
    content = LiveContent("game", update_times=list(updates))
    return env, streams, topology, fabric, content


class TestProvider:
    def test_update_loop_follows_schedule(self):
        env, streams, topology, fabric, content = make_world()
        provider = ProviderActor(env, topology.provider, fabric, content)
        checkpoints = []

        def observer(env):
            yield env.timeout(49)
            checkpoints.append(provider.current_version)
            yield env.timeout(2)
            checkpoints.append(provider.current_version)
            yield env.timeout(100)
            checkpoints.append(provider.current_version)

        env.process(observer(env))
        env.run(until=300)
        assert checkpoints == [0, 1, 3]

    def test_provider_staleness_delays_visibility(self):
        env, streams, topology, fabric, content = make_world(updates=(50.0,))
        provider = ProviderActor(env, topology.provider, fabric, content, staleness_s=5.0)
        seen = []

        def observer(env):
            yield env.timeout(52)
            seen.append(provider.current_version)
            yield env.timeout(4)
            seen.append(provider.current_version)

        env.process(observer(env))
        env.run(until=100)
        assert seen == [0, 1]

    def test_poll_answered_with_body_or_not_modified(self):
        env, streams, topology, fabric, content = make_world(updates=(10.0,))
        provider = ProviderActor(env, topology.provider, fabric, content)
        server = ServerActor(
            env, topology.servers[0], fabric, content, policy=TTLPolicy(30.0),
            upstream=topology.provider,
        )
        results = []

        def probe(env):
            yield env.timeout(20)  # after the update
            got = yield from server.policy.poll_once()
            results.append((got, server.cached_version))
            got = yield from server.policy.poll_once()
            results.append((got, server.cached_version))

        env.process(probe(env))
        env.run(until=60)
        assert results[0] == (True, 1)   # first poll fetched the body
        assert results[1] == (False, 1)  # second poll: not modified


class TestServerServing:
    def test_user_gets_current_cached_version(self):
        env, streams, topology, fabric, content = make_world(updates=(30.0,))
        provider = ProviderActor(env, topology.provider, fabric, content)
        server = ServerActor(
            env, topology.servers[0], fabric, content, policy=PushPolicy()
        )
        UnicastInfrastructure().wire(provider, [server])
        provider.use_push()
        user = EndUserActor(
            env,
            topology.users[0][0],
            fabric,
            content,
            FixedSelector(server.node),
            user_ttl_s=10.0,
        )
        server.start()
        user.start()
        env.run(until=65)
        versions = [obs.version for obs in user.observations]
        assert versions[0] == 0
        assert versions[-1] == 1
        assert versions == sorted(versions)

    def test_absence_interrupts_service(self):
        env, streams, topology, fabric, content = make_world(updates=())
        server = ServerActor(
            env, topology.servers[0], fabric, content, policy=PushPolicy()
        )
        user = EndUserActor(
            env,
            topology.users[0][0],
            fabric,
            content,
            FixedSelector(server.node),
            user_ttl_s=5.0,
            request_timeout_s=4.0,
        )
        schedule_absence(env, server.node, start=10.0, duration=20.0)
        server.start()
        user.start()
        env.run(until=60)
        assert user.failed_visits >= 2
        assert server.node.is_up  # recovered

    def test_absence_validation(self):
        env, streams, topology, fabric, content = make_world()
        with pytest.raises(ValueError):
            schedule_absence(env, topology.servers[0], start=0.0, duration=0.0)


class TestSelectors:
    def test_switch_selector_never_repeats(self):
        env, streams, topology, fabric, content = make_world(n_servers=4)
        stream = streams.stream("switch")
        selector = SwitchEveryVisitSelector(topology.servers, stream)
        previous = None
        for i in range(50):
            chosen = selector.select(topology.users[0][0], 0.0, i)
            assert chosen is not previous
            previous = chosen

    def test_switch_selector_single_server(self):
        env, streams, topology, fabric, content = make_world(n_servers=1)
        selector = SwitchEveryVisitSelector(
            topology.servers, streams.stream("switch")
        )
        assert selector.select(None, 0.0, 0) is topology.servers[0]
        assert selector.select(None, 0.0, 1) is topology.servers[0]


class TestRequestResponse:
    def test_request_timeout_returns_none(self):
        env, streams, topology, fabric, content = make_world(updates=())
        provider = ProviderActor(env, topology.provider, fabric, content)
        server = ServerActor(
            env, topology.servers[0], fabric, content,
            policy=TTLPolicy(30.0), upstream=topology.provider,
        )
        provider.node.is_up = False
        results = []

        def probe(env):
            got = yield from server.policy.poll_once()
            results.append((got, env.now))

        env.process(probe(env))
        env.run(until=100)
        # poll_once times out after its TTL (30 s) and reports no update.
        assert results == [(False, 30.0)]
