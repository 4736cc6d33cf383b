"""Integration tests for the provider and server actors and the users
that visit them."""

import pytest

from repro.cdn import (
    LiveContent,
    ProviderActor,
    ServerActor,
    UserCohort,
    schedule_absence,
)
from repro.consistency import PushPolicy, TTLPolicy, UnicastInfrastructure
from repro.network import NetworkFabric, TopologyBuilder
from repro.obs.tracer import RecordingTracer
from repro.sim import Environment, StreamRegistry
from tests.test_golden import visit_observations


def make_world(n_servers=3, updates=(50.0, 100.0, 150.0), seed=1, users_per_server=1):
    env = Environment(tracer=RecordingTracer())
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
        cohort = UserCohort(
            env, fabric, content, [topology.users[0][0]],
            user_ttl_s=10.0, start_offsets=[0.0], targets=[server.node],
        )
        server.start()
        cohort.start()
        env.run(until=65)
        versions = [obs.version for obs in visit_observations(env.tracer, cohort)[0]]
        assert versions[0] == 0
        assert versions[-1] == 1
        assert versions == sorted(versions)

    def test_absence_interrupts_service(self):
        env, streams, topology, fabric, content = make_world(updates=())
        server = ServerActor(
            env, topology.servers[0], fabric, content, policy=PushPolicy()
        )
        cohort = UserCohort(
            env, fabric, content, [topology.users[0][0]],
            user_ttl_s=5.0, start_offsets=[0.0], targets=[server.node],
            request_timeout_s=4.0,
        )
        schedule_absence(env, server.node, start=10.0, duration=20.0)
        server.start()
        cohort.start()
        env.run(until=60)
        assert cohort.failed_visits_of(0) >= 2
        assert server.node.is_up  # recovered

    def test_absence_validation(self):
        env, streams, topology, fabric, content = make_world()
        with pytest.raises(ValueError):
            schedule_absence(env, topology.servers[0], start=0.0, duration=0.0)


class TestSwitchEveryVisit:
    @staticmethod
    def visited(n_servers):
        """Server ids one switch-every-visit user saw, in visit order."""
        env, streams, topology, fabric, content = make_world(
            n_servers=n_servers, updates=()
        )
        servers = [
            ServerActor(env, node, fabric, content, policy=PushPolicy())
            for node in topology.servers
        ]
        cohort = UserCohort(
            env, fabric, content, [topology.users[0][0]],
            user_ttl_s=1.0, start_offsets=[0.0],
            switch_servers=topology.servers, switch_stream=streams.stream("switch"),
        )
        for server in servers:
            server.start()
        cohort.start()
        env.run(until=60)
        return [obs.server_id for obs in visit_observations(env.tracer, cohort)[0]]

    def test_never_visits_the_same_server_twice_in_a_row(self):
        visited = self.visited(4)
        assert len(visited) >= 40
        assert all(a != b for a, b in zip(visited, visited[1:]))

    def test_single_server_is_always_visited(self):
        visited = self.visited(1)
        assert len(visited) >= 40
        assert set(visited) == {"server-0"}


class TestRequestResponse:
    def test_request_timeout_returns_none(self):
        env, streams, topology, fabric, content = make_world(updates=())
        provider = ProviderActor(env, topology.provider, fabric, content)
        server = ServerActor(
            env, topology.servers[0], fabric, content,
            policy=TTLPolicy(30.0), upstream=topology.provider,
        )
        provider.node.mark_down()
        results = []

        def probe(env):
            got = yield from server.policy.poll_once()
            results.append((got, env.now))

        env.process(probe(env))
        env.run(until=100)
        # poll_once times out after its TTL (30 s) and reports no update.
        assert results == [(False, 30.0)]
