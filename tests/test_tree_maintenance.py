"""Tests for heartbeat-driven multicast-tree maintenance."""

import pytest

from repro.cdn import LiveContent, ProviderActor, ServerActor
from repro.consistency import (
    MulticastTreeInfrastructure,
    PushPolicy,
    TreeMaintainer,
)
from repro.network import NetworkFabric, TopologyBuilder
from repro.sim import Environment, StreamRegistry


def build_tree_world(n_servers=16, updates=None, seed=51):
    env = Environment()
    streams = StreamRegistry(seed)
    topology = TopologyBuilder(env, streams).build(n_servers=n_servers, users_per_server=0)
    fabric = NetworkFabric(env, streams=streams)
    update_times = updates if updates is not None else [30.0 * i for i in range(1, 20)]
    content = LiveContent("game", update_times=list(update_times))
    provider = ProviderActor(env, topology.provider, fabric, content)
    servers = [
        ServerActor(env, node, fabric, content, policy=PushPolicy())
        for node in topology.servers
    ]
    tree = MulticastTreeInfrastructure(fabric, arity=2)
    tree.wire(provider, servers)
    provider.use_push()
    for server in servers:
        server.start()
    return env, fabric, content, provider, servers, tree


class TestValidation:
    def test_bad_heartbeat(self):
        env, fabric, content, provider, servers, tree = build_tree_world()
        with pytest.raises(ValueError):
            TreeMaintainer(env, fabric, tree, servers, heartbeat_s=0)
        with pytest.raises(ValueError):
            TreeMaintainer(env, fabric, tree, servers, heartbeat_s=30, failure_timeout_s=10)


class TestHeartbeats:
    def test_heartbeat_traffic_accounted(self):
        env, fabric, content, provider, servers, tree = build_tree_world()
        maintainer = TreeMaintainer(env, fabric, tree, servers, heartbeat_s=20.0)
        maintainer.start()
        maintainer.start()  # idempotent
        env.run(until=205.0)
        # 10 rounds x one heartbeat per server with a parent
        assert maintainer.heartbeats_sent == 10 * len(servers)
        env.run(until=210.0)
        assert maintainer.maintenance_messages() >= maintainer.heartbeats_sent * 0.9

    def test_overhead_scales_with_heartbeat_rate(self):
        def run(heartbeat):
            env, fabric, content, provider, servers, tree = build_tree_world()
            maintainer = TreeMaintainer(env, fabric, tree, servers, heartbeat_s=heartbeat)
            maintainer.start()
            env.run(until=600.0)
            return maintainer.heartbeats_sent

        fast = run(10.0)
        slow = run(60.0)
        assert fast > 4 * slow


class TestFailureRecovery:
    def test_dead_parent_detected_and_repaired(self):
        env, fabric, content, provider, servers, tree = build_tree_world()
        maintainer = TreeMaintainer(
            env, fabric, tree, servers, heartbeat_s=10.0, failure_timeout_s=25.0
        )
        maintainer.start()
        victim = max(servers, key=lambda s: len(tree.children_of(s)))
        orphans = tree.children_of(victim)
        assert orphans

        def killer(env):
            yield env.timeout(100.0)
            victim.node.mark_down()

        env.process(killer(env))
        env.run(until=600.0)
        assert maintainer.repairs >= 1
        for orphan in orphans:
            assert tree.parent_of(orphan) is not victim
        # survivors converged to the last update despite the failure
        final = content.last_version
        for server in servers:
            if server is victim:
                continue
            assert server.cached_version == final

    def test_faster_heartbeat_recovers_sooner(self):
        def staleness_after_failure(heartbeat):
            env, fabric, content, provider, servers, tree = build_tree_world(
                updates=[20.0 * i for i in range(1, 28)]
            )
            maintainer = TreeMaintainer(
                env, fabric, tree, servers,
                heartbeat_s=heartbeat, failure_timeout_s=2.0 * heartbeat,
            )
            maintainer.start()
            victim = max(servers, key=lambda s: len(tree.children_of(s)))
            orphans = tree.children_of(victim)

            def killer(env):
                yield env.timeout(100.0)
                victim.node.mark_down()

            env.process(killer(env))
            env.run(until=560.0)
            from repro.metrics.consistency import mean_update_lag

            lags = [
                mean_update_lag(
                    content, o.apply_log(), window=(100.0, 540.0), censor_at=560.0
                )
                for o in orphans
            ]
            return sum(lags) / len(lags)

        assert staleness_after_failure(10.0) < staleness_after_failure(80.0)

    def test_no_failures_no_repairs(self):
        env, fabric, content, provider, servers, tree = build_tree_world()
        maintainer = TreeMaintainer(env, fabric, tree, servers, heartbeat_s=15.0)
        maintainer.start()
        env.run(until=400.0)
        assert maintainer.repairs == 0
