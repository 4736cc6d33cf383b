"""Tests for HAT supernode failover (Section 5.2's re-parenting rule)."""

import pytest

from repro.cdn import LiveContent, UserCohort
from repro.core import HatConfig, HatSystem
from repro.network import NetworkFabric, TopologyBuilder
from repro.sim import Environment, StreamRegistry


def build_hat(n_servers=24, n_clusters=4, updates=None, seed=61, ttl=15.0,
              users=True):
    env = Environment()
    streams = StreamRegistry(seed)
    topology = TopologyBuilder(env, streams).build(
        n_servers=n_servers, users_per_server=1 if users else 0
    )
    fabric = NetworkFabric(env, streams=streams)
    update_times = updates if updates is not None else [40.0 + 25.0 * i for i in range(20)]
    content = LiveContent("game", update_times=list(update_times))
    hat = HatSystem(
        env, fabric, streams, content,
        provider_node=topology.provider,
        server_nodes=list(topology.servers),
        config=HatConfig(n_clusters=n_clusters, tree_arity=4,
                         server_ttl_s=ttl, member_method="self-adaptive"),
    )
    cohort = None
    if users:
        cohort = UserCohort(
            env, fabric, content, [group[0] for group in topology.users],
            user_ttl_s=10.0,
            start_offsets=[0.0] * n_servers,
            targets=list(topology.servers),
        )
    return env, streams, topology, fabric, content, hat, cohort


class TestFailover:
    def pick_cluster_with_members(self, hat):
        for index, spec in enumerate(hat.clusters):
            if spec.members:
                return index, spec
        raise AssertionError("no cluster with members")

    def test_promotes_nearest_member(self):
        env, streams, topology, fabric, content, hat, cohort = build_hat()
        index, spec = self.pick_cluster_with_members(hat)
        old = hat.supernodes[index]
        old.node.is_up = False
        promotee = hat.handle_supernode_failure(old)
        assert promotee is not None
        assert promotee.node in [spec.supernode] + spec.members or promotee.node is spec.supernode
        assert hat.supernodes[index] is promotee
        assert promotee.policy.method_name == "push"
        # promotee joined the tree
        assert hat.tree.parent_of(promotee) is not None
        # remaining members point at the promotee
        for node in spec.members:
            member = hat.server_by_node_id[node.node_id]
            assert member.upstream is promotee.node

    def test_unknown_supernode_rejected(self):
        env, streams, topology, fabric, content, hat, cohort = build_hat()
        member = hat.members[0]
        with pytest.raises(KeyError):
            hat.handle_supernode_failure(member)

    def test_cluster_dissolves_when_all_members_down(self):
        env, streams, topology, fabric, content, hat, cohort = build_hat()
        index, spec = self.pick_cluster_with_members(hat)
        old = hat.supernodes[index]
        old.node.is_up = False
        for node in spec.members:
            node.is_up = False
        n_before = len(hat.supernodes)
        assert hat.handle_supernode_failure(old) is None
        assert len(hat.supernodes) == n_before - 1

    def test_cluster_converges_after_failover(self):
        env, streams, topology, fabric, content, hat, cohort = build_hat()
        hat.start()
        cohort.start()
        index, spec = self.pick_cluster_with_members(hat)
        victim = hat.supernodes[index]

        def kill_and_recover(env):
            yield env.timeout(200.0)
            victim.node.is_up = False
            yield env.timeout(20.0)  # detection delay
            hat.handle_supernode_failure(victim)

        env.process(kill_and_recover(env))
        env.run(until=900.0)
        final = content.last_version
        promotee = hat.supernodes[index]
        assert promotee is not victim
        assert promotee.cached_version == final
        for node in hat.clusters[index].members:
            member = hat.server_by_node_id[node.node_id]
            assert member.cached_version == final

    def test_invalidation_mode_members_survive_failover(self):
        # burst, then failover during silence, then one late update:
        # the re-announced members must still hear about it.
        env, streams, topology, fabric, content, hat, cohort = build_hat(
            updates=[40.0, 50.0, 60.0, 700.0]
        )
        hat.start()
        cohort.start()
        index, spec = self.pick_cluster_with_members(hat)
        victim = hat.supernodes[index]

        def kill_and_recover(env):
            yield env.timeout(400.0)  # mid-silence: members are in inv mode
            victim.node.is_up = False
            yield env.timeout(20.0)
            hat.handle_supernode_failure(victim)

        env.process(kill_and_recover(env))
        env.run(until=1100.0)
        promotee = hat.supernodes[index]
        assert promotee.cached_version == 4
        for node in hat.clusters[index].members:
            member = hat.server_by_node_id[node.node_id]
            assert member.cached_version == 4

    def test_monitor_auto_recovers(self):
        env, streams, topology, fabric, content, hat, cohort = build_hat()
        hat.start()
        hat.start_monitor(heartbeat_s=10.0, failure_timeout_s=20.0)
        cohort.start()
        index, spec = self.pick_cluster_with_members(hat)
        victim = hat.supernodes[index]

        def killer(env):
            yield env.timeout(200.0)
            victim.node.is_up = False

        env.process(killer(env))
        env.run(until=900.0)
        promotee = hat.supernodes[index]
        assert promotee is not victim  # auto-failover happened
        final = content.last_version
        assert promotee.cached_version == final
        for node in hat.clusters[index].members:
            member = hat.server_by_node_id[node.node_id]
            assert member.cached_version == final

    def test_monitor_validation(self):
        env, streams, topology, fabric, content, hat, cohort = build_hat(users=False)
        with pytest.raises(ValueError):
            hat.start_monitor(heartbeat_s=0)
        with pytest.raises(ValueError):
            hat.start_monitor(heartbeat_s=30.0, failure_timeout_s=10.0)

    def test_old_policy_processes_stopped(self):
        env, streams, topology, fabric, content, hat, cohort = build_hat()
        hat.start()
        env.run(until=100.0)
        index, spec = self.pick_cluster_with_members(hat)
        victim = hat.supernodes[index]
        victim.node.is_up = False
        promotee = hat.handle_supernode_failure(victim)
        old_procs = [p for p in promotee._policy_procs]
        # the promotee's push policy has no background processes
        assert promotee._policy_procs == []
        env.run(until=200.0)
        # and the simulation keeps running without crashes (the old
        # self-adaptive loop was interrupted cleanly)
        assert env.now == 200.0
