"""Tests for the HAT system (cluster formation, supernode tree, update flow)."""

import pytest

from repro.cdn import LiveContent, UserCohort
from repro.core import HatConfig, HatSystem, form_clusters
from repro.network import MessageKind, NetworkFabric, TopologyBuilder
from repro.sim import Environment, StreamRegistry


def build_hat(n_servers=25, n_clusters=5, member_method="self-adaptive",
              updates=(30.0, 45.0, 60.0), seed=4, ttl=20.0):
    env = Environment()
    streams = StreamRegistry(seed)
    topology = TopologyBuilder(env, streams).build(n_servers=n_servers, users_per_server=1)
    fabric = NetworkFabric(env, streams=streams)
    content = LiveContent("game", update_times=list(updates))
    hat = HatSystem(
        env, fabric, streams, content,
        provider_node=topology.provider,
        server_nodes=list(topology.servers),
        config=HatConfig(
            n_clusters=n_clusters, tree_arity=4,
            server_ttl_s=ttl, member_method=member_method,
        ),
    )
    return env, streams, topology, fabric, content, hat


class TestClusterFormation:
    def test_every_server_in_exactly_one_cluster(self):
        env, streams, topology, fabric, content, hat = build_hat()
        seen = set()
        for spec in hat.clusters:
            for node in spec.all_nodes:
                assert node.node_id not in seen
                seen.add(node.node_id)
        assert len(seen) == 25

    def test_supernode_is_member_of_its_cluster(self):
        env, streams, topology, fabric, content, hat = build_hat()
        for spec in hat.clusters:
            assert spec.supernode not in spec.members
            assert spec.size == 1 + len(spec.members)

    def test_form_clusters_validation(self):
        stream = StreamRegistry(0).stream("s")
        with pytest.raises(ValueError):
            form_clusters([], 3, stream)


class TestHatStructure:
    def test_supernode_tree_rooted_at_provider(self):
        env, streams, topology, fabric, content, hat = build_hat()
        assert 1 <= len(hat.provider.children) <= 4
        for supernode in hat.supernodes:
            assert hat.tree.depth_of(supernode) >= 1
        assert hat.tree_depth() >= 1

    def test_members_point_at_their_supernode(self):
        env, streams, topology, fabric, content, hat = build_hat()
        for spec, supernode in zip(hat.clusters, hat.supernodes):
            for node in spec.members:
                member = hat.server_by_node_id[node.node_id]
                assert member.upstream is supernode.node

    def test_supernode_of_lookup(self):
        env, streams, topology, fabric, content, hat = build_hat()
        spec = hat.clusters[0]
        supernode = hat.supernode_of(spec.supernode)
        for node in spec.members:
            assert hat.supernode_of(node) is supernode
        with pytest.raises(KeyError):
            hat.supernode_of(topology.provider)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            HatConfig(n_clusters=0)
        with pytest.raises(ValueError):
            HatConfig(member_method="magic")
        with pytest.raises(ValueError):
            HatConfig(server_ttl_s=0)


class TestHatUpdateFlow:
    def test_supernodes_receive_updates_by_push(self):
        env, streams, topology, fabric, content, hat = build_hat(updates=(30.0,))
        hat.start()
        env.run(until=40.0)
        for supernode in hat.supernodes:
            assert supernode.cached_version == 1
            # Push-fresh well before one member TTL elapses
            assert supernode.apply_log()[-1][0] < 31.0

    def test_members_converge_via_self_adaptive(self):
        env, streams, topology, fabric, content, hat = build_hat(
            updates=(30.0, 45.0, 60.0)
        )
        cohort = UserCohort(
            env, fabric, content, [group[0] for group in topology.users],
            user_ttl_s=10.0,
            start_offsets=[0.0] * len(topology.servers),
            targets=list(topology.servers),
        )
        hat.start()
        cohort.start()
        env.run(until=400.0)
        for member in hat.members:
            assert member.cached_version == 3

    def test_silent_members_get_invalidated_not_pushed(self):
        # No users at all: members switch to Invalidation during silence
        # and receive a notice (but never fetch).
        env, streams, topology, fabric, content, hat = build_hat(
            updates=(30.0, 400.0), ttl=15.0
        )
        hat.start()
        env.run(until=600.0)
        invalidated = sum(1 for member in hat.members if member.is_invalidated)
        assert invalidated == len(hat.members)
        assert fabric.ledger.kind_totals(MessageKind.FETCH).count == 0
        # supernodes still got both updates via push
        for supernode in hat.supernodes:
            assert supernode.cached_version == 2

    def test_hybrid_members_use_plain_ttl(self):
        env, streams, topology, fabric, content, hat = build_hat(
            member_method="ttl", updates=(30.0,)
        )
        hat.start()
        env.run(until=120.0)
        for member in hat.members:
            assert member.policy.method_name == "ttl"
            assert member.cached_version == 1
        assert fabric.ledger.kind_totals(MessageKind.SWITCH_NOTICE).count == 0

    def test_provider_load_is_bounded_by_tree_arity(self):
        env, streams, topology, fabric, content, hat = build_hat(updates=(30.0, 40.0))
        hat.start()
        env.run(until=200.0)
        provider_pushes = fabric.ledger.updates_sent_by("provider")
        assert provider_pushes <= 2 * 4  # n_updates x tree arity
