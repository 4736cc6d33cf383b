"""Tests for unicast / multicast-tree / broadcast infrastructures and
the Hilbert clustering."""

import pytest

from repro.cdn import LiveContent, ProviderActor, ServerActor
from repro.consistency import (
    BroadcastInfrastructure,
    MulticastTreeInfrastructure,
    PushPolicy,
    TTLPolicy,
    UnicastInfrastructure,
    cluster_by_hilbert,
    hilbert_number,
    hilbert_to_xy,
    xy_to_hilbert,
)
from repro.network import MessageKind, NetworkFabric, TopologyBuilder
from repro.network.geo import GeoPoint
from repro.sim import Environment, StreamRegistry


def make_actors(n_servers, seed=3, policy_factory=None):
    env = Environment()
    streams = StreamRegistry(seed)
    topology = TopologyBuilder(env, streams).build(n_servers=n_servers, users_per_server=0)
    fabric = NetworkFabric(env, streams=streams)
    content = LiveContent("c", update_times=[30.0])
    provider = ProviderActor(env, topology.provider, fabric, content)
    factory = policy_factory or (lambda: PushPolicy())
    servers = [
        ServerActor(env, node, fabric, content, policy=factory())
        for node in topology.servers
    ]
    return env, streams, fabric, content, provider, servers


class TestUnicast:
    def test_wiring(self):
        env, streams, fabric, content, provider, servers = make_actors(5)
        infra = UnicastInfrastructure()
        infra.wire(provider, servers)
        assert len(provider.children) == 5
        for server in servers:
            assert server.upstream is provider.node
            assert server.children == []
            assert infra.depth_of(server) == 1


class TestMulticastTree:
    def test_structure_invariants(self):
        env, streams, fabric, content, provider, servers = make_actors(20)
        tree = MulticastTreeInfrastructure(fabric, arity=2)
        tree.wire(provider, servers)
        # every server has exactly one parent; arity is respected
        for server in servers:
            assert tree.parent_of(server) is not None
        for actor in [provider] + servers:
            assert len(tree.children_of(actor)) <= 2
        # all servers reachable: depths are defined and bounded
        depths = [tree.depth_of(server) for server in servers]
        assert all(depth >= 1 for depth in depths)
        assert tree.max_depth() == max(depths)
        # a binary tree over 20 nodes needs depth >= 4 but <= 20
        assert 4 <= tree.max_depth() <= 20

    def test_arity_one_is_a_chain(self):
        env, streams, fabric, content, provider, servers = make_actors(6)
        tree = MulticastTreeInfrastructure(fabric, arity=1)
        tree.wire(provider, servers)
        assert tree.max_depth() == 6

    def test_proximity_parents_are_close(self):
        env, streams, fabric, content, provider, servers = make_actors(30)
        tree = MulticastTreeInfrastructure(fabric, arity=2)
        tree.wire(provider, servers)
        # A child should be closer to its parent than to the farthest
        # node in the system, on average (weak proximity sanity check).
        import numpy as np

        ratios = []
        for server in servers:
            parent = tree.parent_of(server)
            parent_latency = fabric.min_latency_s(parent.node, server.node)
            worst = max(
                fabric.min_latency_s(other.node, server.node)
                for other in servers
                if other is not server
            )
            if worst > 0:
                ratios.append(parent_latency / worst)
        assert float(np.mean(ratios)) < 0.5

    def test_push_propagates_through_tree(self):
        env, streams, fabric, content, provider, servers = make_actors(15)
        tree = MulticastTreeInfrastructure(fabric, arity=2)
        tree.wire(provider, servers)
        provider.use_push()
        for server in servers:
            server.start()
        env.run(until=60)
        assert all(server.cached_version == 1 for server in servers)
        # exactly one push per server (tree, no duplicates)
        assert fabric.ledger.kind_totals(MessageKind.PUSH_UPDATE).count == 15

    def test_ttl_polls_parent_not_provider(self):
        env, streams, fabric, content, provider, servers = make_actors(
            10, policy_factory=lambda: TTLPolicy(10.0)
        )
        tree = MulticastTreeInfrastructure(fabric, arity=2)
        tree.wire(provider, servers)
        deep = max(servers, key=tree.depth_of)
        assert tree.depth_of(deep) >= 2
        assert deep.upstream is tree.parent_of(deep).node

    def test_repair_reattaches_orphans(self):
        env, streams, fabric, content, provider, servers = make_actors(20)
        tree = MulticastTreeInfrastructure(fabric, arity=2)
        tree.wire(provider, servers)
        victim = max(servers, key=lambda s: len(tree.children_of(s)))
        orphans = tree.children_of(victim)
        assert orphans  # pick a node that actually has children
        victim.node.mark_down()
        moved = tree.repair(victim)
        assert moved == len(orphans)
        for orphan in orphans:
            new_parent = tree.parent_of(orphan)
            assert new_parent is not victim
            assert new_parent.node.is_up
            assert orphan.node in new_parent.children
        # depths remain computable for the survivors (no cycles)
        for server in servers:
            if server is victim:
                continue
            assert tree.depth_of(server) >= 1
        env.run(until=10)
        assert fabric.ledger.kind_totals(MessageKind.TREE_MAINTENANCE).count == moved

    def test_invalid_arity(self):
        env, streams, fabric, content, provider, servers = make_actors(2)
        with pytest.raises(ValueError):
            MulticastTreeInfrastructure(fabric, arity=0)


class TestBroadcast:
    def test_flood_reaches_everyone_with_redundancy(self):
        env, streams, fabric, content, provider, servers = make_actors(12)
        broadcast = BroadcastInfrastructure(fabric, neighbours=4, seeds=2)
        broadcast.wire(provider, servers)
        provider.use_push()
        for server in servers:
            server.start()
        env.run(until=120)
        reached = sum(1 for server in servers if server.cached_version == 1)
        assert reached >= 0.9 * broadcast.reachable_fraction(servers) * len(servers)
        pushes = fabric.ledger.kind_totals(MessageKind.PUSH_UPDATE).count
        # flooding is redundant: strictly more messages than servers reached
        assert pushes > reached

    def test_validation(self):
        env, streams, fabric, content, provider, servers = make_actors(2)
        with pytest.raises(ValueError):
            BroadcastInfrastructure(fabric, neighbours=0)
        with pytest.raises(ValueError):
            BroadcastInfrastructure(fabric, seeds=0)


class TestHilbert:
    def test_roundtrip_bijection(self):
        order = 4
        side = 1 << order
        seen = set()
        for x in range(side):
            for y in range(side):
                d = xy_to_hilbert(order, x, y)
                assert hilbert_to_xy(order, d) == (x, y)
                seen.add(d)
        assert seen == set(range(side * side))

    def test_adjacent_indices_are_adjacent_cells(self):
        order = 5
        side = 1 << order
        for d in range(side * side - 1):
            x1, y1 = hilbert_to_xy(order, d)
            x2, y2 = hilbert_to_xy(order, d + 1)
            assert abs(x1 - x2) + abs(y1 - y2) == 1  # the curve is continuous

    def test_bounds_validation(self):
        with pytest.raises(ValueError):
            xy_to_hilbert(3, 8, 0)
        with pytest.raises(ValueError):
            hilbert_to_xy(3, 64)
        with pytest.raises(ValueError):
            xy_to_hilbert(0, 0, 0)

    def test_geographic_locality(self):
        near_a = GeoPoint(40.0, -75.0)
        near_b = GeoPoint(40.2, -75.2)
        far = GeoPoint(-33.0, 151.0)
        da = hilbert_number(near_a)
        db = hilbert_number(near_b)
        dfar = hilbert_number(far)
        assert abs(da - db) < abs(da - dfar)

    def test_cluster_by_hilbert_balanced(self):
        points = [GeoPoint(float(i % 50 - 25), float(i * 3 % 300 - 150)) for i in range(101)]
        clusters = cluster_by_hilbert(points, 5)
        sizes = [len(cluster) for cluster in clusters]
        assert sum(sizes) == 101
        assert max(sizes) - min(sizes) <= 1

    def test_cluster_groups_close_points(self):
        east = [GeoPoint(40.0 + 0.01 * i, -74.0) for i in range(10)]
        west = [GeoPoint(37.0 + 0.01 * i, -122.0) for i in range(10)]
        clusters = cluster_by_hilbert(east + west, 2)
        # each cluster should be all-east or all-west
        for cluster in clusters:
            longitudes = {round(p.lon) for p in cluster}
            assert len(longitudes) == 1

    def test_cluster_validation(self):
        with pytest.raises(ValueError):
            cluster_by_hilbert([GeoPoint(0, 0)], 0)
        assert cluster_by_hilbert([], 3) == [[], [], []]
