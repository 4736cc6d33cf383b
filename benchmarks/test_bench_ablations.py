"""Ablation benchmarks beyond the paper's figures.

These quantify design choices the paper argues for qualitatively:

- self-adaptive vs the adaptive-TTL baseline it criticises (Sec 5.1);
- broadcast's redundant-message overhead (the reason Sec 4 excludes it);
- multicast-tree arity (the paper picks d=2 to stress depth effects);
- HAT cluster count (the supernode-push vs member-poll tradeoff);
- node failures: unicast keeps converging, an unrepaired tree strands
  whole subtrees (the Sec 1 argument against multicast).
"""


from repro.cdn import LiveContent, ProviderActor, ServerActor
from repro.consistency import MulticastTreeInfrastructure, PushPolicy, TTLPolicy
from repro.experiments.testbed import build_deployment, build_system
from repro.network import NetworkFabric, TopologyBuilder
from repro.sim import Environment, StreamRegistry


def test_self_adaptive_beats_adaptive_ttl_on_irregular_updates(run_once, s5cfg):
    """Sec 5.1: adaptive TTL mispredicts irregular updates; the
    self-adaptive switch stays consistent with fewer messages."""

    def run_pair():
        self_metrics = build_system(s5cfg, "self").run()
        adaptive = build_deployment(s5cfg, "adaptive-ttl", "unicast").run()
        return self_metrics, adaptive

    self_metrics, adaptive = run_once(run_pair)
    # The backoff baseline either polls more or goes stale longer.
    assert (
        self_metrics.mean_server_lag < adaptive.mean_server_lag
        or self_metrics.response_messages < adaptive.response_messages
    )
    # And self-adaptive keeps inconsistency bounded by ~TTL.
    assert self_metrics.mean_server_lag < 1.2 * s5cfg.server_ttl_s


def test_broadcast_redundancy(run_once, s4cfg):
    """Sec 1/2: flooding delivers duplicates -- strictly more update
    messages than the tree for the same coverage."""

    def run_pair():
        tree = build_deployment(s4cfg, "push", "multicast").run()
        flood = build_deployment(s4cfg, "push", "broadcast").run()
        return tree, flood

    tree, flood = run_once(run_pair)
    assert flood.update_messages > 1.5 * tree.update_messages
    # Both keep servers fresh (coverage is not the differentiator).
    assert flood.mean_server_lag < 5.0
    assert tree.mean_server_lag < 5.0


def test_tree_arity_tradeoff(run_once, sweep_cfg):
    """Higher arity => shallower tree => lower TTL depth amplification,
    at the cost of more per-node fan-out."""

    def run_arities():
        lags = {}
        for arity in (2, 4, 8):
            metrics = build_deployment(
                sweep_cfg.with_(tree_arity=arity), "ttl", "multicast"
            ).run()
            lags[arity] = metrics.mean_server_lag
        return lags

    lags = run_once(run_arities)
    assert lags[8] < lags[4] < lags[2]


def test_hat_cluster_count_tradeoff(run_once, s5cfg):
    """More clusters => more supernode pushes but shorter member polls;
    provider load stays bounded by the tree either way."""

    def run_counts():
        out = {}
        for n_clusters in (3, 10):
            metrics = build_system(
                s5cfg.with_(hat_clusters=n_clusters), "hat"
            ).run()
            out[n_clusters] = metrics
        return out

    results = run_once(run_counts)
    assert results[10].update_messages >= results[3].update_messages
    for metrics in results.values():
        assert metrics.provider_update_messages <= s5cfg.n_updates * s5cfg.hat_arity


def test_failure_unicast_vs_unrepaired_tree(run_once):
    """Kill an interior tree node mid-run: its subtree stops receiving
    pushes until repair, while unicast only loses the dead node itself."""

    def run_scenario():
        env = Environment()
        streams = StreamRegistry(17)
        topology = TopologyBuilder(env, streams).build(n_servers=24, users_per_server=0)
        fabric = NetworkFabric(env, streams=streams)
        content = LiveContent("game", update_times=[20.0 * i for i in range(1, 30)])
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
        victim = max(servers, key=lambda s: len(tree.children_of(s)))

        def killer(env):
            yield env.timeout(100.0)
            victim.node.mark_down()

        env.process(killer(env))
        env.run(until=620.0)
        stranded = [
            server for server in servers
            if server is not victim and server.cached_version < content.last_version
        ]
        return tree, victim, stranded

    tree, victim, stranded = run_once(run_scenario)
    # every stranded server sits under the dead node
    assert stranded
    for server in stranded:
        node = server
        under_victim = False
        while True:
            parent = tree.parent_of(node)
            if parent is None:
                break
            if parent is victim:
                under_victim = True
                break
            node = parent
        assert under_victim


def test_tree_repair_restores_delivery(run_once):
    """With repair, orphans re-attach and catch up on later updates."""

    def run_scenario():
        env = Environment()
        streams = StreamRegistry(18)
        topology = TopologyBuilder(env, streams).build(n_servers=24, users_per_server=0)
        fabric = NetworkFabric(env, streams=streams)
        content = LiveContent("game", update_times=[20.0 * i for i in range(1, 30)])
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
        victim = max(servers, key=lambda s: len(tree.children_of(s)))

        def kill_and_repair(env):
            yield env.timeout(100.0)
            victim.node.mark_down()
            yield env.timeout(30.0)  # detection delay
            tree.repair(victim)

        env.process(kill_and_repair(env))
        env.run(until=620.0)
        return [s for s in servers if s is not victim]

    survivors = run_once(run_scenario)
    final = max(s.cached_version for s in survivors)
    assert all(server.cached_version == final for server in survivors)


def test_incast_poll_synchronisation(run_once):
    """Sec 5.1's Incast argument: if all servers poll the provider at
    the same instant (as switch-back-on-push would cause), responses
    queue on the provider uplink; the self-adaptive design's
    visit-staggered switch-back keeps polls desynchronised and cheap."""

    def run_scenario(synchronised):
        env = Environment()
        streams = StreamRegistry(37)
        topology = TopologyBuilder(env, streams).build(n_servers=60, users_per_server=0)
        fabric = NetworkFabric(env, streams=streams)
        content = LiveContent(
            "game", update_times=[50.0], update_size_kb=200.0
        )
        provider = ProviderActor(env, topology.provider, fabric, content)
        servers = []
        phase = streams.stream("phase")
        for node in topology.servers:
            policy = TTLPolicy(
                60.0, stream=None if synchronised else phase
            )
            server = ServerActor(
                env, node, fabric, content, policy=policy, upstream=provider.node
            )
            servers.append(server)
        completion = {}

        def probe(env, server):
            # align every server's first poll to t=60 when synchronised
            yield env.timeout(60.0 if synchronised else 60.0 + phase.uniform(0.0, 60.0))
            started = env.now
            yield from server.policy.poll_once()
            completion[server.node.node_id] = env.now - started

        for server in servers:
            env.process(probe(env, server))
        env.run(until=400.0)
        values = sorted(completion.values())
        return values[int(0.95 * (len(values) - 1))]

    def run_both():
        return run_scenario(True), run_scenario(False)

    synchronised_p95, staggered_p95 = run_once(run_both)
    # the Incast burst queues ~60 x 200 KB on one uplink: an order of
    # magnitude worse at the tail than desynchronised polling
    assert synchronised_p95 > 3.0 * staggered_p95
