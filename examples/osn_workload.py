"""Extension example: OSN-style burst/silence updates (TAO pattern).

Section 5 motivates the self-adaptive method with the observation that
online-social-network objects are updated in a burst right after a post
and then go quiet ([42], [43]).  This example builds that workload with
:class:`BurstSilenceWorkload` and shows why the self-adaptive switch
wins there: plain TTL keeps polling through silence, Push keeps pushing
to uninterested replicas, while the self-adaptive method pays one
invalidation per burst.

Run:  python examples/osn_workload.py
"""

from repro.cdn import LiveContent, ProviderActor, ServerActor, UserCohort
from repro.consistency import (
    InvalidationPolicy,
    PushPolicy,
    SelfAdaptivePolicy,
    TTLPolicy,
    UnicastInfrastructure,
)
from repro.network import NetworkFabric, TopologyBuilder
from repro.sim import Environment, StreamRegistry
from repro.metrics.consistency import mean_update_lag
from repro.trace.workload import BurstSilenceWorkload


def run_method(name, policy_factory, provider_wire, update_times, horizon,
               n_servers=40, seed=7):
    env = Environment()
    streams = StreamRegistry(seed)
    topology = TopologyBuilder(env, streams).build(n_servers=n_servers, users_per_server=2)
    fabric = NetworkFabric(env, streams=streams)
    content = LiveContent("osn-object", update_times=update_times)
    provider = ProviderActor(env, topology.provider, fabric, content)
    servers = [
        ServerActor(env, node, fabric, content, policy=policy_factory(streams))
        for node in topology.servers
    ]
    UnicastInfrastructure().wire(provider, servers)
    provider_wire(provider)
    start = streams.stream("user.start")
    nodes, homes = [], []
    for server, group in zip(servers, topology.users):
        for user_node in group:
            nodes.append(user_node)
            homes.append(server.node)
    users = UserCohort(
        env, fabric, content, nodes,
        user_ttl_s=10.0,
        start_offsets=[start.uniform(0.0, 50.0) for _ in nodes],
        targets=homes,
    )
    for server in servers:
        server.start()
    users.start()
    env.run(until=horizon)
    ledger = fabric.ledger
    lags = [
        mean_update_lag(content, server.apply_log(), censor_at=horizon)
        for server in servers
    ]
    return {
        "method": name,
        "server_lag": sum(lags) / len(lags),
        "responses": ledger.response_message_count(),
        "light": ledger.light_message_count(),
        "cost": ledger.consistency_cost_km_kb(),
    }


def main() -> None:
    workload = BurstSilenceWorkload(
        n_bursts=8, updates_per_burst=15, burst_gap_mean_s=4.0, silence_mean_s=700.0,
        start_s=60.0,
    )
    updates = workload.generate(StreamRegistry(1).stream("workload"))
    horizon = updates[-1] + 400.0
    print(
        "OSN object: %d updates in %d bursts over %.0f s (%.0f%% of the time silent)"
        % (
            len(updates),
            workload.n_bursts,
            horizon,
            100.0 * (1 - len(updates) * workload.burst_gap_mean_s / horizon),
        )
    )
    print()

    ttl = 30.0
    rows = [
        run_method(
            "push", lambda st: PushPolicy(), lambda p: p.use_push(), updates, horizon
        ),
        run_method(
            "invalidation",
            lambda st: InvalidationPolicy(),
            lambda p: p.use_invalidation(),
            updates,
            horizon,
        ),
        run_method(
            "ttl",
            lambda st: TTLPolicy(ttl, stream=st.stream("phase")),
            lambda p: None,
            updates,
            horizon,
        ),
        run_method(
            "self-adaptive",
            lambda st: SelfAdaptivePolicy(ttl, stream=st.stream("phase")),
            lambda p: p.use_self_adaptive(),
            updates,
            horizon,
        ),
    ]

    header = "%-14s %14s %12s %12s %14s" % (
        "method", "server lag (s)", "responses", "light msgs", "cost (km*KB)"
    )
    print(header)
    print("-" * len(header))
    for row in rows:
        print(
            "%-14s %14.2f %12d %12d %14.3e"
            % (row["method"], row["server_lag"], row["responses"], row["light"], row["cost"])
        )

    by_name = {row["method"]: row for row in rows}
    saved = 1.0 - by_name["self-adaptive"]["responses"] / by_name["ttl"]["responses"]
    print()
    print(
        "self-adaptive answers %.0f%% fewer poll/update responses than plain TTL"
        % (100.0 * saved)
    )
    print("while keeping server staleness bounded by the same TTL.")


if __name__ == "__main__":
    main()
