"""The paper's future work, built out: rate-driven method selection.

Section 6 proposes "a more generic hybrid and self-adaptive consistency
maintenance method that can change the update method ... by considering
more factors, such as varying visit frequencies and consistency
requirements from customers."  This example demonstrates the two pieces
this library adds on top of the paper:

1. :class:`~repro.core.advisor.MethodAdvisor` -- the paper's guidance
   table as an auditable cost model;
2. :class:`~repro.core.dynamic.DynamicPolicy` -- replicas that switch
   between TTL / Invalidation / Push from their own measured rates,
   shown on a workload that changes phase mid-run.

Run:  python examples/adaptive_consistency.py
"""

from collections import Counter

from repro.cdn import LiveContent, ProviderActor, ServerActor, UserCohort
from repro.consistency import UnicastInfrastructure
from repro.core import DynamicPolicy, MethodAdvisor, WorkloadProfile
from repro.network import NetworkFabric, TopologyBuilder
from repro.sim import Environment, StreamRegistry


def advisor_demo() -> None:
    print("== MethodAdvisor: the guidance table as code ==")
    advisor = MethodAdvisor(min_ttl_s=10.0)
    scenarios = [
        ("live game score, strict freshness", WorkloadProfile(0.05, 0.5, 170), 1.0),
        ("auction page, few watchers", WorkloadProfile(0.5, 0.01, 170), 1.0),
        ("news ticker, 30 s tolerance", WorkloadProfile(0.2, 0.5, 170), 30.0),
        ("social post, bursty", WorkloadProfile(0.05, 0.2, 170, silence_fraction=0.8), 30.0),
    ]
    for name, profile, tolerance in scenarios:
        rec = advisor.recommend(profile, tolerance)
        print(
            "  %-34s -> %-13s on %-9s (%.0f msg/h, ~%.1f s stale)"
            % (
                name,
                rec.method,
                rec.infrastructure,
                rec.expected_messages_per_hour,
                rec.expected_staleness_s,
            )
        )
        print("      reason: %s" % rec.reason)
    print()


def dynamic_demo() -> None:
    print("== DynamicPolicy: replicas re-deciding as the workload shifts ==")
    env = Environment()
    streams = StreamRegistry(13)
    topology = TopologyBuilder(env, streams).build(n_servers=12, users_per_server=1)
    fabric = NetworkFabric(env, streams=streams)
    # Three phases: hot burst (updates every 5 s), silence, sparse updates.
    updates = [60.0 + 5.0 * i for i in range(60)]          # hot: 60-360 s
    updates += [1500.0 + 120.0 * i for i in range(8)]      # sparse: 1500-2340 s
    content = LiveContent("shifting", update_times=updates)
    provider = ProviderActor(env, topology.provider, fabric, content)
    servers = [
        ServerActor(
            env, node, fabric, content,
            policy=DynamicPolicy(
                15.0, staleness_tolerance_s=2.0,
                stream=streams.stream("phase"), decision_interval_s=60.0,
            ),
        )
        for node in topology.servers
    ]
    UnicastInfrastructure().wire(provider, servers)
    provider.use_dynamic()
    users = UserCohort(
        env, fabric, content, [group[0] for group in topology.users],
        user_ttl_s=5.0,
        start_offsets=[0.0] * len(servers),
        targets=[server.node for server in servers],
    )
    for server in servers:
        server.start()
    users.start()
    env.run(until=3000.0)

    # What mode was the fleet in at a few probe times?
    def fleet_modes(t):
        counts = Counter()
        for server in servers:
            mode = "ttl"
            for when, new_mode in server.policy.mode_history:
                if when <= t:
                    mode = new_mode
            counts[mode] += 1
        return dict(counts)

    for label, t in [("hot burst", 300.0), ("silence", 1200.0), ("sparse updates", 2800.0)]:
        print("  t=%6.0fs (%-14s): %s" % (t, label, fleet_modes(t)))
    final = max(s.cached_version for s in servers)
    print("  all replicas converged to version %d/%d" % (final, content.last_version))


if __name__ == "__main__":
    advisor_demo()
    dynamic_demo()
