"""Benchmarks for the Section 6 future-work system we built out:
the generic dynamic method and the method advisor.

The claim to check: a replica that *switches* methods based on measured
visit/update rates should track the best static method in each phase of
a phase-shifting workload -- fresher than static TTL during hot phases,
cheaper than static Push across silences.
"""

from repro.cdn import LiveContent, ProviderActor, ServerActor, UserCohort
from repro.consistency import PushPolicy, TTLPolicy, UnicastInfrastructure
from repro.core import DynamicPolicy, MethodAdvisor, WorkloadProfile
from repro.metrics.consistency import mean_update_lag
from repro.network import NetworkFabric, TopologyBuilder
from repro.sim import Environment, StreamRegistry
from repro.trace.workload import BurstSilenceWorkload


def run_phased(policy_factory, wire, seed=23, n_servers=20, horizon=4000.0):
    """Bursty updates + silences, two users per server."""
    env = Environment()
    streams = StreamRegistry(seed)
    topology = TopologyBuilder(env, streams).build(n_servers=n_servers, users_per_server=2)
    fabric = NetworkFabric(env, streams=streams)
    workload = BurstSilenceWorkload(
        n_bursts=6, updates_per_burst=20, burst_gap_mean_s=4.0,
        silence_mean_s=500.0, start_s=60.0,
    )
    content = LiveContent(
        "object", update_times=workload.generate(streams.stream("updates"))
    )
    provider = ProviderActor(env, topology.provider, fabric, content)
    servers = [
        ServerActor(env, node, fabric, content, policy=policy_factory(streams))
        for node in topology.servers
    ]
    UnicastInfrastructure().wire(provider, servers)
    wire(provider)
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
    lags = [
        mean_update_lag(content, s.apply_log(), censor_at=horizon) for s in servers
    ]
    return {
        "lag": sum(lags) / len(lags),
        "messages": fabric.ledger.response_message_count()
        + fabric.ledger.light_message_count(),
        "cost": fabric.ledger.consistency_cost_km_kb(),
    }


def test_dynamic_tracks_best_static(run_once):
    ttl = 20.0

    def run_all():
        return {
            "push": run_phased(lambda st: PushPolicy(), lambda p: p.use_push()),
            "ttl": run_phased(
                lambda st: TTLPolicy(ttl, stream=st.stream("phase")), lambda p: None
            ),
            "dynamic": run_phased(
                lambda st: DynamicPolicy(
                    ttl, staleness_tolerance_s=2.0, stream=st.stream("phase"),
                    decision_interval_s=60.0,
                ),
                lambda p: p.use_dynamic(),
            ),
        }

    results = run_once(run_all)
    # fresher than static TTL...
    assert results["dynamic"]["lag"] < 0.5 * results["ttl"]["lag"]
    # ...while costing far less than TTL's always-on polling across the
    # long silences (and in the same ballpark as pure Push).
    assert results["dynamic"]["messages"] < 0.5 * results["ttl"]["messages"]
    assert results["dynamic"]["messages"] < 2.0 * results["push"]["messages"]


def test_advisor_agrees_with_simulation(run_once):
    """The advisor's cost model must rank methods the same way the
    simulator does on a matching steady workload."""

    ttl = 20.0

    def run_pair():
        update_times = [60.0 + 30.0 * i for i in range(60)]

        def run(policy_factory, wire):
            env = Environment()
            streams = StreamRegistry(29)
            topology = TopologyBuilder(env, streams).build(n_servers=15, users_per_server=1)
            fabric = NetworkFabric(env, streams=streams)
            content = LiveContent("steady", update_times=update_times)
            provider = ProviderActor(env, topology.provider, fabric, content)
            servers = [
                ServerActor(env, node, fabric, content, policy=policy_factory(streams))
                for node in topology.servers
            ]
            UnicastInfrastructure().wire(provider, servers)
            wire(provider)
            for server in servers:
                server.start()
            env.run(until=2000.0)
            return (
                fabric.ledger.response_message_count()
                + fabric.ledger.light_message_count()
            )

        push_msgs = run(lambda st: PushPolicy(), lambda p: p.use_push())
        ttl_msgs = run(
            lambda st: TTLPolicy(ttl, stream=st.stream("phase")), lambda p: None
        )
        return push_msgs, ttl_msgs

    push_msgs, ttl_msgs = run_once(run_pair)

    # advisor's model for the same numbers: 2 msgs/poll vs 1 msg/update
    profile = WorkloadProfile(
        update_rate_per_s=1.0 / 30.0, visit_rate_per_s=0.0, n_servers=15
    )
    advisor = MethodAdvisor(min_ttl_s=ttl)
    model_push = advisor.expected_messages_per_hour(profile, "push")
    model_ttl = advisor.expected_messages_per_hour(profile, "ttl", ttl)
    # the model and the simulator must agree on which is heavier
    assert (model_push > model_ttl) == (push_msgs > ttl_msgs)
