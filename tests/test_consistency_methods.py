"""Behavioural tests for the update-method policies (TTL / Push /
Invalidation / self-adaptive / adaptive-TTL)."""

from collections import Counter

import pytest

from repro.cdn import LiveContent, ProviderActor, ServerActor, UserCohort
from repro.consistency import (
    AdaptiveTTLPolicy,
    InvalidationPolicy,
    PushPolicy,
    SelfAdaptivePolicy,
    TTLPolicy,
    UnicastInfrastructure,
)
from repro.core import DynamicPolicy
from repro.experiments.config import TestbedConfig
from repro.experiments.testbed import build_deployment
from repro.network import Message, MessageKind, NetworkFabric, TopologyBuilder
from repro.obs.tracer import RecordingTracer
from repro.sim import Environment, StreamRegistry


def deploy(method_factory, wire, updates, n_servers=3, seed=2, horizon=400.0,
           users=True, user_ttl=10.0):
    env = Environment()
    streams = StreamRegistry(seed)
    topology = TopologyBuilder(env, streams).build(
        n_servers=n_servers, users_per_server=1 if users else 0
    )
    fabric = NetworkFabric(env, streams=streams)
    content = LiveContent("game", update_times=list(updates))
    provider = ProviderActor(env, topology.provider, fabric, content)
    servers = [
        ServerActor(env, node, fabric, content, policy=method_factory(streams))
        for node in topology.servers
    ]
    UnicastInfrastructure().wire(provider, servers)
    wire(provider)
    cohort = None
    if users:
        cohort = UserCohort(
            env, fabric, content, [group[0] for group in topology.users],
            user_ttl_s=user_ttl,
            start_offsets=[0.0] * n_servers,
            targets=[server.node for server in servers],
        )
    for server in servers:
        server.start()
    if cohort is not None:
        cohort.start()
    env.run(until=horizon)
    return env, fabric, content, provider, servers, cohort


class TestTTLPolicy:
    def test_validation(self):
        with pytest.raises(ValueError):
            TTLPolicy(0)

    def test_eager_polling_converges_within_ttl(self):
        env, fabric, content, provider, servers, _ = deploy(
            lambda st: TTLPolicy(20.0, stream=st.stream("phase")),
            lambda p: None,
            updates=(50.0,),
            users=False,
        )
        for server in servers:
            log = server.apply_log()
            assert log[-1][1] == 1
            # applied within one TTL + small delays of the update time
            assert log[-1][0] <= 50.0 + 20.0 + 2.0

    def test_lazy_mode_only_fetches_on_demand(self):
        env, fabric, content, provider, servers, users = deploy(
            lambda st: TTLPolicy(20.0, stream=st.stream("phase"), eager=False),
            lambda p: None,
            updates=(50.0,),
            n_servers=1,
            users=False,
            horizon=40.0,
        )
        # no users, lazy: not a single poll should have happened
        assert fabric.ledger.kind_totals(MessageKind.POLL).count == 0

    def test_lazy_mode_serves_fresh_after_expiry(self):
        env, fabric, content, provider, servers, cohort = deploy(
            lambda st: TTLPolicy(15.0, stream=st.stream("phase"), eager=False),
            lambda p: None,
            updates=(50.0,),
            n_servers=1,
            horizon=300.0,
        )
        versions = [obs.version for obs in cohort.observations_of(0)]
        assert versions[-1] == 1
        assert fabric.ledger.kind_totals(MessageKind.POLL).count > 0

    def test_double_bind_rejected(self):
        policy = TTLPolicy(10.0)
        env = Environment()
        streams = StreamRegistry(0)
        topology = TopologyBuilder(env, streams).build(n_servers=2, users_per_server=0)
        fabric = NetworkFabric(env, streams=streams)
        content = LiveContent("c")
        ServerActor(env, topology.servers[0], fabric, content, policy=policy)
        with pytest.raises(RuntimeError):
            ServerActor(env, topology.servers[1], fabric, content, policy=policy)


class TestPushPolicy:
    def test_every_server_receives_every_update(self):
        env, fabric, content, provider, servers, _ = deploy(
            lambda st: PushPolicy(),
            lambda p: p.use_push(),
            updates=(50.0, 60.0, 70.0),
            users=False,
        )
        for server in servers:
            versions = [v for _, v in server.apply_log()]
            assert versions == [0, 1, 2, 3]

    def test_push_counts_match(self):
        env, fabric, content, provider, servers, _ = deploy(
            lambda st: PushPolicy(),
            lambda p: p.use_push(),
            updates=(50.0, 60.0),
            n_servers=4,
            users=False,
        )
        assert fabric.ledger.kind_totals(MessageKind.PUSH_UPDATE).count == 8


class TestInvalidationPolicy:
    def test_fetch_deferred_until_visit(self):
        env, fabric, content, provider, servers, users = deploy(
            lambda st: InvalidationPolicy(),
            lambda p: p.use_invalidation(),
            updates=(50.0,),
            n_servers=1,
            user_ttl=30.0,
        )
        server = servers[0]
        log = server.apply_log()
        assert log[-1][1] == 1
        # the fetch happened at a visit, not at the update time
        apply_time = log[-1][0]
        assert apply_time > 50.0
        assert fabric.ledger.kind_totals(MessageKind.INVALIDATE).count == 1
        assert fabric.ledger.kind_totals(MessageKind.FETCH).count == 1

    def test_users_never_see_stale_content(self):
        env, fabric, content, provider, servers, cohort = deploy(
            lambda st: InvalidationPolicy(),
            lambda p: p.use_invalidation(),
            updates=tuple(40.0 + 20.0 * i for i in range(10)),
        )
        for slot in range(cohort.n_users):
            for obs in cohort.observations_of(slot):
                # A served version may lag only by in-flight delivery, so
                # it must be at least the version current ~2 s earlier.
                floor = content.version_at(obs.time - 2.0)
                assert obs.version >= floor

    def test_no_visits_means_no_fetch(self):
        env, fabric, content, provider, servers, _ = deploy(
            lambda st: InvalidationPolicy(),
            lambda p: p.use_invalidation(),
            updates=(50.0, 90.0),
            users=False,
        )
        assert fabric.ledger.kind_totals(MessageKind.FETCH).count == 0
        for server in servers:
            assert server.cached_version == 0
            assert server.is_invalidated


    @pytest.mark.parametrize("infrastructure", ["unicast", "multicast", "broadcast"])
    def test_notices_per_version_bounded_by_directed_edges(self, infrastructure):
        """Oracle that shares no simulator code: per version, the
        INVALIDATE sends in the trace never outnumber the directed edges
        of the dissemination graph, read from ``children`` alone.  The
        broadcast graph has cycles, so relaying every notice heard would
        circulate it until the horizon."""
        config = TestbedConfig(
            seed=0, n_servers=6, users_per_server=2, n_updates=6,
            game_duration_s=200.0, horizon_s=80.0,
        )
        tracer = RecordingTracer()
        deployment = build_deployment(
            config, "invalidation", infrastructure, tracer=tracer
        )
        deployment.run()
        edges = len(deployment.provider.children) + sum(
            len(server.children) for server in deployment.servers
        )
        sends = Counter(
            event.detail["version"]
            for event in tracer.events(kinds=("msg_send",))
            if event.detail["msg"] == "invalidate"
        )
        assert sends, "no update was invalidated before the horizon"
        assert max(sends.values()) <= edges, (sends, edges)


class TestSelfAdaptive:
    def test_switches_to_invalidation_during_silence(self):
        env, fabric, content, provider, servers, users = deploy(
            lambda st: SelfAdaptivePolicy(20.0, stream=st.stream("phase")),
            lambda p: p.use_self_adaptive(),
            updates=(30.0, 40.0, 50.0),  # burst then silence
            n_servers=2,
            horizon=600.0,
        )
        for server in servers:
            policy = server.policy
            assert policy.switches_to_invalidation >= 1
            assert policy.mode == "invalidation"  # silent at the horizon
            assert server.cached_version == 3

    def test_recovers_via_visit_after_new_update(self):
        # burst, long silence (switch), then a late update
        env, fabric, content, provider, servers, users = deploy(
            lambda st: SelfAdaptivePolicy(15.0, stream=st.stream("phase")),
            lambda p: p.use_self_adaptive(),
            updates=(30.0, 40.0, 300.0),
            n_servers=2,
            horizon=600.0,
        )
        for server in servers:
            assert server.cached_version == 3
            assert server.policy.switches_to_ttl >= 1
        # provider sent invalidations only to switched members
        invalidations = fabric.ledger.kind_totals(MessageKind.INVALIDATE).count
        assert invalidations >= 2
        switch_notices = fabric.ledger.kind_totals(MessageKind.SWITCH_NOTICE).count
        assert switch_notices >= 4  # 2 servers x (to-inv + back-to-ttl)

    def test_saves_polls_versus_plain_ttl_on_bursty_workload(self):
        updates = tuple([30.0 + 5 * i for i in range(10)])  # burst, then quiet

        def run(factory, wire):
            env, fabric, *_ = deploy(
                factory, wire, updates=updates, n_servers=3, horizon=2000.0,
            )
            return fabric.ledger.kind_totals(MessageKind.POLL).count

        ttl_polls = run(
            lambda st: TTLPolicy(20.0, stream=st.stream("phase")), lambda p: None
        )
        adaptive_polls = run(
            lambda st: SelfAdaptivePolicy(20.0, stream=st.stream("phase")),
            lambda p: p.use_self_adaptive(),
        )
        assert adaptive_polls < ttl_polls / 2


    def test_visits_during_one_recovery_fetch_share_it(self):
        """Two visits that arrive while the recovery fetch is in flight
        wait on that one fetch, and both answers enter the output port
        before the switch notice back to TTL: the control loop wakes at
        the fetch's instant, and that tie used to pick the order."""
        tracer = RecordingTracer()
        env = Environment(tracer=tracer)
        streams = StreamRegistry(3)
        topology = TopologyBuilder(env, streams).build(n_servers=1, users_per_server=2)
        fabric = NetworkFabric(env, streams=streams)
        content = LiveContent("game", update_times=[100.0])
        provider = ProviderActor(env, topology.provider, fabric, content)
        server = ServerActor(
            env, topology.servers[0], fabric, content, policy=SelfAdaptivePolicy(20.0)
        )
        UnicastInfrastructure().wire(provider, [server])
        provider.use_self_adaptive()
        users = topology.users[0]
        for user in users:
            user.consumer = lambda message: None
        policy = server.policy
        refreshes = []
        ensure_fresh = policy.ensure_fresh

        def recording_ensure_fresh():
            refreshes.append(ensure_fresh())
            return refreshes[-1]

        policy.ensure_fresh = recording_ensure_fresh

        def visits(env):
            yield env.timeout(150.0)
            # Silent since the first poll; the update's notice arrived.
            assert policy.mode == "invalidation" and server.is_invalidated
            for user in users:
                fabric.send(Message(MessageKind.CONTENT_REQUEST, user, server.node, 1.0))

        server.start()
        env.process(visits(env))
        env.run(until=160.0)  # before the next poll
        node = server.node.node_id
        sent = [event.detail for event in tracer.events(node=node, kinds=("msg_send",), since=150.0)]
        assert [detail["msg"] for detail in sent] == [
            "fetch", "content_response", "content_response", "switch_notice",
        ]
        fetched = [
            event.detail["version"]
            for event in tracer.events(node=node, kinds=("msg_recv",))
            if event.detail["msg"] == "fetch_response"
        ]
        assert fetched == [1]
        assert [detail["version"] for detail in sent[1:3]] == [1, 1]
        assert len(refreshes) == 2
        assert refreshes[0] is not None and refreshes[0] is refreshes[1]


class TestAdaptiveTTL:
    def test_validation(self):
        with pytest.raises(ValueError):
            AdaptiveTTLPolicy(min_ttl_s=0, max_ttl_s=10)
        with pytest.raises(ValueError):
            AdaptiveTTLPolicy(min_ttl_s=20, max_ttl_s=10)

    def test_ttl_backs_off_during_silence(self):
        env, fabric, content, provider, servers, _ = deploy(
            lambda st: AdaptiveTTLPolicy(10.0, 160.0, stream=st.stream("phase")),
            lambda p: None,
            updates=(),
            n_servers=1,
            users=False,
            horizon=1000.0,
        )
        assert servers[0].policy.ttl_s == 160.0

    def test_ttl_shrinks_under_updates(self):
        env, fabric, content, provider, servers, _ = deploy(
            lambda st: AdaptiveTTLPolicy(10.0, 160.0, stream=st.stream("phase")),
            lambda p: None,
            updates=tuple(30.0 + 8 * i for i in range(100)),
            n_servers=1,
            users=False,
            horizon=800.0,
        )
        assert servers[0].policy.ttl_s <= 20.0


class TestLoopLifecycle:
    """A looping policy that no HAT member runs ends in ``stop()`` too:
    no poll after it, and the open poll is forgotten."""

    @pytest.mark.parametrize(
        "factory",
        [
            lambda st: AdaptiveTTLPolicy(10.0, 160.0, stream=st.stream("phase")),
            lambda st: DynamicPolicy(15.0, 30.0, stream=st.stream("phase")),
        ],
        ids=["adaptive-ttl", "dynamic"],
    )
    def test_stop_ends_the_loop_and_forgets_its_poll(self, factory):
        tracer = RecordingTracer()
        env = Environment(tracer=tracer)
        streams = StreamRegistry(5)
        topology = TopologyBuilder(env, streams).build(n_servers=1, users_per_server=0)
        fabric = NetworkFabric(env, streams=streams)
        # One update every 5 s: both policies keep polling.
        content = LiveContent("game", update_times=[5.0 * (i + 1) for i in range(80)])
        provider = ProviderActor(env, topology.provider, fabric, content)
        server = ServerActor(env, topology.servers[0], fabric, content, policy=factory(streams))
        UnicastInfrastructure().wire(provider, [server])
        server.start()
        env.run(until=100.0)
        while not server._pending:  # until a poll is in flight
            env.run(until=env.now + 0.001)
        (last_poll,) = server._pending
        old_policy = server.policy
        stopped_at = env.now
        server.replace_policy(PushPolicy())
        assert not old_policy._looping and not server._pending
        env.run(until=400.0)
        node = server.node.node_id
        assert not server._pending
        polls = [
            event.detail["seq"]
            for event in tracer.events(node=node, kinds=("msg_send",))
            if event.detail["msg"] == "poll"
        ]
        assert max(polls) == last_poll
        assert tracer.events(node=node, kinds=("poll_round",), since=stopped_at) == []
