"""Tests for HAT supernode failover (Section 5.2's re-parenting rule)."""

import pytest

from repro.cdn import LiveContent, UserCohort
from repro.core import HatConfig, HatSystem
from repro.network import NetworkFabric, TopologyBuilder
from repro.obs.tracer import RecordingTracer
from repro.sim import Environment, StreamRegistry


def build_hat(n_servers=24, n_clusters=4, updates=None, seed=61, ttl=15.0,
              users=True, member_method="self-adaptive", tracer=None):
    env = Environment(tracer=tracer)
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
                         server_ttl_s=ttl, member_method=member_method),
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


def pick_cluster_with_members(hat):
    for index, spec in enumerate(hat.clusters):
        if spec.members:
            return index, spec
    raise AssertionError("no cluster with members")


def nearest_member(hat, spec, supernode):
    """The member failover will promote (the nearest one to *supernode*)."""
    return min(
        (hat.server_by_node_id[node.node_id] for node in spec.members),
        key=lambda member: member.node.distance_km(supernode.node),
    )


class TestFailover:
    def pick_cluster_with_members(self, hat):
        return pick_cluster_with_members(hat)

    def test_promotes_nearest_member(self):
        env, streams, topology, fabric, content, hat, cohort = build_hat()
        index, spec = self.pick_cluster_with_members(hat)
        old = hat.supernodes[index]
        old.node.mark_down()
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
        old.node.mark_down()
        for node in spec.members:
            node.mark_down()
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
            victim.node.mark_down()
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
            victim.node.mark_down()
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
            victim.node.mark_down()

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
        tracer = RecordingTracer()
        # One update every 5 s keeps the self-adaptive members polling.
        env, streams, topology, fabric, content, hat, cohort = build_hat(
            tracer=tracer, updates=[5.0 * (i + 1) for i in range(80)]
        )
        hat.start()
        env.run(until=100.0)
        index, spec = self.pick_cluster_with_members(hat)
        victim = hat.supernodes[index]
        member = nearest_member(hat, spec, victim)
        old_policy = member.policy
        assert old_policy.method_name == "self-adaptive" and old_policy._looping
        assert old_policy.mode == "ttl"
        victim.node.mark_down()
        promoted_at = env.now
        in_flight = set(member._pending)
        assert hat.handle_supernode_failure(victim) is member
        assert member.policy is not old_policy
        assert not old_policy._looping
        # the promotee's push policy has no loop
        assert not member.policy.loops and not member.policy._looping
        env.run(until=200.0)
        # the old self-adaptive loop ended with its policy: no new POLL
        # (one opened before may still leave), no round
        assert env.now == 200.0
        assert {
            event.detail["seq"]
            for event in tracer.events(node=member.node.node_id, kinds=("msg_send",),
                                       since=promoted_at)
            if event.detail["msg"] == "poll"
        } <= in_flight
        assert tracer.events(node=member.node.node_id, kinds=("poll_round",),
                             since=promoted_at) == []


class TestTTLMemberFailover:
    """Failover in the Hybrid system: a promoted TTL member's poll loop
    must end with its policy, and forget the poll it had open."""

    member_method = "ttl"

    def promote(self, in_flight, victim_down):
        tracer = RecordingTracer()
        # One update every 5 s: every poll brings one, so a self-adaptive
        # member stays in TTL mode and is polling at t = 100 s too.
        env, streams, topology, fabric, content, hat, cohort = build_hat(
            users=False, member_method=self.member_method, tracer=tracer,
            updates=[5.0 * (i + 1) for i in range(80)],
        )
        hat.start()
        env.run(until=100.0)
        index, spec = pick_cluster_with_members(hat)
        victim = hat.supernodes[index]
        member = nearest_member(hat, spec, victim)
        assert member.policy.method_name == self.member_method
        if in_flight:
            while not member._pending:
                env.run(until=env.now + 0.001)
            ((last_poll, waiter),) = member._pending.items()
        else:
            assert not member._pending  # sleeping between polls
            last_poll, waiter = max(self.polls_sent(tracer, member)), None
        if victim_down:
            victim.node.mark_down()
        promoted_at = env.now
        assert hat.handle_supernode_failure(victim) is member
        # The old policy's open poll, if any, is forgotten with it ...
        assert not member._pending
        env.run(until=400.0)  # many TTLs (15 s) later
        # ... and no entry comes back, answered or not.
        assert not member._pending
        return tracer, member, victim, waiter, last_poll, promoted_at

    def polls_sent(self, tracer, member):
        """Sequence numbers of the POLLs *member* sent."""
        return [
            event.detail["seq"]
            for event in tracer.events(node=member.node.node_id, kinds=("msg_send",))
            if event.detail["msg"] == "poll"
        ]

    def assert_loop_ended(self, tracer, promotee, last_poll, promoted_at):
        assert max(self.polls_sent(tracer, promotee)) == last_poll
        assert tracer.events(node=promotee.node.node_id, kinds=("poll_round",),
                             since=promoted_at) == []
        assert promotee.policy.method_name == "push"

    def test_sleeping_loop_sends_no_more_polls(self):
        tracer, promotee, _, _, last_poll, promoted_at = self.promote(
            in_flight=False, victim_down=True
        )
        self.assert_loop_ended(tracer, promotee, last_poll, promoted_at)

    def test_late_reply_to_poll_in_flight_is_dropped(self):
        tracer, promotee, victim, waiter, last_poll, promoted_at = self.promote(
            in_flight=True, victim_down=False
        )
        # The old supernode's reply still arrives after the promotion ...
        replies = [
            event
            for event in tracer.events(node=promotee.node.node_id, kinds=("msg_recv",),
                                       since=promoted_at)
            if event.detail["src"] == victim.node.node_id
            and event.detail["msg"] in ("poll_response", "poll_not_modified")
        ]
        assert len(replies) == 1
        # ... but finds no pending request: the wheel ended the waiter,
        # and no poll round closed or opened.
        assert waiter.triggered and waiter.value is None
        self.assert_loop_ended(tracer, promotee, last_poll, promoted_at)

    def test_unanswered_poll_in_flight_is_forgotten(self):
        # The old supernode is down while the poll is in flight: no reply
        # ever comes, and the entry used to stay to the end of the run.
        tracer, promotee, victim, waiter, last_poll, promoted_at = self.promote(
            in_flight=True, victim_down=True
        )
        assert not any(
            event.detail["src"] == victim.node.node_id
            for event in tracer.events(node=promotee.node.node_id, kinds=("msg_recv",),
                                       since=promoted_at)
        )
        assert waiter.triggered and waiter.value is None
        self.assert_loop_ended(tracer, promotee, last_poll, promoted_at)


class TestSelfAdaptiveMemberFailover(TestTTLMemberFailover):
    """The same failover for a HAT member: Algorithm 1's loop ends the
    way TTL's does."""

    member_method = "self-adaptive"
