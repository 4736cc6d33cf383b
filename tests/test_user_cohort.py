"""Unit and edge-case tests for the struct-of-arrays user plane.

Covers the corners the golden grid does not isolate: empty and
single-user populations, start-time jitter collapsing many first visits
into one sweep batch, servers failing mid-run, the
:class:`~repro.sim.timers.CallbackLane` contract, and the LRU placement
cache's keying/tuning.
"""

import pytest

import repro.experiments.testbed as testbed_mod
import repro.network.message as message_mod
from repro.cdn import LiveContent, ProviderActor, ServerActor
from repro.cdn.cohort import UserCohort
from repro.consistency import PushPolicy, UnicastInfrastructure
from repro.experiments.config import TestbedConfig
from repro.experiments.testbed import build_deployment
from repro.network import NetworkFabric, TopologyBuilder
from repro.obs.tracer import RecordingTracer
from repro.sim import Environment, StreamRegistry
from repro.sim.timers import CallbackLane
from tests.test_golden import assert_golden, visit_observations


def _config(seed=0, **overrides):
    defaults = dict(
        n_servers=4,
        users_per_server=2,
        n_updates=6,
        game_duration_s=200.0,
        hat_clusters=3,
        seed=seed,
    )
    defaults.update(overrides)
    return TestbedConfig(**defaults)


def _run(config, method="ttl", tracer=None):
    message_mod._SEQ = 0
    deployment = build_deployment(config, method, tracer=tracer)
    metrics = deployment.run()
    return deployment, metrics


# ----------------------------------------------------------------------
# population edge cases
# ----------------------------------------------------------------------
class TestPopulationEdges:
    def test_zero_users_per_server(self):
        deployment, metrics = _run(_config(users_per_server=0))
        assert deployment.cohort is not None
        assert deployment.cohort.n_users == 0
        assert metrics.user_lags == {}
        assert metrics.server_lags  # server plane unaffected

    def test_zero_users_matches_actor_arm(self):
        """Pinned while the per-user actor plane agreed with it."""
        assert_golden("users/none")

    def test_single_user(self):
        tracer = RecordingTracer()
        deployment, metrics = _run(_config(n_servers=1, users_per_server=1), tracer=tracer)
        cohort = deployment.cohort
        assert cohort.n_users == 1
        assert cohort.visits_started > 0
        assert len(metrics.user_lags) == 1
        (observations,) = visit_observations(tracer, cohort)
        assert observations, "single user never observed anything"
        assert cohort.trackers[0]._total == len(observations)

    def test_jitter_straddling_one_sweep_batch(self):
        """A tiny start window collapses every first visit into one or
        two sweep batches; ordering and metrics keep the pins the
        per-user actor plane agreed with."""
        assert_golden("users/1ms-start-window")

    def test_batched_sweeps_actually_batch(self):
        """Coinciding deadlines expire in one sweep: with every start
        offset pinned to the same instant, the first batch serves the
        whole population off a single control event."""
        message_mod._SEQ = 0
        deployment = build_deployment(_config(), "ttl")
        cohort = deployment.cohort
        cohort._start_offsets = [10.0] * cohort.n_users
        deployment.run()
        assert cohort.visits_started > cohort.n_users
        assert cohort.sweeps <= cohort.visits_started - (cohort.n_users - 1)


# ----------------------------------------------------------------------
# mid-run server failures
# ----------------------------------------------------------------------
class TestMidRunFailures:
    def test_failed_visits_accrue_and_polling_resumes(self):
        message_mod._SEQ = 0
        config = _config(n_servers=2, users_per_server=1)
        tracer = RecordingTracer()
        deployment = build_deployment(config, "ttl", tracer=tracer)
        cohort = deployment.cohort
        victim = deployment.servers[0].node

        def storm(env):
            yield env.timeout(80.0)
            victim.mark_down()
            yield env.timeout(60.0)
            victim.mark_up()

        deployment.env.process(storm(deployment.env))
        metrics = deployment.run()
        assert cohort.total_failed_visits() > 0
        assert metrics.dropped_messages > 0
        # The victim's user kept its poll loop alive through the outage:
        # observations exist with timestamps after the revival.
        victim_slot = next(
            slot
            for slot, node in enumerate(cohort.nodes)
            if node.node_id.startswith(victim.node_id + "-user-")
        )
        times = [obs.time for obs in visit_observations(tracer, cohort)[victim_slot]]
        assert any(t > 140.0 for t in times)

    def test_mid_run_failure_matches_actor_arm(self):
        """The same outage keeps the pins the per-user actor plane
        agreed with."""
        assert_golden("users/2x1-outage")


# ----------------------------------------------------------------------
# per-slot reads and writes of cohort state
# ----------------------------------------------------------------------
class TestCohortViews:
    def test_set_ttl_validates_and_writes_through(self):
        cohort = build_deployment(_config(), "ttl").cohort
        cohort.set_ttl(3, 5.0)
        assert cohort.ttl_of(3) == 5.0
        assert cohort.ttl_of(2) == _config().user_ttl_s
        for bad in (0.0, -1.0):
            with pytest.raises(ValueError):
                cohort.set_ttl(3, bad)
        assert cohort.ttl_of(3) == 5.0

    def test_rehome_redirects_later_visits(self):
        tracer = RecordingTracer()
        deployment = build_deployment(_config(), "ttl", tracer=tracer)
        cohort = deployment.cohort
        assert cohort.fixed
        new_home = deployment.servers[-1].node
        cohort.rehome(0, new_home)
        deployment.run()
        visited = {obs.server_id for obs in visit_observations(tracer, cohort)[0]}
        assert visited == {new_home.node_id}
        switch = build_deployment(_config(user_selector="switch"), "ttl").cohort
        assert not switch.fixed
        with pytest.raises(RuntimeError):
            switch.rehome(0, new_home)

    def test_negative_start_offset_rejected(self):
        # start() arms each first visit its offset after the current
        # time: a negative offset would schedule it in the past.
        deployment = build_deployment(_config(), "ttl")
        with pytest.raises(ValueError, match="start_offsets"):
            UserCohort(
                deployment.env, deployment.fabric, deployment.content,
                [deployment.cohort.nodes[0]], user_ttl_s=10.0,
                start_offsets=[-1.0], targets=[deployment.servers[0].node],
            )

    def test_late_start_arms_first_visit_after_now(self):
        env = Environment(tracer=RecordingTracer())
        streams = StreamRegistry(1)
        topology = TopologyBuilder(env, streams).build(
            n_servers=1, users_per_server=1
        )
        fabric = NetworkFabric(env, streams=streams)
        content = LiveContent("game", update_times=[30.0])
        provider = ProviderActor(env, topology.provider, fabric, content)
        server = ServerActor(
            env, topology.servers[0], fabric, content, policy=PushPolicy()
        )
        UnicastInfrastructure().wire(provider, [server])
        provider.use_push()
        server.start()
        env.run(until=100)
        cohort = UserCohort(
            env, fabric, content, [topology.users[0][0]],
            user_ttl_s=10.0, start_offsets=[5.0], targets=[server.node],
        )
        cohort.start()
        env.run(until=130)
        times = [obs.time for obs in visit_observations(env.tracer, cohort)[0]]
        assert len(times) == 3
        assert times[0] >= 105.0
        assert times == sorted(times)

    def test_aggregate_mode_has_no_per_user_observations(self):
        tracer = RecordingTracer()
        deployment, _ = _run(_config(user_metrics="aggregate"), tracer=tracer)
        cohort = deployment.cohort
        assert cohort.aggregate is not None
        assert cohort.trackers == []
        # The slot accumulators counted every traced visit.
        assert sum(cohort.aggregate._total) == tracer.count("visit") > 0


# ----------------------------------------------------------------------
# CallbackLane unit contract
# ----------------------------------------------------------------------
class TestCallbackLane:
    def _lane(self, env, dead=lambda payload: False):
        fired = []
        lane = CallbackLane(env, fired.append, dead)
        return lane, fired

    def test_expires_in_push_order(self):
        env = Environment()
        lane, fired = self._lane(env)
        for deadline, payload in ((1.0, "a"), (1.0, "b"), (3.0, "c")):
            lane.push(deadline, payload)
        env.run(until=2.0)
        assert fired == ["a", "b"]
        assert lane.pending == 1
        env.run()
        assert fired == ["a", "b", "c"]
        assert lane.sweeps == 2

    def test_rejects_non_monotone_deadlines(self):
        env = Environment()
        lane, _ = self._lane(env)
        lane.push(5.0, "later")
        with pytest.raises(ValueError):
            lane.push(4.0, "earlier")

    def test_dead_payloads_are_pruned_not_fired(self):
        env = Environment()
        dead = set()
        lane, fired = self._lane(env, dead=lambda p: p in dead)
        for index in range(6):
            lane.push(float(index + 1), index)
        dead.update({1, 2, 4})
        env.run()
        assert fired == [0, 3, 5]
        assert lane.cancelled == 3
        assert lane.expired == 3
        assert lane.pending == 0

    def test_push_while_running_rearms(self):
        env = Environment()
        lane, fired = self._lane(env)

        def chain(payload):
            fired.append(payload)
            if payload < 3:
                lane.push(env.now + 1.0, payload + 1)

        lane.on_expire = chain
        lane.push(1.0, 0)
        env.run()
        assert fired == [0, 1, 2, 3]


# ----------------------------------------------------------------------
# LRU placement cache
# ----------------------------------------------------------------------
class TestPlacementCacheLRU:
    def _build(self, seed=0, **overrides):
        build_deployment(_config(seed, **overrides), "ttl")

    def test_hits_refresh_recency(self, monkeypatch):
        testbed_mod._PLACEMENT_CACHE.clear()
        monkeypatch.setattr(testbed_mod, "_PLACEMENT_CACHE_MAX", 2)
        self._build(seed=0)
        self._build(seed=1)
        self._build(seed=0)  # hit: seed 0 becomes most recent
        self._build(seed=2)  # evicts seed 1, the true LRU entry
        seeds = [key[0] for key in testbed_mod._PLACEMENT_CACHE]
        assert seeds == [0, 2]

    def test_shards_get_distinct_entries(self):
        """Shards share (seed, shape) but place different user subsets;
        without shard-aware keys shard 1 would reuse shard 0's users."""
        testbed_mod._PLACEMENT_CACHE.clear()
        for shard in (0, 1):
            self._build(
                user_metrics="aggregate", user_shards=2, user_shard=shard
            )
        assert len(testbed_mod._PLACEMENT_CACHE) == 2
        keys = list(testbed_mod._PLACEMENT_CACHE)
        assert keys[0] != keys[1]

    def test_shard_cache_reuse_is_bit_transparent(self):
        testbed_mod._PLACEMENT_CACHE.clear()
        config = _config(user_metrics="aggregate", user_shards=2, user_shard=1)
        message_mod._SEQ = 0
        miss = build_deployment(config, "ttl").run().to_dict()
        message_mod._SEQ = 0
        hit = build_deployment(config, "ttl").run().to_dict()
        assert miss == hit
