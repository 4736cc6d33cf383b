"""Tests for the generic dynamic method and the method advisor
(the paper's Section 6 future work, built out)."""

import pytest

from repro.cdn import LiveContent, ProviderActor, ServerActor, UserCohort
from repro.consistency import UnicastInfrastructure
from repro.core import DynamicPolicy, MethodAdvisor, WorkloadProfile
from repro.experiments import build_deployment, smoke_scale
from repro.network import MessageKind, NetworkFabric, TopologyBuilder
from repro.sim import Environment, StreamRegistry


class TestAdvisor:
    def make_advisor(self):
        return MethodAdvisor(min_ttl_s=10.0, max_ttl_s=120.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            WorkloadProfile(update_rate_per_s=-1, visit_rate_per_s=0, n_servers=1)
        with pytest.raises(ValueError):
            WorkloadProfile(0.1, 0.1, n_servers=0)
        with pytest.raises(ValueError):
            MethodAdvisor(min_ttl_s=0, max_ttl_s=10)
        advisor = self.make_advisor()
        profile = WorkloadProfile(0.1, 0.1, 10)
        with pytest.raises(ValueError):
            advisor.recommend(profile, staleness_tolerance_s=-1)
        with pytest.raises(ValueError):
            advisor.expected_messages_per_hour(profile, "smoke-signals")

    def test_strong_consistency_hot_content_gets_push(self):
        advisor = self.make_advisor()
        profile = WorkloadProfile(
            update_rate_per_s=0.05, visit_rate_per_s=0.5, n_servers=100
        )
        rec = advisor.recommend(profile, staleness_tolerance_s=1.0)
        assert rec.method == "push"
        assert rec.expected_staleness_s < 1.0

    def test_strong_consistency_cold_content_gets_invalidation(self):
        advisor = self.make_advisor()
        profile = WorkloadProfile(
            update_rate_per_s=0.5, visit_rate_per_s=0.01, n_servers=100
        )
        rec = advisor.recommend(profile, staleness_tolerance_s=1.0)
        assert rec.method == "invalidation"
        # invalidation skips unseen updates: cheaper than push here
        push_cost = advisor.expected_messages_per_hour(profile, "push")
        assert rec.expected_messages_per_hour < 4 * push_cost

    def test_tolerant_steady_content_gets_ttl(self):
        advisor = self.make_advisor()
        profile = WorkloadProfile(
            update_rate_per_s=0.2, visit_rate_per_s=0.5, n_servers=100
        )
        rec = advisor.recommend(profile, staleness_tolerance_s=30.0)
        assert rec.method == "ttl"
        assert rec.ttl_s == pytest.approx(60.0)
        assert rec.expected_staleness_s == pytest.approx(30.0)
        assert rec.infrastructure == "unicast"  # pull stays off the tree

    def test_bursty_content_gets_self_adaptive(self):
        advisor = self.make_advisor()
        profile = WorkloadProfile(
            update_rate_per_s=0.05,
            visit_rate_per_s=0.2,
            n_servers=100,
            silence_fraction=0.8,
        )
        rec = advisor.recommend(profile, staleness_tolerance_s=30.0)
        assert rec.method == "self-adaptive"
        ttl_cost = advisor.expected_messages_per_hour(profile, "ttl", rec.ttl_s)
        assert rec.expected_messages_per_hour < ttl_cost

    def test_large_deployments_get_multicast_for_push(self):
        advisor = MethodAdvisor(multicast_threshold_servers=50)
        big = WorkloadProfile(0.05, 0.5, n_servers=500)
        small = WorkloadProfile(0.05, 0.5, n_servers=10)
        assert advisor.recommend(big, 1.0).infrastructure == "multicast"
        assert advisor.recommend(small, 1.0).infrastructure == "unicast"

    def test_compare_all_covers_every_method(self):
        advisor = self.make_advisor()
        profile = WorkloadProfile(0.1, 0.1, 10)
        table = advisor.compare_all(profile, ttl_s=30.0)
        assert set(table) == {"push", "invalidation", "ttl", "self-adaptive"}
        for row in table.values():
            assert row["messages_per_hour"] >= 0
            assert row["staleness_s"] >= 0

    def test_ttl_cost_independent_of_update_rate(self):
        advisor = self.make_advisor()
        slow = WorkloadProfile(0.01, 0.1, 10)
        fast = WorkloadProfile(10.0, 0.1, 10)
        assert advisor.expected_messages_per_hour(
            slow, "ttl", 30.0
        ) == advisor.expected_messages_per_hour(fast, "ttl", 30.0)

    def test_invalidation_saves_bytes_when_visits_sparse(self):
        # Section 1: "It can save traffic cost compared to Push if the
        # content visit rates ... are smaller than the update rate."
        advisor = MethodAdvisor(min_ttl_s=10.0, update_size_kb=50.0)
        sparse = WorkloadProfile(update_rate_per_s=0.5, visit_rate_per_s=0.01, n_servers=100)
        assert advisor.expected_kb_per_hour(sparse, "invalidation") < advisor.expected_kb_per_hour(sparse, "push")
        # ...but NOT when every update is visited anyway (notices are
        # pure overhead then).
        hot = WorkloadProfile(update_rate_per_s=0.5, visit_rate_per_s=5.0, n_servers=100)
        assert advisor.expected_kb_per_hour(hot, "invalidation") > advisor.expected_kb_per_hour(hot, "push")

    def test_ttl_aggregates_bytes_under_fast_updates(self):
        # With updates much faster than polls, TTL transfers one body
        # per poll instead of one per update.
        advisor = MethodAdvisor(min_ttl_s=10.0, update_size_kb=50.0)
        fast = WorkloadProfile(update_rate_per_s=2.0, visit_rate_per_s=1.0, n_servers=50)
        assert advisor.expected_kb_per_hour(fast, "ttl", 30.0) < advisor.expected_kb_per_hour(fast, "push")

    def test_recommendation_carries_byte_estimate(self):
        advisor = self.make_advisor()
        rec = advisor.recommend(WorkloadProfile(0.1, 0.2, 20), 30.0)
        assert rec.expected_kb_per_hour > 0
        table = advisor.compare_all(WorkloadProfile(0.1, 0.2, 20), 30.0)
        assert all("kb_per_hour" in row for row in table.values())


def deploy_dynamic(updates, tolerance, horizon, n_servers=4, ttl=15.0,
                   user_ttl=5.0, seed=9, decision_interval=45.0):
    env = Environment()
    streams = StreamRegistry(seed)
    topology = TopologyBuilder(env, streams).build(n_servers=n_servers, users_per_server=1)
    fabric = NetworkFabric(env, streams=streams)
    content = LiveContent("game", update_times=list(updates))
    provider = ProviderActor(env, topology.provider, fabric, content)
    servers = [
        ServerActor(
            env, node, fabric, content,
            policy=DynamicPolicy(
                ttl, staleness_tolerance_s=tolerance,
                stream=streams.stream("phase"),
                decision_interval_s=decision_interval,
            ),
        )
        for node in topology.servers
    ]
    UnicastInfrastructure().wire(provider, servers)
    provider.use_dynamic()
    cohort = UserCohort(
        env, fabric, content, [group[0] for group in topology.users],
        user_ttl_s=user_ttl,
        start_offsets=[0.0] * n_servers,
        targets=[server.node for server in servers],
    )
    for server in servers:
        server.start()
    cohort.start()
    env.run(until=horizon)
    return env, fabric, content, provider, servers, cohort


class TestDynamicPolicy:
    def test_validation(self):
        with pytest.raises(ValueError):
            DynamicPolicy(0, 1.0)
        with pytest.raises(ValueError):
            DynamicPolicy(10.0, -1.0)
        with pytest.raises(ValueError):
            DynamicPolicy(10.0, 1.0, decision_interval_s=0)

    def test_tight_tolerance_hot_content_converges_to_push(self):
        updates = [20.0 + 5.0 * i for i in range(120)]  # steady, frequent
        env, fabric, content, provider, servers, users = deploy_dynamic(
            updates, tolerance=1.0, horizon=640.0
        )
        for server in servers:
            assert server.policy.mode == "push"
            assert server.cached_version >= content.last_version - 1
        # servers are push-subscribed at the provider
        assert len(provider.push_members) == len(servers)
        assert fabric.ledger.kind_totals(MessageKind.PUSH_UPDATE).count > 0

    def test_silence_converges_to_invalidation(self):
        updates = [20.0, 30.0, 40.0]  # short burst, long silence
        env, fabric, content, provider, servers, users = deploy_dynamic(
            updates, tolerance=1.0, horizon=800.0
        )
        for server in servers:
            assert server.policy.mode == "invalidation"
            assert server.cached_version == 3

    def test_tolerant_active_content_stays_ttl(self):
        updates = [20.0 + 10.0 * i for i in range(70)]
        env, fabric, content, provider, servers, users = deploy_dynamic(
            updates, tolerance=60.0, horizon=760.0, ttl=15.0
        )
        for server in servers:
            assert server.policy.mode == "ttl"
        assert fabric.ledger.kind_totals(MessageKind.POLL).count > 0

    def test_mode_history_records_transitions(self):
        updates = [20.0 + 5.0 * i for i in range(60)]  # hot for 300 s, then quiet
        env, fabric, content, provider, servers, users = deploy_dynamic(
            updates, tolerance=1.0, horizon=900.0
        )
        for server in servers:
            history = server.policy.mode_history
            modes = [mode for _, mode in history]
            assert modes[0] == "ttl"          # initial
            assert "push" in modes            # hot phase
            assert modes[-1] == "invalidation"  # silent tail
            times = [t for t, _ in history]
            assert times == sorted(times)

    def test_push_subscribers_stay_fresh_through_updates(self):
        updates = [20.0 + 5.0 * i for i in range(120)]
        env, fabric, content, provider, servers, users = deploy_dynamic(
            updates, tolerance=1.0, horizon=700.0
        )
        from repro.metrics.consistency import update_lags

        for server in servers:
            late_lags = update_lags(
                content, server.apply_log(), window=(300.0, 620.0), censor_at=700.0
            )
            # once in push mode, staleness is delivery latency only
            assert late_lags and max(late_lags) < 2.0

    def test_testbed_integration(self):
        config = smoke_scale()
        metrics = build_deployment(config, "dynamic", "unicast").run()
        assert metrics.mean_server_lag < config.server_ttl_s
        assert metrics.update_messages > 0
