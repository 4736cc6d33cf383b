"""Tests for the experiment configs, testbed builder, and figure drivers
(at smoke scale -- the benchmarks run them at CI/paper scale)."""

import warnings

import pytest

from repro.experiments import (
    TestbedConfig,
    build_deployment,
    build_system,
    ci_scale,
    fig12_dynamic_tree,
    fig6_ttl_inference,
    paper_scale,
    smoke_scale,
)
from repro.experiments.section4 import fig16_traffic_cost
from repro.experiments.section5 import section5_config


class TestConfig:
    def test_paper_scale_matches_paper(self):
        config = paper_scale()
        assert config.n_servers == 170
        assert config.users_per_server == 5
        assert config.n_updates == 306
        assert config.game_duration_s == pytest.approx(8760.0)
        assert config.update_start_s == 60.0
        assert config.update_size_kb == 1.0
        assert config.hat_clusters == 20
        assert config.hat_arity == 4
        assert config.tree_arity == 2

    def test_validation(self):
        with pytest.raises(ValueError):
            TestbedConfig(n_servers=0)
        with pytest.raises(ValueError):
            TestbedConfig(user_selector="roulette")
        with pytest.raises(ValueError):
            TestbedConfig(server_ttl_s=0)

    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    @pytest.mark.parametrize(
        "knob",
        [
            "server_ttl_s",
            "user_ttl_s",
            "game_duration_s",
            "update_start_s",
            "user_start_window_s",
            "horizon_s",
        ],
    )
    def test_non_finite_times_rejected(self, knob, value):
        # NaN passes every `<= 0` check, and a NaN heap key lets the
        # clock run backwards; an infinite time never ends the run.
        with pytest.raises(ValueError, match=knob):
            TestbedConfig(**{knob: value})
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", DeprecationWarning)
            with pytest.raises(ValueError, match=knob):
                smoke_scale().with_overrides(**{knob: value})

    def test_with_creates_modified_copy(self):
        config = ci_scale()
        changed = config.with_(server_ttl_s=42.0)
        assert changed.server_ttl_s == 42.0
        assert config.server_ttl_s != 42.0
        assert changed.n_servers == config.n_servers

    def test_with_overrides_rejects_unknown_knobs(self):
        config = ci_scale()
        with pytest.raises(ValueError) as excinfo:
            config.with_overrides(server_tll_s=42.0)
        message = str(excinfo.value)
        assert "server_tll_s" in message
        assert "server_ttl_s" in message  # did-you-mean hint

    def test_fields_are_keyword_only(self):
        with pytest.raises(TypeError):
            TestbedConfig(170)  # positional construction is an error

    def test_run_horizon_includes_slack(self):
        config = smoke_scale()
        assert config.run_horizon_s > config.update_start_s + config.game_duration_s
        explicit = config.with_(horizon_s=123.0)
        assert explicit.run_horizon_s == 123.0


class TestTestbed:
    def test_unknown_names_rejected(self, smoke_config):
        with pytest.raises(ValueError):
            build_deployment(smoke_config, "carrier-pigeon")
        with pytest.raises(ValueError):
            build_deployment(smoke_config, "ttl", "smoke-signals")
        with pytest.raises(ValueError):
            build_system(smoke_config, "quantum")

    def test_deployment_runs_once(self, smoke_config):
        deployment = build_deployment(smoke_config, "push", "unicast")
        deployment.run()
        with pytest.raises(RuntimeError):
            deployment.run()

    def test_metrics_shape(self, smoke_config):
        metrics = build_deployment(smoke_config, "ttl", "unicast").run()
        assert len(metrics.server_lags) == smoke_config.n_servers
        assert len(metrics.user_lags) == smoke_config.n_servers  # 1 user each
        assert metrics.cost_km_kb > 0
        assert metrics.update_messages > 0
        assert metrics.mean_server_lag > 0
        p5, median, p95 = metrics.server_lag_percentiles()
        assert p5 <= median <= p95

    def test_methods_ordering_unicast(self, smoke_config):
        # Invalidation's fetch waits for a visit, so it needs the paper's
        # multiple users per server to sit clearly below TTL.
        config = smoke_config.with_(users_per_server=4)
        lags = {
            method: build_deployment(config, method, "unicast").run().mean_server_lag
            for method in ("push", "invalidation", "ttl")
        }
        assert lags["push"] < lags["invalidation"] < lags["ttl"]

    def test_multicast_ttl_depth_amplification(self, smoke_config):
        unicast = build_deployment(smoke_config, "ttl", "unicast").run()
        multicast = build_deployment(smoke_config, "ttl", "multicast").run()
        assert multicast.mean_server_lag > 1.5 * unicast.mean_server_lag

    def test_deterministic_given_seed(self, smoke_config):
        a = build_deployment(smoke_config, "ttl", "unicast").run()
        b = build_deployment(smoke_config, "ttl", "unicast").run()
        assert a.mean_server_lag == b.mean_server_lag
        assert a.cost_km_kb == b.cost_km_kb

    def test_seed_changes_results(self, smoke_config):
        a = build_deployment(smoke_config, "ttl", "unicast").run()
        b = build_deployment(smoke_config.with_(seed=99), "ttl", "unicast").run()
        assert a.mean_server_lag != b.mean_server_lag

    def test_hat_system_builds_and_runs(self, smoke_config):
        metrics = build_system(section5_config(smoke_config), "hat").run()
        assert len(metrics.server_lags) == smoke_config.n_servers
        assert metrics.provider_update_messages > 0

    def test_self_system_is_self_adaptive_unicast(self, smoke_config):
        deployment = build_system(smoke_config, "self")
        assert deployment.name == "self"
        assert deployment.servers[0].policy.method_name == "self-adaptive"

    def test_switch_selector_configuration(self, smoke_config):
        deployment = build_system(
            smoke_config.with_(user_selector="switch"), "ttl"
        )
        metrics = deployment.run()
        # with per-visit switching, at least some staleness is observed
        assert metrics.mean_stale_fraction >= 0.0


class TestSection3Drivers:
    def test_fig6_recovers_planted_ttl(self, tiny_context):
        result = fig6_ttl_inference(tiny_context)
        assert 50.0 <= result.inference.ttl_s <= 70.0
        assert result.rmse_at_60 < result.rmse_at_80

    def test_fig12_majority_below_ttl(self, tiny_context):
        result = fig12_dynamic_tree(tiny_context)
        assert result.daily_below_ttl_fractions
        assert min(result.daily_below_ttl_fractions) > 0.5
        assert not result.evidence.tree_likely

    def test_context_caches_trace(self, tiny_context):
        assert tiny_context.trace is tiny_context.trace
        assert tiny_context.user_trace is tiny_context.user_trace


class TestSection4Drivers:
    def test_fig16_multicast_saves_traffic(self, smoke_config):
        result = fig16_traffic_cost(smoke_config)
        for method in ("push", "invalidation", "ttl"):
            assert result.multicast_saving(method) > 0
        assert result.cost("push", "unicast") < result.cost("ttl", "unicast")
