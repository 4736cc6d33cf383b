"""Tests for the scenario registry, cells, perturbations and rollups.

The load-bearing guarantees:

- ``paper-baseline`` is bit-identical to the legacy hard-wired testbed
  (differential fixture captured from the pre-scenario code);
- every registered scenario is bit-identical across two runs with the
  same seed (the determinism contract extends to perturbations);
- default-valued :class:`RunSpec` serialization is unchanged, so
  existing run-registry keys survive the API redesign.
"""

import json
import os

import pytest

from repro.experiments.config import smoke_scale
from repro.experiments.section4 import fig14_unicast_inconsistency, fig16_traffic_cost
from repro.experiments.testbed import build_deployment, build_system
from repro.obs.tracer import RecordingTracer
from repro.runner import RunSpec
from repro.runner.spec import DEFAULT_SCENARIO as SPEC_DEFAULT_SCENARIO
from repro.scenarios import (
    DEFAULT_SCENARIO,
    CatalogScenario,
    CatalogSpec,
    DiurnalModulation,
    FailureStorm,
    FlashCrowd,
    Reconfiguration,
    Scenario,
    ScenarioEntry,
    ScenarioOutcome,
    SingleObjectScenario,
    compare_scenarios,
    register_scenario,
    resolve_scenario,
    run_scenario,
    scenario_choices,
    scenario_names,
    scenario_specs,
    zipf_weights,
)
from repro.sim.rng import StreamRegistry
from tests.test_golden import visit_observations

FIXTURE = os.path.join(
    os.path.dirname(__file__), "fixtures", "scenarios", "baseline_smoke.json"
)


@pytest.fixture(scope="module")
def baseline_fixture():
    with open(FIXTURE) as handle:
        return json.load(handle)


def figure_dict(figure):
    """FigureResult.to_dict() minus the timing-dependent stats block."""
    data = figure.to_dict()
    data.pop("stats", None)
    return data


# ----------------------------------------------------------------------
# registry
# ----------------------------------------------------------------------
class TestRegistry:
    def test_at_least_six_scenarios(self):
        assert len(scenario_names()) >= 6

    def test_default_scenario_registered(self):
        assert DEFAULT_SCENARIO in scenario_names()

    def test_default_matches_runspec_literal(self):
        # runner.spec keeps a literal copy to avoid an import cycle.
        assert SPEC_DEFAULT_SCENARIO == DEFAULT_SCENARIO

    def test_aliases_resolve_to_canonical(self):
        assert resolve_scenario("baseline").name == "paper-baseline"
        assert resolve_scenario("storm").name == "failure-storm"
        assert resolve_scenario("catalog").name == "zipf-catalog"
        assert resolve_scenario("youlighter").name == "cdn-reconfig"

    def test_choices_include_aliases(self):
        choices = scenario_choices()
        assert "paper-baseline" in choices
        assert "baseline" in choices

    def test_unknown_scenario_lists_choices(self):
        with pytest.raises(ValueError, match="unknown scenario.*paper-baseline"):
            resolve_scenario("smoke-signals")

    def test_instances_pass_through(self):
        scenario = resolve_scenario("paper-baseline")
        assert resolve_scenario(scenario) is scenario

    def test_name_collision_rejected(self):
        entry = ScenarioEntry(
            name="collision-probe", factory=lambda: None, aliases=("baseline",)
        )
        with pytest.raises(ValueError, match="already registered"):
            register_scenario(entry)

    def test_factories_build_fresh_instances(self):
        assert resolve_scenario("diurnal") is not resolve_scenario("diurnal")


# ----------------------------------------------------------------------
# paper-baseline bit-identity (the differential contract)
# ----------------------------------------------------------------------
class TestPaperBaselineBitIdentity:
    def test_scenario_path_equals_legacy_path(self, smoke_config):
        legacy = build_deployment(smoke_config, "ttl", "unicast").run()
        scenic = build_deployment(
            smoke_config, "ttl", "unicast", scenario="paper-baseline"
        ).run()
        assert scenic.to_dict() == legacy.to_dict()

    def test_all_deployments_match_seed_fixture(
        self, smoke_config, baseline_fixture
    ):
        for key, expected in baseline_fixture["deployments"].items():
            method, infrastructure = key.split("/")
            metrics = build_deployment(
                smoke_config, method, infrastructure, scenario="paper-baseline"
            ).run()
            assert metrics.to_dict() == expected, key

    def test_all_systems_match_seed_fixture(self, smoke_config, baseline_fixture):
        for system, expected in baseline_fixture["systems"].items():
            metrics = build_system(
                smoke_config, system, scenario="paper-baseline"
            ).run()
            assert metrics.to_dict() == expected, system

    def test_figures_match_seed_fixture(self, smoke_config, baseline_fixture):
        # Figure drivers go through default RunSpecs, whose scenario
        # field now defaults to paper-baseline: outputs must not move.
        assert (
            figure_dict(fig14_unicast_inconsistency(smoke_config))
            == baseline_fixture["figures"]["fig14"]
        )
        assert (
            figure_dict(fig16_traffic_cost(smoke_config))
            == baseline_fixture["figures"]["fig16"]
        )

    def test_run_scenario_matches_fixture_metrics(
        self, smoke_config, baseline_fixture
    ):
        figure = run_scenario("paper-baseline", smoke_config, method="ttl")
        expected = baseline_fixture["deployments"]["ttl/unicast"]
        assert figure.summary["cost_km_kb"] == expected["cost_km_kb"]
        assert figure.summary["update_messages"] == expected["update_messages"]
        assert figure.summary["light_messages"] == expected["light_messages"]


# ----------------------------------------------------------------------
# determinism: every scenario, bit-identical across two runs
# ----------------------------------------------------------------------
class TestScenarioDeterminism:
    @pytest.mark.parametrize("name", scenario_names())
    def test_two_runs_bit_identical(self, smoke_config, name):
        first = run_scenario(name, smoke_config, method="ttl")
        second = run_scenario(name, smoke_config, method="ttl")
        assert figure_dict(first) == figure_dict(second)

    def test_seed_changes_the_run(self, smoke_config):
        base = run_scenario("flash-crowd", smoke_config, method="ttl")
        other = run_scenario(
            "flash-crowd", smoke_scale(seed=1), method="ttl"
        )
        assert figure_dict(base) != figure_dict(other)


# ----------------------------------------------------------------------
# every scenario x method x infrastructure builds and runs
# ----------------------------------------------------------------------
class TestScenarioMethodGrid:
    @pytest.mark.parametrize("name", scenario_names())
    @pytest.mark.parametrize(
        "method", ("push", "invalidation", "ttl", "self-adaptive",
                   "adaptive-ttl", "dynamic")
    )
    def test_every_method_unicast(self, smoke_config, name, method):
        metrics = build_deployment(
            smoke_config, method, "unicast", scenario=name
        ).run()
        assert metrics.events_processed > 0
        assert metrics.mean_user_lag >= 0.0

    @pytest.mark.parametrize("name", scenario_names())
    @pytest.mark.parametrize("infrastructure", ("multicast", "broadcast"))
    def test_every_infrastructure(self, smoke_config, name, infrastructure):
        metrics = build_deployment(
            smoke_config, "ttl", infrastructure, scenario=name
        ).run()
        assert metrics.events_processed > 0

    @pytest.mark.parametrize("system", ("self", "hybrid", "hat"))
    def test_systems_under_perturbed_scenario(self, smoke_config, system):
        metrics = build_system(
            smoke_config, system, scenario="failure-storm"
        ).run()
        assert metrics.node_downtime_s > 0.0

    def test_scenario_suffix_in_deployment_name(self, smoke_config):
        deployment = build_deployment(
            smoke_config, "ttl", "unicast", scenario="flash-crowd"
        )
        assert deployment.name == "ttl/unicast@flash-crowd"
        catalog = build_deployment(
            smoke_config, "ttl", "unicast", scenario="zipf-catalog",
            scenario_cell=2,
        )
        assert catalog.name == "ttl/unicast@zipf-catalog/obj-02"

    def test_system_rename_keeps_scenario_suffix(self, smoke_config):
        deployment = build_system(smoke_config, "self", scenario="flash-crowd")
        assert deployment.name == "self@flash-crowd"

    def test_cell_requires_scenario(self, smoke_config):
        with pytest.raises(ValueError, match="requires an explicit scenario"):
            build_deployment(smoke_config, "ttl", "unicast", scenario_cell=1)

    def test_out_of_range_cell_rejected(self, smoke_config):
        with pytest.raises(IndexError):
            build_deployment(
                smoke_config, "ttl", "unicast", scenario="paper-baseline",
                scenario_cell=1,
            )


# ----------------------------------------------------------------------
# catalog
# ----------------------------------------------------------------------
class TestCatalog:
    def test_zipf_weights_normalised_and_decreasing(self):
        weights = zipf_weights(6, 0.9)
        assert sum(weights) == pytest.approx(1.0)
        assert list(weights) == sorted(weights, reverse=True)

    def test_zipf_zero_exponent_uniform(self):
        assert set(zipf_weights(4, 0.0)) == {0.25}

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            CatalogSpec(n_objects=0)
        with pytest.raises(ValueError):
            CatalogSpec(exponent=-0.1)
        with pytest.raises(ValueError):
            CatalogSpec(churn_stagger=1.0)
        with pytest.raises(ValueError):
            CatalogSpec(lifetime_fraction=0.0)
        with pytest.raises(ValueError):
            CatalogSpec(updates_scale=0.0)

    def test_cells_scale_audience_with_popularity(self, smoke_config):
        scenario = resolve_scenario("zipf-catalog")
        cells = scenario.cells(smoke_config)
        assert len(cells) == 6
        audiences = [c.config_overrides["users_per_server"] for c in cells]
        assert audiences == sorted(audiences, reverse=True)
        assert all(a >= 1 for a in audiences)

    def test_zero_audience_config_stays_zero(self):
        scenario = resolve_scenario("zipf-catalog")
        config = smoke_scale(users_per_server=0)
        for cell in scenario.cells(config):
            assert cell.config_overrides["users_per_server"] == 0

    def test_update_times_respect_lifetime(self, smoke_config):
        scenario = resolve_scenario("zipf-catalog")
        for index in range(scenario.n_cells(smoke_config)):
            birth, retirement = scenario.lifetime(smoke_config, index)
            assert 0.0 <= birth < retirement <= smoke_config.game_duration_s
            cell = scenario.cell(smoke_config, index)
            content = cell.content_factory(smoke_config, StreamRegistry(0))
            for t in content.update_times:
                offset = t - smoke_config.update_start_s
                assert birth <= offset <= retirement

    def test_cells_draw_independent_streams(self, smoke_config):
        # Building cell 3's content must not depend on whether other
        # cells were built from the same registry (per-object streams).
        scenario = resolve_scenario("zipf-catalog")
        registry_a = StreamRegistry(0)
        alone = scenario.cell(smoke_config, 3).content_factory(
            smoke_config, registry_a
        )
        registry_b = StreamRegistry(0)
        for index in (0, 1, 2):
            scenario.cell(smoke_config, index).content_factory(
                smoke_config, registry_b
            )
        together = scenario.cell(smoke_config, 3).content_factory(
            smoke_config, registry_b
        )
        assert alone.update_times == together.update_times

    def test_catalog_rollup_weights_cells(self, smoke_config):
        figure = run_scenario("zipf-catalog", smoke_config, method="ttl")
        outcome = figure.details
        assert isinstance(outcome, ScenarioOutcome)
        assert len(outcome.cells) == 6
        lags = [m.mean_user_lag for m in outcome.metrics]
        assert min(lags) <= figure.summary["mean_user_lag"] <= max(lags)
        assert figure.summary["update_messages"] == sum(
            m.update_messages for m in outcome.metrics
        )


# ----------------------------------------------------------------------
# perturbations
# ----------------------------------------------------------------------
class TestPerturbations:
    def test_flash_crowd_validation(self):
        with pytest.raises(ValueError):
            FlashCrowd(start_s=-1.0, duration_s=10.0)
        with pytest.raises(ValueError):
            FlashCrowd(start_s=0.0, duration_s=0.0)
        with pytest.raises(ValueError):
            FlashCrowd(start_s=0.0, duration_s=10.0, poll_accel=0.5)

    def test_diurnal_validation(self):
        with pytest.raises(ValueError):
            DiurnalModulation(period_s=0.0, step_s=1.0)
        with pytest.raises(ValueError):
            DiurnalModulation(period_s=10.0, step_s=1.0, amplitude=1.0)

    def test_failure_storm_validation(self):
        with pytest.raises(ValueError):
            FailureStorm(storms=())
        with pytest.raises(ValueError):
            FailureStorm(storms=((-1.0, 5.0),))
        with pytest.raises(ValueError):
            FailureStorm(storms=((0.0, 5.0),), fraction=0.0)

    def test_reconfiguration_validation(self):
        with pytest.raises(ValueError):
            Reconfiguration(event_times_s=())
        with pytest.raises(ValueError):
            Reconfiguration(event_times_s=(10.0,), migrate_fraction=1.5)

    def test_flash_crowd_increases_visits(self, smoke_config):
        def visits(scenario):
            tracer = RecordingTracer()
            deployment = build_deployment(
                smoke_config, "ttl", "unicast", scenario=scenario, tracer=tracer
            )
            deployment.run()
            return sum(map(len, visit_observations(tracer, deployment.cohort)))

        assert visits("flash-crowd") > visits("paper-baseline")

    def test_failure_storm_downtime_is_exact(self, smoke_config):
        # smoke scale: 8 servers, fraction 0.25 -> 2 victims per storm;
        # 2 storms x 32 s outages = 128 s of scheduled downtime.
        metrics = build_deployment(
            smoke_config, "ttl", "unicast", scenario="failure-storm"
        ).run()
        assert metrics.node_downtime_s == pytest.approx(128.0)
        assert metrics.down_transitions == 4

    def test_reconfiguration_changes_outcome(self, smoke_config):
        baseline = build_deployment(
            smoke_config, "ttl", "unicast", scenario="paper-baseline"
        ).run()
        moved = build_deployment(
            smoke_config, "ttl", "unicast", scenario="cdn-reconfig"
        ).run()
        assert moved.user_lags != baseline.user_lags

    def test_perturbations_leave_update_schedule_alone(self, smoke_config):
        # Perturbations draw from their own stream: the content's update
        # times must match the unperturbed live-game schedule exactly.
        plain = build_deployment(
            smoke_config, "ttl", "unicast", scenario="paper-baseline"
        )
        stormy = build_deployment(
            smoke_config, "ttl", "unicast", scenario="failure-storm"
        )
        assert plain.content.update_times == stormy.content.update_times


# ----------------------------------------------------------------------
# RunSpec integration (hash stability, round-trip, labels)
# ----------------------------------------------------------------------
class TestRunSpecScenario:
    def test_explicit_default_scenario_same_key(self, smoke_config):
        implicit = RunSpec(config=smoke_config, method="ttl")
        explicit = RunSpec(
            config=smoke_config, method="ttl", scenario=DEFAULT_SCENARIO,
            scenario_cell=0,
        )
        assert implicit.key() == explicit.key()

    def test_scenario_changes_key(self, smoke_config):
        base = RunSpec(config=smoke_config, method="ttl")
        storm = RunSpec(config=smoke_config, method="ttl", scenario="failure-storm")
        cell1 = RunSpec(
            config=smoke_config, method="ttl", scenario="zipf-catalog",
            scenario_cell=1,
        )
        assert len({base.key(), storm.key(), cell1.key()}) == 3

    def test_round_trip(self, smoke_config):
        spec = RunSpec(
            config=smoke_config, method="ttl", scenario="zipf-catalog",
            scenario_cell=3,
        )
        assert RunSpec.from_dict(spec.to_dict()) == spec
        default = RunSpec(config=smoke_config, method="push")
        assert RunSpec.from_dict(default.to_dict()) == default

    def test_label_shows_scenario(self, smoke_config):
        spec = RunSpec(
            config=smoke_config, method="ttl", scenario="failure-storm"
        )
        assert "failure-storm" in spec.label
        assert "scenario" not in RunSpec(config=smoke_config, method="ttl").label

    def test_spec_validation(self, smoke_config):
        with pytest.raises(ValueError):
            RunSpec(config=smoke_config, method="ttl", scenario="")
        with pytest.raises(ValueError):
            RunSpec(config=smoke_config, method="ttl", scenario_cell=-1)

    def test_execute_runs_scenario_cell(self, smoke_config):
        spec = RunSpec(
            config=smoke_config, method="ttl", scenario="failure-storm"
        )
        metrics = spec.execute()
        assert metrics.node_downtime_s > 0.0

    def test_scenario_specs_expand_cells(self, smoke_config):
        specs = scenario_specs("zipf-catalog", smoke_config, "ttl")
        assert [s.scenario_cell for s in specs] == list(range(6))
        assert all(s.scenario == "zipf-catalog" for s in specs)


# ----------------------------------------------------------------------
# rollups and comparison
# ----------------------------------------------------------------------
class TestRollups:
    def test_outcome_requires_aligned_cells(self, smoke_config):
        scenario = resolve_scenario("paper-baseline")
        cells = scenario.cells(smoke_config)
        with pytest.raises(ValueError, match="align"):
            ScenarioOutcome(
                scenario="paper-baseline", method="ttl",
                infrastructure="unicast", kind="deployment",
                cells=cells, metrics=[],
            )

    def test_compare_scenarios_ranks_by_user_lag(self, smoke_config):
        figure = compare_scenarios(
            ["paper-baseline", "failure-storm"], smoke_config, method="ttl"
        )
        assert set(figure.series) == {"paper-baseline", "failure-storm"}
        ordering = figure.summary["user_lag_ordering"]
        lags = [figure.series[name]["mean_user_lag"] for name in ordering]
        assert lags == sorted(lags)
        assert figure.summary["best_scenario"] == ordering[0]
        assert figure.summary["worst_scenario"] == ordering[-1]

    def test_compare_requires_scenarios(self, smoke_config):
        with pytest.raises(ValueError, match="at least one"):
            compare_scenarios([], smoke_config)

    def test_all_zero_weight_rollup_is_zero(self, smoke_config):
        # Regression: _weighted divided by the summed cell weight with
        # no guard, so a pathological catalog whose weights collapse to
        # zero raised ZeroDivisionError instead of rolling up to 0.0.
        # (ScenarioCell validates weight > 0 at construction, so force
        # the state a buggy custom Scenario could hand over.)
        from repro.experiments.testbed import DeploymentMetrics

        scenario = resolve_scenario("paper-baseline")
        cells = scenario.cells(smoke_config)
        for cell in cells:
            object.__setattr__(cell, "weight", 0.0)
        stub = DeploymentMetrics(
            name="stub",
            server_lags={"server-0": 1.0},
            user_lags={"user-0": 2.0},
            user_stale_fractions={"user-0": 0.5},
            cost_km_kb=1.0,
            update_messages=1,
            light_messages=1,
            response_messages=0,
            provider_response_messages=0,
            update_load_km=0.0,
            light_load_km=0.0,
            response_load_km=0.0,
            request_load_km=0.0,
            provider_update_messages=0,
            provider_messages=0,
        )
        outcome = ScenarioOutcome(
            scenario="paper-baseline", method="ttl",
            infrastructure="unicast", kind="deployment",
            cells=cells, metrics=[stub for _ in cells],
        )
        assert outcome.mean_server_lag == 0.0
        assert outcome.mean_user_lag == 0.0
        assert outcome.mean_stale_fraction == 0.0
        rollup = outcome.rollup()  # must not raise
        assert rollup["mean_user_lag"] == 0.0


# ----------------------------------------------------------------------
# deprecation of workload-knob plumbing
# ----------------------------------------------------------------------
# ----------------------------------------------------------------------
# custom scenario registration end-to-end
# ----------------------------------------------------------------------
class TestCustomScenario:
    def test_adhoc_scenario_runs_unregistered(self, smoke_config):
        from repro.trace.workload import PoissonWorkload

        scenario = SingleObjectScenario(
            name="adhoc-poisson",
            summary="test-only",
            workload_factory=lambda cfg: PoissonWorkload(
                rate_per_s=0.05, duration_s=cfg.game_duration_s
            ),
        )
        assert isinstance(scenario, Scenario)
        # Instances pass straight into the builder, no registration.
        metrics = build_deployment(
            smoke_config, "ttl", "unicast", scenario=scenario
        ).run()
        assert metrics.events_processed > 0

    def test_custom_catalog_scenario(self, smoke_config):
        scenario = CatalogScenario(
            name="tiny-catalog",
            summary="test-only",
            spec=CatalogSpec(n_objects=2, exponent=0.5),
        )
        cells = scenario.cells(smoke_config)
        assert [cell.label for cell in cells] == ["obj-00", "obj-01"]
        metrics = build_deployment(
            smoke_config, "ttl", "unicast", scenario=scenario, scenario_cell=1
        ).run()
        assert metrics.events_processed > 0
