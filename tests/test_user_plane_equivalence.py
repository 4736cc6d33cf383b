"""The user cohort's pinned outputs, and user-population sharding.

The :class:`~repro.cdn.cohort.UserCohort` must reproduce every golden
pin (``tests/test_golden.py``) for every update method on every
infrastructure at three seeds, on perturbation-heavy scenarios, with
both visit selectors and with aggregate user metrics: metrics, fabric
counters, full message/visit traces and the kernel-event count.

Also covers the sharding contract: merging a cell's shard runs is
bit-identical whether the shards executed serially or across a worker
pool, and the shard specs reproduce the same server plane.
"""

import pytest

from repro.experiments.config import TestbedConfig
from repro.experiments.sharding import (
    merge_shard_metrics,
    shard_specs,
    shard_user_counts,
)
from repro.experiments.testbed import INFRASTRUCTURES, METHODS, build_deployment
from repro.runner import Runner, RunSpec, run_specs
from tests.test_golden import assert_golden, grid_label, outcome


def _tiny_config(seed, **overrides):
    defaults = dict(
        n_servers=6,
        users_per_server=2,
        n_updates=6,
        game_duration_s=200.0,
        hat_clusters=3,
        seed=seed,
    )
    defaults.update(overrides)
    return TestbedConfig(**defaults)


# ----------------------------------------------------------------------
# the pinned outputs
# ----------------------------------------------------------------------
@pytest.mark.parametrize("infrastructure", INFRASTRUCTURES)
@pytest.mark.parametrize("method", METHODS)
def test_cohort_bit_identical(method, infrastructure):
    """Every method on every infrastructure keeps its pins, at three seeds."""
    for seed in (0, 1, 2):
        assert_golden(grid_label(method, infrastructure, seed))


@pytest.mark.parametrize("selector", ["fixed", "switch"])
def test_selector_modes_bit_identical(selector):
    """Both visit-target policies keep their pins, including the shared
    switch-selector RNG stream's draw order."""
    for seed in (0, 1):
        assert_golden("ttl/unicast/%s-selector/seed%d" % (selector, seed))


@pytest.mark.parametrize(
    "scenario", ["paper-baseline", "failure-storm", "flash-crowd", "cdn-reconfig"]
)
def test_scenario_cells_bit_identical(scenario):
    """Perturbation-heavy scenarios (node failures, reconfiguration
    mid-run) keep their pins."""
    for method in ("ttl", "push"):
        assert_golden("%s/unicast@%s" % (method, scenario))


def test_aggregate_mode_identical_across_all_arms():
    """user_metrics='aggregate' keeps its pins: the per-user actor
    planes on both kernels agreed with the cohort when they were
    recorded."""
    assert_golden("ttl/unicast/aggregate")


def test_aggregate_mode_matches_per_user_rollup():
    """Aggregate metrics equal the per-user layout re-grouped by home
    server: same observations, coarser bookkeeping."""
    aggregate = outcome("ttl/unicast/aggregate").metrics
    per_user = outcome("ttl/unicast/seed0").metrics
    groups = {}
    for node_id, lag in per_user.user_lags.items():
        groups.setdefault(node_id.rsplit("-user-", 1)[0], []).append(
            (lag, per_user.user_stale_fractions[node_id])
        )
    for group, pairs in groups.items():
        mean_lag = sum(lag for lag, _ in pairs) / len(pairs)
        mean_stale = sum(stale for _, stale in pairs) / len(pairs)
        assert aggregate.user_lags[group] == pytest.approx(mean_lag)
        assert aggregate.user_stale_fractions[group] == pytest.approx(mean_stale)


# ----------------------------------------------------------------------
# sharding: exact distribution
# ----------------------------------------------------------------------
class TestShardedMerge:
    def _specs(self, shards, **overrides):
        config = _tiny_config(0, user_metrics="aggregate", **overrides)
        return shard_specs(RunSpec(config=config, method="ttl"), shards)

    def test_merge_is_worker_count_invariant(self):
        specs = self._specs(3)
        weights = shard_user_counts(2, 3)
        serial = merge_shard_metrics(
            run_specs(specs, Runner(workers=1)).metrics, weights
        )
        pooled = merge_shard_metrics(
            run_specs(specs, Runner(workers=3)).metrics, weights
        )
        assert serial.to_dict() == pooled.to_dict()

    def test_shards_partition_the_population(self):
        specs = self._specs(2, users_per_server=3)
        outcome = run_specs(specs, Runner(workers=1))
        merged = merge_shard_metrics(
            outcome.metrics, shard_user_counts(3, 2)
        )
        # Same server plane in every shard; each user simulated once.
        for metrics in outcome.metrics:
            assert list(metrics.server_lags) == list(merged.server_lags)
        assert merged.name.endswith("[merged x2]")
        assert len(merged.user_lags) == 6  # one group per home server

    def test_sharding_requires_aggregate_metrics(self):
        spec = RunSpec(config=_tiny_config(0), method="ttl")
        with pytest.raises(ValueError, match="aggregate"):
            shard_specs(spec, 2)

    def test_single_shard_passthrough(self):
        spec = RunSpec(config=_tiny_config(0), method="ttl")
        assert shard_specs(spec, 1) == [spec]

    def test_mismatched_server_planes_rejected(self):
        specs = self._specs(2)
        outcome = run_specs(specs, Runner(workers=1))
        other = build_deployment(
            _tiny_config(0, n_servers=4, user_metrics="aggregate"), "ttl"
        ).run()
        with pytest.raises(ValueError, match="server plane"):
            merge_shard_metrics(
                [outcome.metrics[0], other], shard_user_counts(2, 2)
            )

    def test_shard_user_counts_cover_uneven_splits(self):
        assert shard_user_counts(5, 2) == [3, 2]
        assert shard_user_counts(1, 4) == [1, 0, 0, 0]
        assert shard_user_counts(0, 2) == [0, 0]


def test_spec_serialization_round_trips_user_plane_knobs():
    """The spec form carries the user-plane knobs, default or not, and
    reads them back."""
    spec = RunSpec(config=_tiny_config(0), method="ttl")
    data = spec.to_dict()
    assert data["config"]["user_metrics"] == "per-user"
    assert data["config"]["user_shards"] == 1
    assert data["config"]["user_shard"] == 0
    assert RunSpec.from_dict(data) == spec
    sharded = shard_specs(
        RunSpec(
            config=_tiny_config(0, user_metrics="aggregate"), method="ttl"
        ),
        2,
    )[1]
    data = sharded.to_dict()
    assert data["config"]["user_shards"] == 2
    assert data["config"]["user_shard"] == 1
    assert data["config"]["user_metrics"] == "aggregate"
    assert RunSpec.from_dict(data) == sharded
