"""What each per-run structure keeps: only what the run reads back.

The path memo holds the pairs that carried a message (a latency probe
stores nothing), a server's apply log is two unboxed columns, the user
cohort keeps no visit log and each user's lags are one unboxed column,
the metrics take the fabric's link table over, and nodes, their points
and the placement snapshots carry no ``__dict__``.  These tests pin
those shapes, and that each read-back equals what the old forms
returned; they assert no memory figure.
"""

import random
from array import array
from collections import OrderedDict

import pytest

import repro.experiments.testbed as testbed
from repro.cdn.cache import CacheEntry
from repro.cdn.cohort import UserCohort
from repro.cdn.content import LiveContent
from repro.experiments.config import smoke_scale
from repro.metrics.incremental import UserObservationTracker, pairwise_mean


@pytest.fixture
def fresh_placements(monkeypatch):
    """An empty placement memo, so no earlier run's path entries are
    shared into the deployments a test builds."""
    monkeypatch.setattr(testbed, "_PLACEMENT_CACHE", OrderedDict())


@pytest.mark.parametrize("method, infrastructure", [("ttl", "multicast"), ("push", "broadcast")])
def test_path_memo_holds_only_links_that_carried_traffic(
    fresh_placements, method, infrastructure
):
    deployment = testbed.build_deployment(smoke_scale(seed=0), method, infrastructure)
    fabric = deployment.fabric
    # Wiring the tree or the flood graph probed latencies and kept none.
    assert fabric._path_cache == {}
    deployment.run()
    link_bytes = fabric.counters.link_bytes_kb
    assert link_bytes
    assert {"%s->%s" % pair for pair in fabric._path_cache} == set(link_bytes)


def test_probe_equals_memo_bit_for_bit(fresh_placements):
    deployment = testbed.build_deployment(smoke_scale(seed=1), "push", "unicast")
    fabric = deployment.fabric
    nodes = [deployment.provider.node] + [server.node for server in deployment.servers]
    pairs = [(a, b) for a in nodes for b in nodes if a is not b]
    probed = {(a.node_id, b.node_id): fabric.min_latency_s(a, b).hex() for a, b in pairs}
    assert fabric._path_cache == {}
    for a, b in pairs:
        key = (a.node_id, b.node_id)
        assert fabric._path(a, b)[1].hex() == probed[key]
        # A probe after the transmit path filled the memo still agrees.
        assert fabric.min_latency_s(a, b).hex() == probed[key]
    assert len(fabric._path_cache) == len(pairs)


def test_apply_log_columns():
    entry = CacheEntry()
    assert isinstance(entry.apply_times, array) and entry.apply_times.typecode == "d"
    assert isinstance(entry.apply_versions, array) and entry.apply_versions.typecode == "q"
    # The (0.0, 0) start is the read-back's, not a stored entry.
    assert len(entry.apply_times) == len(entry.apply_versions) == 0
    assert entry.apply_log == [(0.0, 0)]
    writes = [(0.1 + 0.2, 1), (7.3, 3), (1e-300, 4)]
    for now, version in writes:
        assert entry.store(version, now, ttl=10.0)
    # An older or equal version refreshes the TTL but logs nothing.
    assert not entry.store(4, 20.0, ttl=10.0)
    assert not entry.store(2, 21.0, ttl=10.0)
    assert len(entry.apply_times) == len(entry.apply_versions) == len(writes)
    log = entry.apply_log
    assert log == [(0.0, 0)] + writes
    assert [time.hex() for time, _ in log] == [0.0.hex()] + [t.hex() for t, _ in writes]
    assert all(type(version) is int for _, version in log)


def test_metrics_take_over_the_link_table(fresh_placements):
    deployment = testbed.build_deployment(smoke_scale(seed=0), "push", "unicast")
    metrics = deployment.run()
    link_bytes = deployment.fabric.counters.link_bytes_kb
    assert link_bytes
    assert metrics.link_bytes_kb is link_bytes
    # The JSON form is still a copy.
    exported = metrics.to_dict()["link_bytes_kb"]
    assert exported == link_bytes and exported is not link_bytes


def test_cohort_keeps_no_visit_log(fresh_placements):
    assert not hasattr(UserCohort, "observations_of")
    assert not hasattr(UserCohort, "total_observations")
    assert [name for name in UserCohort.__slots__ if name.startswith("_obs")] == []
    deployment = testbed.build_deployment(
        smoke_scale(seed=2, users_per_server=2), "ttl", "unicast"
    )
    cohort = deployment.cohort
    consumer = cohort.nodes[0].consumer
    assert consumer == cohort._consume
    assert all(node.consumer is consumer for node in cohort.nodes)


def _list_reference(times, visits, censor_at):
    """The user tracker's mean lag and stale fraction, kept in a list."""
    lags, seen, stale = [], -1, 0
    for now, version in visits:
        if version < seen:
            stale += 1
            continue
        if version > seen:
            for index in range(max(seen, 0) + 1, min(version, len(times)) + 1):
                lags.append(max(0.0, now - times[index - 1]))
            seen = version
    covered = min(max(seen, 0), len(times))
    lags += [
        max(0.0, censor_at - times[index - 1])
        for index in range(covered + 1, len(times) + 1)
    ]
    mean = pairwise_mean(lags) if lags else 0.0
    return mean, (stale / len(visits) if visits else 0.0)


@pytest.mark.parametrize("seed", range(6))
def test_user_lags_are_an_unboxed_column(seed):
    rng = random.Random(seed)
    times = sorted(rng.uniform(0.0, 500.0) for _ in range(rng.randrange(1, 150)))
    tracker = UserObservationTracker(LiveContent("game", update_times=times))
    assert tracker._lags.typecode == "d"
    visits, now, version = [], 0.0, 0
    for _ in range(rng.randrange(50, 400)):
        now += rng.expovariate(0.5)
        # Mostly forward, sometimes back (a redirection to a stale
        # server), sometimes past the last update.
        version = max(0, version + rng.choice((-3, -1, 0, 0, 1, 1, 2, 7)))
        visits.append((now, version))
        tracker.on_observe(now, version)
        if len(visits) == 10:
            # A read mid-run leaves the column as it was.
            mean, _ = _list_reference(times, visits, now)
            assert tracker.mean_lag(now).hex() == mean.hex()
    assert tracker._stale > 0
    censor_at = now + 1.0
    mean, stale = _list_reference(times, visits, censor_at)
    assert tracker.mean_lag(censor_at).hex() == mean.hex()
    assert tracker.stale_fraction().hex() == stale.hex()


def test_nodes_and_points_are_slotted(fresh_placements):
    deployment = testbed.build_deployment(smoke_scale(seed=0), "ttl", "unicast")
    nodes = [deployment.provider.node] + [server.node for server in deployment.servers]
    nodes += deployment.cohort.nodes
    for node in nodes:
        assert not hasattr(node, "__dict__")
        assert not hasattr(node.point, "__dict__")
    (placement,) = testbed._PLACEMENT_CACHE.values()
    for spec in (placement.provider,) + placement.servers + sum(placement.users, ()):
        assert not hasattr(spec, "__dict__")
