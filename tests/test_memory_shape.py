"""What each per-run structure keeps: only what the run reads back.

The path memo holds the pairs that carried a message (a latency probe
stores nothing), a server's apply log is two unboxed columns, and the
user cohort logs visits in cohort-wide columns.  These tests pin those
shapes, and that each read-back equals what the old forms returned;
they assert no memory figure.
"""

from array import array
from collections import OrderedDict

import pytest

import repro.experiments.testbed as testbed
from repro.cdn.cache import CacheEntry
from repro.experiments.config import smoke_scale
from repro.obs.tracer import RecordingTracer


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


def test_observations_of_reads_each_slots_visits_in_order(fresh_placements):
    config = smoke_scale(seed=2, users_per_server=2)
    assert config.user_metrics == "per-user"
    tracer = RecordingTracer()
    deployment = testbed.build_deployment(config, "ttl", "unicast", tracer=tracer)
    deployment.run()
    cohort = deployment.cohort
    total = 0
    for slot, node in enumerate(cohort.nodes):
        visits = [
            (event.time, event.detail["version"], event.detail["server"])
            for event in tracer.events(node=node.node_id, kinds=["visit"])
        ]
        observations = cohort.observations_of(slot)
        assert visits
        assert [(o.time, o.version, o.server_id) for o in observations] == visits
        total += len(observations)
    assert cohort.total_observations() == total
