"""The simulator's side of the e2e benchmark's contract (benchmarks/e2e).

The benchmark traces layers from outside the program: its
``LayerTracer`` swaps the entry points in ``layers.ENTRY_POINTS`` for
timing wrappers through each owner's own ``vars()``, and ``child.py``
reads counters off a finished deployment.  A refactor that moves,
renames or inherits one of those entry points, or drops a counter,
breaks the benchmark; these tests say so in tier-1.  They read
``benchmarks/e2e`` and never edit it.
"""

import importlib
import os
import sys

import pytest

E2E_DIR = os.path.join(os.path.dirname(os.path.dirname(__file__)), "benchmarks", "e2e")
if E2E_DIR not in sys.path:
    sys.path.insert(0, E2E_DIR)

import child  # noqa: E402
import layers  # noqa: E402
import workloads  # noqa: E402

from repro.experiments.testbed import build_deployment  # noqa: E402


def _entry_points():
    """``(owner, attr)`` for every traced entry point."""
    for _, module_name, class_name, attrs in layers.ENTRY_POINTS:
        module = importlib.import_module(module_name)
        owner = module if class_name is None else getattr(module, class_name)
        for attr in attrs:
            yield owner, attr


def test_every_entry_point_is_its_owners_own():
    missing = [
        "%s.%s" % (owner.__name__, attr)
        for owner, attr in _entry_points()
        if not callable(vars(owner).get(attr))
    ]
    assert missing == []


def test_tracer_restores_every_original():
    originals = {(owner, attr): vars(owner)[attr] for owner, attr in _entry_points()}
    with layers.LayerTracer():
        for (owner, attr), original in originals.items():
            assert vars(owner)[attr] is not original, (owner, attr)
    for (owner, attr), original in originals.items():
        assert vars(owner)[attr] is original, (owner, attr)


@pytest.mark.parametrize(
    "workload, label",
    [("fig16-grid", "ttl/unicast"), ("ttl-tree-storm", "ttl/multicast@failure-storm")],
)
def test_counters_read_the_wheel_and_the_cohort(workload, label):
    (cell,) = [c for c in workloads.cells(workload, 0, smoke=True) if c.label == label]
    deployment = build_deployment(
        cell.config, cell.method, cell.infrastructure, scenario=cell.scenario
    )
    deployment.run()
    counters = child._counters(deployment)
    wheel = deployment.env.timers
    lane = deployment.cohort._timeouts
    assert counters["events"] == deployment.env.events_processed
    assert counters["timers_armed"] == wheel.armed + lane.armed
    assert counters["timers_expired"] == wheel.expired + lane.expired
    assert counters["timers_cancelled"] == wheel.cancelled + lane.cancelled
    assert counters["timer_sweeps"] == wheel.sweeps + lane.sweeps
    # TTL polls race every request against a wheel timer.
    assert wheel.armed > 0
    assert wheel.armed == wheel.expired + wheel.cancelled + wheel.pending
