"""The kernel's pinned outputs, its timer wheel, placement cache and
telemetry switch.

The kernel (timer wheel, inline transport start, consumer dispatch,
sync-first server tasks, incremental staleness, placement memoization)
must reproduce every golden pin (``tests/test_golden.py``) for every
update method on every infrastructure, and under perturbation-heavy
scenarios: delivery times, RNG draw order, metric values, fabric
counters, message traces and the exact kernel-event count.

Also covers the :class:`~repro.sim.timers.TimerWheel` unit contract and
the live semantics of the telemetry switch.
"""

import pytest

import repro.experiments.testbed as testbed_mod
import repro.network.message as message_mod
from repro.experiments.config import TestbedConfig
from repro.experiments.testbed import INFRASTRUCTURES, METHODS, build_deployment
from repro.obs.telemetry import MetricsRegistry
from repro.sim import Environment
from tests.test_golden import assert_golden, grid_label


def _tiny_config(seed, **overrides):
    defaults = dict(
        n_servers=6,
        users_per_server=1,
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
def test_fast_kernel_bit_identical(method, infrastructure):
    """Every method on every infrastructure keeps its pins, at three seeds."""
    for seed in (0, 1, 2):
        assert_golden(grid_label(method, infrastructure, seed))


@pytest.mark.parametrize(
    "scenario", ["paper-baseline", "failure-storm", "flash-crowd"]
)
def test_scenario_cells_bit_identical(scenario):
    """Perturbation-heavy scenarios keep their pins too."""
    for method in ("ttl", "push"):
        assert_golden("%s/unicast@%s" % (method, scenario))


# ----------------------------------------------------------------------
# placement memoization
# ----------------------------------------------------------------------
class TestPlacementCache:
    def test_cache_hit_is_bit_transparent(self):
        testbed_mod._PLACEMENT_CACHE.clear()
        message_mod._SEQ = 0
        miss = build_deployment(_tiny_config(0), "ttl", "unicast").run().to_dict()
        assert len(testbed_mod._PLACEMENT_CACHE) == 1
        message_mod._SEQ = 0
        hit = build_deployment(_tiny_config(0), "ttl", "unicast").run().to_dict()
        assert len(testbed_mod._PLACEMENT_CACHE) == 1  # reused, not re-added
        assert miss == hit

    def test_distinct_topologies_get_distinct_entries(self):
        testbed_mod._PLACEMENT_CACHE.clear()
        build_deployment(_tiny_config(0), "ttl", "unicast")
        build_deployment(_tiny_config(1), "ttl", "unicast")
        build_deployment(_tiny_config(0, n_servers=4), "ttl", "unicast")
        assert len(testbed_mod._PLACEMENT_CACHE) == 3
        # Same topology, different method: shared entry.
        build_deployment(_tiny_config(0), "push", "multicast")
        assert len(testbed_mod._PLACEMENT_CACHE) == 3

    def test_cache_evicts_fifo_at_cap(self, monkeypatch):
        testbed_mod._PLACEMENT_CACHE.clear()
        monkeypatch.setattr(testbed_mod, "_PLACEMENT_CACHE_MAX", 2)
        for seed in (0, 1, 2):
            build_deployment(_tiny_config(seed), "ttl", "unicast")
        assert len(testbed_mod._PLACEMENT_CACHE) == 2
        seeds = [key[0] for key in testbed_mod._PLACEMENT_CACHE]
        assert seeds == [1, 2]  # seed 0 aged out first


# ----------------------------------------------------------------------
# timer wheel unit contract
# ----------------------------------------------------------------------
class TestTimerWheel:
    def test_fires_in_deadline_order_across_lanes(self):
        env = Environment()
        fired = []
        for delay in (5.0, 1.0, 3.0):
            waiter = env.event()
            waiter.callbacks.append(
                lambda ev, d=delay: fired.append((env.now, d))
            )
            env.timers.arm(delay, waiter)
        env.run()
        assert fired == [(1.0, 1.0), (3.0, 3.0), (5.0, 5.0)]

    def test_same_lane_is_fifo_and_sweeps_in_one_batch(self):
        env = Environment()
        fired = []
        for index in range(10):
            waiter = env.event()
            waiter.callbacks.append(lambda ev, i=index: fired.append(i))
            env.timers.arm(2.0, waiter)
        env.run()
        assert fired == list(range(10))
        assert env.timers.armed == 10
        assert env.timers.expired == 10
        assert env.timers.sweeps == 1  # one control event for the batch
        assert env.timers.pending == 0

    def test_cancelled_waiters_are_skipped_lazily(self):
        env = Environment()
        fired = []
        waiters = []
        for index in range(4):
            waiter = env.event()
            waiter.callbacks.append(lambda ev, i=index: fired.append(i))
            env.timers.arm(1.0, waiter)
            waiters.append(waiter)
        waiters[1].callbacks = None  # cancel, simpy-style
        env.run()
        assert fired == [0, 2, 3]
        assert env.timers.cancelled == 1
        assert env.timers.expired == 3

    def test_negative_delay_rejected(self):
        env = Environment()
        with pytest.raises(ValueError, match="negative"):
            env.timers.arm(-0.1, env.event())

    def test_lane_grows_past_initial_capacity(self):
        env = Environment()
        n = 300  # > _INITIAL_CAPACITY, forces growth/compaction
        fired = []

        def driver(env):
            for index in range(n):
                waiter = env.event()
                waiter.callbacks.append(lambda ev, i=index: fired.append(i))
                env.timers.arm(1.0, waiter)
                yield env.timeout(0.25)

        env.process(driver(env))
        env.run()
        assert fired == list(range(n))
        assert env.timers.armed == n
        assert env.timers.expired == n
        assert env.timers.pending == 0

    def test_deadline_matches_legacy_timeout_float(self):
        # The wheel computes `env._now + delay` -- the exact float a
        # timeout produces -- so both fire at the same instant even where
        # decimal arithmetic would disagree.
        env = Environment()
        out = []

        def driver(env):
            yield env.timeout(0.1)
            waiter = env.event()
            waiter.callbacks.append(lambda ev: out.append(env.now))
            env.timers.arm(0.2, waiter)
            timeout = env.timeout(0.2)
            timeout.callbacks.append(lambda ev: out.append(env.now))
            yield env.timeout(1.0)

        env.process(driver(env))
        env.run()
        assert len(out) == 2 and out[0] == out[1]

    def test_now_stays_builtin_float_after_rearm(self):
        # Sweep re-arms read deadlines out of a numpy array; env.now
        # must stay a builtin float (np.float64 breaks json.dump).
        env = Environment()
        env.timers.arm(1.0, env.event())

        def driver(env):
            yield env.timeout(0.5)
            env.timers.arm(1.0, env.event())

        env.process(driver(env))
        env.run()
        assert env.now == 1.5
        assert type(env.now) is float


# ----------------------------------------------------------------------
# telemetry switch
# ----------------------------------------------------------------------
class TestTelemetrySwitch:
    def test_switch_is_read_live(self):
        # Instrumented sites read the attribute at call time, so
        # flipping the process-wide singleton takes effect immediately.
        registry = MetricsRegistry()
        assert registry.enabled is True
        registry.enabled = False
        registry.count("probe")
        assert registry.snapshot()["counters"] == {}
        registry.enabled = True
        registry.count("probe")
        assert registry.snapshot()["counters"] == {"probe": 1.0}
        assert MetricsRegistry(enabled=False).enabled is False
