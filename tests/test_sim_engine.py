"""Tests for the discrete-event engine core (repro.sim.engine)."""

import pytest

from repro.sim import Environment


class TestEvent:
    def test_untriggered_event_has_no_value(self):
        env = Environment()
        event = env.event()
        assert not event.triggered
        with pytest.raises(AttributeError):
            _ = event.value
        with pytest.raises(AttributeError):
            _ = event.ok

    def test_succeed_sets_value_and_ok(self):
        env = Environment()
        event = env.event()
        event.succeed(41)
        assert event.triggered
        assert event.ok
        assert event.value == 41

    def test_double_succeed_raises(self):
        env = Environment()
        event = env.event()
        event.succeed()
        with pytest.raises(RuntimeError):
            event.succeed()


class TestTimeout:
    def test_negative_delay_rejected(self):
        env = Environment()
        with pytest.raises(ValueError):
            env.timeout(-1)

    def test_timeout_carries_value(self):
        env = Environment()

        def proc(env):
            value = yield env.timeout(3, "payload")
            return value

        process = env.process(proc(env))
        assert env.run(until=process) == "payload"
        assert env.now == 3

    def test_zero_delay_fires_immediately(self):
        env = Environment()
        log = []

        def proc(env):
            yield env.timeout(0)
            log.append(env.now)

        env.process(proc(env))
        env.run()
        assert log == [0]


class TestEnvironment:
    def test_now_starts_at_initial_time(self):
        assert Environment().now == 0.0
        assert Environment(10.0).now == 10.0

    def test_run_until_time_stops_exactly(self):
        env = Environment()

        def ticker(env):
            while True:
                yield env.timeout(1)

        env.process(ticker(env))
        env.run(until=5)
        assert env.now == 5

    def test_run_until_past_time_rejected(self):
        env = Environment(100.0)
        with pytest.raises(ValueError):
            env.run(until=50)

    def test_run_until_event_returns_its_value(self):
        env = Environment()

        def proc(env):
            yield env.timeout(2)
            return "done"

        process = env.process(proc(env))
        assert env.run(until=process) == "done"

    def test_run_drains_queue_without_until(self):
        env = Environment()
        env.timeout(1)
        env.timeout(5)
        env.run()
        assert env.now == 5

    def test_run_until_untriggerable_event_raises(self):
        env = Environment()
        orphan = env.event()
        env.timeout(1)
        with pytest.raises(RuntimeError, match="until"):
            env.run(until=orphan)

    def test_fifo_order_for_simultaneous_events(self):
        env = Environment()
        order = []

        def proc(env, name):
            yield env.timeout(5)
            order.append(name)

        for name in ("a", "b", "c"):
            env.process(proc(env, name))
        env.run()
        assert order == ["a", "b", "c"]

    def test_determinism_across_runs(self):
        def build_and_run():
            env = Environment()
            order = []

            def proc(env, name, delay):
                yield env.timeout(delay)
                order.append((env.now, name))

            for name, delay in [("x", 3), ("y", 1), ("z", 3)]:
                env.process(proc(env, name, delay))
            env.run()
            return order

        assert build_and_run() == build_and_run()

