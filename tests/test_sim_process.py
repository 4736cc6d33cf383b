"""Tests for processes."""

import pytest

from repro.sim import Environment


class TestProcess:
    def test_non_generator_rejected(self):
        env = Environment()
        with pytest.raises(ValueError):
            env.process(lambda: None)

    def test_process_is_alive_until_done(self):
        env = Environment()

        def proc(env):
            yield env.timeout(5)

        process = env.process(proc(env))
        assert process.is_alive
        env.run()
        assert not process.is_alive

    def test_return_value_becomes_event_value(self):
        env = Environment()

        def proc(env):
            yield env.timeout(1)
            return 42

        process = env.process(proc(env))
        env.run()
        assert process.value == 42

    def test_waiting_on_another_process(self):
        env = Environment()

        def child(env):
            yield env.timeout(4)
            return "child-result"

        def parent(env):
            result = yield env.process(child(env))
            return (env.now, result)

        parent_proc = env.process(parent(env))
        assert env.run(until=parent_proc) == (4, "child-result")

    def test_exception_in_process_propagates(self):
        env = Environment()

        def bad(env):
            yield env.timeout(1)
            raise ValueError("inner")

        env.process(bad(env))
        with pytest.raises(ValueError, match="inner"):
            env.run()

    def test_crash_stops_the_run_at_the_raise(self):
        # The error leaves run() from the frame that raised it: a
        # bystander resuming at the same instant, queued after the
        # crashing process's timeout, never runs.
        env = Environment()
        resumed = []

        def bad(env):
            yield env.timeout(1)
            raise ValueError("inner")

        def bystander(env):
            yield env.timeout(1)
            resumed.append(env.now)

        env.process(bad(env))
        env.process(bystander(env))
        with pytest.raises(ValueError, match="inner"):
            env.run()
        assert env.now == 1
        assert resumed == []

    def test_yielding_non_event_fails_the_process(self):
        env = Environment()

        def bad(env):
            yield "not an event"

        env.process(bad(env))
        with pytest.raises(RuntimeError, match="invalid yield"):
            env.run()

    def test_yield_already_processed_event_resumes_immediately(self):
        env = Environment()

        def proc(env):
            timeout = env.timeout(1, "early")
            yield env.timeout(5)
            value = yield timeout  # already processed at t=1
            return (env.now, value)

        process = env.process(proc(env))
        assert env.run(until=process) == (5, "early")

