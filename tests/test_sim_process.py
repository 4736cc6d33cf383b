"""Tests for processes and interrupts."""

import pytest

from repro.sim import Environment, Interrupt


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

    def test_exception_catchable_by_waiter(self):
        env = Environment()

        def bad(env):
            yield env.timeout(1)
            raise ValueError("inner")

        def waiter(env):
            try:
                yield env.process(bad(env))
            except ValueError as exc:
                return "caught %s" % exc

        process = env.process(waiter(env))
        assert env.run(until=process) == "caught inner"

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


class TestInterrupt:
    def test_interrupt_delivers_cause(self):
        env = Environment()

        def sleeper(env):
            try:
                yield env.timeout(100)
            except Interrupt as interrupt:
                return (env.now, interrupt.cause)

        process = env.process(sleeper(env))

        def killer(env):
            yield env.timeout(3)
            process.interrupt("reason")

        env.process(killer(env))
        assert env.run(until=process) == (3, "reason")

    def test_interrupted_process_can_keep_running(self):
        env = Environment()

        def sleeper(env):
            try:
                yield env.timeout(100)
            except Interrupt:
                pass
            yield env.timeout(10)
            return env.now

        process = env.process(sleeper(env))

        def killer(env):
            yield env.timeout(5)
            process.interrupt()

        env.process(killer(env))
        assert env.run(until=process) == 15

    def test_cannot_interrupt_dead_process(self):
        env = Environment()

        def quick(env):
            yield env.timeout(1)

        process = env.process(quick(env))
        env.run()
        with pytest.raises(RuntimeError):
            process.interrupt()

    def test_self_interrupt_rejected(self):
        env = Environment()
        holder = {}

        def selfish(env):
            holder["me"].interrupt()
            yield env.timeout(1)

        holder["me"] = env.process(selfish(env))
        with pytest.raises(RuntimeError):
            env.run()
