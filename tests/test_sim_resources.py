"""Tests for Resource / Store / PriorityStore."""

import pytest

from repro.sim import Environment, PriorityItem, PriorityStore, Resource, Store


class TestResource:
    def test_capacity_must_be_positive(self):
        env = Environment()
        with pytest.raises(ValueError):
            Resource(env, capacity=0)

    def test_serialises_users_fifo(self):
        env = Environment()
        resource = Resource(env, capacity=1)
        log = []

        def worker(env, name):
            with resource.request() as grant:
                yield grant
                log.append(("start", name, env.now))
                yield env.timeout(10)
            log.append(("end", name, env.now))

        for name in ("a", "b", "c"):
            env.process(worker(env, name))
        env.run()
        assert log == [
            ("start", "a", 0),
            ("end", "a", 10),
            ("start", "b", 10),
            ("end", "b", 20),
            ("start", "c", 20),
            ("end", "c", 30),
        ]

    def test_capacity_two_runs_two_concurrently(self):
        env = Environment()
        resource = Resource(env, capacity=2)
        starts = []

        def worker(env):
            with resource.request() as grant:
                yield grant
                starts.append(env.now)
                yield env.timeout(5)

        for _ in range(4):
            env.process(worker(env))
        env.run()
        assert starts == [0, 0, 5, 5]

    def test_count_and_queue_length(self):
        env = Environment()
        resource = Resource(env, capacity=1)

        def holder(env):
            with resource.request() as grant:
                yield grant
                yield env.timeout(10)

        def observer(env):
            yield env.timeout(1)
            request = resource.request()  # queued behind the holder
            assert resource.count == 1
            assert resource.queue_length == 1
            request.cancel()
            assert resource.queue_length == 0

        env.process(holder(env))
        env.process(observer(env))
        env.run()

    def test_release_via_context_manager_even_on_exception(self):
        env = Environment()
        resource = Resource(env, capacity=1)

        def crasher(env):
            with resource.request() as grant:
                yield grant
                raise RuntimeError("while holding")

        def follower(env):
            with resource.request() as grant:
                yield grant
                return env.now

        env.process(crasher(env))
        follower_proc = env.process(follower(env))
        with pytest.raises(RuntimeError):
            env.run()
        env.run(until=follower_proc)
        assert resource.count <= 1

    def test_release_fast_grants_next_waiter_without_release_event(self):
        env = Environment()
        resource = Resource(env, capacity=1)
        first = resource.request()
        second = resource.request()
        assert resource.users == [first]
        assert resource.queue_length == 1
        granted = []
        second.callbacks.append(lambda event: granted.append(env.now))
        resource.release_fast(first)
        # The waiter holds the slot at once; no Release event is built.
        assert resource.users == [second]
        assert resource.queue_length == 0
        env.run()
        assert granted == [0]
        assert env.events_processed == 2  # the two grants only
        resource.release_fast(second)
        assert resource.count == 0


class TestStore:
    def test_put_then_get(self):
        env = Environment()
        store = Store(env)

        def producer(env):
            yield env.timeout(2)
            yield store.put("item")

        def consumer(env):
            item = yield store.get()
            return (env.now, item)

        env.process(producer(env))
        consumer_proc = env.process(consumer(env))
        assert env.run(until=consumer_proc) == (2, "item")

    def test_get_before_put_blocks(self):
        env = Environment()
        store = Store(env)
        received = []

        def consumer(env):
            item = yield store.get()
            received.append((env.now, item))

        def producer(env):
            yield env.timeout(5)
            yield store.put("late")

        env.process(consumer(env))
        env.process(producer(env))
        env.run()
        assert received == [(5, "late")]

    def test_fifo_ordering(self):
        env = Environment()
        store = Store(env)
        out = []

        def producer(env):
            for i in range(3):
                yield store.put(i)

        def consumer(env):
            for _ in range(3):
                item = yield store.get()
                out.append(item)

        env.process(producer(env))
        env.process(consumer(env))
        env.run()
        assert out == [0, 1, 2]

    def test_capacity_blocks_puts(self):
        env = Environment()
        store = Store(env, capacity=1)
        log = []

        def producer(env):
            yield store.put("first")
            log.append(("put-first", env.now))
            yield store.put("second")
            log.append(("put-second", env.now))

        def consumer(env):
            yield env.timeout(10)
            item = yield store.get()
            log.append(("got", item, env.now))

        env.process(producer(env))
        env.process(consumer(env))
        env.run()
        assert ("put-first", 0) in log
        assert ("got", "first", 10) in log
        assert ("put-second", 10) in log

    def test_invalid_capacity(self):
        with pytest.raises(ValueError):
            Store(Environment(), capacity=0)

    def test_len(self):
        env = Environment()
        store = Store(env)
        store.put("a")
        store.put("b")
        env.run()
        assert len(store) == 2


class TestPriorityStore:
    def test_smallest_first(self):
        env = Environment()
        store = PriorityStore(env)
        out = []

        def producer(env):
            for priority in (5, 1, 3):
                yield store.put(priority)

        def consumer(env):
            yield env.timeout(1)
            for _ in range(3):
                item = yield store.get()
                out.append(item)

        env.process(producer(env))
        env.process(consumer(env))
        env.run()
        assert out == [1, 3, 5]

    def test_priority_item_wraps_unorderable(self):
        env = Environment()
        store = PriorityStore(env)
        out = []

        def producer(env):
            yield store.put(PriorityItem(2, {"name": "low"}))
            yield store.put(PriorityItem(1, {"name": "high"}))

        def consumer(env):
            yield env.timeout(1)
            first = yield store.get()
            out.append(first.item["name"])

        env.process(producer(env))
        env.process(consumer(env))
        env.run()
        assert out == ["high"]
