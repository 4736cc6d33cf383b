"""Shared resources for the simulation engine.

- :class:`Resource` -- a capacity-limited resource with a FIFO wait queue
  (models e.g. a node's output network port: transmissions serialise).
- :class:`Store` -- an unbounded-or-bounded FIFO of Python objects
  (models message queues between actors).
- :class:`PriorityStore` -- a store that yields the smallest item first.
"""

from __future__ import annotations

import heapq
from collections import deque
from typing import Any, Deque, List

from .engine import Environment, Event

__all__ = ["Resource", "Request", "Release", "Store", "PriorityStore", "PriorityItem"]


class Request(Event):
    """Event fired once the resource has granted the request.

    Usable as a context manager so the resource is always released::

        with resource.request() as req:
            yield req
            ...
    """

    __slots__ = ("resource",)

    def __init__(self, resource: "Resource") -> None:
        super().__init__(resource.env)
        self.resource = resource
        resource._do_request(self)

    def __enter__(self) -> "Request":
        return self

    def __exit__(self, exc_type, exc_value, traceback) -> None:
        self.resource.release(self)

    def cancel(self) -> None:
        """Withdraw an ungranted request from the wait queue."""
        if self in self.resource._queue:
            self.resource._queue.remove(self)


class Release(Event):
    """Event fired once the resource has processed a release."""

    __slots__ = ("resource", "request")

    def __init__(self, resource: "Resource", request: Request) -> None:
        super().__init__(resource.env)
        self.resource = resource
        self.request = request
        resource._do_release(self)


class Resource:
    """A resource with ``capacity`` usage slots and a FIFO wait queue."""

    def __init__(self, env: Environment, capacity: int = 1) -> None:
        if capacity <= 0:
            raise ValueError("capacity must be > 0, got %r" % (capacity,))
        self.env = env
        self._capacity = capacity
        #: Granted requests.
        self.users: List[Request] = []
        self._queue: Deque[Request] = deque()

    @property
    def capacity(self) -> int:
        return self._capacity

    @property
    def count(self) -> int:
        """Number of users currently holding the resource."""
        return len(self.users)

    @property
    def queue_length(self) -> int:
        """Number of waiting (ungranted) requests."""
        return len(self._queue)

    def request(self) -> Request:
        """Request a usage slot; the returned event fires when granted."""
        return Request(self)

    def release(self, request: Request) -> Release:
        """Release a previously granted *request*."""
        return Release(self, request)

    def release_fast(self, request: Request) -> None:
        """Release a granted *request* without materialising a
        :class:`Release` event; waiters are granted exactly as in
        :meth:`release`."""
        try:
            self.users.remove(request)
        except ValueError:  # pragma: no cover - defensive, mirrors release
            pass
        self._grant_waiters()

    def _do_request(self, request: Request) -> None:
        if len(self.users) < self._capacity:
            self.users.append(request)
            request.succeed()
        else:
            self._queue.append(request)

    def _do_release(self, release: Release) -> None:
        try:
            self.users.remove(release.request)
        except ValueError:
            release.request.cancel()
        self._grant_waiters()
        release.succeed()

    def _grant_waiters(self) -> None:
        while self._queue and len(self.users) < self._capacity:
            request = self._queue.popleft()
            self.users.append(request)
            request.succeed()


class StorePut(Event):
    __slots__ = ("item",)

    def __init__(self, store: "Store", item: Any) -> None:
        super().__init__(store.env)
        self.item = item
        store._put_queue.append(self)
        store._trigger()


class StoreGet(Event):
    __slots__ = ()

    def __init__(self, store: "Store") -> None:
        super().__init__(store.env)
        store._get_queue.append(self)
        store._trigger()


class Store:
    """A FIFO store of arbitrary items with optional capacity."""

    def __init__(self, env: Environment, capacity: float = float("inf")) -> None:
        if capacity <= 0:
            raise ValueError("capacity must be > 0, got %r" % (capacity,))
        self.env = env
        self._capacity = capacity
        self.items: List[Any] = []
        self._put_queue: Deque[StorePut] = deque()
        self._get_queue: Deque[StoreGet] = deque()

    @property
    def capacity(self) -> float:
        return self._capacity

    def __len__(self) -> int:
        return len(self.items)

    def put(self, item: Any) -> StorePut:
        """Put *item* into the store; fires once there is room."""
        return StorePut(self, item)

    def get(self) -> StoreGet:
        """Get the next item; fires once an item is available."""
        return StoreGet(self)

    # -- internals -----------------------------------------------------
    def _store_item(self, item: Any) -> None:
        self.items.append(item)

    def _take_item(self) -> Any:
        return self.items.pop(0)

    def _trigger(self) -> None:
        progressed = True
        while progressed:
            progressed = False
            if self._put_queue and len(self.items) < self._capacity:
                put = self._put_queue.popleft()
                self._store_item(put.item)
                put.succeed()
                progressed = True
            if self._get_queue and self.items:
                get = self._get_queue.popleft()
                get.succeed(self._take_item())
                progressed = True


class PriorityItem:
    """Wrap an unorderable item with an orderable priority key."""

    __slots__ = ("priority", "item")

    def __init__(self, priority: Any, item: Any) -> None:
        self.priority = priority
        self.item = item

    def __lt__(self, other: "PriorityItem") -> bool:
        return self.priority < other.priority

    def __repr__(self) -> str:
        return "PriorityItem(%r, %r)" % (self.priority, self.item)


class PriorityStore(Store):
    """A store that always yields its smallest item first."""

    def _store_item(self, item: Any) -> None:
        heapq.heappush(self.items, item)

    def _take_item(self) -> Any:
        return heapq.heappop(self.items)
