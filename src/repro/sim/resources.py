"""A capacity-limited resource with a FIFO wait queue.

No simulator code uses :class:`Resource`: the fabric keeps each node's
output-port FIFO itself (see :mod:`repro.network.link`).  It stays only
because the e2e benchmark's layer tracer wraps ``Resource.request`` and
``Resource.release_fast``; it goes once that tracer stops wrapping them.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, List

from .engine import Environment, Event

__all__ = ["Resource", "Request", "Release"]


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
