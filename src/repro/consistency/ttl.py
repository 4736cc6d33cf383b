"""TTL-based consistency maintenance.

Two flavours:

- *eager* (the paper's Section 4 method): the server polls its upstream
  every TTL seconds regardless of demand;
- *lazy* (the behaviour the paper measures in the real CDN, Section
  3.4.1): the cached copy is served while its TTL is unexpired and only
  refetched on the first request after expiry.
"""

from __future__ import annotations

from typing import Optional, Tuple

from ..network.message import Message
from ..sim.engine import Event
from ..sim.rng import RandomStream
from .base import ServerPolicy

__all__ = ["TTLPolicy"]


class TTLPolicy(ServerPolicy):
    """Poll the upstream whenever the TTL expires.

    The eager mode loops (see :class:`ServerPolicy`): sleep, poll, sleep
    again one TTL after the poll started.  A poll waits at most one TTL
    for its reply.
    """

    method_name = "ttl"

    def __init__(
        self,
        ttl_s: float,
        stream: Optional[RandomStream] = None,
        eager: bool = True,
    ) -> None:
        if ttl_s <= 0:
            raise ValueError("ttl_s must be positive")
        super().__init__()
        self.ttl_s = ttl_s
        self.stream = stream
        #: Eager mode loops; lazy mode polls on demand.
        self.loops = eager
        #: When the eager loop's last poll started.
        self._round_started = 0.0

    # ------------------------------------------------------------------
    # eager loop
    # ------------------------------------------------------------------
    def _initial_offset(self) -> float:
        # Desynchronised first polls: each server starts at a random
        # phase in [0, TTL), exactly the paper's assumption in Sec 3.4.1.
        if self.stream is None:
            return 0.0
        return self.stream.uniform(0.0, self.ttl_s)

    def _begin(self, _event: Event) -> None:
        if not self._looping:
            return
        offset = self._initial_offset()
        if offset > 0:
            self.server.env.timeout(offset).callbacks.append(self._poll)
        else:
            self._poll(_event)

    def _poll(self, _event: Event) -> None:
        """Open one poll round; :meth:`_on_poll_reply` closes it."""
        if not self._looping:
            return
        self._round_started = self.server.env._now
        self._round, waiter = self._open_round(self.ttl_s)
        waiter.callbacks.append(self._on_poll_reply)

    def _on_poll_reply(self, waiter: Event) -> None:
        if not self._looping:
            return
        self._close_round(self._round, waiter.value, self.ttl_s)
        # The sleep is measured from the *start* of the poll, so the
        # period stays anchored at one TTL even when the poll itself
        # takes time.  Sleeping a full TTL *after* a timed-out poll
        # (which waits one TTL) used to double the effective period to
        # ~2xTTL exactly when the upstream was absent -- the paper's
        # Fig. 10 scenario.
        env = self.server.env
        elapsed = env._now - self._round_started
        env.timeout(max(0.0, self.ttl_s - elapsed)).callbacks.append(self._poll)

    # ------------------------------------------------------------------
    # lazy mode
    # ------------------------------------------------------------------
    def ensure_fresh(self) -> Optional[Event]:
        """Lazy mode: poll on demand once the TTL has expired.

        Concurrent requests while a poll is in flight share that poll
        rather than issuing duplicates.
        """
        if self.loops:
            return None
        server = self.server
        tracer = server.env.tracer
        entry = server.cache
        if entry.is_fresh(server.env.now):
            if tracer.enabled:
                tracer.emit(
                    server.env.now, "cache_hit", server.node.node_id,
                    version=entry.version,
                )
            return None
        if tracer.enabled:
            tracer.emit(
                server.env.now, "cache_expired", server.node.node_id,
                version=entry.version,
            )
        return self._refresh()

    def _open_refresh(self) -> Tuple[Message, Event]:
        return self._open_round(self.ttl_s)

    def _close_refresh(self, message: Message, response: Optional[Message]) -> None:
        self._close_round(message, response, self.ttl_s)
