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

    The eager mode runs the :class:`ServerPolicy` loop: poll at the
    phase, then sleep one TTL from the start of each poll.  A poll waits
    at most one TTL for its reply.
    """

    method_name = "ttl"

    def __init__(
        self,
        ttl_s: float,
        stream: Optional[RandomStream] = None,
        eager: bool = True,
    ) -> None:
        super().__init__(ttl_s, stream)
        #: Eager mode loops; lazy mode polls on demand.
        self.loops = eager

    # ------------------------------------------------------------------
    # eager loop
    # ------------------------------------------------------------------
    def _first_step(self, event: Event) -> None:
        self._poll(event)

    def _after_poll(self, got_update: bool, event: Event) -> None:
        # The sleep is measured from the *start* of the poll, so the
        # period stays anchored at one TTL even when the poll itself
        # takes time.  Sleeping a full TTL *after* a timed-out poll
        # (which waits one TTL) used to double the effective period to
        # ~2xTTL exactly when the upstream was absent -- the paper's
        # Fig. 10 scenario.  The round's ``created_at`` is when the poll
        # was sent.
        env = self.server.env
        delay = self.ttl_s - (env._now - self._round.created_at)
        env.timeout(delay if delay > 0.0 else 0.0).callbacks.append(self._poll)

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
