"""TTL-based consistency maintenance.

Two flavours:

- *eager* (the paper's Section 4 method): the server polls its upstream
  every TTL seconds regardless of demand;
- *lazy* (the behaviour the paper measures in the real CDN, Section
  3.4.1): the cached copy is served while its TTL is unexpired and only
  refetched on the first request after expiry.
"""

from __future__ import annotations

from typing import Generator, Iterable, Optional

from ..network.message import MessageKind
from ..sim.rng import RandomStream
from .base import ServerPolicy

__all__ = ["TTLPolicy"]


class TTLPolicy(ServerPolicy):
    """Poll the upstream whenever the TTL expires."""

    method_name = "ttl"

    def __init__(
        self,
        ttl_s: float,
        stream: Optional[RandomStream] = None,
        eager: bool = True,
        poll_timeout_s: Optional[float] = None,
    ) -> None:
        if ttl_s <= 0:
            raise ValueError("ttl_s must be positive")
        super().__init__()
        self.ttl_s = ttl_s
        self.stream = stream
        self.eager = eager
        #: Bound on how long one poll may hang (upstream down); defaults
        #: to the TTL itself so the poll loop can never stall for good.
        self.poll_timeout_s = poll_timeout_s if poll_timeout_s is not None else ttl_s
        self._poll_inflight = None

    # ------------------------------------------------------------------
    def processes(self) -> Iterable[Generator]:
        if self.eager:
            return [self._poll_loop()]
        return []

    def _initial_offset(self) -> float:
        # Desynchronised first polls: each server starts at a random
        # phase in [0, TTL), exactly the paper's assumption in Sec 3.4.1.
        if self.stream is None:
            return 0.0
        return self.stream.uniform(0.0, self.ttl_s)

    def _poll_loop(self) -> Generator:
        env = self.server.env
        offset = self._initial_offset()
        if offset > 0:
            yield env.timeout(offset)
        while True:
            # The sleep is measured from the *start* of the poll, so the
            # period stays anchored at one TTL even when the poll itself
            # takes time.  Sleeping a full TTL *after* a timed-out poll
            # (default poll_timeout_s == ttl_s) used to double the
            # effective period to ~2xTTL exactly when the upstream was
            # absent -- the paper's Fig. 10 scenario.
            poll_started = env.now
            yield from self.poll_once()
            elapsed = env.now - poll_started
            yield env.timeout(max(0.0, self.ttl_s - elapsed))

    def poll_once(self) -> Generator:
        """One poll round-trip; returns True if an update was received."""
        server = self.server
        response = yield from server.request(
            MessageKind.POLL,
            server.upstream,
            server.content.light_size_kb,
            payload={"have": server.cached_version},
            timeout=self.poll_timeout_s,
        )
        tracer = server.env.tracer
        if response is None:
            if tracer.enabled:
                tracer.emit(
                    server.env.now, "poll_round", server.node.node_id,
                    got_update=False, timed_out=True,
                )
            return False
        if response.kind is MessageKind.POLL_RESPONSE:
            server.apply_version(response.version, ttl=self.ttl_s)
            if tracer.enabled:
                tracer.emit(
                    server.env.now, "poll_round", server.node.node_id,
                    got_update=True, timed_out=False,
                )
            return True
        # Not modified: refresh the entry's TTL without a new body.
        server.cache.store(
            server.content.content_id,
            server.cached_version,
            server.env.now,
            self.ttl_s,
        )
        if tracer.enabled:
            tracer.emit(
                server.env.now, "poll_round", server.node.node_id,
                got_update=False, timed_out=False,
            )
        return False

    # ------------------------------------------------------------------
    def ensure_fresh(self) -> Generator:
        """Lazy mode: refetch on demand once the TTL has expired.

        Concurrent requests while a poll is in flight share that poll
        rather than issuing duplicates.
        """
        if self.eager:
            return
        server = self.server
        tracer = server.env.tracer
        entry = server.cache.entry(server.content.content_id)
        if entry.is_fresh(server.env.now):
            if tracer.enabled:
                tracer.emit(
                    server.env.now, "cache_hit", server.node.node_id,
                    version=entry.version,
                )
            return
        if tracer.enabled:
            tracer.emit(
                server.env.now, "cache_expired", server.node.node_id,
                version=entry.version,
            )
        if self._poll_inflight is not None:
            yield self._poll_inflight
            return
        self._poll_inflight = server.env.event()
        try:
            yield from self.poll_once()
        finally:
            inflight, self._poll_inflight = self._poll_inflight, None
            inflight.succeed()
