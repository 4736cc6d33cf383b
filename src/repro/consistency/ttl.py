"""TTL-based consistency maintenance.

Two flavours:

- *eager* (the paper's Section 4 method): the server polls its upstream
  every TTL seconds regardless of demand;
- *lazy* (the behaviour the paper measures in the real CDN, Section
  3.4.1): the cached copy is served while its TTL is unexpired and only
  refetched on the first request after expiry.
"""

from __future__ import annotations

from typing import Generator, Optional, Tuple

from ..network.message import POLL, POLL_RESPONSE, Message
from ..sim.engine import Event
from ..sim.process import kickoff
from ..sim.rng import RandomStream
from .base import ServerPolicy

__all__ = ["TTLPolicy"]


class TTLPolicy(ServerPolicy):
    """Poll the upstream whenever the TTL expires.

    The eager loop runs as callbacks on the events a poll-loop process
    would wait on -- a kickoff where the process would start, a timeout
    per sleep, the request's waiter per poll -- so it schedules the same
    heap events without resuming a generator at each.
    """

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
        #: Eager loop: running between start() and stop(); the poll in
        #: flight and the time it started.
        self._looping = False
        self._round: Optional[Message] = None
        self._round_started = 0.0

    # ------------------------------------------------------------------
    # eager loop
    # ------------------------------------------------------------------
    def start(self) -> None:
        if self.eager:
            self._looping = True
            kickoff(self.server.env, self._first_poll)

    def stop(self) -> None:
        # Every loop step checks the flag first, so a pending sleep ends
        # the loop.  The open poll's entry goes without a trace: a late
        # response is dropped at dispatch, and the wheel still ends the
        # waiter, whose callback finds the loop stopped.
        self._looping = False
        if self._round is not None:
            self.server._pending.pop(self._round.seq, None)

    def _initial_offset(self) -> float:
        # Desynchronised first polls: each server starts at a random
        # phase in [0, TTL), exactly the paper's assumption in Sec 3.4.1.
        if self.stream is None:
            return 0.0
        return self.stream.uniform(0.0, self.ttl_s)

    def _first_poll(self, _event: Event) -> None:
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
        self._round, waiter = self._open_round()
        waiter.callbacks.append(self._on_poll_reply)

    def _on_poll_reply(self, waiter: Event) -> None:
        if not self._looping:
            return
        self._close_round(self._round, waiter.value)
        # The sleep is measured from the *start* of the poll, so the
        # period stays anchored at one TTL even when the poll itself
        # takes time.  Sleeping a full TTL *after* a timed-out poll
        # (default poll_timeout_s == ttl_s) used to double the
        # effective period to ~2xTTL exactly when the upstream was
        # absent -- the paper's Fig. 10 scenario.
        env = self.server.env
        elapsed = env._now - self._round_started
        env.timeout(max(0.0, self.ttl_s - elapsed)).callbacks.append(self._poll)

    # ------------------------------------------------------------------
    # one poll round
    # ------------------------------------------------------------------
    def poll_once(self) -> Generator:
        """One poll round-trip; returns True if an update was received."""
        message, waiter = self._open_round()
        response = yield waiter
        return self._close_round(message, response)

    def _open_round(self) -> Tuple[Message, Event]:
        server = self.server
        return server.open_request(
            POLL,
            server.upstream,
            server.content.light_size_kb,
            payload={"have": server.cache.version},
            timeout=self.poll_timeout_s,
        )

    def _close_round(self, message: Message, response: Optional[Message]) -> bool:
        """Apply the poll's *response*; True if it carried an update."""
        server = self.server
        env = server.env
        tracer = env.tracer
        if server.close_request(message, response) is None:
            if tracer.enabled:
                tracer.emit(
                    env._now, "poll_round", server.node.node_id,
                    got_update=False, timed_out=True,
                )
            return False
        if response.kind is POLL_RESPONSE:
            server.apply_version(response.version, ttl=self.ttl_s)
            if tracer.enabled:
                tracer.emit(
                    env._now, "poll_round", server.node.node_id,
                    got_update=True, timed_out=False,
                )
            return True
        # Not modified: refresh the entry's TTL without a new body.
        entry = server.cache
        entry.store(entry.version, env._now, self.ttl_s)
        if tracer.enabled:
            tracer.emit(
                env._now, "poll_round", server.node.node_id,
                got_update=False, timed_out=False,
            )
        return False

    # ------------------------------------------------------------------
    # lazy mode
    # ------------------------------------------------------------------
    def ensure_fresh(self) -> Optional[Generator]:
        """Lazy mode: refetch on demand once the TTL has expired.

        Concurrent requests while a poll is in flight share that poll
        rather than issuing duplicates.
        """
        if self.eager:
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
        return self._shared_refresh(self.poll_once)
