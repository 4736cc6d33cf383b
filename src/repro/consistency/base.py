"""Interfaces for update methods and update infrastructures.

The paper factors consistency maintenance into two orthogonal choices:

- the *update method* (how a replica learns about updates): TTL, Push,
  server-based Invalidation, or the proposed self-adaptive switch --
  implemented as :class:`ServerPolicy` subclasses attached to servers,
  plus a provider-side hook wired by the experiment;
- the *update infrastructure* (who talks to whom): unicast star,
  broadcast, or a proximity-aware multicast tree -- implemented as
  :class:`Infrastructure` subclasses that wire ``upstream`` / ``children``
  links between actors.
"""

from __future__ import annotations

from typing import Generator, List, Optional, Tuple, TYPE_CHECKING

from ..network.message import FETCH, POLL, POLL_RESPONSE, SWITCH_NOTICE, Message
from ..sim.engine import Event
from ..sim.process import kickoff
from ..sim.rng import RandomStream

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..cdn.provider import ProviderActor
    from ..cdn.server import ServerActor

__all__ = ["ServerPolicy", "Infrastructure", "FETCH_TIMEOUT_S"]

#: Bound on how long a recovery fetch waits for its upstream (down, or
#: the request or the reply lost): the replica then answers with what
#: it holds, and the next trigger fetches again.
FETCH_TIMEOUT_S = 60.0


class ServerPolicy:
    """Server-side half of an update method.

    Subclasses override the hooks they need; the defaults describe a
    replica that never polls and refetches its copy on demand once an
    invalidation notice has marked it stale.

    A *looping* policy (``loops``) polls on its own schedule, and every
    polling method shares one loop: :meth:`_begin` waits a random phase,
    then takes the policy's :meth:`_first_step`; :meth:`_sleep` waits
    one ``ttl_s``, then :meth:`_poll` opens a round bounded by
    ``poll_timeout_s``; :meth:`_on_poll_reply` closes it and hands the
    outcome to :meth:`_after_poll`, the policy's decision.  The steps
    run as callbacks on the events a process would wait on -- a kickoff
    where the process would start, a timeout per sleep, the request's
    waiter per poll -- so the loop schedules the same heap events
    without resuming a generator at each.  Every step returns at once
    when ``_looping`` is clear: that flag is how :meth:`stop` ends the
    loop.
    """

    #: Human-readable method name ("ttl", "push", ...).
    method_name: str = "base"

    #: Whether :meth:`start` runs a loop (:meth:`_begin` is its first step).
    loops: bool = False

    def __init__(self, ttl_s: float = float("inf"), stream: Optional[RandomStream] = None) -> None:
        if ttl_s <= 0:
            raise ValueError("ttl_s must be positive")
        self.server: Optional["ServerActor"] = None
        #: The polling period, which is also the TTL a refreshed body is
        #: stored with; a replica that is only ever invalidated never
        #: expires its copy.
        self.ttl_s = ttl_s
        #: Draws the loop's phase (``None``: the loop starts at once).
        self.stream = stream
        #: How long the loop's poll waits for its reply.
        self.poll_timeout_s = ttl_s
        #: The waiter of the refresh in flight (see :meth:`_refresh`).
        self._refreshing: Optional[Event] = None
        #: The loop runs between start() and stop(); the poll it opened last.
        self._looping = False
        self._round: Optional[Message] = None

    def bind(self, server: "ServerActor") -> None:
        """Attach the policy to its server (called by the server ctor)."""
        if self.server is not None:
            raise RuntimeError("policy already bound to %r" % (self.server,))
        self.server = server

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def start(self) -> None:
        """Start the policy's loop, if it has one (the server calls this
        once, when it starts): :meth:`_begin` runs at a kickoff, where a
        process started now would take its first step."""
        if self.loops:
            self._looping = True
            kickoff(self.server.env, self._begin)

    def stop(self) -> None:
        """End the loop: the server is replacing this policy (HAT
        supernode failover).  The loop stops at its current wait.  The
        open poll's entry goes without a trace: a late response is
        dropped at dispatch, and the wheel still ends the waiter, whose
        callback finds the loop stopped."""
        self._looping = False
        if self._round is not None:
            self.server._pending.pop(self._round.seq, None)

    # ------------------------------------------------------------------
    # the poll loop
    # ------------------------------------------------------------------
    def _begin(self, event: Event) -> None:
        """Wait a random phase in ``[0, ttl_s)`` -- replicas poll out of
        step, the paper's assumption in Sec. 3.4.1 -- then take the
        policy's :meth:`_first_step`."""
        if not self._looping:
            return
        if self.stream is None:
            self._first_step(event)
        else:
            phase = self.stream.uniform(0.0, self.ttl_s)
            self.server.env.timeout(phase).callbacks.append(self._first_step)

    def _first_step(self, event: Event) -> None:
        """The loop's step once its phase has passed: by default, sleep
        one period and poll."""
        self._sleep(event)

    def _sleep(self, _event: Event) -> None:
        """Poll one ``ttl_s`` from now."""
        if not self._looping:
            return
        self.server.env.timeout(self.ttl_s).callbacks.append(self._poll)

    def _poll(self, _event: Event) -> None:
        """Open one poll round; :meth:`_on_poll_reply` closes it."""
        if not self._looping:
            return
        self._round, waiter = self._open_round(self.poll_timeout_s)
        waiter.callbacks.append(self._on_poll_reply)

    def _on_poll_reply(self, waiter: Event) -> None:
        """Close the round, then let the policy decide what follows."""
        if not self._looping:
            return
        self._after_poll(self._close_round(self._round, waiter.value, self.ttl_s), waiter)

    def _after_poll(self, got_update: bool, event: Event) -> None:
        """The policy's decision once a round has closed (*got_update*:
        the reply carried a new body).  By default, poll on."""
        self._sleep(event)

    def _announce(self, mode: str) -> None:
        """Send the upstream the switch notice: this replica now runs in
        *mode*, which tells the upstream whether to push to it, notify
        it, or leave it to poll."""
        server = self.server
        server.send(
            SWITCH_NOTICE,
            server.upstream,
            server.content.light_size_kb,
            version=server.cached_version,
            payload=mode,
        )

    # ------------------------------------------------------------------
    # message hooks
    # ------------------------------------------------------------------
    def on_push(self, message: Message) -> None:
        """A pushed content body arrived."""
        # Unexpected for pull-only methods, but harmless: applying a
        # fresher body can never hurt consistency.
        self.server.apply_version(message.version)

    def on_invalidate(self, message: Message) -> None:
        """An invalidation notice arrived."""
        self.server.mark_invalidated(message.version)

    # ------------------------------------------------------------------
    # on-demand refresh
    # ------------------------------------------------------------------
    def ensure_fresh(self) -> Optional[Event]:
        """Bring the cache to a servable state before answering.

        Used both on the user-serving path and when answering a child's
        poll/fetch (so staleness does not cascade down a tree).  Returns
        ``None`` when the replica can answer now, else the waiter of the
        one refresh in flight (:meth:`_refresh`): the server appends its
        answer to the waiter's callbacks.  By default an invalidated
        copy is fetched again.
        """
        if not self.server.cache.invalidated:
            return None
        return self._refresh()

    def serve(self, message: Message) -> Optional[Event]:
        """Prepare to answer the user request *message*: the
        :meth:`ensure_fresh` contract, called once per request.  The
        server then answers with its cached version."""
        return self.ensure_fresh()

    def _refresh(self) -> Event:
        """The one refresh in flight, opened by the first trigger that
        finds none: triggers that arrive meanwhile (several users, or a
        user plus a child's poll or fetch) share it.

        Returns the request's waiter.  Its first callback closes the
        round; the callbacks the triggers append after it -- the
        server's answers -- run in the same frame, in the order they
        were added, when the reply is delivered (or the wheel times the
        request out).
        """
        waiter = self._refreshing
        if waiter is None:
            message, waiter = self._open_refresh()

            def close(waiter: Event) -> None:
                self._refreshing = None
                self._close_refresh(message, waiter.value)

            waiter.callbacks.append(close)
            self._refreshing = waiter
        return waiter

    def _open_refresh(self) -> Tuple[Message, Event]:
        """Send the on-demand refresh request: a FETCH of the body."""
        server = self.server
        return server.open_request(
            FETCH,
            server.upstream,
            server.content.light_size_kb,
            timeout=FETCH_TIMEOUT_S,
        )

    def _close_refresh(self, message: Message, response: Optional[Message]) -> None:
        """Apply the refresh's *response* (``None``: timed out)."""
        server = self.server
        if server.close_request(message, response) is not None:
            server.apply_version(response.version, ttl=self.ttl_s)
        tracer = server.env.tracer
        if tracer.enabled:
            tracer.emit(
                server.env._now, "fetch_round", server.node.node_id,
                recovered=response is not None,
            )

    # ------------------------------------------------------------------
    # one poll round
    # ------------------------------------------------------------------
    def poll_once(self) -> Generator:
        """One poll round-trip, bounded by the TTL, for a process to
        ``yield from``; returns True if an update was received."""
        message, waiter = self._open_round(self.ttl_s)
        response = yield waiter
        return self._close_round(message, response, self.ttl_s)

    def _open_round(self, timeout: float) -> Tuple[Message, Event]:
        """Poll the upstream with the cached version; the reply (or
        ``None`` after *timeout*) fires the returned waiter."""
        server = self.server
        return server.open_request(
            POLL,
            server.upstream,
            server.content.light_size_kb,
            payload=server.cache.version,
            timeout=timeout,
        )

    def _close_round(self, message: Message, response: Optional[Message], ttl: float) -> bool:
        """Apply the poll's *response*, storing a body with *ttl*; True
        if it carried an update."""
        server = self.server
        env = server.env
        timed_out = server.close_request(message, response) is None
        got_update = not timed_out and response.kind is POLL_RESPONSE
        if got_update:
            server.apply_version(response.version, ttl=ttl)
        elif not timed_out:
            # Not modified: the copy is current for another TTL.  An
            # invalidation mark, if any, stays: only a body clears it.
            server.cache.renew(env._now, ttl)
        tracer = env.tracer
        if tracer.enabled:
            tracer.emit(
                env._now, "poll_round", server.node.node_id,
                got_update=got_update, timed_out=timed_out,
            )
        return got_update


class Infrastructure:
    """Wires the update-dissemination links between actors."""

    name: str = "base"

    def wire(self, provider: "ProviderActor", servers: List["ServerActor"]) -> None:
        """Set ``upstream`` / ``children`` on the given actors."""
        raise NotImplementedError

    def depth_of(self, server: "ServerActor") -> int:
        """Distance (in overlay hops) from the provider to *server*."""
        raise NotImplementedError
