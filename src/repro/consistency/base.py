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

from typing import Callable, Generator, Iterable, List, Optional, TYPE_CHECKING

from ..network.message import Message
from ..sim.engine import Event
from ..sim.process import Interrupt, Process

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..cdn.provider import ProviderActor
    from ..cdn.server import ServerActor

__all__ = ["ServerPolicy", "Infrastructure"]


def _supervise(generator: Generator) -> Generator:
    """Run a policy process; the interrupt of :meth:`ServerPolicy.stop`
    ends it cleanly instead of crashing the simulation."""
    try:
        yield from generator
    except Interrupt:
        return


class ServerPolicy:
    """Server-side half of an update method.

    Subclasses override the hooks they need; the defaults describe a
    purely passive replica (never refreshes, ignores notices).
    """

    #: Human-readable method name ("ttl", "push", ...).
    method_name: str = "base"

    def __init__(self) -> None:
        self.server: Optional["ServerActor"] = None
        self._procs: List[Process] = []
        #: Succeeds when the refresh in flight (if any) ends.
        self._refreshing: Optional[Event] = None

    def bind(self, server: "ServerActor") -> None:
        """Attach the policy to its server (called by the server ctor)."""
        if self.server is not None:
            raise RuntimeError("policy already bound to %r" % (self.server,))
        self.server = server

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def start(self) -> None:
        """Start the policy's background loops (the server calls this
        once, when it starts): each of :meth:`processes` runs as a
        process."""
        env = self.server.env
        self._procs = [env.process(_supervise(generator)) for generator in self.processes()]

    def stop(self) -> None:
        """End the background loops: the server is replacing this policy
        (HAT supernode failover).  A loop stops at its current wait; a
        response still in flight to it is dropped."""
        for process in self._procs:
            if process.is_alive:
                process.interrupt("policy replaced")
        self._procs = []

    def processes(self) -> Iterable[Generator]:
        """Background processes :meth:`start` runs (e.g. poll loops)."""
        return []

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

    def ensure_fresh(self) -> Optional[Generator]:
        """Bring the cache to a servable state before answering.

        Used both on the user-serving path and when answering a child's
        poll/fetch (so staleness does not cascade down a tree).  Returns
        ``None`` when the replica can answer now, else a generator that
        refreshes it (to be run with ``yield from``); the server answers
        when it finishes.
        """
        return None

    def _shared_refresh(self, refresh: Callable[[], Generator]) -> Generator:
        """Run ``refresh()`` as the one refresh in flight: triggers that
        arrive meanwhile (several users, or a user plus a child's poll
        or fetch) wait for it instead of duplicating it."""
        if self._refreshing is not None:
            yield self._refreshing
            return
        self._refreshing = self.server.env.event()
        try:
            yield from refresh()
        finally:
            done, self._refreshing = self._refreshing, None
            done.succeed()

    def serve(self, message: Message) -> Optional[Generator]:
        """Prepare to answer the user request *message*: the
        :meth:`ensure_fresh` contract, called once per request.  The
        server then answers with its cached version."""
        return self.ensure_fresh()


class Infrastructure:
    """Wires the update-dissemination links between actors."""

    name: str = "base"

    def wire(self, provider: "ProviderActor", servers: List["ServerActor"]) -> None:
        """Set ``upstream`` / ``children`` on the given actors."""
        raise NotImplementedError

    def depth_of(self, server: "ServerActor") -> int:
        """Distance (in overlay hops) from the provider to *server*."""
        raise NotImplementedError
