"""Actor base classes.

An :class:`Actor` owns a :class:`~repro.network.node.NetworkNode`,
consumes the messages the fabric delivers to it, and opens requests
whose response fires a waiter (a response's ``payload`` is the ``seq``
of the request it answers).

:class:`UpdateSourceMixin` is shared by the provider and by content
servers that serve updates to others (multicast-tree parents, HAT
supernodes): it answers polls and fetches from the actor's current
version and knows how to push / invalidate / notify downstream nodes.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Tuple

from ..network.link import NetworkFabric
from ..network.message import (
    CONTENT_RESPONSE,
    FETCH_RESPONSE,
    INVALIDATE,
    POLL_NOT_MODIFIED,
    POLL_RESPONSE,
    PUSH_UPDATE,
    Message,
    MessageKind,
)
from ..network.node import NetworkNode
from ..sim.engine import Environment, Event

__all__ = ["Actor", "UpdateSourceMixin", "RESPONSE_KINDS"]

#: Kinds that answer an earlier request; the ``payload`` is its ``seq``.
RESPONSE_KINDS = frozenset({POLL_RESPONSE, POLL_NOT_MODIFIED, FETCH_RESPONSE, CONTENT_RESPONSE})


class Actor:
    """Base class for the provider and server actors.  End users are
    not actors: :class:`~repro.cdn.cohort.UserCohort` runs them all."""

    def __init__(self, env: Environment, node: NetworkNode, fabric: NetworkFabric) -> None:
        self.env = env
        self.node = node
        self.fabric = fabric
        self._pending: Dict[int, Event] = {}
        # The fabric hands delivered messages straight to
        # :meth:`_consume` at the delivery pop.
        node.consumer = self._consume

    # ------------------------------------------------------------------
    # messaging
    # ------------------------------------------------------------------
    def send(
        self,
        kind: MessageKind,
        dst: NetworkNode,
        size_kb: float,
        version: Optional[int] = None,
        payload: Any = None,
    ) -> Message:
        """Fire-and-forget send; returns the message (already in flight)."""
        message = Message(kind, self.node, dst, size_kb, version, payload)
        self.fabric.send(message)
        return message

    def reply(
        self,
        request: Message,
        kind: MessageKind,
        size_kb: float,
        version: Optional[int] = None,
    ) -> Message:
        """Send a response correlated to *request*."""
        message = Message(kind, self.node, request.src, size_kb, version, request.seq)
        self.fabric.send(message)
        return message

    def open_request(
        self,
        kind: MessageKind,
        dst: NetworkNode,
        size_kb: float,
        version: Optional[int] = None,
        payload: Any = None,
        timeout: Optional[float] = None,
    ) -> Tuple[Message, Event]:
        """Send a request; returns it with the waiter its response will
        trigger.

        The response (always a Message) fires the waiter's callbacks
        synchronously at its delivery; with a *timeout*, the timer wheel
        succeeds the waiter with ``None`` at exactly ``now + timeout``
        through the heap instead, unless the response wins the race.  No
        timeout event, no explicit cancel -- a won race leaves a
        lazily-skipped slot in the wheel.  Pass the waiter's value to
        :meth:`close_request`.  *payload* is sent as given.
        """
        message = Message(kind, self.node, dst, size_kb, version, payload)
        waiter = Event(self.env)
        self._pending[message.seq] = waiter
        self.fabric.send(message)
        if timeout is not None:
            self.env.timers.arm(timeout, waiter)
        return message, waiter

    def close_request(self, message: Message, response: Optional[Message]) -> Optional[Message]:
        """Finish the request *message* with its waiter's value: a
        ``None`` response (timed out) forgets the request, so a late
        response is dropped, and is traced as ``msg_timeout``."""
        if response is None:
            self._pending.pop(message.seq, None)
            tracer = self.env.tracer
            if tracer.enabled:
                tracer.emit(
                    self.env.now, "msg_timeout", self.node.node_id,
                    **message.trace_detail()
                )
        return response

    # ------------------------------------------------------------------
    # dispatch
    # ------------------------------------------------------------------
    def _consume(self, message: Message) -> None:
        """Dispatch one message; called by the fabric at delivery time
        (the fabric drops what reaches a down node before this)."""
        if message.kind in RESPONSE_KINDS:
            self._dispatch_response(message)
        else:
            self.handle(message)

    def _dispatch_response(self, message: Message) -> None:
        waiter = self._pending.pop(message.payload, None)
        if waiter is not None and not waiter.triggered:
            # Fire the waiter synchronously instead of round-tripping
            # through the heap.  We are already inside the delivery
            # pop's callback cascade; the requester resumes here exactly
            # as it would at the very next pop of the same instant, and
            # anything it schedules lands after all already-queued work
            # either way (no other event can carry this exact jittered
            # timestamp).
            callbacks = waiter.callbacks
            if callbacks is None:  # pragma: no cover - cancelled waiter
                return
            waiter._value = message
            waiter.callbacks = None
            for callback in callbacks:
                callback(waiter)
        # Responses without a waiter (e.g. the requester timed out or the
        # actor restarted) are dropped -- matching UDP-style semantics.

    def handle(self, message: Message) -> None:
        """Handle a non-response message; overridden by subclasses."""
        raise NotImplementedError(
            "%s cannot handle %s" % (type(self).__name__, message.kind)
        )


class UpdateSourceMixin:
    """Behaviour of an actor that others poll / fetch / subscribe to.

    Requires the host class to provide ``env``, ``node``, ``fabric``,
    ``content``, ``reply``/``send`` (from :class:`Actor`) and a
    ``source_version()`` method returning the version this actor can
    currently serve.
    """

    def init_source(self) -> None:
        #: Downstream nodes that receive pushes / invalidations
        #: (infrastructure children: all servers for unicast, tree
        #: children for multicast, supernodes for HAT).
        self.children: List[NetworkNode] = []
        #: Nodes that switched to Invalidation in the self-adaptive
        #: method (Algorithm 1), mapped to whether an invalidation
        #: notice has already been sent to them since they switched.
        #: One notice suffices: the member stays invalid until its next
        #: visit-triggered poll, so later updates in the same burst are
        #: aggregated for free.
        self.adaptive_members: Dict[NetworkNode, bool] = {}
        #: Members that subscribed to direct pushes (the generic dynamic
        #: method of repro.core.dynamic; plain Push wires ``children``
        #: instead and does not use this).  A dict used as an
        #: insertion-ordered set: pushes go out in subscription order,
        #: not in the nodes' hash (memory address) order.
        self.push_members: Dict[NetworkNode, None] = {}

    def source_version(self) -> int:
        raise NotImplementedError

    # -- downstream actions ---------------------------------------------
    def push_children(self, version: int) -> None:
        """Push the new content body to every child (Push method)."""
        # Built and sent here, with no ``Actor.send`` frame per child:
        # a unicast provider runs the loop body once per server per update.
        src = self.node
        size_kb = self.content.update_size_kb
        send = self.fabric.send
        for child in self.children:
            send(Message(PUSH_UPDATE, src, child, size_kb, version))

    def invalidate_children(self, version: int) -> None:
        """Send an invalidation notice to every child."""
        src = self.node
        size_kb = self.content.light_size_kb
        send = self.fabric.send
        for child in self.children:
            send(Message(INVALIDATE, src, child, size_kb, version))

    def notify_adaptive_members(self, version: int) -> None:
        """Invalidate members in Invalidation mode not yet notified."""
        # Membership insertion order is the (deterministic) registration
        # order, so iterating the dict view is run-stable.
        for member, notified in list(self.adaptive_members.items()):  # repro: noqa REP007 -- insertion order = deterministic registration order
            if notified:
                continue
            self.adaptive_members[member] = True
            self.send(
                INVALIDATE, member, self.content.light_size_kb, version=version
            )

    def serve_dynamic_members(self, version: int) -> None:
        """Provider half of the generic dynamic method: push bodies to
        push-subscribed members, invalidate invalidation-mode members.
        TTL-mode members simply poll and need nothing here."""
        for member in list(self.push_members):
            self.send(
                PUSH_UPDATE,
                member,
                self.content.update_size_kb,
                version=version,
            )
        self.notify_adaptive_members(version)

    # -- upstream-facing handlers ----------------------------------------
    def handle_poll(self, message: Message) -> None:
        """Answer a TTL poll: full body if the poller is behind."""
        current = self.source_version()
        if current > message.payload:
            self.reply(
                message,
                POLL_RESPONSE,
                self.content.update_size_kb,
                version=current,
            )
        else:
            self.reply(
                message,
                POLL_NOT_MODIFIED,
                self.content.light_size_kb,
                version=current,
            )

    def handle_fetch(self, message: Message) -> None:
        """Answer an invalidation-triggered fetch: always the full body."""
        self.reply(
            message,
            FETCH_RESPONSE,
            self.content.update_size_kb,
            version=self.source_version(),
        )
        # A member that stays in invalidation mode (the generic dynamic
        # method) is now current again and must be notified of the NEXT
        # update too.  Harmless for Algorithm 1 members, which leave the
        # set via their switch-to-TTL notice right after this fetch.
        if message.src in self.adaptive_members:
            self.adaptive_members[message.src] = False

    def handle_switch(self, message: Message) -> None:
        """Track a member switching between TTL and Invalidation modes."""
        mode = message.payload
        if mode == "invalidation":
            self.push_members.pop(message.src, None)
            # If the member is behind already (an update happened while
            # its switch notice was in flight), notify it immediately.
            if self.source_version() > (message.version or 0):
                self.adaptive_members[message.src] = True
                self.send(
                    INVALIDATE,
                    message.src,
                    self.content.light_size_kb,
                    version=self.source_version(),
                )
            else:
                self.adaptive_members[message.src] = False
        elif mode == "push":
            self.adaptive_members.pop(message.src, None)
            self.push_members[message.src] = None
            # Bring the new subscriber up to date immediately.
            if self.source_version() > (message.version or 0):
                self.send(
                    PUSH_UPDATE,
                    message.src,
                    self.content.update_size_kb,
                    version=self.source_version(),
                )
        elif mode == "ttl":
            self.adaptive_members.pop(message.src, None)
            self.push_members.pop(message.src, None)
        else:
            raise ValueError("malformed switch notice: %r" % (mode,))
