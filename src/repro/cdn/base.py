"""Actor base classes.

An :class:`Actor` owns a :class:`~repro.network.node.NetworkNode`,
consumes the messages the fabric delivers to it, and provides a
synchronous request/response helper (requests and their responses are
correlated by the request's sequence number echoed in the response
payload).

:class:`UpdateSourceMixin` is shared by the provider and by content
servers that serve updates to others (multicast-tree parents, HAT
supernodes): it answers polls and fetches from the actor's current
version and knows how to push / invalidate / notify downstream nodes.
"""

from __future__ import annotations

from typing import Any, Dict, Generator, List, Optional

from ..network.link import NetworkFabric
from ..network.message import Message, MessageKind
from ..network.node import NetworkNode
from ..sim.engine import Environment, Event

__all__ = ["Actor", "UpdateSourceMixin", "RESPONSE_KINDS"]

#: Kinds that answer an earlier request and carry ``payload["req"]``.
RESPONSE_KINDS = frozenset(
    {
        MessageKind.POLL_RESPONSE,
        MessageKind.POLL_NOT_MODIFIED,
        MessageKind.FETCH_RESPONSE,
        MessageKind.CONTENT_RESPONSE,
    }
)


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
        message = Message(
            kind=kind, src=self.node, dst=dst, size_kb=size_kb, version=version, payload=payload
        )
        self.fabric.send(message)
        return message

    def reply(
        self,
        request: Message,
        kind: MessageKind,
        size_kb: float,
        version: Optional[int] = None,
        extra: Optional[dict] = None,
    ) -> Message:
        """Send a response correlated to *request*."""
        payload = {"req": request.seq}
        if extra:
            payload.update(extra)
        return self.send(kind, request.src, size_kb, version=version, payload=payload)

    def request(
        self,
        kind: MessageKind,
        dst: NetworkNode,
        size_kb: float,
        version: Optional[int] = None,
        payload: Optional[dict] = None,
        timeout: Optional[float] = None,
    ) -> Generator:
        """Send a request and wait for the correlated response.

        A generator to be used with ``yield from``; returns the response
        :class:`Message`, or ``None`` if *timeout* elapses first.
        """
        payload = dict(payload or {})
        message = Message(
            kind=kind, src=self.node, dst=dst, size_kb=size_kb, version=version, payload=payload
        )
        waiter = self.env.event()
        self._pending[message.seq] = waiter
        self.fabric.send(message)
        if timeout is None:
            response = yield waiter
            return response
        # The timer wheel succeeds the waiter with ``None`` at exactly
        # ``now + timeout`` unless the response (always a Message, never
        # None) wins the race.  No timeout event, no explicit cancel --
        # a won race leaves a lazily-skipped slot in the wheel.
        self.env.timers.arm(timeout, waiter)
        response = yield waiter
        if response is not None:
            return response
        self._pending.pop(message.seq, None)
        tracer = self.env.tracer
        if tracer.enabled:
            tracer.emit(
                self.env.now, "msg_timeout", self.node.node_id,
                **message.trace_detail()
            )
        return None

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
        req_seq = None
        if isinstance(message.payload, dict):
            req_seq = message.payload.get("req")
        waiter = self._pending.pop(req_seq, None) if req_seq is not None else None
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
            waiter._ok = True
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
        for child in self.children:
            self.send(
                MessageKind.PUSH_UPDATE,
                child,
                self.content.update_size_kb,
                version=version,
            )

    def invalidate_children(self, version: int) -> None:
        """Send an invalidation notice to every child."""
        for child in self.children:
            self.send(
                MessageKind.INVALIDATE, child, self.content.light_size_kb, version=version
            )

    def notify_adaptive_members(self, version: int) -> None:
        """Invalidate members in Invalidation mode not yet notified."""
        # Membership insertion order is the (deterministic) registration
        # order, so iterating the dict view is run-stable.
        for member, notified in list(self.adaptive_members.items()):  # repro: noqa REP007 -- insertion order = deterministic registration order
            if notified:
                continue
            self.adaptive_members[member] = True
            self.send(
                MessageKind.INVALIDATE, member, self.content.light_size_kb, version=version
            )

    def serve_dynamic_members(self, version: int) -> None:
        """Provider half of the generic dynamic method: push bodies to
        push-subscribed members, invalidate invalidation-mode members.
        TTL-mode members simply poll and need nothing here."""
        for member in list(self.push_members):
            self.send(
                MessageKind.PUSH_UPDATE,
                member,
                self.content.update_size_kb,
                version=version,
            )
        self.notify_adaptive_members(version)

    # -- upstream-facing handlers ----------------------------------------
    def handle_poll(self, message: Message) -> None:
        """Answer a TTL poll: full body if the poller is behind."""
        current = self.source_version()
        have = -1
        if isinstance(message.payload, dict):
            have = message.payload.get("have", -1)
        if current > have:
            self.reply(
                message,
                MessageKind.POLL_RESPONSE,
                self.content.update_size_kb,
                version=current,
            )
        else:
            self.reply(
                message,
                MessageKind.POLL_NOT_MODIFIED,
                self.content.light_size_kb,
                version=current,
            )

    def handle_fetch(self, message: Message) -> None:
        """Answer an invalidation-triggered fetch: always the full body."""
        self.reply(
            message,
            MessageKind.FETCH_RESPONSE,
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
        mode = None
        if isinstance(message.payload, dict):
            mode = message.payload.get("mode")
        if mode == "invalidation":
            self.push_members.pop(message.src, None)
            # If the member is behind already (an update happened while
            # its switch notice was in flight), notify it immediately.
            if self.source_version() > (message.version or 0):
                self.adaptive_members[message.src] = True
                self.send(
                    MessageKind.INVALIDATE,
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
                    MessageKind.PUSH_UPDATE,
                    message.src,
                    self.content.update_size_kb,
                    version=self.source_version(),
                )
        elif mode == "ttl":
            self.adaptive_members.pop(message.src, None)
            self.push_members.pop(message.src, None)
        else:
            raise ValueError("malformed switch notice: %r" % (message.payload,))
