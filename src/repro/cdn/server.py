"""Edge content servers.

A :class:`ServerActor` caches the live content and keeps it fresh
according to a pluggable *update-method policy* (TTL / Push /
Invalidation / self-adaptive -- see :mod:`repro.consistency`).  Servers
can also act as update sources for other servers (multicast-tree parents
and HAT supernodes) via :class:`~repro.cdn.base.UpdateSourceMixin`.
"""

from __future__ import annotations

from typing import Callable, List, Optional, Tuple

from ..network.link import NetworkFabric
from ..network.message import (
    CONTENT_REQUEST,
    CONTENT_RESPONSE,
    FETCH,
    INVALIDATE,
    POLL,
    PUSH_UPDATE,
    SWITCH_NOTICE,
    TREE_MAINTENANCE,
    Message,
)
from ..network.node import NetworkNode
from ..sim.engine import Environment, Event
from .base import Actor, UpdateSourceMixin
from .cache import CacheEntry
from .content import LiveContent

__all__ = ["ServerActor", "schedule_absence"]


class ServerActor(Actor, UpdateSourceMixin):
    """A CDN edge server replicating one live content object."""

    def __init__(
        self,
        env: Environment,
        node: NetworkNode,
        fabric: NetworkFabric,
        content: LiveContent,
        policy,
        upstream: Optional[NetworkNode] = None,
    ) -> None:
        super().__init__(env, node, fabric)
        self.init_source()
        self.content = content
        #: The one cached copy (version 0 until the first store).
        self.cache = CacheEntry()
        #: The node this server polls / fetches from (provider, tree
        #: parent, or HAT supernode).  Set by the infrastructure wiring.
        self.upstream = upstream
        #: Hooks ``f(version)`` run when a strictly newer version lands
        #: in the cache (used by supernodes to notify cluster members,
        #: and by the dynamic method to count updates).  Apply times need
        #: none: the cache's apply log records every newer write.
        self.on_apply_hooks: List[Callable[[int], None]] = []
        self.policy = policy
        policy.bind(self)
        self._started = False

    # ------------------------------------------------------------------
    def start(self) -> None:
        """Start the policy's loop, if it has one (idempotent)."""
        if self._started:
            return
        self._started = True
        self.policy.start()

    def replace_policy(self, policy) -> None:
        """Swap in a new update-method policy at runtime.

        Stops the old policy's loop, binds the new policy,
        and (if the server was already started) starts the new one.
        Used by HAT supernode failover, where a cluster member is
        promoted to a Push-fed supernode mid-run.
        """
        self.policy.stop()
        policy.bind(self)
        self.policy = policy
        if self._started:
            policy.start()

    @property
    def cached_version(self) -> int:
        return self.cache.version

    def source_version(self) -> int:
        return self.cache.version

    @property
    def is_invalidated(self) -> bool:
        return self.cache.invalidated

    def apply_version(self, version: int, ttl: float = float("inf")) -> bool:
        """Store *version*; returns ``True`` (and fires hooks) if newer."""
        env = self.env
        now = env._now
        newer = self.cache.store(version, now, ttl)
        tracer = env.tracer
        if tracer.enabled:
            tracer.emit(
                now, "cache_store", self.node.node_id,
                version=version, newer=newer,
            )
        if newer:
            for hook in self.on_apply_hooks:
                hook(version)
        return newer

    def mark_invalidated(self, version: Optional[int]) -> bool:
        stale = self.cache.invalidate(version)
        tracer = self.env.tracer
        if tracer.enabled:
            tracer.emit(
                self.env.now, "cache_invalidate", self.node.node_id,
                version=version, stale=stale,
            )
        return stale

    def apply_log(self) -> List[Tuple[float, int]]:
        """(time, version) cache-write history for metrics."""
        return self.cache.apply_log

    # ------------------------------------------------------------------
    def handle(self, message: Message) -> None:
        """Handle a non-response message at its delivery.

        Polls, fetches and content requests are answered in this frame
        when the policy can answer now (``ensure_fresh`` / ``serve``
        return ``None``); a replica that must refresh first answers in
        the frame where that refresh ends.
        """
        kind = message.kind
        if kind is PUSH_UPDATE:
            self.policy.on_push(message)
        elif kind is INVALIDATE:
            self.policy.on_invalidate(message)
        elif kind is POLL:
            # A stale intermediate (invalidation semantics) recovers
            # before answering, so staleness does not silently cascade
            # down a tree.
            refresh = self.policy.ensure_fresh()
            if refresh is None:
                self.handle_poll(message)
            else:
                self._answer_after(refresh, self.handle_poll, message)
        elif kind is FETCH:
            refresh = self.policy.ensure_fresh()
            if refresh is None:
                self.handle_fetch(message)
            else:
                self._answer_after(refresh, self.handle_fetch, message)
        elif kind is SWITCH_NOTICE:
            self.handle_switch(message)
        elif kind is CONTENT_REQUEST:
            refresh = self.policy.serve(message)
            if refresh is None:
                self._answer_content(message)
            else:
                self._answer_after(refresh, self._answer_content, message)
        elif kind is TREE_MAINTENANCE:
            pass  # handled by the infrastructure's repair process
        else:
            raise NotImplementedError("server cannot handle %s" % kind)

    def _answer_content(self, message: Message) -> None:
        self.reply(
            message, CONTENT_RESPONSE, self.content.update_size_kb, version=self.cache.version
        )

    @staticmethod
    def _answer_after(
        refresh: Event, answer: Callable[[Message], None], message: Message
    ) -> None:
        """Run ``answer(message)`` in the frame where *refresh* (the
        policy's refresh in flight) ends: after the policy has applied
        the body, and after the answers queued on it before this one."""
        refresh.callbacks.append(lambda _refresh: answer(message))


def schedule_absence(env: Environment, node: NetworkNode, start: float, duration: float):
    """Take *node* down during ``[start, start + duration)``.

    Models the server overloads / failures of Section 3.4.5: a down node
    neither transmits nor receives; in-flight messages to it are dropped.
    Overlapping windows nest: each window counts one active absence
    (:meth:`~repro.network.node.NetworkNode.mark_down` /
    :meth:`~repro.network.node.NetworkNode.mark_up`), so the node is up
    again only when *every* overlapping window has ended -- the first
    window's end no longer revives a node another window still holds
    down.  Up/down transitions are traced as ``node_down`` /
    ``node_up``.  Returns the injection process.
    """
    if duration <= 0:
        raise ValueError("duration must be positive")

    def injector():
        if start > env.now:
            yield env.timeout(start - env.now)
        node.mark_down()
        yield env.timeout(duration)
        node.mark_up()

    return env.process(injector())
