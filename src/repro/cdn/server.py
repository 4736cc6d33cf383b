"""Edge content servers.

A :class:`ServerActor` caches the live content and keeps it fresh
according to a pluggable *update-method policy* (TTL / Push /
Invalidation / self-adaptive -- see :mod:`repro.consistency`).  Servers
can also act as update sources for other servers (multicast-tree parents
and HAT supernodes) via :class:`~repro.cdn.base.UpdateSourceMixin`.
"""

from __future__ import annotations

from typing import Any, Callable, Generator, List, Optional

from ..network.link import NetworkFabric
from ..network.message import Message, MessageKind
from ..network.node import NetworkNode
from ..sim.engine import Environment, Event
from .base import Actor, UpdateSourceMixin
from .cache import TTLCache
from .content import LiveContent

__all__ = ["ServerActor", "schedule_absence"]


def _task_driver(
    generator: Generator[Event, Any, Any], first: Event
) -> Generator[Event, Any, None]:
    """Drive *generator* (whose first yielded event is *first*) as a
    process, proxying both resume values and thrown exceptions.

    Used by :meth:`ServerActor._start_task`: the task
    body already ran up to its first ``yield``, so a plain ``yield from``
    would re-run it.  Exceptions are forwarded with ``throw`` so
    ``try``/``finally`` blocks inside the task (e.g. the invalidation
    policy's in-flight bookkeeping) behave exactly as under
    ``env.process(generator)``.
    """
    event = first
    while True:
        try:
            value = yield event
        except BaseException as exc:  # noqa: BLE001 - full proxy semantics
            try:
                event = generator.throw(exc)
            except StopIteration:
                return
        else:
            try:
                event = generator.send(value)
            except StopIteration:
                return


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
        self.cache = TTLCache()
        self.cache.entry(content.content_id)  # materialise version 0
        #: The node this server polls / fetches from (provider, tree
        #: parent, or HAT supernode).  Set by the infrastructure wiring.
        self.upstream = upstream
        #: Hooks ``f(version)`` run when a strictly newer version lands
        #: in the cache (used by supernodes to notify cluster members,
        #: and by experiments to record apply times).
        self.on_apply_hooks: List[Callable[[int], None]] = []
        self.policy = policy
        policy.bind(self)
        self._started = False
        self._policy_procs: List = []

    # ------------------------------------------------------------------
    def start(self) -> None:
        """Launch the policy's background processes (idempotent)."""
        if self._started:
            return
        self._started = True
        self._launch_policy_processes()

    def _launch_policy_processes(self) -> None:
        self._policy_procs = [
            self.env.process(self._supervise(generator))
            for generator in self.policy.processes()
        ]

    def _supervise(self, generator):
        """Run a policy process; a replace_policy interrupt ends it
        cleanly instead of crashing the simulation."""
        from ..sim.process import Interrupt

        try:
            yield from generator
        except Interrupt:
            return

    def replace_policy(self, policy) -> None:
        """Swap in a new update-method policy at runtime.

        Stops the old policy's background processes, binds the new
        policy, and (if the server was already started) launches the new
        policy's processes.  Used by HAT supernode failover, where a
        cluster member is promoted to a Push-fed supernode mid-run.
        """
        for process in self._policy_procs:
            if process.is_alive:
                process.interrupt("policy replaced")
        self._policy_procs = []
        policy.bind(self)
        self.policy = policy
        if self._started:
            self._launch_policy_processes()

    @property
    def cached_version(self) -> int:
        return self.cache.version_of(self.content.content_id)

    def source_version(self) -> int:
        return self.cached_version

    @property
    def is_invalidated(self) -> bool:
        return self.cache.entry(self.content.content_id).invalidated

    def apply_version(self, version: int, ttl: float = float("inf")) -> bool:
        """Store *version*; returns ``True`` (and fires hooks) if newer."""
        newer = self.cache.store(self.content.content_id, version, self.env.now, ttl)
        tracer = self.env.tracer
        if tracer.enabled:
            tracer.emit(
                self.env.now, "cache_store", self.node.node_id,
                version=version, newer=newer,
            )
        if newer:
            for hook in self.on_apply_hooks:
                hook(version)
        return newer

    def mark_invalidated(self, version: Optional[int]) -> bool:
        stale = self.cache.invalidate(self.content.content_id, version)
        tracer = self.env.tracer
        if tracer.enabled:
            tracer.emit(
                self.env.now, "cache_invalidate", self.node.node_id,
                version=version, stale=stale,
            )
        return stale

    def apply_log(self):
        """(time, version) cache-write history for metrics."""
        return self.cache.apply_log(self.content.content_id)

    def _start_task(self, generator: Generator[Event, Any, Any]) -> None:
        """Run a message-triggered task (poll/fetch answer, serve).

        The body runs synchronously up to its first ``yield`` -- the
        common eager-TTL / push / fresh-invalidation case completes
        without yielding at all, costing **zero** kernel events instead
        of a process + ``_Initialize`` pop -- and only tasks that
        actually wait get a driver process.
        """
        try:
            first = next(generator)
        except StopIteration:
            return
        self.env.process(_task_driver(generator, first))

    # ------------------------------------------------------------------
    def handle(self, message: Message) -> None:
        kind = message.kind
        if kind is MessageKind.PUSH_UPDATE:
            self.policy.on_push(message)
        elif kind is MessageKind.INVALIDATE:
            self.policy.on_invalidate(message)
        elif kind is MessageKind.POLL:
            self._start_task(self._answer_poll(message))
        elif kind is MessageKind.FETCH:
            self._start_task(self._answer_fetch(message))
        elif kind is MessageKind.SWITCH_NOTICE:
            self.handle_switch(message)
        elif kind is MessageKind.CONTENT_REQUEST:
            self._start_task(self._serve(message))
        elif kind is MessageKind.TREE_MAINTENANCE:
            pass  # handled by the infrastructure's repair process
        else:
            raise NotImplementedError("server cannot handle %s" % kind)

    def _answer_poll(self, message: Message):
        # A stale intermediate (invalidation semantics) recovers before
        # answering, so staleness does not silently cascade down a tree.
        yield from self.policy.ensure_fresh()
        self.handle_poll(message)

    def _answer_fetch(self, message: Message):
        yield from self.policy.ensure_fresh()
        self.handle_fetch(message)

    def _serve(self, message: Message):
        version = yield from self.policy.serve(message)
        self.reply(
            message,
            MessageKind.CONTENT_RESPONSE,
            self.content.update_size_kb,
            version=version,
        )


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
