"""The content provider (origin server).

The provider applies the content's update schedule to its own copy and,
depending on the configured update method, pushes bodies, sends
invalidation notices, notifies self-adaptive members, or simply waits to
be polled.  It also answers polls and fetches from servers.
"""

from __future__ import annotations

from typing import Callable, List

from ..network.link import NetworkFabric
from ..network.message import Message, MessageKind
from ..network.node import NetworkNode
from ..sim.engine import Environment
from .base import Actor, UpdateSourceMixin
from .content import LiveContent

__all__ = ["ProviderActor"]


class ProviderActor(Actor, UpdateSourceMixin):
    """The origin: ground truth for the live content."""

    def __init__(
        self,
        env: Environment,
        node: NetworkNode,
        fabric: NetworkFabric,
        content: LiveContent,
        staleness_s: float = 0.0,
    ) -> None:
        super().__init__(env, node, fabric)
        self.init_source()
        self.content = content
        #: Optional provider-side staleness (Section 3.4.2 measures a
        #: small average origin inconsistency of ~3.4 s); zero by default.
        self.staleness_s = staleness_s
        self._version = content.version_at(env.now)
        #: Hooks ``f(version)`` called when a new version is applied;
        #: the experiment wires the update method's provider half here
        #: (push_children / invalidate_children / notify_adaptive_members).
        self.on_update_hooks: List[Callable[[int], None]] = []
        self._update_proc = env.process(self._update_loop())

    # ------------------------------------------------------------------
    @property
    def current_version(self) -> int:
        return self._version

    def source_version(self) -> int:
        return self._version

    def use_push(self) -> None:
        """Wire the Push provider half: push bodies to children."""
        self.on_update_hooks.append(self.push_children)

    def use_invalidation(self) -> None:
        """Wire the Invalidation provider half: notify children."""
        self.on_update_hooks.append(self.invalidate_children)

    def use_self_adaptive(self) -> None:
        """Wire the self-adaptive provider half (Algorithm 1, provider
        side): invalidate only members currently in Invalidation mode."""
        self.on_update_hooks.append(self.notify_adaptive_members)

    def use_dynamic(self) -> None:
        """Wire the generic dynamic provider half: push to push-mode
        members, invalidate invalidation-mode members (see
        :mod:`repro.core.dynamic`)."""
        self.on_update_hooks.append(self.serve_dynamic_members)

    # ------------------------------------------------------------------
    def _update_loop(self):
        for index, update_time in enumerate(self.content.update_times, start=1):
            when = update_time + self.staleness_s
            delay = when - self.env.now
            if delay > 0:
                yield self.env.timeout(delay)
            self._version = index
            tracer = self.env.tracer
            if tracer.enabled:
                tracer.emit(
                    self.env.now, "content_update", self.node.node_id, version=index
                )
            for hook in self.on_update_hooks:
                hook(index)

    # ------------------------------------------------------------------
    def handle(self, message: Message) -> None:
        if message.kind is MessageKind.POLL:
            self.handle_poll(message)
        elif message.kind is MessageKind.FETCH:
            self.handle_fetch(message)
        elif message.kind is MessageKind.SWITCH_NOTICE:
            self.handle_switch(message)
        elif message.kind is MessageKind.CONTENT_REQUEST:
            # End-users normally hit edge servers, but the paper also
            # measures requests served directly by providers (Fig. 7).
            self.reply(
                message,
                MessageKind.CONTENT_RESPONSE,
                self.content.update_size_kb,
                version=self._version,
            )
        elif message.kind is MessageKind.TREE_MAINTENANCE:
            pass  # the provider is the tree root; nothing to repair
        else:
            raise NotImplementedError("provider cannot handle %s" % message.kind)
