"""Server-based Invalidation.

On every update the provider sends a small invalidation notice to each
replica; a replica marks its copy stale and fetches the new body only
when the next end-user request actually needs it.  This saves traffic
when contents are updated more often than they are visited (Section 1).
"""

from __future__ import annotations

from typing import Generator, Optional

from ..network.message import FETCH, Message
from .base import ServerPolicy

__all__ = ["InvalidationPolicy"]


class InvalidationPolicy(ServerPolicy):
    """Mark stale on notice; fetch on demand; relay notices downstream."""

    method_name = "invalidation"

    def __init__(self, forward: bool = True, fetch_timeout_s: Optional[float] = 60.0) -> None:
        super().__init__()
        self.forward = forward
        self.fetch_timeout_s = fetch_timeout_s
        #: Newest version this replica has relayed downstream.
        self._relayed_version = -1

    # ------------------------------------------------------------------
    def on_invalidate(self, message: Message) -> None:
        self.server.mark_invalidated(message.version)
        version = message.version
        if self.forward and version > self._relayed_version:
            # Relay each version at most once, as push relays only a
            # newer body: on a graph with cycles (the broadcast overlay)
            # relaying every notice heard would circulate it forever.
            self._relayed_version = version
            self.server.invalidate_children(version)

    def ensure_fresh(self) -> Optional[Generator]:
        """Fetch the current body from upstream if our copy is stale.

        Concurrent triggers (several users, or a user plus a child's
        fetch) share one in-flight fetch instead of duplicating it.
        """
        if not self.server.is_invalidated:
            return None
        return self._shared_refresh(self._fetch)

    def _fetch(self) -> Generator:
        server = self.server
        response = yield from server.request(
            FETCH,
            server.upstream,
            server.content.light_size_kb,
            timeout=self.fetch_timeout_s,
        )
        if response is not None:
            server.apply_version(response.version)
        tracer = server.env.tracer
        if tracer.enabled:
            tracer.emit(
                server.env.now, "fetch_round", server.node.node_id,
                recovered=response is not None,
            )
