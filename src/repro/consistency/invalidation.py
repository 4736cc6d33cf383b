"""Server-based Invalidation.

On every update the provider sends a small invalidation notice to each
replica; a replica marks its copy stale and fetches the new body only
when the next end-user request actually needs it.  This saves traffic
when contents are updated more often than they are visited (Section 1).
"""

from __future__ import annotations

from ..network.message import Message
from .base import ServerPolicy

__all__ = ["InvalidationPolicy"]


class InvalidationPolicy(ServerPolicy):
    """Mark stale on notice; fetch on demand (the :class:`ServerPolicy`
    default); relay notices downstream."""

    method_name = "invalidation"

    def __init__(self) -> None:
        super().__init__()
        #: Newest version this replica has relayed downstream.
        self._relayed_version = -1

    # ------------------------------------------------------------------
    def on_invalidate(self, message: Message) -> None:
        self.server.mark_invalidated(message.version)
        version = message.version
        if version > self._relayed_version:
            # Relay each version at most once, as push relays only a
            # newer body: on a graph with cycles (the broadcast overlay)
            # relaying every notice heard would circulate it forever.
            self._relayed_version = version
            self.server.invalidate_children(version)
