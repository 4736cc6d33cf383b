"""Push-based consistency maintenance.

The provider (or tree parent) transmits the new content body to every
downstream replica immediately after each update.  Replicas are passive;
in a multicast tree each replica relays fresh bodies to its children.
"""

from __future__ import annotations

from ..network.message import Message
from .base import ServerPolicy

__all__ = ["PushPolicy"]


class PushPolicy(ServerPolicy):
    """Apply pushed bodies and relay fresh ones downstream."""

    method_name = "push"

    def on_push(self, message: Message) -> None:
        # Relay to ``server.children`` (multicast mode); with no
        # children the relay is a no-op.
        server = self.server
        if server.apply_version(message.version):
            tracer = server.env.tracer
            if tracer.enabled and server.children:
                tracer.emit(
                    server.env.now, "push_relay", server.node.node_id,
                    version=message.version, children=len(server.children),
                )
            server.push_children(message.version)
