"""Network node: the attachment point of every simulated actor.

A node owns its geographic position, ISP membership, uplink bandwidth and
-- crucially for the paper's scalability results -- an *output port* of
capacity 1.  All transmissions leaving a node serialise on this port, so
a provider pushing a large update to 170 unicast children queues 170
back-to-back transmissions (the Incast / fan-out bottleneck of
Figs. 19-20), while a binary-tree parent queues only 2.

The transport keeps the port as plain state on the node: the
``port_busy`` flag and a FIFO of waiting messages (``port_waiters``,
built on first contention).
"""

from __future__ import annotations

from typing import Any, Callable, Deque, Optional

from ..sim.engine import Environment
from .geo import GeoPoint
from .isp import ISP

__all__ = ["NetworkNode", "DEFAULT_UPLINK_KBPS", "DEFAULT_PROVIDER_UPLINK_KBPS"]

#: Default edge-server uplink, KB/s (a modest 50 Mbit/s share -- the
#: paper's PlanetLab nodes are far from datacenter-grade).
DEFAULT_UPLINK_KBPS = 6_250.0

#: Default provider uplink, KB/s.  The paper's provider is itself a
#: PlanetLab node ("We chose one node in Atlanta as the provider"), so
#: it gets the same uplink as the servers -- which is exactly why the
#: unicast star congests at the provider (Figs. 19-20).
DEFAULT_PROVIDER_UPLINK_KBPS = 6_250.0


class NetworkNode:
    """A host in the simulated network."""

    __slots__ = (
        "env",
        "node_id",
        "point",
        "isp",
        "uplink_kbps",
        "city_name",
        "port_busy",
        "port_waiters",
        "consumer",
        "_down_count",
        "_down_since",
        "_downtime_s",
        "down_transitions",
    )

    def __init__(
        self,
        env: Environment,
        node_id: str,
        point: GeoPoint,
        isp: ISP,
        uplink_kbps: float = DEFAULT_UPLINK_KBPS,
        city_name: Optional[str] = None,
    ) -> None:
        if uplink_kbps <= 0:
            raise ValueError("uplink_kbps must be positive")
        self.env = env
        self.node_id = node_id
        self.point = point
        self.isp = isp
        self.uplink_kbps = uplink_kbps
        self.city_name = city_name
        #: Output port: ``True`` while a transmission holds it; waiting
        #: messages queue in ``port_waiters`` (FIFO).
        self.port_busy = False
        self.port_waiters: Optional[Deque[Any]] = None
        #: The attached actor's handler: the fabric calls it
        #: synchronously at delivery time.
        self.consumer: Optional[Callable[[Any], None]] = None
        #: Number of currently active absences.  The node is up only
        #: while this is zero, so overlapping failure-injection windows
        #: nest instead of the first window's end reviving the node
        #: while the second is still active.
        self._down_count = 0
        self._down_since: Optional[float] = None
        self._downtime_s = 0.0
        #: Up->down transitions observed (counts merged windows once).
        self.down_transitions = 0

    def __repr__(self) -> str:
        return "NetworkNode(%s @ %s)" % (self.node_id, self.city_name or self.point)

    # ------------------------------------------------------------------
    # up/down state (failure injection, Section 3.4.5)
    # ------------------------------------------------------------------
    @property
    def is_up(self) -> bool:
        """``True`` while no absence is active; a down node neither
        sends nor receives."""
        return self._down_count == 0

    def mark_down(self) -> None:
        """Begin one absence window (nests with overlapping windows; a
        permanent failure is a window that never ends)."""
        self._down_count += 1
        if self._down_count == 1:
            self._transition(up=False)

    def mark_up(self) -> None:
        """End one absence window; the node revives only when every
        active window has ended."""
        if self._down_count == 0:
            raise RuntimeError("%s has no absence window to end" % self.node_id)
        self._down_count -= 1
        if self._down_count == 0:
            self._transition(up=True)

    def _transition(self, up: bool) -> None:
        now = self.env.now
        if up:
            if self._down_since is not None:
                self._downtime_s += now - self._down_since
                self._down_since = None
        else:
            self.down_transitions += 1
            self._down_since = now
        tracer = self.env.tracer
        if tracer.enabled:
            tracer.emit(now, "node_up" if up else "node_down", self.node_id)

    def deliver(self, message: Any) -> None:
        """Hand a delivered *message* to the registered consumer, or
        raise, naming this node, if none is attached.  The fabric calls
        the consumer directly and comes here only when there is none."""
        consumer = self.consumer
        if consumer is None:
            raise RuntimeError(
                "node %r received a message but has no consumer attached"
                % self.node_id
            )
        consumer(message)

    def downtime_s(self, now: Optional[float] = None) -> float:
        """Total seconds spent down, including any open absence."""
        total = self._downtime_s
        if self._down_since is not None:
            total += (now if now is not None else self.env.now) - self._down_since
        return total

    def distance_km(self, other: "NetworkNode") -> float:
        """Great-circle distance to another node."""
        return self.point.distance_km(other.point)
