"""Automatic multicast-tree maintenance.

Section 1's argument against multicast trees: "node failures break the
structure connectivity and lead to unsuccessful update propagation.
Aside from node failures, the structure maintenance will incur high
overhead and complicated management due to the dynamism of servers."

:class:`TreeMaintainer` makes that overhead measurable: every
``heartbeat_s`` each tree edge carries a heartbeat message (charged to
the traffic ledger as TREE_MAINTENANCE traffic), and a parent that has
been unreachable for ``failure_timeout_s`` is declared failed and
repaired -- its orphans re-attach via
:meth:`~repro.consistency.multicast.MulticastTreeInfrastructure.repair`.

The trade is explicit: shorter heartbeats detect failures faster
(less staleness in the dead node's subtree) but cost proportionally
more maintenance traffic.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from ..network.link import NetworkFabric
from ..network.message import TREE_MAINTENANCE, Message
from ..sim.engine import Environment
from .multicast import MulticastTreeInfrastructure

__all__ = ["TreeMaintainer"]


class TreeMaintainer:
    """Heartbeat-driven failure detection and repair for a multicast tree."""

    def __init__(
        self,
        env: Environment,
        fabric: NetworkFabric,
        tree: MulticastTreeInfrastructure,
        servers: List,
        heartbeat_s: float = 30.0,
        failure_timeout_s: Optional[float] = None,
    ) -> None:
        if heartbeat_s <= 0:
            raise ValueError("heartbeat_s must be positive")
        self.env = env
        self.fabric = fabric
        self.tree = tree
        self.servers = list(servers)
        self.heartbeat_s = heartbeat_s
        #: A parent missing this many seconds of heartbeats is failed.
        self.failure_timeout_s = (
            failure_timeout_s if failure_timeout_s is not None else 2.5 * heartbeat_s
        )
        if self.failure_timeout_s < heartbeat_s:
            raise ValueError("failure_timeout_s must be >= heartbeat_s")
        #: parent node_id -> last time a heartbeat reached it.
        self._last_ok: Dict[str, float] = {}
        #: Counters for experiments.
        self.heartbeats_sent = 0
        self.repairs = 0
        self._proc = None

    def start(self) -> None:
        """Launch the maintenance loop (idempotent)."""
        if self._proc is None:
            self._proc = self.env.process(self._loop())

    # ------------------------------------------------------------------
    def _loop(self):
        while True:
            yield self.env.timeout(self.heartbeat_s)
            self._heartbeat_round()
            self._detect_and_repair()

    def _heartbeat_round(self) -> None:
        """Each child pings its (believed) parent; reachable parents are
        refreshed, unreachable ones age toward the failure timeout."""
        now = self.env.now
        for server in self.servers:
            if not server.node.is_up:
                continue
            parent = self.tree.parent_of(server)
            if parent is None:
                continue
            self.heartbeats_sent += 1
            self.fabric.send(
                Message(TREE_MAINTENANCE, server.node, parent.node, server.content.light_size_kb)
            )
            if parent.node.is_up:
                self._last_ok[parent.node.node_id] = now
            else:
                self._last_ok.setdefault(parent.node.node_id, now - self.heartbeat_s)

    def _detect_and_repair(self) -> None:
        now = self.env.now
        for server in list(self.servers):
            parent = self.tree.parent_of(server)
            if parent is None or parent.node.is_up:
                continue
            last_ok = self._last_ok.get(parent.node.node_id, now)
            if now - last_ok >= self.failure_timeout_s:
                self.repairs += 1
                self.tree.repair(parent)
                self._last_ok.pop(parent.node.node_id, None)

    # ------------------------------------------------------------------
    def maintenance_messages(self) -> int:
        """TREE_MAINTENANCE messages carried so far (heartbeats + joins)."""
        return self.fabric.ledger.kind_totals(TREE_MAINTENANCE).count
