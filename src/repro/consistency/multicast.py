"""Proximity-aware d-ary multicast tree.

Section 4 of the paper: "the provider is the tree root and
geographically close nodes (measured by inter-ping latency) are
connected to each other to form a binary tree".  The builder processes
servers in order of increasing latency to the root and attaches each to
the already-attached node (root or server) that is closest to it and
still has a free child slot -- a greedy proximity-aware construction in
the spirit of [17], [18], [39].

The tree also supports failure repair: when a node goes down its
children re-attach to the nearest live attachable node (costing
TREE_MAINTENANCE messages), reproducing the maintenance-overhead
argument against multicast in Section 1.
"""

from __future__ import annotations

from typing import Dict, List

from ..network.link import NetworkFabric
from ..network.message import TREE_MAINTENANCE
from .base import Infrastructure

__all__ = ["MulticastTreeInfrastructure"]


class MulticastTreeInfrastructure(Infrastructure):
    """A d-ary tree over the servers, rooted at the provider."""

    name = "multicast"

    def __init__(
        self, fabric: NetworkFabric, arity: int = 2, depth_penalty_s: float = 0.005
    ) -> None:
        """``depth_penalty_s`` biases attachment toward shallower
        parents: a candidate's score is its latency plus this penalty
        per tree level.  Without it, proximity-greedy attachment builds
        metro-local chains whose depth ignores the arity entirely; with
        it, depth shrinks as the arity grows ("a larger d leads to a
        smaller depth", Section 4)."""
        if arity < 1:
            raise ValueError("arity must be >= 1")
        if depth_penalty_s < 0:
            raise ValueError("depth_penalty_s must be >= 0")
        self.fabric = fabric
        self.arity = arity
        self.depth_penalty_s = depth_penalty_s
        self._provider = None
        #: server node_id -> parent actor (provider or server)
        self._parent: Dict[str, object] = {}
        #: actor node_id -> list of child server actors
        self._children: Dict[str, List] = {}
        self._servers: List = []

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    def wire(self, provider, servers: List) -> None:
        self._provider = provider
        self._servers = list(servers)
        self._parent.clear()
        self._children.clear()
        provider.children = []
        for server in servers:
            server.children = []

        # Process servers nearest-to-root first so upper tree layers are
        # close to the provider (proximity awareness).
        min_latency_s = self.fabric.min_latency_s
        ordered = sorted(
            servers, key=lambda s: min_latency_s(provider.node, s.node)
        )
        # The candidates with a free child slot, in attach order, each
        # with its depth: a node's depth is fixed once it is attached,
        # so it is scored without walking the parent chain, and a full
        # parent leaves the list for good.  The scores and the strict
        # ``<`` are those of _nearest_attachable, so the tree is too.
        penalty = self.depth_penalty_s
        open_slots = [(provider, 0)]
        for server in ordered:
            best = 0
            best_score = float("inf")
            for index, (candidate, depth) in enumerate(open_slots):
                score = min_latency_s(candidate.node, server.node) + penalty * depth
                if score < best_score:
                    best = index
                    best_score = score
            parent, depth = open_slots[best]
            self._attach(server, parent)
            if len(self._children[parent.node.node_id]) >= self.arity:
                del open_slots[best]
            open_slots.append((server, depth + 1))

    def _nearest_attachable(self, server, attachable: List):
        """The candidate with a free child slot that scores lowest."""
        best = None
        best_score = float("inf")
        for candidate in attachable:
            if len(self._children.get(candidate.node.node_id, ())) >= self.arity:
                continue
            score = self.fabric.min_latency_s(
                candidate.node, server.node
            ) + self.depth_penalty_s * self._depth_or_zero(candidate)
            if score < best_score:
                best = candidate
                best_score = score
        if best is None:
            # Every live node is full (never while wiring, where the last
            # attached server is empty): allow overflow at the provider
            # rather than partitioning the overlay.
            return self._provider
        return best

    def _depth_or_zero(self, actor) -> int:
        if actor is self._provider:
            return 0
        try:
            return self.depth_of(actor)
        except KeyError:  # pragma: no cover - unattached candidate
            return 0

    def _attach(self, server, parent) -> None:
        self._parent[server.node.node_id] = parent
        self._children.setdefault(parent.node.node_id, []).append(server)
        parent.children.append(server.node)
        server.upstream = parent.node

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    def parent_of(self, server):
        return self._parent.get(server.node.node_id)

    def children_of(self, actor) -> List:
        return list(self._children.get(actor.node.node_id, ()))

    def depth_of(self, server) -> int:
        depth = 0
        current = server
        while True:
            parent = self._parent.get(current.node.node_id)
            if parent is None:
                if current is not self._provider:
                    raise KeyError("%s is not in the tree" % current.node.node_id)
                return depth
            depth += 1
            current = parent

    def max_depth(self) -> int:
        if not self._servers:
            return 0
        return max(self.depth_of(server) for server in self._servers)

    # ------------------------------------------------------------------
    # dynamic membership
    # ------------------------------------------------------------------
    def attach_new(self, server) -> None:
        """Attach a newly joined node (e.g. a promoted HAT supernode):
        nearest live attachable parent, one TREE_MAINTENANCE join
        message charged to the ledger."""
        if server.node.node_id in self._parent:
            raise ValueError("%s is already in the tree" % server.node.node_id)
        attachable = [self._provider] + [
            s for s in self._servers if s.node.is_up and s is not server
        ]
        parent = self._nearest_attachable(server, attachable)
        self._servers.append(server)
        self._attach(server, parent)
        server.send(TREE_MAINTENANCE, parent.node, server.content.light_size_kb)

    # ------------------------------------------------------------------
    # failure repair
    # ------------------------------------------------------------------
    def repair(self, failed) -> int:
        """Re-attach the children of a failed server; returns the number
        of re-attachments performed.

        Each orphan sends a TREE_MAINTENANCE message to its new parent
        (join cost), which the ledger accounts as light traffic.
        """
        failed_id = failed.node.node_id
        orphans = self._children.pop(failed_id, [])
        # Detach the failed node itself from its parent.
        parent = self._parent.pop(failed_id, None)
        if parent is not None:
            siblings = self._children.get(parent.node.node_id, [])
            if failed in siblings:
                siblings.remove(failed)
            if failed.node in parent.children:
                parent.children.remove(failed.node)

        moved = 0
        for orphan in orphans:
            attachable = [self._provider] + [
                s for s in self._servers
                if s is not failed and s is not orphan and s.node.is_up
                and not self._is_descendant(s, orphan)
            ]
            new_parent = self._nearest_attachable(orphan, attachable)
            self._attach(orphan, new_parent)
            orphan.send(TREE_MAINTENANCE, new_parent.node, orphan.content.light_size_kb)
            moved += 1
        return moved

    def _is_descendant(self, candidate, ancestor) -> bool:
        current = candidate
        while True:
            parent = self._parent.get(current.node.node_id)
            if parent is None:
                return False
            if parent is ancestor:
                return True
            current = parent
