"""HAT: the paper's Hybrid and self-AdapTive update system (Section 5).

Architecture (Fig. 21):

- servers are grouped into geographic clusters (Hilbert curve, one
  supernode each, :mod:`repro.core.supernode`);
- the provider **pushes** updates to the supernodes through a
  proximity-aware k-ary multicast tree (k = 4 in the paper) so supernode
  freshness does not suffer TTL depth amplification;
- inside each cluster, ordinary servers keep fresh against their
  supernode with the **self-adaptive** method (Algorithm 1): TTL polling
  during update bursts, Invalidation during silence.

``member_method`` selects between the full system (``"self-adaptive"``,
the paper's HAT) and the ``"ttl"`` variant (the paper's *Hybrid*
baseline: the same infrastructure but plain TTL inside clusters).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

from ..cdn.content import LiveContent
from ..cdn.provider import ProviderActor
from ..cdn.server import ServerActor
from ..consistency.adaptive import SelfAdaptivePolicy
from ..consistency.multicast import MulticastTreeInfrastructure
from ..consistency.push import PushPolicy
from ..consistency.ttl import TTLPolicy
from ..network.link import NetworkFabric
from ..network.message import TREE_MAINTENANCE
from ..network.node import NetworkNode
from ..sim.engine import Environment
from ..sim.rng import StreamRegistry
from .supernode import ClusterSpec, form_clusters

__all__ = ["HatConfig", "HatSystem"]


@dataclass(kw_only=True)
class HatConfig:
    """Tunables of the HAT deployment."""

    n_clusters: int = 20
    tree_arity: int = 4
    server_ttl_s: float = 60.0
    #: "self-adaptive" (HAT proper) or "ttl" (the Hybrid baseline).
    member_method: str = "self-adaptive"

    def __post_init__(self) -> None:
        if self.n_clusters <= 0:
            raise ValueError("n_clusters must be positive")
        if self.tree_arity < 1:
            raise ValueError("tree_arity must be >= 1")
        if self.server_ttl_s <= 0:
            raise ValueError("server_ttl_s must be positive")
        if self.member_method not in ("self-adaptive", "ttl"):
            raise ValueError("member_method must be 'self-adaptive' or 'ttl'")


class HatSystem:
    """Builds and owns the actors of a HAT deployment."""

    def __init__(
        self,
        env: Environment,
        fabric: NetworkFabric,
        streams: StreamRegistry,
        content: LiveContent,
        provider_node: NetworkNode,
        server_nodes: Sequence[NetworkNode],
        config: Optional[HatConfig] = None,
    ) -> None:
        if not server_nodes:
            raise ValueError("need at least one server node")
        self.env = env
        self.fabric = fabric
        self.streams = streams
        self.content = content
        self.config = config if config is not None else HatConfig()

        self.provider = ProviderActor(env, provider_node, fabric, content)
        self.clusters: List[ClusterSpec] = form_clusters(
            server_nodes, self.config.n_clusters, streams.stream("hat.supernode")
        )
        self.supernodes: List[ServerActor] = []
        self.members: List[ServerActor] = []
        #: node_id -> serving ServerActor (supernodes included).
        self.server_by_node_id: Dict[str, ServerActor] = {}
        self._build()

    # ------------------------------------------------------------------
    def _build(self) -> None:
        config = self.config

        # 1. Supernodes: passive Push replicas that relay down the tree.
        for spec in self.clusters:
            supernode = ServerActor(
                self.env,
                spec.supernode,
                self.fabric,
                self.content,
                policy=PushPolicy(),
            )
            # A fresh body landing on the supernode must invalidate the
            # cluster members currently sitting in Invalidation mode.
            supernode.on_apply_hooks.append(supernode.notify_adaptive_members)
            self.supernodes.append(supernode)
            self.server_by_node_id[spec.supernode.node_id] = supernode

        # 2. Proximity-aware k-ary Push tree over the supernodes.
        self.tree = MulticastTreeInfrastructure(self.fabric, arity=config.tree_arity)
        self.tree.wire(self.provider, self.supernodes)
        self.provider.use_push()

        # 3. Ordinary members update against their supernode.
        poll_stream = self.streams.stream("hat.member.phase")
        for spec, supernode in zip(self.clusters, self.supernodes):
            for node in spec.members:
                if config.member_method == "self-adaptive":
                    policy = SelfAdaptivePolicy(config.server_ttl_s, stream=poll_stream)
                else:
                    policy = TTLPolicy(config.server_ttl_s, stream=poll_stream)
                member = ServerActor(
                    self.env,
                    node,
                    self.fabric,
                    self.content,
                    policy=policy,
                    upstream=supernode.node,
                )
                self.members.append(member)
                self.server_by_node_id[node.node_id] = member

    # ------------------------------------------------------------------
    @property
    def servers(self) -> List[ServerActor]:
        """Every content-serving actor (supernodes first)."""
        return self.supernodes + self.members

    def start(self) -> None:
        """Start every server's policy loop."""
        for server in self.servers:
            server.start()

    def supernode_of(self, node: NetworkNode) -> ServerActor:
        """The supernode actor serving the cluster containing *node*."""
        for spec, supernode in zip(self.clusters, self.supernodes):
            if node is spec.supernode or node in spec.members:
                return supernode
        raise KeyError(node.node_id)

    def tree_depth(self) -> int:
        """Depth of the supernode Push tree."""
        return self.tree.max_depth()

    def start_monitor(
        self, heartbeat_s: float = 30.0, failure_timeout_s: Optional[float] = None
    ) -> None:
        """Start automatic supernode failure detection.

        Every ``heartbeat_s`` each supernode is probed (one light
        TREE_MAINTENANCE message from its nearest member, charged to the
        ledger); a supernode unreachable for ``failure_timeout_s``
        triggers :meth:`handle_supernode_failure`.
        """
        if heartbeat_s <= 0:
            raise ValueError("heartbeat_s must be positive")
        timeout = failure_timeout_s if failure_timeout_s is not None else 2.5 * heartbeat_s
        if timeout < heartbeat_s:
            raise ValueError("failure_timeout_s must be >= heartbeat_s")
        self.env.process(self._monitor_loop(heartbeat_s, timeout))

    def _monitor_loop(self, heartbeat_s: float, failure_timeout_s: float):
        down_since: Dict[str, float] = {}
        while True:
            yield self.env.timeout(heartbeat_s)
            # snapshot pairs: failover mutates both lists in lockstep
            for supernode, spec in list(zip(self.supernodes, self.clusters)):
                # probe: the nearest live member pings its supernode
                prober = None
                for node in spec.members:
                    if node.is_up:
                        prober = self.server_by_node_id[node.node_id]
                        break
                if prober is not None:
                    prober.send(TREE_MAINTENANCE, supernode.node, self.content.light_size_kb)
                node_id = supernode.node.node_id
                if supernode.node.is_up:
                    down_since.pop(node_id, None)
                    continue
                first_seen = down_since.setdefault(node_id, self.env.now)
                if self.env.now - first_seen >= failure_timeout_s:
                    down_since.pop(node_id, None)
                    self.handle_supernode_failure(supernode)

    # ------------------------------------------------------------------
    # failure handling
    # ------------------------------------------------------------------
    def handle_supernode_failure(self, failed: ServerActor) -> Optional[ServerActor]:
        """Recover a cluster whose supernode died.

        Section 5.2: "Newly-joined supernodes or supernodes having lost
        parents choose the nearest supernode that has fewer than k
        children as its parent."  Concretely:

        1. a member of the failed supernode's cluster is promoted to
           supernode (nearest member to the old supernode's location);
        2. the promotee joins the Push tree (tree ``repair`` re-attaches
           the dead node's tree children, the promotee attaches like a
           newly-joined supernode);
        3. the remaining members re-point their upstream at the promotee.

        Returns the promoted actor, or ``None`` if the cluster had no
        members left to promote (the cluster dissolves; its tree children
        are still re-attached).
        """
        index = None
        for i, supernode in enumerate(self.supernodes):
            if supernode is failed:
                index = i
                break
        if index is None:
            raise KeyError("%s is not a supernode" % failed.node.node_id)
        spec = self.clusters[index]

        # Re-attach the dead node's tree children first.
        self.tree.repair(failed)

        live_members = [
            self.server_by_node_id[node.node_id]
            for node in spec.members
            if node.is_up
        ]
        if not live_members:
            # Cluster dissolves: drop it from the bookkeeping.
            del self.supernodes[index]
            del self.clusters[index]
            return None

        promotee = min(
            live_members, key=lambda member: member.node.distance_km(failed.node)
        )

        # 1-2. Promote: swap in a Push policy and join the tree as a new
        # supernode (nearest attachable parent with a free slot).
        promotee.replace_policy(PushPolicy())
        promotee.on_apply_hooks.append(promotee.notify_adaptive_members)
        self.tree.attach_new(promotee)
        self.supernodes[index] = promotee

        # 3. Remaining members follow the promotee; members sitting in
        # Invalidation mode re-register so the promotee knows to notify
        # them on the next update.
        remaining = [node for node in spec.members if node is not promotee.node]
        spec.supernode = promotee.node
        spec.members = remaining
        for node in remaining:
            member = self.server_by_node_id[node.node_id]
            member.upstream = promotee.node
            reannounce = getattr(member.policy, "reannounce", None)
            if reannounce is not None:
                reannounce()
        return promotee
