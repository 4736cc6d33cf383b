"""Cluster formation and supernode election for the hybrid infrastructure.

Section 5.2: content servers are grouped by geography using the Hilbert
curve of [39]/[44]; each cluster elects one *supernode* that is pushed
updates through a proximity-aware k-ary tree and serves the update
polling of the servers nearby.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Sequence

from ..consistency.hilbert import cluster_by_hilbert
from ..network.node import NetworkNode
from ..sim.rng import RandomStream

__all__ = ["ClusterSpec", "form_clusters"]


@dataclass
class ClusterSpec:
    """One geographic cluster: its supernode plus ordinary members."""

    index: int
    supernode: NetworkNode
    members: List[NetworkNode] = field(default_factory=list)

    @property
    def all_nodes(self) -> List[NetworkNode]:
        return [self.supernode] + self.members

    @property
    def size(self) -> int:
        return 1 + len(self.members)


def form_clusters(
    server_nodes: Sequence[NetworkNode],
    n_clusters: int,
    stream: RandomStream,
) -> List[ClusterSpec]:
    """Partition *server_nodes* into proximity clusters and elect
    supernodes.

    The paper elects the supernode randomly within each cluster ("The
    supernode is randomly chosen from the node in the cluster").
    """
    if not server_nodes:
        raise ValueError("need at least one server node")
    groups = cluster_by_hilbert(server_nodes, n_clusters, key=lambda node: node.point)
    specs: List[ClusterSpec] = []
    for index, group in enumerate(groups):
        if not group:
            continue
        supernode = stream.choice(group)
        members = [node for node in group if node is not supernode]
        specs.append(ClusterSpec(index=index, supernode=supernode, members=members))
    return specs
