"""ISP model.

Section 3.4.3 of the paper shows that *inter-ISP* provider traffic adds
[3.69, 23.2] seconds of inconsistency on average compared to intra-ISP
traffic (competition for inter-domain transit capacity, citing [38]).
We model each node as belonging to one ISP; the network fabric charges an
extra inter-domain delay when a message crosses ISP boundaries.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List

from ..sim.rng import RandomStream

__all__ = ["ISP", "ISPRegistry", "InterISPModel"]


@dataclass(frozen=True)
class ISP:
    """An autonomous system / internet service provider."""

    isp_id: int
    name: str
    region: str


class ISPRegistry:
    """Creates and looks up ISPs; assigns nodes to region-appropriate ISPs.

    Mirrors the paper's setup where the CDN spans ~1,000 ISPs but each
    geographic cluster is dominated by a handful of them.
    """

    def __init__(self, isps_per_region: int = 6) -> None:
        if isps_per_region <= 0:
            raise ValueError("isps_per_region must be positive")
        self.isps_per_region = isps_per_region
        self._by_region: Dict[str, List[ISP]] = {}
        self._all: List[ISP] = []

    def _ensure_region(self, region: str) -> List[ISP]:
        isps = self._by_region.get(region)
        if isps is None:
            isps = []
            for i in range(self.isps_per_region):
                isp = ISP(len(self._all), "%s-isp-%d" % (region, i), region)
                isps.append(isp)
                self._all.append(isp)
            self._by_region[region] = isps
        return isps

    def assign(self, region: str, stream: RandomStream) -> ISP:
        """Pick an ISP for a node in *region* (Zipf-ish skew: big ISPs
        carry more of a region's servers, as in real deployments)."""
        isps = self._ensure_region(region)
        weights = [1.0 / (rank + 1) for rank in range(len(isps))]
        return stream.choices(isps, weights=weights, k=1)[0]


@dataclass
class InterISPModel:
    """Extra one-way delay charged when a message crosses ISPs.

    ``base_s`` is the systematic inter-domain handoff cost and
    ``jitter_s`` the half-width of its uniform fluctuation (transit-link
    congestion varies over time).  The fabric charges each inter-ISP
    message ``max(0, base_s + uniform(-jitter_s, jitter_s))``.
    """

    base_s: float = 0.030
    jitter_s: float = 0.020
