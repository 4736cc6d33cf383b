"""End users.

An :class:`EndUserActor` periodically requests the live content from a
server chosen by a pluggable *selector* (a fixed server, or
switch-every-visit as in Fig. 24) and records every observation.  The
observation log is the raw material for all user-perspective metrics.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

from ..network.link import NetworkFabric
from ..network.message import MessageKind
from ..network.node import NetworkNode
from ..sim.engine import Environment
from ..sim.rng import RandomStream
from .base import Actor
from .content import LiveContent

__all__ = [
    "Observation",
    "EndUserActor",
    "FixedSelector",
    "SwitchEveryVisitSelector",
    "REQUEST_TIMEOUT_S",
]

#: Default content-request timeout, shared with the vectorized cohort
#: plane (:mod:`repro.cdn.cohort`) so both user implementations time out
#: at exactly the same instants.
REQUEST_TIMEOUT_S = 30.0


@dataclass(frozen=True)
class Observation:
    """One successful content visit by one user."""

    time: float
    version: int
    server_id: str


class FixedSelector:
    """Always visit the same server."""

    def __init__(self, server: NetworkNode) -> None:
        self.server = server

    def select(self, user: NetworkNode, now: float, visit_index: int) -> NetworkNode:
        return self.server


class SwitchEveryVisitSelector:
    """Visit a different random server on every successive visit.

    The adversarial redirection scenario of Fig. 24: it maximises the
    chance of observing cross-server inconsistency.
    """

    def __init__(self, servers: Sequence[NetworkNode], stream: RandomStream) -> None:
        if not servers:
            raise ValueError("need at least one server")
        self.servers = list(servers)
        self.stream = stream
        self._last: Optional[NetworkNode] = None

    def select(self, user: NetworkNode, now: float, visit_index: int) -> NetworkNode:
        if len(self.servers) == 1:
            return self.servers[0]
        while True:
            server = self.stream.choice(self.servers)
            if server is not self._last:
                self._last = server
                return server


class EndUserActor(Actor):
    """A simulated end user polling the live content periodically.

    One actor per user, for hand-wired worlds.  The testbed carries its
    whole user population in one :class:`~repro.cdn.cohort.UserCohort`;
    this actor stays until the hand-wired tests, examples and the DES
    crawl in ``tests/test_integration.py`` move onto the cohort.
    """

    def __init__(
        self,
        env: Environment,
        node: NetworkNode,
        fabric: NetworkFabric,
        content: LiveContent,
        selector,
        user_ttl_s: float = 10.0,
        start_offset_s: float = 0.0,
        request_timeout_s: Optional[float] = REQUEST_TIMEOUT_S,
    ) -> None:
        if user_ttl_s <= 0:
            raise ValueError("user_ttl_s must be positive")
        super().__init__(env, node, fabric)
        self.content = content
        self.selector = selector
        self.user_ttl_s = user_ttl_s
        self.start_offset_s = start_offset_s
        self.request_timeout_s = request_timeout_s
        self.observations: List[Observation] = []
        #: Visits that timed out (server down / unreachable).
        self.failed_visits = 0
        self._started = False

    def start(self) -> None:
        if self._started:
            return
        self._started = True
        self.env.process(self._visit_loop())

    def _visit_loop(self):
        if self.start_offset_s > 0:
            yield self.env.pooled_timeout(self.start_offset_s)
        visit_index = 0
        while True:
            target = self.selector.select(self.node, self.env.now, visit_index)
            response = yield from self.request(
                MessageKind.CONTENT_REQUEST,
                target,
                self.content.light_size_kb,
                timeout=self.request_timeout_s,
            )
            tracer = self.env.tracer
            if response is None:
                self.failed_visits += 1
                if tracer.enabled:
                    tracer.emit(
                        self.env.now, "visit_timeout", self.node.node_id,
                        server=target.node_id,
                    )
            else:
                observation = Observation(
                    time=self.env.now,
                    version=response.version,
                    server_id=target.node_id,
                )
                self.observations.append(observation)
                if tracer.enabled:
                    tracer.emit(
                        self.env.now, "visit", self.node.node_id,
                        server=target.node_id, version=response.version,
                    )
            visit_index += 1
            yield self.env.pooled_timeout(self.user_ttl_s)
