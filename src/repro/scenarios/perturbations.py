"""Mid-run perturbations: in-flight changes to a running deployment.

A :class:`Perturbation` is installed on a wired-but-not-yet-run
:class:`~repro.experiments.testbed.Deployment`.  Installation may draw
from the scenario's perturbation stream (victim selection, migration
plans) but every random decision happens at *install* time, so the
event-loop side of a perturbation is pure: replaying the same spec
yields the same storm victims, the same migration plan, the same surge
windows, bit for bit.

Four families, mirroring the phenomena the measurement literature
reports for live-content CDNs:

- :class:`FlashCrowd` -- users poll faster during a window (breaking
  news, a goal in the live game);
- :class:`DiurnalModulation` -- sinusoidal day/night polling cadence;
- :class:`FailureStorm` -- correlated outages of a contiguous server
  block (rack / region failure, Section 3.4.5's absences);
- :class:`Reconfiguration` -- a cache-cluster migration mid-run
  (YouLighter's observed cluster churn): a slice of the user population
  is re-homed to different edge servers at each event time.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, ClassVar, List, Tuple

from ..cdn.server import schedule_absence
from ..network.node import NetworkNode
from ..sim.rng import RandomStream

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..experiments.testbed import Deployment

__all__ = [
    "Perturbation",
    "FlashCrowd",
    "DiurnalModulation",
    "FailureStorm",
    "Reconfiguration",
]


class Perturbation:
    """Base class: a named, installable mid-run event."""

    kind: ClassVar[str] = "base"

    def describe(self) -> str:
        """One-line human/JSON summary (CLI ``scenario describe``)."""
        return self.kind

    def install(self, deployment: "Deployment", stream: RandomStream) -> None:
        """Attach this perturbation's processes to the deployment."""
        raise NotImplementedError


@dataclass(frozen=True, kw_only=True)
class FlashCrowd(Perturbation):
    """Every user polls ``poll_accel``x faster during the surge window."""

    kind: ClassVar[str] = "flash-crowd"

    start_s: float
    duration_s: float
    poll_accel: float = 4.0

    def __post_init__(self) -> None:
        if self.start_s < 0:
            raise ValueError("start_s must be >= 0")
        if self.duration_s <= 0:
            raise ValueError("duration_s must be positive")
        if self.poll_accel < 1.0:
            raise ValueError("poll_accel must be >= 1")

    def describe(self) -> str:
        return "%s[%g..%gs x%g]" % (
            self.kind, self.start_s, self.start_s + self.duration_s, self.poll_accel,
        )

    def install(self, deployment: "Deployment", stream: RandomStream) -> None:
        env = deployment.env
        cohort = deployment.cohort
        slots = range(cohort.n_users)

        def surge():
            if self.start_s > 0:
                yield env.timeout(self.start_s)
            for slot in slots:
                cohort.set_ttl(slot, cohort.ttl_of(slot) / self.poll_accel)
            yield env.timeout(self.duration_s)
            for slot in slots:
                cohort.set_ttl(slot, cohort.ttl_of(slot) * self.poll_accel)

        env.process(surge())


@dataclass(frozen=True, kw_only=True)
class DiurnalModulation(Perturbation):
    """Sinusoidal polling cadence: visit rate swings by ``amplitude``.

    The activity factor at simulated time *t* is
    ``1 + amplitude * sin(2 pi t / period_s)``; each user's poll TTL is
    its base TTL divided by that factor, re-evaluated every ``step_s``.
    """

    kind: ClassVar[str] = "diurnal"

    period_s: float
    step_s: float
    amplitude: float = 0.6

    def __post_init__(self) -> None:
        if self.period_s <= 0 or self.step_s <= 0:
            raise ValueError("period_s and step_s must be positive")
        if not 0.0 <= self.amplitude < 1.0:
            raise ValueError("amplitude must be in [0, 1)")

    def describe(self) -> str:
        return "%s[period=%gs amp=%g]" % (self.kind, self.period_s, self.amplitude)

    def install(self, deployment: "Deployment", stream: RandomStream) -> None:
        env = deployment.env
        cohort = deployment.cohort
        base_ttls = [cohort.ttl_of(slot) for slot in range(cohort.n_users)]

        def modulate():
            while True:
                factor = 1.0 + self.amplitude * math.sin(
                    2.0 * math.pi * env.now / self.period_s
                )
                for slot, base in enumerate(base_ttls):
                    cohort.set_ttl(slot, base / factor)
                yield env.timeout(self.step_s)

        env.process(modulate())


@dataclass(frozen=True, kw_only=True)
class FailureStorm(Perturbation):
    """Correlated outages: a contiguous block of servers goes down.

    For each ``(start_s, outage_s)`` storm, a contiguous run of
    ``fraction`` of the servers (random offset, wrapping) is taken down
    via :func:`~repro.cdn.server.schedule_absence`.  Contiguity models
    the rack/region correlation real storms show; the offset is the only
    random draw, so storms are cheap to reason about and to replay.
    """

    kind: ClassVar[str] = "failure-storm"

    storms: Tuple[Tuple[float, float], ...]
    fraction: float = 0.25

    def __post_init__(self) -> None:
        if not self.storms:
            raise ValueError("need at least one (start_s, outage_s) storm")
        for start, outage in self.storms:
            if start < 0 or outage <= 0:
                raise ValueError(
                    "storm (%r, %r): start must be >= 0, outage positive"
                    % (start, outage)
                )
        if not 0.0 < self.fraction <= 1.0:
            raise ValueError("fraction must be in (0, 1]")

    def describe(self) -> str:
        windows = ", ".join(
            "%g+%gs" % (start, outage) for start, outage in self.storms
        )
        return "%s[%s; %g of servers]" % (self.kind, windows, self.fraction)

    def install(self, deployment: "Deployment", stream: RandomStream) -> None:
        nodes = [server.node for server in deployment.servers]
        if not nodes:
            return
        k = min(len(nodes), max(1, round(len(nodes) * self.fraction)))
        for start, outage in self.storms:
            offset = stream.randint(0, len(nodes) - 1)
            for j in range(k):
                schedule_absence(
                    deployment.env, nodes[(offset + j) % len(nodes)], start, outage
                )


@dataclass(frozen=True, kw_only=True)
class Reconfiguration(Perturbation):
    """Cache-cluster migration: users are re-homed to new servers.

    At each event time, ``migrate_fraction`` of the fixed-home users are
    reassigned to a randomly chosen server (YouLighter observes exactly
    such cluster migrations in a production CDN).  The migration plan --
    who moves where, at which event -- is drawn entirely at install
    time; the run-time process only applies it.
    """

    kind: ClassVar[str] = "reconfiguration"

    event_times_s: Tuple[float, ...]
    migrate_fraction: float = 0.5

    def __post_init__(self) -> None:
        if not self.event_times_s:
            raise ValueError("need at least one event time")
        if any(t < 0 for t in self.event_times_s):
            raise ValueError("event times must be >= 0")
        if not 0.0 < self.migrate_fraction <= 1.0:
            raise ValueError("migrate_fraction must be in (0, 1]")

    def describe(self) -> str:
        times = ", ".join("%gs" % t for t in self.event_times_s)
        return "%s[at %s; %g of users]" % (self.kind, times, self.migrate_fraction)

    def install(self, deployment: "Deployment", stream: RandomStream) -> None:
        env = deployment.env
        cohort = deployment.cohort
        n_users = cohort.n_users
        server_nodes = [server.node for server in deployment.servers]
        if not cohort.fixed or not n_users or len(server_nodes) < 2:
            return
        k = max(1, round(n_users * self.migrate_fraction))

        def migrate(moves: List[Tuple[int, NetworkNode]], when: float):
            if when > 0:
                yield env.timeout(when)
            for slot, node in moves:
                cohort.rehome(slot, node)

        for when in self.event_times_s:
            movers = stream.sample(range(n_users), min(k, n_users))
            moves = [(slot, stream.choice(server_nodes)) for slot in movers]
            env.process(migrate(moves, when))
