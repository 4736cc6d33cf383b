"""Generic dynamic update method (the paper's stated future work).

Section 6: "we will study a more generic hybrid and self-adaptive
consistency maintenance method that can change the update method ...
by considering more factors, such as varying visit frequencies and
consistency requirements from customers."

:class:`DynamicPolicy` implements that system: each replica monitors
its own *visit rate* and *observed update rate* over a sliding decision
window and switches between three server-selectable modes --

- ``ttl``: periodic polling (cheap under steady updates, staleness
  bounded by the TTL);
- ``invalidation``: passive until the source sends a notice, fetch on
  the next visit (cheapest under silence or sparse visits, fresh for
  users);
- ``push``: subscribe to direct pushes (fresh, right when both visits
  and updates are frequent and the customer's staleness tolerance is
  tight) --

following the same decision logic as :class:`repro.core.advisor.
MethodAdvisor`.  The provider side is
:meth:`repro.cdn.provider.ProviderActor.use_dynamic`, which pushes to
push-subscribers and invalidates invalidation-mode members.
"""

from __future__ import annotations

from typing import Generator, Iterable, List, Optional, Tuple

from ..consistency.base import ServerPolicy
from ..network.message import SWITCH_NOTICE, Message
from ..sim.engine import Event
from ..sim.rng import RandomStream

__all__ = ["DynamicPolicy"]

MODE_TTL = "ttl"
MODE_INVALIDATION = "invalidation"
MODE_PUSH = "push"


class DynamicPolicy(ServerPolicy):
    """Per-replica mode switching driven by measured rates."""

    method_name = "dynamic"

    def __init__(
        self,
        ttl_s: float,
        staleness_tolerance_s: float,
        stream: Optional[RandomStream] = None,
        decision_interval_s: Optional[float] = None,
    ) -> None:
        if ttl_s <= 0:
            raise ValueError("ttl_s must be positive")
        if staleness_tolerance_s < 0:
            raise ValueError("staleness_tolerance_s must be >= 0")
        super().__init__()
        self.ttl_s = ttl_s
        self.staleness_tolerance_s = staleness_tolerance_s
        self.stream = stream
        self.decision_interval_s = (
            decision_interval_s if decision_interval_s is not None else 5.0 * ttl_s
        )
        if self.decision_interval_s <= 0:
            raise ValueError("decision_interval_s must be positive")
        self.mode = MODE_TTL
        #: (switch time, new mode) history, for experiments.
        self.mode_history: List[Tuple[float, str]] = []
        self._visits_in_window = 0
        self._updates_in_window = 0
        #: Debounce: a mode change needs two consecutive windows to
        #: agree, so borderline rate ratios do not flap the mode.
        self._pending_target: Optional[str] = None

    # ------------------------------------------------------------------
    def bind(self, server) -> None:
        super().bind(server)
        server.on_apply_hooks.append(self._count_update)

    def _count_update(self, version: int) -> None:
        self._updates_in_window += 1

    # ------------------------------------------------------------------
    def processes(self) -> Iterable[Generator]:
        return [self._control_loop()]

    def _control_loop(self) -> Generator:
        server = self.server
        env = server.env
        if self.stream is not None:
            yield env.timeout(self.stream.uniform(0.0, self.ttl_s))
        self.mode_history.append((env.now, self.mode))
        while True:
            window_end = env.now + self.decision_interval_s
            if self.mode == MODE_TTL:
                while env.now < window_end:
                    yield env.timeout(min(self.ttl_s, window_end - env.now))
                    if env.now >= window_end:
                        break
                    yield from self.poll_once()
            else:
                # push / invalidation: passive, the dispatcher feeds us.
                yield env.timeout(self.decision_interval_s)
            self._decide()

    # ------------------------------------------------------------------
    def _decide(self) -> None:
        """Re-pick the mode from the window's measured rates."""
        window = self.decision_interval_s
        visit_rate = self._visits_in_window / window
        update_rate = self._updates_in_window / window
        self._visits_in_window = 0
        self._updates_in_window = 0

        if update_rate == 0.0:
            # Silence: sit in invalidation mode, cost nothing until the
            # source notices us (Algorithm 1's silence branch).
            target = MODE_INVALIDATION
        elif self.staleness_tolerance_s < self.ttl_s / 2.0:
            # Tight tolerance: push if the content is actually being
            # watched here, otherwise invalidation (users still always
            # get fresh data, but unseen updates are never transferred).
            target = MODE_PUSH if visit_rate >= update_rate else MODE_INVALIDATION
        else:
            # Tolerant + active: TTL polling aggregates update runs.
            target = MODE_TTL

        if target == self.mode:
            self._pending_target = None
        elif target == self._pending_target:
            self._pending_target = None
            self._switch_to(target)
        else:
            self._pending_target = target

    def _switch_to(self, target: str) -> None:
        server = self.server
        self.mode = target
        self.mode_history.append((server.env.now, target))
        server.send(
            SWITCH_NOTICE,
            server.upstream,
            server.content.light_size_kb,
            version=server.cached_version,
            payload={"mode": target},
        )

    # ------------------------------------------------------------------
    # message handling
    # ------------------------------------------------------------------
    def on_push(self, message: Message) -> None:
        self.server.apply_version(message.version, ttl=self.ttl_s)

    def serve(self, message: Message) -> Optional[Event]:
        self._visits_in_window += 1
        return self.ensure_fresh()
