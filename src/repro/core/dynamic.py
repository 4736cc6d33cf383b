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

from typing import List, Optional, Tuple

from ..consistency.base import ServerPolicy
from ..network.message import SWITCH_NOTICE, Message
from ..sim.engine import Event
from ..sim.rng import RandomStream

__all__ = ["DynamicPolicy"]

MODE_TTL = "ttl"
MODE_INVALIDATION = "invalidation"
MODE_PUSH = "push"


class DynamicPolicy(ServerPolicy):
    """Per-replica mode switching driven by measured rates.

    The loop runs one decision window after another: in TTL mode it
    polls every TTL inside the window, in push and invalidation modes it
    sleeps through it; at the window's end :meth:`_decide` re-picks the
    mode.
    """

    method_name = "dynamic"
    loops = True

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
        self._window_end = 0.0

    # ------------------------------------------------------------------
    def bind(self, server) -> None:
        super().bind(server)
        server.on_apply_hooks.append(self._count_update)

    def _count_update(self, version: int) -> None:
        self._updates_in_window += 1

    # ------------------------------------------------------------------
    def _begin(self, event: Event) -> None:
        if not self._looping:
            return
        if self.stream is None:
            self._first_window(event)
        else:
            offset = self.stream.uniform(0.0, self.ttl_s)
            self.server.env.timeout(offset).callbacks.append(self._first_window)

    def _first_window(self, event: Event) -> None:
        if not self._looping:
            return
        self.mode_history.append((self.server.env.now, self.mode))
        self._open_window(event)

    def _open_window(self, event: Event) -> None:
        env = self.server.env
        self._window_end = env.now + self.decision_interval_s
        if self.mode == MODE_TTL:
            self._sleep(event)
        else:
            # push / invalidation: passive, the dispatcher feeds us.
            env.timeout(self.decision_interval_s).callbacks.append(self._end_window)

    def _sleep(self, event: Event) -> None:
        """TTL mode: poll every TTL until the window ends."""
        env = self.server.env
        if env.now < self._window_end:
            delay = min(self.ttl_s, self._window_end - env.now)
            env.timeout(delay).callbacks.append(self._poll)
        else:
            self._end_window(event)

    def _poll(self, event: Event) -> None:
        if not self._looping:
            return
        if self.server.env.now >= self._window_end:
            self._end_window(event)
            return
        self._round, waiter = self._open_round(self.ttl_s)
        waiter.callbacks.append(self._on_poll_reply)

    def _on_poll_reply(self, waiter: Event) -> None:
        if not self._looping:
            return
        self._close_round(self._round, waiter.value, self.ttl_s)
        self._sleep(waiter)

    def _end_window(self, event: Event) -> None:
        if not self._looping:
            return
        self._decide()
        self._open_window(event)

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
