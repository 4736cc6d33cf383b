"""Self-adaptive update method (the paper's Algorithm 1) and the
adaptive-TTL baseline it is compared against.

Algorithm 1 (Section 5.1)::

    Procedure TTL_based_update():
        do { sleep TTL; poll } while an update arrived
        Invalidation_based_update()

    Procedure Invalidation_based_update():
        wait (an invalidation)
        wait (a visit)
        poll update and notify switch Invalidation -> TTL
        TTL_based_update()

During bursts the replica polls on its own TTL phase (cheap, aggregates
updates, desynchronised across replicas -- avoiding Incast); during
silence it sits in Invalidation mode and costs nothing until the
provider's single notice plus the first subsequent visit.
"""

from __future__ import annotations

from typing import Optional

from ..network.message import Message
from ..sim.engine import Event
from ..sim.rng import RandomStream
from .base import ServerPolicy

__all__ = ["SelfAdaptivePolicy", "AdaptiveTTLPolicy"]

MODE_TTL = "ttl"
MODE_INVALIDATION = "invalidation"

#: Adaptive TTL's back-off: a poll that finds no update doubles the
#: period, one that finds an update halves it.
GROW_FACTOR = 2.0
SHRINK_FACTOR = 0.5


class SelfAdaptivePolicy(ServerPolicy):
    """Switch between TTL polling and Invalidation (Algorithm 1).

    The :class:`ServerPolicy` loop is the TTL phase: it polls on while
    updates arrive; a poll without one switches to Invalidation, whose
    recovery fetch switches back to the loop.
    """

    method_name = "self-adaptive"
    loops = True

    def __init__(self, ttl_s: float, stream: Optional[RandomStream] = None) -> None:
        super().__init__(ttl_s, stream)
        self.mode = MODE_TTL
        self._invalidated_ev: Optional[Event] = None
        self._recovered_ev: Optional[Event] = None
        #: Mode switches performed, for experiments/debugging.
        self.switches_to_invalidation = 0
        self.switches_to_ttl = 0

    # ------------------------------------------------------------------
    def _after_poll(self, got_update: bool, event: Event) -> None:
        if got_update:
            self._sleep(event)  # updates keep arriving: poll on
            return
        # No update: switch to Invalidation and wait for a notice.
        self.switches_to_invalidation += 1
        self._switch(MODE_INVALIDATION)
        if self.server.is_invalidated:
            self._await_recovery(event)
        else:
            self._invalidated_ev = self.server.env.event()
            self._invalidated_ev.callbacks.append(self._await_recovery)

    def _await_recovery(self, event: Event) -> None:
        """Invalidated: wait for a visit to complete the recovery fetch."""
        self._invalidated_ev = None
        if not self._looping:
            return
        if self.server.is_invalidated:
            self._recovered_ev = self.server.env.event()
            self._recovered_ev.callbacks.append(self._back_to_ttl)
        else:
            self._back_to_ttl(event)

    def _back_to_ttl(self, event: Event) -> None:
        self._recovered_ev = None
        if not self._looping:
            return
        self.switches_to_ttl += 1
        self._switch(MODE_TTL)
        self._sleep(event)

    def _switch(self, mode: str) -> None:
        """Enter *mode* and send the upstream the switch notice."""
        self.mode = mode
        env = self.server.env
        if env.tracer.enabled:
            env.tracer.emit(env.now, "mode_switch", self.server.node.node_id, mode=mode)
        self._announce(mode)

    # ------------------------------------------------------------------
    def reannounce(self) -> None:
        """Re-register the current mode with a *new* upstream.

        Needed after failover re-points ``server.upstream``: a member
        sitting in Invalidation mode must tell the replacement source to
        notify it, or it would wait forever on a notice the new source
        does not know to send.
        """
        if self.mode == MODE_INVALIDATION:
            self._announce(MODE_INVALIDATION)

    def on_invalidate(self, message: Message) -> None:
        self.server.mark_invalidated(message.version)
        if self._invalidated_ev is not None and not self._invalidated_ev.triggered:
            self._invalidated_ev.succeed()

    def _close_refresh(self, message: Message, response: Optional[Message]) -> None:
        # The visit-triggered recovery fetch: once it lands, the loop
        # switches back to TTL -- after the answers waiting on the
        # fetch, which run in this frame.
        super()._close_refresh(message, response)
        recovered = self._recovered_ev
        if response is not None and recovered is not None and not recovered.triggered:
            recovered.succeed()


class AdaptiveTTLPolicy(ServerPolicy):
    """Adaptive-TTL baseline ([6], [22], [24]; Alex-style backoff).

    The polling period (``ttl_s``) shrinks multiplicatively when a poll
    finds an update and grows when it does not, within ``[min_ttl_s,
    max_ttl_s]``.  The paper argues (Section 5.1) that such prediction
    misfires on irregular update patterns; this policy exists so the
    ablation benchmarks can quantify that claim.
    """

    method_name = "adaptive-ttl"
    loops = True

    def __init__(
        self,
        min_ttl_s: float,
        max_ttl_s: float,
        stream: Optional[RandomStream] = None,
    ) -> None:
        if not 0 < min_ttl_s <= max_ttl_s:
            raise ValueError("need 0 < min_ttl_s <= max_ttl_s")
        super().__init__(min_ttl_s, stream)
        self.min_ttl_s = min_ttl_s
        self.max_ttl_s = max_ttl_s
        self.poll_timeout_s = max_ttl_s

    def _after_poll(self, got_update: bool, event: Event) -> None:
        if got_update:
            self.ttl_s = max(self.min_ttl_s, self.ttl_s * SHRINK_FACTOR)
        else:
            self.ttl_s = min(self.max_ttl_s, self.ttl_s * GROW_FACTOR)
        self._sleep(event)
