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

from ..network.message import SWITCH_NOTICE, Message
from ..sim.engine import Event
from ..sim.rng import RandomStream
from .base import ServerPolicy

__all__ = ["SelfAdaptivePolicy", "AdaptiveTTLPolicy"]

MODE_TTL = "ttl"
MODE_INVALIDATION = "invalidation"


class SelfAdaptivePolicy(ServerPolicy):
    """Switch between TTL polling and Invalidation (Algorithm 1)."""

    method_name = "self-adaptive"
    loops = True

    def __init__(self, ttl_s: float, stream: Optional[RandomStream] = None) -> None:
        if ttl_s <= 0:
            raise ValueError("ttl_s must be positive")
        super().__init__()
        self.ttl_s = ttl_s
        self.stream = stream
        self.mode = MODE_TTL
        self._invalidated_ev: Optional[Event] = None
        self._recovered_ev: Optional[Event] = None
        #: Mode switches performed, for experiments/debugging.
        self.switches_to_invalidation = 0
        self.switches_to_ttl = 0

    # ------------------------------------------------------------------
    def _begin(self, event: Event) -> None:
        if not self._looping:
            return
        if self.stream is None:
            self._sleep(event)
        else:
            offset = self.stream.uniform(0.0, self.ttl_s)
            self.server.env.timeout(offset).callbacks.append(self._sleep)

    def _sleep(self, _event: Event) -> None:
        """TTL phase: poll one TTL from now."""
        if not self._looping:
            return
        self.server.env.timeout(self.ttl_s).callbacks.append(self._poll)

    def _poll(self, _event: Event) -> None:
        if not self._looping:
            return
        self._round, waiter = self._open_round(self.ttl_s)
        waiter.callbacks.append(self._on_poll_reply)

    def _on_poll_reply(self, waiter: Event) -> None:
        if not self._looping:
            return
        if self._close_round(self._round, waiter.value, self.ttl_s):
            self._sleep(waiter)  # updates keep arriving: poll on
            return
        # No update: switch to Invalidation and wait for a notice.
        self.switches_to_invalidation += 1
        self._switch(MODE_INVALIDATION)
        if self.server.is_invalidated:
            self._await_recovery(waiter)
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
        self._notify(mode)

    def _notify(self, mode: str) -> None:
        server = self.server
        server.send(
            SWITCH_NOTICE,
            server.upstream,
            server.content.light_size_kb,
            version=server.cached_version,
            payload={"mode": mode},
        )

    # ------------------------------------------------------------------
    def reannounce(self) -> None:
        """Re-register the current mode with a *new* upstream.

        Needed after failover re-points ``server.upstream``: a member
        sitting in Invalidation mode must tell the replacement source to
        notify it, or it would wait forever on a notice the new source
        does not know to send.
        """
        if self.mode == MODE_INVALIDATION:
            self._notify(MODE_INVALIDATION)

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

    The TTL shrinks multiplicatively when a poll finds an update and
    grows when it does not.  The paper argues (Section 5.1) that such
    prediction misfires on irregular update patterns; this policy exists
    so the ablation benchmarks can quantify that claim.
    """

    method_name = "adaptive-ttl"
    loops = True

    def __init__(
        self,
        min_ttl_s: float,
        max_ttl_s: float,
        stream: Optional[RandomStream] = None,
        grow_factor: float = 2.0,
        shrink_factor: float = 0.5,
    ) -> None:
        if not 0 < min_ttl_s <= max_ttl_s:
            raise ValueError("need 0 < min_ttl_s <= max_ttl_s")
        if grow_factor <= 1.0 or not 0.0 < shrink_factor < 1.0:
            raise ValueError("grow_factor > 1 and 0 < shrink_factor < 1 required")
        super().__init__()
        self.min_ttl_s = min_ttl_s
        self.max_ttl_s = max_ttl_s
        self.stream = stream
        self.grow_factor = grow_factor
        self.shrink_factor = shrink_factor
        self.current_ttl_s = min_ttl_s

    def _begin(self, event: Event) -> None:
        if not self._looping:
            return
        if self.stream is None:
            self._sleep(event)
        else:
            offset = self.stream.uniform(0.0, self.min_ttl_s)
            self.server.env.timeout(offset).callbacks.append(self._sleep)

    def _sleep(self, _event: Event) -> None:
        if not self._looping:
            return
        self.server.env.timeout(self.current_ttl_s).callbacks.append(self._poll)

    def _poll(self, _event: Event) -> None:
        if not self._looping:
            return
        self._round, waiter = self._open_round(self.max_ttl_s)
        waiter.callbacks.append(self._on_poll_reply)

    def _on_poll_reply(self, waiter: Event) -> None:
        if not self._looping:
            return
        if self._close_round(self._round, waiter.value, self.current_ttl_s):
            self.current_ttl_s = max(
                self.min_ttl_s, self.current_ttl_s * self.shrink_factor
            )
        else:
            self.current_ttl_s = min(
                self.max_ttl_s, self.current_ttl_s * self.grow_factor
            )
        self._sleep(waiter)
