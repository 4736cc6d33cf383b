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

from typing import Generator, Iterable, Optional

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
    def processes(self) -> Iterable[Generator]:
        return [self._control_loop()]

    def _control_loop(self) -> Generator:
        server = self.server
        env = server.env
        if self.stream is not None:
            yield env.timeout(self.stream.uniform(0.0, self.ttl_s))
        while True:
            # --- TTL phase: poll while updates keep arriving ------------
            self.mode = MODE_TTL
            while True:
                yield env.timeout(self.ttl_s)
                got_update = yield from self.poll_once()
                if not got_update:
                    break

            # --- switch to Invalidation --------------------------------
            self.switches_to_invalidation += 1
            self.mode = MODE_INVALIDATION
            if env.tracer.enabled:
                env.tracer.emit(
                    env.now, "mode_switch", server.node.node_id,
                    mode=MODE_INVALIDATION,
                )
            server.send(
                SWITCH_NOTICE,
                server.upstream,
                server.content.light_size_kb,
                version=server.cached_version,
                payload={"mode": "invalidation"},
            )

            # --- wait for an invalidation notice ------------------------
            if not server.is_invalidated:
                self._invalidated_ev = server.env.event()
                yield self._invalidated_ev
                self._invalidated_ev = None

            # --- wait for a visit to complete the recovery fetch --------
            if server.is_invalidated:
                self._recovered_ev = server.env.event()
                yield self._recovered_ev
                self._recovered_ev = None

            # --- back to TTL --------------------------------------------
            self.switches_to_ttl += 1
            if env.tracer.enabled:
                env.tracer.emit(
                    env.now, "mode_switch", server.node.node_id, mode=MODE_TTL
                )
            server.send(
                SWITCH_NOTICE,
                server.upstream,
                server.content.light_size_kb,
                version=server.cached_version,
                payload={"mode": "ttl"},
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
            self.server.send(
                SWITCH_NOTICE,
                self.server.upstream,
                self.server.content.light_size_kb,
                version=self.server.cached_version,
                payload={"mode": "invalidation"},
            )

    def on_invalidate(self, message: Message) -> None:
        self.server.mark_invalidated(message.version)
        if self._invalidated_ev is not None and not self._invalidated_ev.triggered:
            self._invalidated_ev.succeed()

    def _close_refresh(self, message: Message, response: Optional[Message]) -> None:
        # The visit-triggered recovery fetch: once it lands, the control
        # loop switches back to TTL -- after the answers waiting on the
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

    def processes(self) -> Iterable[Generator]:
        return [self._poll_loop()]

    def _poll_loop(self) -> Generator:
        env = self.server.env
        if self.stream is not None:
            yield env.timeout(self.stream.uniform(0.0, self.min_ttl_s))
        while True:
            yield env.timeout(self.current_ttl_s)
            message, waiter = self._open_round(self.max_ttl_s)
            response = yield waiter
            if self._close_round(message, response, self.current_ttl_s):
                self.current_ttl_s = max(
                    self.min_ttl_s, self.current_ttl_s * self.shrink_factor
                )
            else:
                self.current_ttl_s = min(
                    self.max_ttl_s, self.current_ttl_s * self.grow_factor
                )
