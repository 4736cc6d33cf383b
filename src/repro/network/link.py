"""The network fabric: message transport with realistic delays.

Every message experiences

1. *output-port queueing* at the sender (transmissions serialise on the
   sender's uplink -- the paper's provider-fan-out bottleneck),
2. *transmission delay* ``size / uplink bandwidth``,
3. *propagation delay* proportional to great-circle distance (light in
   fibre travels at roughly 2/3 c), plus a small per-path base latency,
4. an *inter-ISP penalty* when the message crosses ISP boundaries
   (Section 3.4.3 of the paper).

The fabric also feeds every delivered message into a
:class:`~repro.metrics.traffic.TrafficLedger` so experiments can report
traffic cost (km*KB), message counts, and network load (km).

Each message travels those stages in a slotted, callback-driven state
machine (:class:`_FastTransfer`) that chains raw kernel events directly
-- queue -> transmit -> propagate -> deliver -- reusing one hop event
per message and keeping the sender's output-port FIFO itself: a free
port is claimed synchronously, and a released port is handed to the
next queued transfer synchronously, with no generator frame, no
``Process``, and no ``Request``/grant event.  A message costs two heap
events (transmit done, deliver) and no completion object: ``send``
returns nothing, and a drop shows only in :class:`FabricCounters` and
the ``msg_drop`` trace.  See ``docs/performance.md``;
``tests/test_golden.py`` pins the outputs.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

from ..metrics.traffic import TrafficLedger
from ..obs.counters import FabricCounters
from heapq import heappush as _heappush

from ..sim.engine import Environment, Event, NORMAL
from ..sim.rng import RandomStream, StreamRegistry
from .isp import InterISPModel
from .message import Message
from .node import NetworkNode

__all__ = ["FabricParams", "NetworkFabric", "SPEED_OF_LIGHT_FIBRE_KM_S"]

#: Signal speed in optical fibre (~2/3 of c), km/s.
SPEED_OF_LIGHT_FIBRE_KM_S = 200_000.0


@dataclass
class FabricParams:
    """Tunable constants of the transport model."""

    #: Propagation speed along the (idealised great-circle) path.
    speed_km_per_s: float = SPEED_OF_LIGHT_FIBRE_KM_S
    #: Fixed per-path overhead (routing, last-mile), seconds.
    base_latency_s: float = 0.004
    #: Per-message service time at the sender's output port (syscalls,
    #: application processing) -- what makes a provider unicasting to N
    #: children serialise ~N of these and drives the Fig. 19/20 trends.
    per_message_overhead_s: float = 0.005
    #: Relative jitter applied to the propagation component.
    latency_jitter_frac: float = 0.10
    #: Path-stretch factor: real routes are longer than great circles.
    path_stretch: float = 1.3
    #: Inter-ISP handoff penalty model.
    inter_isp: InterISPModel = field(default_factory=InterISPModel)

    def __post_init__(self) -> None:
        if self.speed_km_per_s <= 0:
            raise ValueError("speed_km_per_s must be positive")
        if self.path_stretch < 1.0:
            raise ValueError("path_stretch must be >= 1")
        if self.base_latency_s < 0:
            raise ValueError("base_latency_s must be >= 0")
        if self.per_message_overhead_s < 0:
            raise ValueError("per_message_overhead_s must be >= 0")
        if self.latency_jitter_frac < 0:
            raise ValueError("latency_jitter_frac must be >= 0")


class _FastTransfer:
    """Callback-driven transport of one message.

    One reusable ``hop`` event carries the transfer through
    transmit-done -> deliver (reset and rescheduled between stages
    instead of allocating a new ``Timeout`` per stage).
    """

    __slots__ = (
        "fabric",
        "env",
        "message",
        "hop",
        "entered_port",
        "_cb_transmit",
        "_cb_deliver",
        "_overhead_s",
        "_counters",
        "_record",
        "_path",
        "_jitter",
        "_isp_uniform",
        "_jitter_frac",
        "_inter",
    )

    def __init__(self, fabric: "NetworkFabric") -> None:
        env = fabric.env
        self.fabric = fabric
        self.env = env
        self.entered_port = 0.0
        # One reusable hop event; idle (processed) until a launch arms it.
        hop = Event(env)
        hop._ok = True
        hop._value = None
        hop.callbacks = None
        self.hop = hop
        # Prebuilt single-callback lists, one per stage: the engine only
        # ever *iterates* an event's callback list, so the same list
        # object can be re-attached to the hop for every message this
        # pooled transfer carries (one list allocation per transfer
        # instead of one per hop).
        self._cb_transmit: List[Callable[[Event], None]] = [self._transmit_done]
        self._cb_deliver: List[Callable[[Event], None]] = [self._deliver]
        # Fabric collaborators and parameters are fixed for the fabric's
        # lifetime; caching them (and the hot bound methods) on the
        # pooled transfer keeps stage 2 off the attribute-chain treadmill.
        params = fabric.params
        self._overhead_s = params.per_message_overhead_s
        self._jitter_frac = params.latency_jitter_frac
        self._inter = params.inter_isp
        self._counters = fabric.counters
        self._record = fabric.ledger.record
        self._path = fabric._path
        self._jitter = fabric._jitter_stream.jitter
        self._isp_uniform = fabric._isp_stream.uniform

    def _launch(self, message: Message) -> None:
        """Arm this (new or recycled) transfer for *message*.

        The start stage runs synchronously inside ``send()``: the sender
        check and port claim read state that only the current callback
        cascade could change, so no start hop is needed.
        """
        self.message: Message = message
        src: NetworkNode = message.src
        if not src.is_up:
            self._drop(src.node_id, "sender_down", "dropped_sender_down")
            return
        self._claim_port(src, message)

    # ------------------------------------------------------------------
    def _next_hop(self, callbacks: List[Callable[[Event], None]], delay: float) -> None:
        """Re-arm the (already processed) hop event for the next stage.

        ``Environment.schedule`` inlined: two messages per request at CDN
        scale make the extra call measurable.  Sanitize runs take the
        un-inlined path so tie perturbation covers transport hops too.
        """
        hop = self.hop
        hop.callbacks = callbacks
        env = self.env
        if env.sanitizer is not None:
            env.schedule(hop, delay=delay)
            return
        env._eid += 1
        _heappush(env._queue, (env._now + delay, NORMAL, env._eid, hop))

    def _finish(self) -> None:
        """The transfer (and its internal hop event) is now idle; hand
        it back to the fabric for the next send().  Unbinding (rather
        than None-ing) the slot drops the reference while pooled without
        widening the attribute type to Optional."""
        del self.message
        self.fabric._transfer_pool.append(self)

    def _drop(self, node_id: str, reason: str, counter_attr: str) -> None:
        fabric = self.fabric
        fabric.dropped += 1
        counters = fabric.counters
        setattr(counters, counter_attr, getattr(counters, counter_attr) + 1)
        tracer = self.env.tracer
        if tracer.enabled:
            tracer.emit(
                self.env.now, "msg_drop", node_id,
                reason=reason, **self.message.trace_detail()
            )
        self._finish()

    # ------------------------------------------------------------------
    # stages
    # ------------------------------------------------------------------
    def _claim_port(self, src: NetworkNode, message: Message) -> None:
        """Stage 1: claim the sender's output port, or queue on it.

        A busy port queues the transfer FIFO in ``src.port_waiters``
        (built on first contention); the transfer holding the port hands
        it over in :meth:`_transmit_done`.
        """
        self.entered_port = self.env._now
        if src.port_busy:
            waiters = src.port_waiters
            if waiters is None:
                waiters = src.port_waiters = deque()
            waiters.append(self)
            self._counters.port_waits += 1
            return
        src.port_busy = True
        self._next_hop(
            self._cb_transmit,
            self._overhead_s + message.size_kb / src.uplink_kbps,
        )

    def _granted(self) -> None:
        """Stage 1b (contended): the port was handed to us -- start
        transmitting now."""
        message = self.message
        src: NetworkNode = message.src
        self._next_hop(
            self._cb_transmit,
            self._overhead_s + message.size_kb / src.uplink_kbps,
        )

    def _transmit_done(self, _event: Event) -> None:
        """Stage 2: bytes left the sender -- account, then propagate.

        The floating-point operation sequence and the RNG draw order
        below are part of the pinned outputs (``tests/test_golden.py``).
        """
        env = self.env
        message = self.message
        src: NetworkNode = message.src
        dst: NetworkNode = message.dst
        counters = self._counters
        # Release before accounting: the next waiter takes the port
        # synchronously, so its transmit hop is scheduled here, at the
        # release instant, ahead of this message's propagation hop.
        waiters = src.port_waiters
        if waiters:
            waiters.popleft()._granted()
        else:
            src.port_busy = False
        counters.queueing_s += env._now - self.entered_port

        distance, base, link_key, same_isp = self._path(src, dst)
        size_kb = message.size_kb
        self._record(message, distance)
        counters.messages_sent += 1
        counters.bytes_kb += size_kb
        link_bytes = counters.link_bytes_kb
        link_bytes[link_key] = link_bytes.get(link_key, 0.0) + size_kb
        tracer = env.tracer
        if tracer.enabled:
            tracer.emit(env.now, "msg_send", src.node_id, **message.trace_detail())

        jitter = self._jitter(base, self._jitter_frac) - base
        propagation = max(0.0, base + jitter)
        if same_isp:
            penalty = 0.0
        else:
            inter = self._inter
            penalty = max(
                0.0,
                inter.base_s + self._isp_uniform(-inter.jitter_s, inter.jitter_s),
            )
        counters.propagation_s += propagation
        if penalty > 0.0:
            counters.isp_penalty_s += penalty
            counters.isp_crossing_messages += 1
            counters.isp_crossing_kb += size_kb
        self._next_hop(self._cb_deliver, propagation + penalty)

    def _deliver(self, _event: Event) -> None:
        """Stage 3: receiver check, accounting, then delivery.

        The counter increment and ``msg_recv`` trace run *before* the
        handoff: the receiving actor's handler runs synchronously inside
        ``deliver()``, and its own traces must follow the ``msg_recv``
        that caused them.
        """
        message = self.message
        dst: NetworkNode = message.dst
        if not dst.is_up:
            self._drop(dst.node_id, "receiver_down", "dropped_receiver_down")
            return
        self._counters.messages_delivered += 1
        tracer = self.env.tracer
        if tracer.enabled:
            tracer.emit(
                self.env.now, "msg_recv", dst.node_id, **message.trace_detail()
            )
        dst.deliver(message)
        self._finish()


class NetworkFabric:
    """Carries messages between :class:`NetworkNode` objects."""

    def __init__(
        self,
        env: Environment,
        ledger: Optional[TrafficLedger] = None,
        params: Optional[FabricParams] = None,
        streams: Optional[StreamRegistry] = None,
        path_cache: Optional[Dict[Tuple[str, str], Tuple[float, float, str, bool]]] = None,
    ) -> None:
        self.env = env
        self.ledger = ledger if ledger is not None else TrafficLedger()
        self.params = params if params is not None else FabricParams()
        streams = streams if streams is not None else StreamRegistry(0)
        self._jitter_stream: RandomStream = streams.stream("fabric.jitter")
        self._isp_stream: RandomStream = streams.stream("fabric.isp")
        #: Messages dropped because the sender or the receiver was down.
        self.dropped = 0
        #: Always-on per-layer accounting (see :mod:`repro.obs.counters`).
        self.counters = FabricCounters()
        #: ``(src_id, dst_id) -> (distance_km, min_latency_s, link_key,
        #: same_isp)``.  Node positions, ISP homes, and fabric params are
        #: fixed for a run, so the trig, stretch arithmetic, and link-key
        #: string happen once per directed pair.  The testbed passes a
        #: shared dict here for sweep points that reuse a topology (the
        #: entries are pure derived geometry, valid for any run over the
        #: same placement and default params).
        self._path_cache: Dict[Tuple[str, str], Tuple[float, float, str, bool]] = (
            path_cache if path_cache is not None else {}
        )
        #: Recycled :class:`_FastTransfer` objects (with their internal
        #: hop events); avoids two allocations per message.  Only
        #: transfers that have fully finished live here.
        self._transfer_pool: List[_FastTransfer] = []

    # ------------------------------------------------------------------
    # delay model
    # ------------------------------------------------------------------
    def _path(self, src: NetworkNode, dst: NetworkNode) -> Tuple[float, float, str, bool]:
        """Memoised ``(distance_km, min_latency_s, link_key, same_isp)``."""
        key = (src.node_id, dst.node_id)
        entry = self._path_cache.get(key)
        if entry is None:
            distance = src.distance_km(dst)
            params = self.params
            entry = (
                distance,
                params.base_latency_s
                + distance * params.path_stretch / params.speed_km_per_s,
                "%s->%s" % (src.node_id, dst.node_id),
                src.isp.isp_id == dst.isp.isp_id,
            )
            self._path_cache[key] = entry
        return entry

    def min_latency_s(self, src: NetworkNode, dst: NetworkNode) -> float:
        """Deterministic one-way latency (no jitter, no queueing).

        Used by proximity-aware tree building as the "inter-ping latency"
        measure of Section 4.
        """
        return self._path(src, dst)[1]

    # ------------------------------------------------------------------
    # transport
    # ------------------------------------------------------------------
    def send(self, message: Message) -> None:
        """Send *message*: the receiver's consumer gets it at delivery
        time.

        A down *sender* drops the message immediately, a down receiver
        at delivery time; both count in :attr:`counters` and emit a
        ``msg_drop`` trace event.
        """
        message.created_at = self.env.now
        pool = self._transfer_pool
        transfer = pool.pop() if pool else _FastTransfer(self)
        transfer._launch(message)

    def rtt_s(self, a: NetworkNode, b: NetworkNode) -> float:
        """Deterministic round-trip latency estimate between two nodes."""
        return 2.0 * self.min_latency_s(a, b)
