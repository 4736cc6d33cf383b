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

A busy sender port queues the *message* in the node's FIFO
(``port_waiters``).  Only a message on the wire -- transmitting or
propagating -- holds a :class:`_FastTransfer`: a pooled, slotted kernel
event that is itself pushed on the heap for its two hops (transmit done,
deliver), each a callback from one list shared by the fabric's
transfers.  A free port is claimed inside ``send``, and a released port
is handed to the next waiting message synchronously, with no generator
frame, no ``Process`` and no grant event.  A message costs two heap
events and no completion object: ``send`` returns nothing, and a drop
shows only in :class:`FabricCounters` and the ``msg_drop`` trace.  See
``docs/performance.md``; ``tests/test_golden.py`` pins the outputs.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from heapq import heappush as _heappush
from typing import Any, Callable, Dict, List, Optional, Tuple

from ..metrics.traffic import TrafficLedger
from ..obs.counters import FabricCounters
from ..sim.engine import Environment, Event, NORMAL
from ..sim.rng import StreamRegistry
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


class _FastTransfer(Event):
    """One message on the wire, and the heap event of its next hop.

    Pooled per fabric: bound to a message when it takes the sender's
    port, pushed once per stage with that stage's shared callback list
    (the engine passes the transfer itself to the callback), and
    returned to the pool after delivery.
    """

    __slots__ = ("fabric", "message")

    message: Message

    def __init__(self, fabric: "NetworkFabric") -> None:
        super().__init__(fabric.env)
        # Processed and idle until a stage arms it; ``Event`` set the
        # ``_ok`` that the event loop checks after every callback.
        self.callbacks = None
        self._value = None
        self.fabric = fabric

    def _granted(self) -> None:
        """Stage 1b (contended): the port was handed to this transfer's
        message -- start transmitting now."""
        fabric = self.fabric
        env = self.env
        message = self.message
        self.callbacks = fabric._cb_transmit
        delay = fabric._overhead_s + message.size_kb / message.src.uplink_kbps
        if env.sanitizer is not None:
            env.schedule(self, delay=delay)
            return
        env._eid += 1
        _heappush(env._queue, (env._now + delay, NORMAL, env._eid, self))

    def _transmit_done(self) -> None:
        """Stage 2: bytes left the sender -- hand the port on, account,
        draw the path's delays, then propagate.

        The floating-point operation sequence and the RNG draw order
        below are part of the pinned outputs (``tests/test_golden.py``):
        ``lo + span * random()`` with ``span = hi - lo`` is
        ``Random.uniform(lo, hi)``, and ``x if x > 0.0 else 0.0`` is
        ``max(0.0, x)``, bit for bit.
        """
        fabric = self.fabric
        env = self.env
        now = env._now
        message = self.message
        src: NetworkNode = message.src
        dst: NetworkNode = message.dst
        counters = fabric.counters
        # Release before accounting: the next waiting message takes the
        # port synchronously, so its transmit hop is scheduled here, at
        # the release instant, ahead of this message's propagation hop.
        waiters = src.port_waiters
        if waiters:
            pool = fabric._transfer_pool
            transfer = pool.pop() if pool else _FastTransfer(fabric)
            transfer.message = waiters.popleft()
            transfer._granted()
        else:
            src.port_busy = False
        # ``send`` stamped ``created_at`` when the message entered the port.
        counters.queueing_s += now - message.created_at

        entry = fabric._path_cache.get((src.node_id, dst.node_id))
        if entry is None:
            entry = fabric._path(src, dst)
        distance, base, link_key, same_isp = entry
        size_kb = message.size_kb
        fabric._record(message, distance)
        counters.messages_sent += 1
        counters.bytes_kb += size_kb
        link_bytes = counters.link_bytes_kb
        link_bytes[link_key] = link_bytes.get(link_key, 0.0) + size_kb
        tracer = env.tracer
        if tracer.enabled:
            tracer.emit(now, "msg_send", src.node_id, **message.trace_detail())

        jitter = (
            base
            * (1.0 + (fabric._jitter_lo + fabric._jitter_span * fabric._jitter_random()))
            - base
        )
        raw = base + jitter
        propagation = raw if raw > 0.0 else 0.0
        if same_isp:
            penalty = 0.0
        else:
            raw = fabric._isp_base_s + (
                fabric._isp_lo + fabric._isp_span * fabric._isp_random()
            )
            penalty = raw if raw > 0.0 else 0.0
        counters.propagation_s += propagation
        if penalty > 0.0:
            counters.isp_penalty_s += penalty
            counters.isp_crossing_messages += 1
            counters.isp_crossing_kb += size_kb
        self.callbacks = fabric._cb_deliver
        delay = propagation + penalty
        if env.sanitizer is not None:
            env.schedule(self, delay=delay)
            return
        env._eid += 1
        _heappush(env._queue, (now + delay, NORMAL, env._eid, self))

    def _deliver(self) -> None:
        """Stage 3: receiver check, accounting, then delivery; the
        transfer goes back to the pool.

        The counter increment and ``msg_recv`` trace run *before* the
        handoff: the receiving actor's handler runs synchronously inside
        ``deliver()``, and its own traces must follow the ``msg_recv``
        that caused them.
        """
        fabric = self.fabric
        message = self.message
        dst: NetworkNode = message.dst
        tracer = self.env.tracer
        if dst._down_count:
            fabric.dropped += 1
            fabric.counters.dropped_receiver_down += 1
            if tracer.enabled:
                tracer.emit(
                    self.env.now, "msg_drop", dst.node_id,
                    reason="receiver_down", **message.trace_detail()
                )
        else:
            fabric.counters.messages_delivered += 1
            if tracer.enabled:
                tracer.emit(
                    self.env.now, "msg_recv", dst.node_id, **message.trace_detail()
                )
            dst.deliver(message)
        # Unbinding (rather than None-ing) the slot drops the reference
        # while pooled without widening the attribute type to Optional.
        del self.message
        fabric._transfer_pool.append(self)


class NetworkFabric:
    """Carries messages between :class:`NetworkNode` objects."""

    __slots__ = (
        "env",
        "ledger",
        "params",
        "dropped",
        "counters",
        "_path_cache",
        "_transfer_pool",
        "_cb_transmit",
        "_cb_deliver",
        "_record",
        "_overhead_s",
        "_jitter_lo",
        "_jitter_span",
        "_jitter_random",
        "_isp_base_s",
        "_isp_lo",
        "_isp_span",
        "_isp_random",
    )

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
        self.params = params = params if params is not None else FabricParams()
        streams = streams if streams is not None else StreamRegistry(0)
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
        #: Idle :class:`_FastTransfer` objects.  A transfer is live only
        #: while its message transmits or propagates, so the pool holds
        #: about as many as the run ever had on the wire at once.
        self._transfer_pool: List[_FastTransfer] = []
        # One callback list per stage, shared by every transfer of this
        # fabric: the engine only ever *iterates* an event's callback
        # list.  Read from the class here, not at import, so an entry
        # point replaced before the build (benchmarks/e2e/layers.py) is
        # the one the stages call.
        self._cb_transmit: List[Callable[[Any], None]] = [
            _FastTransfer._transmit_done
        ]
        self._cb_deliver: List[Callable[[Any], None]] = [
            _FastTransfer._deliver
        ]
        # The stages' constants and draw functions, fixed for the
        # fabric's lifetime.  ``lo``/``span`` are ``Random.uniform``'s
        # ``a`` and ``b - a`` for the symmetric jitter ranges.
        self._record = self.ledger.record
        self._overhead_s = params.per_message_overhead_s
        frac = params.latency_jitter_frac
        self._jitter_lo = -frac
        self._jitter_span = frac - self._jitter_lo
        self._jitter_random = streams.stream("fabric.jitter").random
        inter = params.inter_isp
        self._isp_base_s = inter.base_s
        self._isp_lo = -inter.jitter_s
        self._isp_span = inter.jitter_s - self._isp_lo
        self._isp_random = streams.stream("fabric.isp").random

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

        A down *sender* drops the message here, a down receiver at
        delivery time; both count in :attr:`counters` and emit a
        ``msg_drop`` trace event.  A busy port queues the message; a
        free one starts its transmission (stage 1).
        """
        env = self.env
        now = env._now
        message.created_at = now
        src: NetworkNode = message.src
        if src._down_count:
            self.dropped += 1
            self.counters.dropped_sender_down += 1
            tracer = env.tracer
            if tracer.enabled:
                tracer.emit(
                    now, "msg_drop", src.node_id,
                    reason="sender_down", **message.trace_detail()
                )
            return
        if src.port_busy:
            waiters = src.port_waiters
            if waiters is None:
                waiters = src.port_waiters = deque()
            waiters.append(message)
            self.counters.port_waits += 1
            return
        src.port_busy = True
        pool = self._transfer_pool
        transfer = pool.pop() if pool else _FastTransfer(self)
        transfer.message = message
        transfer.callbacks = self._cb_transmit
        delay = self._overhead_s + message.size_kb / src.uplink_kbps
        if env.sanitizer is not None:
            env.schedule(transfer, delay=delay)
            return
        env._eid += 1
        _heappush(env._queue, (now + delay, NORMAL, env._eid, transfer))
