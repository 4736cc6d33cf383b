"""The end-user plane: every simulated user runs in a :class:`UserCohort`.

The paper's testbed users revisit the live content on a fixed period
(Section 4); Fig. 24 adds users sent to a different server on every
visit.  A cohort carries a whole population column-wise, so a user
costs a few array cells rather than a Python object with a generator
frame, a pending-request dict and a waiter event per request -- at
planet scale (1M+ users) those objects dominate memory and GC time.

- Per-slot state lives in parallel arrays: the poll TTL and the
  failed-visit count in unboxed :mod:`array` columns (``_ttl``,
  ``_failed``), plus the home server of each slot (``_targets``) or,
  for switch-every-visit users, the server each slot visited last
  (``_switch_last``).
- Visit deadlines live in one binary heap swept by a single control
  event, scheduled with :meth:`~repro.sim.engine.Environment.schedule_at`
  at the earliest deadline.
- Request timeouts share one monotone
  :class:`~repro.sim.timers.CallbackLane` (every request waits the same
  ``request_timeout_s``, so deadlines arrive sorted), with answered
  requests pruned lazily.
- Observations feed the incremental staleness trackers directly -- per
  slot in ``per-user`` mode, or through
  :class:`~repro.metrics.incremental.AggregateUserMetrics` scalar
  accumulators in ``aggregate`` mode -- and the cohort keeps no visit
  log in either mode.  A tracer's ``visit`` events carry each visit's
  time, version and server, in visit order.

Determinism contract: the ``tests/test_golden.py`` pins hold the
cohort's metrics, fabric counters and message/visit trace bit for bit.
What keeps them there:

- a visit sends one ``CONTENT_REQUEST``
  :class:`~repro.network.message.Message` through the shared fabric, so
  sequence numbers and jitter draws interleave with server traffic in
  event order;
- switch-every-visit draws come from one stream, at the visit instant,
  in visit order;
- a slot's next visit is at exactly ``response_time + ttl`` or
  ``timeout_time + ttl``, with the TTL read when that deadline is
  pushed, so :meth:`UserCohort.set_ttl` applies from the next visit;
- same-instant visit deadlines expire in the order they were pushed.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass
from heapq import heapify, heappop, heappush
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Tuple

from ..metrics.incremental import AggregateUserMetrics, UserObservationTracker
from ..network.message import CONTENT_REQUEST, Message
from ..sim.engine import Environment, Event
from ..sim.timers import CallbackLane
from .base import RESPONSE_KINDS

if TYPE_CHECKING:  # pragma: no cover - annotation-only imports
    from ..network.link import NetworkFabric
    from ..network.node import NetworkNode
    from ..sim.rng import RandomStream
    from .content import LiveContent

__all__ = ["UserCohort", "Observation", "REQUEST_TIMEOUT_S"]

#: Default seconds a user waits for a content response before the visit
#: counts as failed.
REQUEST_TIMEOUT_S = 30.0

_INF = float("inf")


@dataclass(frozen=True)
class Observation:
    """One successful content visit by one user: the record the batch
    pass in :mod:`repro.metrics.consistency` reads."""

    time: float
    version: int
    server_id: str


class UserCohort:
    """All end users of one deployment, stored column-wise.

    Slot *i* is user node ``nodes[i]``, whose first visit is at
    ``start_offsets[i]``.  Exactly one of *targets* (slot *i* visits its
    home server ``targets[i]``) or *switch_servers* + *switch_stream*
    (the Fig. 24 switch-every-visit users) must be given.  Call
    :meth:`start` once the servers have started.  ``testbed._make_users``
    builds the testbed's cohort in home-server-major slot order.
    """

    __slots__ = (
        "env",
        "fabric",
        "content",
        "nodes",
        "user_metrics",
        "aggregate",
        "trackers",
        "_ttl",
        "_failed",
        "_start_offsets",
        "_fixed",
        "_targets",
        "_switch_servers",
        "_switch_stream",
        "_switch_last",
        "_pending",
        "_visit_heap",
        "_order",
        "_armed_event",
        "_armed_at",
        "_timeouts",
        "_timeout_s",
        "_light_kb",
        "_started",
        "sweeps",
        "visits_started",
    )

    def __init__(
        self,
        env: Environment,
        fabric: "NetworkFabric",
        content: "LiveContent",
        nodes: Sequence["NetworkNode"],
        *,
        user_ttl_s: float,
        start_offsets: Sequence[float],
        targets: Optional[Sequence["NetworkNode"]] = None,
        switch_servers: Optional[Sequence["NetworkNode"]] = None,
        switch_stream: Optional["RandomStream"] = None,
        user_metrics: str = "per-user",
        request_timeout_s: float = REQUEST_TIMEOUT_S,
    ) -> None:
        if user_ttl_s <= 0:
            raise ValueError("user_ttl_s must be positive")
        if user_metrics not in ("per-user", "aggregate"):
            raise ValueError("user_metrics must be 'per-user' or 'aggregate'")
        n = len(nodes)
        if len(start_offsets) != n:
            raise ValueError("start_offsets must have one entry per node")
        offsets = [float(offset) for offset in start_offsets]
        # start() arms each first visit this many seconds after the
        # current time: an offset below 0 (or NaN) would run the clock
        # backwards.
        if not all(offset >= 0.0 for offset in offsets):
            raise ValueError("start_offsets must be >= 0")
        if (targets is None) == (switch_servers is None):
            raise ValueError("give exactly one of targets / switch_servers")
        if targets is not None and len(targets) != n:
            raise ValueError("targets must have one entry per node")
        if switch_servers is not None:
            if not switch_servers:
                raise ValueError("need at least one server")
            if switch_stream is None:
                raise ValueError("switch_servers requires switch_stream")
        self.env = env
        self.fabric = fabric
        self.content = content
        self.nodes = list(nodes)
        self.user_metrics = user_metrics
        self._ttl = array("d", [user_ttl_s]) * n
        self._failed = array("q", [0]) * n
        self._start_offsets = offsets
        self._fixed = targets is not None
        self._targets: List["NetworkNode"] = list(targets) if targets is not None else []
        self._switch_servers: List["NetworkNode"] = (
            list(switch_servers) if switch_servers is not None else []
        )
        self._switch_stream = switch_stream
        self._switch_last: List[Optional["NetworkNode"]] = (
            [None] * n if switch_servers is not None else []
        )
        #: In-flight requests: message seq -> (slot, request, target).
        #: The request message is retained for ``msg_timeout`` trace
        #: detail; the target for the visit traces.
        self._pending: Dict[int, Tuple[int, Message, "NetworkNode"]] = {}
        self._visit_heap: List[Tuple[float, int, int]] = []
        self._order = 0
        self._armed_event: Optional[Event] = None
        self._armed_at = _INF
        self._timeouts = CallbackLane(env, self._on_request_timeout, self._request_done)
        self._timeout_s = float(request_timeout_s)
        self._light_kb = content.light_size_kb
        #: Stats for tests / docs: control-event sweeps and visits begun.
        self.sweeps = 0
        self.visits_started = 0
        times = list(content.update_times)
        if user_metrics == "aggregate":
            self.aggregate: Optional[AggregateUserMetrics] = AggregateUserMetrics(
                content, n, times=times
            )
            self.trackers: List[UserObservationTracker] = []
        else:
            self.aggregate = None
            self.trackers = [
                UserObservationTracker(content, times=times) for _ in range(n)
            ]
        self._started = False
        consume = self._consume
        for node in self.nodes:
            node.consumer = consume

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    @property
    def n_users(self) -> int:
        return len(self.nodes)

    def start(self) -> None:
        """Arm every slot's first visit, its start offset after the
        current time (idempotent)."""
        if self._started:
            return
        self._started = True
        now = self.env.now
        heap = [
            (now + offset, slot, slot)
            for slot, offset in enumerate(self._start_offsets)
        ]
        heapify(heap)
        self._visit_heap = heap
        self._order = len(heap)
        if heap:
            self._arm(heap[0][0])

    # ------------------------------------------------------------------
    # visit-deadline heap + control event
    # ------------------------------------------------------------------
    def _arm(self, deadline: float) -> None:
        """(Re-)arm the sweep control event at *deadline*.

        A superseded control event (armed later than a newly pushed
        deadline) is lazily cancelled by clearing its callbacks -- the
        run loop skips processed entries without counting them -- and a
        fresh pre-triggered event takes its place, so exactly one live
        control entry exists at any time.
        """
        prev = self._armed_event
        if prev is not None and prev.callbacks is not None:
            if self._armed_at <= deadline:
                return
            prev.callbacks = None
        env = self.env
        event = Event(env)
        event._value = None
        event.callbacks = [self._sweep_visits]
        env.schedule_at(event, deadline)
        self._armed_event = event
        self._armed_at = deadline

    def _push_visit(self, deadline: float, slot: int) -> None:
        order = self._order
        self._order = order + 1
        heappush(self._visit_heap, (deadline, order, slot))
        self._arm(deadline)

    def _sweep_visits(self, _event: Event) -> None:
        self._armed_event = None
        self._armed_at = _INF
        env = self.env
        now = env._now
        heap = self._visit_heap
        while heap and heap[0][0] <= now:
            slot = heappop(heap)[2]
            self._begin_visit(slot, now)
        self.sweeps += 1
        if heap:
            self._arm(heap[0][0])

    # ------------------------------------------------------------------
    # the visit itself
    # ------------------------------------------------------------------
    def _begin_visit(self, slot: int, now: float) -> None:
        node = self.nodes[slot]
        if self._fixed:
            target = self._targets[slot]
        else:
            servers = self._switch_servers
            if len(servers) == 1:
                target = servers[0]
            else:
                # Redraw until the server differs from the slot's last.
                stream = self._switch_stream
                assert stream is not None
                choice = stream.choice
                last = self._switch_last[slot]
                while True:
                    target = choice(servers)
                    if target is not last:
                        self._switch_last[slot] = target
                        break
        message = Message(CONTENT_REQUEST, node, target, self._light_kb)
        self._pending[message.seq] = (slot, message, target)
        self.fabric.send(message)
        self._timeouts.push(now + self._timeout_s, message.seq)
        self.visits_started += 1

    def _request_done(self, seq: int) -> bool:
        """Dead-slot predicate for the timeout lane: answered requests
        leave ``_pending`` at response time and are pruned lazily."""
        return seq not in self._pending

    def _on_request_timeout(self, seq: int) -> None:
        entry = self._pending.pop(seq, None)
        if entry is None:  # pragma: no cover - pruned before firing
            return
        slot, message, target = entry
        env = self.env
        now = env._now
        tracer = env.tracer
        if tracer.enabled:
            node_id = self.nodes[slot].node_id
            tracer.emit(now, "msg_timeout", node_id, **message.trace_detail())
            tracer.emit(now, "visit_timeout", node_id, server=target.node_id)
        self._failed[slot] += 1
        self._push_visit(now + self._ttl[slot], slot)

    def _consume(self, message: Message) -> None:
        """Fabric delivery hook shared by every user node of the cohort
        (the response half of ``Actor._consume``)."""
        if message.kind not in RESPONSE_KINDS:
            raise NotImplementedError(
                "UserCohort cannot handle %s" % (message.kind,)
            )
        entry = self._pending.pop(message.payload, None)
        if entry is None:
            # No matching request (timed out / restarted): dropped,
            # matching an Actor's UDP-style semantics.
            return
        slot, _request, target = entry
        env = self.env
        now = env._now
        version = message.version
        aggregate = self.aggregate
        if aggregate is not None:
            aggregate.on_observe(slot, now, version)
        else:
            self.trackers[slot].on_observe(now, version)
        tracer = env.tracer
        if tracer.enabled:
            tracer.emit(
                now, "visit", message.dst.node_id,
                server=target.node_id, version=version,
            )
        self._push_visit(now + self._ttl[slot], slot)

    # ------------------------------------------------------------------
    # per-slot access (perturbations, tests)
    # ------------------------------------------------------------------
    @property
    def fixed(self) -> bool:
        """``True`` when each slot visits its home server, ``False`` for
        switch-every-visit users."""
        return self._fixed

    def ttl_of(self, slot: int) -> float:
        """The seconds between *slot*'s visits."""
        return self._ttl[slot]

    def set_ttl(self, slot: int, ttl_s: float) -> None:
        """Change *slot*'s visit period from its next visit deadline on."""
        if ttl_s <= 0:
            raise ValueError("ttl_s must be positive")
        self._ttl[slot] = ttl_s

    def rehome(self, slot: int, server: "NetworkNode") -> None:
        """Send *slot*'s later visits to *server*; a request in flight
        is still answered by the old home."""
        if not self._fixed:
            raise RuntimeError("switch-every-visit users have no home server")
        self._targets[slot] = server

    def failed_visits_of(self, slot: int) -> int:
        return self._failed[slot]

    def total_failed_visits(self) -> int:
        return sum(self._failed)
