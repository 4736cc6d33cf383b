"""Struct-of-arrays end-user plane: the testbed's users.

An :class:`~repro.cdn.client.EndUserActor` is a Python object holding a
generator-based visit loop, a pending-request dict, an observation list
and a waiter :class:`~repro.sim.engine.Event` per in-flight request.  At
the paper's scale (850 users) that is invisible; at planet scale (1M+
users) one actor per user dominates both memory and GC time --
hundreds of thousands of live generator frames and per-visit
allocations that the cyclic collector re-traverses over and over.

:class:`UserCohort` carries the whole population in one object per
deployment:

- per-slot state (poll TTL, failed-visit count, home/last server,
  running staleness accumulators) lives in parallel unboxed numpy
  arrays; scalar reads off them return numpy scalars, so every caller
  coerces with ``float()``/``int()`` before the value can reach the
  event heap or a metrics dict (``Environment.now`` stays a builtin
  float and registry JSON stays serialisable);
- visit deadlines live in one binary heap swept by a single reusable
  control event (scheduled with
  :meth:`~repro.sim.engine.Environment.schedule_at` for the exact float
  deadline a per-user pooled timeout would use);
- request timeouts share one monotone
  :class:`~repro.sim.timers.CallbackLane` (all requests use the same
  ``REQUEST_TIMEOUT_S`` delay, so deadlines arrive pre-sorted) with
  answered requests pruned lazily;
- observations feed the incremental staleness trackers directly -- per
  slot in ``per-user`` mode, or through
  :class:`~repro.metrics.incremental.AggregateUserMetrics` scalar
  accumulators in ``aggregate`` mode (no observation retention at all).

Determinism contract: the cohort computes what one
:class:`~repro.cdn.client.EndUserActor` per user would.  The per-user
actor plane it replaced reproduced every ``tests/test_golden.py`` pin
but the event count, and those pins now hold the cohort to it.

- Per-visit *network* behaviour is one actor's: the same
  :class:`~repro.network.message.Message` objects (same global sequence
  numbers) travel the same fabric with the same jitter draws.
- Selector RNG draws (the switch-every-visit stream) happen at the same
  simulated instants in the same global order.
- Visit instants are exactly the floats an actor computes:
  ``response_time + ttl`` / ``timeout_time + ttl``, with the TTL read at
  push time (so mid-run TTL perturbations apply from the next visit,
  like an actor's ``pooled_timeout(self.user_ttl_s)`` read).
- Same-instant visit expiries run in arming order, the event-id order
  of per-user timeouts.
"""

from __future__ import annotations

from heapq import heapify, heappop, heappush
from typing import TYPE_CHECKING, Any, Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..metrics.incremental import AggregateUserMetrics, UserObservationTracker
from ..network.message import Message, MessageKind
from ..sim.engine import Environment, Event
from ..sim.timers import CallbackLane
from .base import RESPONSE_KINDS
from .client import (
    REQUEST_TIMEOUT_S,
    FixedSelector,
    Observation,
    SwitchEveryVisitSelector,
)

if TYPE_CHECKING:  # pragma: no cover - annotation-only imports
    from ..network.link import NetworkFabric
    from ..network.node import NetworkNode
    from ..sim.rng import RandomStream
    from .content import LiveContent

__all__ = ["UserCohort"]

_INF = float("inf")
_CONTENT_REQUEST = MessageKind.CONTENT_REQUEST


class UserCohort:
    """All end users of one deployment, stored column-wise.

    ``testbed._make_users`` builds it: *nodes* in home-server-major
    slot order, *start_offsets* drawn per slot from the
    ``testbed.user.start`` stream.  Exactly one of *targets* (fixed
    selector: the home server node per slot) or *switch_servers* +
    *switch_stream* (the Fig. 24 switch-every-visit selector) must be
    given.
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
        "_switch_view",
        "_pending",
        "_visit_heap",
        "_order",
        "_armed_event",
        "_armed_at",
        "_timeouts",
        "_timeout_s",
        "_light_kb",
        "_observations",
        "_views",
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
        self._ttl = np.full(n, user_ttl_s, dtype=np.float64)
        self._failed = np.zeros(n, dtype=np.int64)
        self._start_offsets = [float(offset) for offset in start_offsets]
        self._fixed = targets is not None
        self._targets: List["NetworkNode"] = list(targets) if targets is not None else []
        self._switch_servers: List["NetworkNode"] = (
            list(switch_servers) if switch_servers is not None else []
        )
        self._switch_stream = switch_stream
        self._switch_last: List[Optional["NetworkNode"]] = (
            [None] * n if switch_servers is not None else []
        )
        self._switch_view: Any = None
        #: In-flight requests: message seq -> (slot, request, target).
        #: The request message is retained for ``msg_timeout`` trace
        #: detail; the target for the visit traces and observations.
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
        if user_metrics == "aggregate":
            times = list(content.update_times)
            self.aggregate: Optional[AggregateUserMetrics] = AggregateUserMetrics(
                content, n, times=times
            )
            self.trackers: List[UserObservationTracker] = []
            self._observations: Optional[List[List[Tuple[float, int, str]]]] = None
        else:
            times = list(content.update_times)
            self.aggregate = None
            self.trackers = [
                UserObservationTracker(content, times=times) for _ in range(n)
            ]
            self._observations = [[] for _ in range(n)]
        self._views: Optional[List["_CohortUserView"]] = None
        self._started = False
        for node in self.nodes:
            node.consumer = self._consume

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    @property
    def n_users(self) -> int:
        return len(self.nodes)

    def start(self) -> None:
        """Arm every slot's first visit (idempotent)."""
        if self._started:
            return
        self._started = True
        heap = [
            (offset, slot, slot)
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
        event._ok = True
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
                # Same draw loop as SwitchEveryVisitSelector.select, with
                # the per-user ``_last`` held column-wise.
                stream = self._switch_stream
                assert stream is not None
                choice = stream.choice
                last = self._switch_last[slot]
                while True:
                    target = choice(servers)
                    if target is not last:
                        self._switch_last[slot] = target
                        break
        message = Message(
            kind=_CONTENT_REQUEST,
            src=node,
            dst=target,
            size_kb=self._light_kb,
            payload={},
        )
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
        self._push_visit(now + float(self._ttl[slot]), slot)

    def _consume(self, message: Message) -> None:
        """Fabric delivery hook shared by every user node of the cohort
        (mirrors ``Actor._consume`` + the visit loop's response half)."""
        if message.kind not in RESPONSE_KINDS:
            raise NotImplementedError(
                "UserCohort cannot handle %s" % (message.kind,)
            )
        payload = message.payload
        req_seq = payload.get("req") if isinstance(payload, dict) else None
        entry = self._pending.pop(req_seq, None) if req_seq is not None else None
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
            observations = self._observations
            assert observations is not None
            observations[slot].append((now, version, target.node_id))
            self.trackers[slot].on_observe(now, version)
        tracer = env.tracer
        if tracer.enabled:
            tracer.emit(
                now, "visit", message.dst.node_id,
                server=target.node_id, version=version,
            )
        self._push_visit(now + float(self._ttl[slot]), slot)

    # ------------------------------------------------------------------
    # actor-shaped access (tests, perturbations)
    # ------------------------------------------------------------------
    @property
    def users(self) -> List["_CohortUserView"]:
        """Actor-shaped views, one per slot (built lazily, cached)."""
        views = self._views
        if views is None:
            if not self._fixed and self._switch_view is None:
                self._switch_view = _CohortSwitchSelector(self)
            views = self._views = [
                _CohortUserView(self, slot) for slot in range(len(self.nodes))
            ]
        return views

    def observations_of(self, slot: int) -> List[Observation]:
        """Materialise slot observations as :class:`Observation` objects
        (per-user mode only; aggregate mode retains no observations)."""
        observations = self._observations
        if observations is None:
            raise RuntimeError(
                "observations are not retained in aggregate user-metrics "
                "mode; use user_metrics='per-user' to keep per-visit logs"
            )
        return [
            Observation(time=time, version=version, server_id=server_id)
            for time, version, server_id in observations[slot]
        ]

    def failed_visits_of(self, slot: int) -> int:
        return int(self._failed[slot])

    def total_failed_visits(self) -> int:
        return int(sum(self._failed))

    def total_observations(self) -> int:
        if self.aggregate is not None:
            return int(sum(self.aggregate._total))
        observations = self._observations
        assert observations is not None
        return sum(len(slot_obs) for slot_obs in observations)


class _CohortFixedSelector(FixedSelector):
    """Per-slot write-through view of a cohort's fixed selector.

    ``isinstance(selector, FixedSelector)`` holds (the Reconfiguration
    perturbation filters on it) and assigning ``selector.server``
    re-homes the slot inside the cohort arrays.
    """

    def __init__(self, cohort: UserCohort, slot: int) -> None:
        # Deliberately no super().__init__: ``server`` is a property.
        self._cohort = cohort
        self._slot = slot

    @property
    def server(self) -> "NetworkNode":
        return self._cohort._targets[self._slot]

    @server.setter
    def server(self, node: "NetworkNode") -> None:
        self._cohort._targets[self._slot] = node

    def select(self, user: "NetworkNode", now: float, visit_index: int) -> "NetworkNode":
        return self._cohort._targets[self._slot]


class _CohortSwitchSelector(SwitchEveryVisitSelector):
    """Shared view of a switch-mode cohort's selector state.

    ``servers`` aliases the cohort's own list, so mutating it through
    the view changes every slot's candidate set.  Per-slot ``_last``
    state stays in the cohort arrays; this view's own ``_last`` is
    unused.
    """

    def __init__(self, cohort: UserCohort) -> None:
        stream = cohort._switch_stream
        assert stream is not None
        self.servers = cohort._switch_servers
        self.stream = stream
        self._last = None


class _CohortUserView:
    """Read-mostly actor-shaped view of one cohort slot.

    Exposes the ``EndUserActor`` surface that tests and perturbations
    touch: ``node``, ``selector``, ``observations``, ``failed_visits``,
    a writable ``user_ttl_s`` (FlashCrowd / DiurnalModulation write it
    mid-run) and a no-op ``start`` (the cohort manages its own timers).
    """

    __slots__ = ("_cohort", "_slot", "node", "content", "selector")

    def __init__(self, cohort: UserCohort, slot: int) -> None:
        self._cohort = cohort
        self._slot = slot
        self.node = cohort.nodes[slot]
        self.content = cohort.content
        if cohort._fixed:
            self.selector: Any = _CohortFixedSelector(cohort, slot)
        else:
            self.selector = cohort._switch_view

    @property
    def user_ttl_s(self) -> float:
        return float(self._cohort._ttl[self._slot])

    @user_ttl_s.setter
    def user_ttl_s(self, value: float) -> None:
        if value <= 0:
            raise ValueError("user_ttl_s must be positive")
        # Applies from the slot's next deadline push, exactly like the
        # per-visit ``pooled_timeout(self.user_ttl_s)`` read of an
        # EndUserActor.
        self._cohort._ttl[self._slot] = value

    @property
    def start_offset_s(self) -> float:
        return self._cohort._start_offsets[self._slot]

    @property
    def failed_visits(self) -> int:
        return self._cohort.failed_visits_of(self._slot)

    @property
    def observations(self) -> List[Observation]:
        return self._cohort.observations_of(self._slot)

    def start(self) -> None:
        """No-op: cohort slots are started by :meth:`UserCohort.start`."""
