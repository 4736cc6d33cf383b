"""Batched timer wheel: one control event per sweep of expiring timers.

Racing a response against a plain timeout costs one timeout event per
timed wait, and every expiry is its own heap pop.  At CDN scale the
poll/request timers dominate the event queue, so timers are batched in
*lanes*: a :class:`CallbackLane` holds the slots that share one *delay*
(all ``30 s`` request timeouts, all ``ttl_s`` poll timers, ...) as a
pair of parallel arrays (deadline floats aligned with payloads).
Because every slot in a lane is armed with the same delay, deadlines
are appended in non-decreasing order and a single binary search finds
the expired prefix.  The arrays are plain Python lists swept with the C
:func:`bisect.bisect_right`: at the typical batch size (one to a few
hundred entries) that beats a numpy round-trip per sweep, while keeping
the same sorted-array algorithm.

Each lane owns exactly one reusable control :class:`Event` on the heap.
It is scheduled (via :meth:`Environment.schedule_at`, to hit the exact
float deadline a timeout would use) for the earliest pending deadline;
when it pops, the sweep fires every expired slot and re-arms the
control event for the next deadline.  N timers cost one control pop per
*batch* of identical deadlines instead of one pop per timer, and dead
slots are skipped lazily without ever touching the heap.

The :class:`TimerWheel` keeps one lane per delay whose payloads are
waiter events: expiry succeeds a waiter with ``None`` unless it has
already triggered or been cancelled (``callbacks is None``).  The user
cohort keeps its own lane of request timeouts.

Determinism: a slot armed at time ``t`` with delay ``d`` expires at
exactly ``t + d`` (the same float a timeout computes), and slots
expiring at the same instant fire in arming order, which matches the
sequence-number order per-timer events would pop in.  A wheel waiter's
callbacks run through the heap (:meth:`Event.succeed` schedules), so
user code can never push into a wheel lane in the middle of its own
sweep.
"""

from __future__ import annotations

from bisect import bisect_right
from typing import Any, Callable, Dict, List

from .engine import Environment, Event

__all__ = ["TimerWheel", "CallbackLane"]

#: Swept (dead) slots tolerated at the front of a lane before the
#: backing lists are compacted.
_COMPACT_SLACK = 1024


class CallbackLane:
    """A monotone-deadline lane that fires ``on_expire(payload)`` per slot.

    Parallel arrays, a bisect-swept expired prefix, one reusable control
    event, lazy cancellation with dead-slot pruning (see the module
    docstring).  Deadlines must be pushed in non-decreasing order (one
    lane per fixed delay gives this for free); ``is_dead(payload)``
    lets already-answered slots be pruned without ever touching the
    heap.

    ``on_expire`` runs *inside* the control-event callback.  Slots
    expiring at the same instant fire in arming order, the order their
    per-timer events would have popped in.
    """

    __slots__ = (
        "env", "deadlines", "payloads", "head", "control", "on_expire",
        "is_dead", "armed", "expired", "cancelled", "sweeps", "_sweeping",
    )

    def __init__(
        self,
        env: Environment,
        on_expire: Callable[[Any], object],
        is_dead: Callable[[Any], bool],
    ) -> None:
        self.env = env
        self.on_expire = on_expire
        self.is_dead = is_dead
        self.deadlines: List[float] = []
        self.payloads: List[Any] = []
        self.head = 0
        # The lane's one reusable control event.  Pre-triggered so the
        # engine never sees _PENDING; idle iff ``callbacks is None``.
        control = Event(env)
        control._ok = True
        control._value = None
        control.callbacks = None
        self.control = control
        self.armed = 0
        self.expired = 0
        self.cancelled = 0
        self.sweeps = 0
        self._sweeping = False

    def push(self, deadline: float, payload: Any) -> None:
        deadlines = self.deadlines
        if deadlines and deadline < deadlines[-1]:
            raise ValueError(
                "CallbackLane deadlines must be monotone: %r < %r"
                % (deadline, deadlines[-1])
            )
        deadlines.append(deadline)
        self.payloads.append(payload)
        self.armed += 1
        control = self.control
        # During a sweep the engine has already taken the control
        # event's callbacks, so ``callbacks is None`` does not mean
        # "unarmed"; the sweep's own re-arm pass (which sees this push)
        # is the sole arming point then -- arming here too would leave
        # a duplicate heap entry AND could arm later than an older
        # still-pending slot.
        if control.callbacks is None and not self._sweeping:
            control.callbacks = [self._sweep]
            self.env.schedule_at(control, deadline)

    def _sweep(self, _event: Event) -> None:
        deadlines = self.deadlines
        payloads = self.payloads
        head = self.head
        tail = len(deadlines)
        cut = bisect_right(deadlines, self.env._now, head, tail)
        is_dead = self.is_dead
        on_expire = self.on_expire
        sanitizer = self.env.sanitizer
        if sanitizer is not None and not sanitizer.traps:
            sanitizer = None
        self._sweeping = True
        try:
            for index in range(head, cut):
                payload = payloads[index]
                payloads[index] = None
                if payload is None or is_dead(payload):
                    self.cancelled += 1
                else:
                    on_expire(payload)
                    self.expired += 1
                    if sanitizer is not None:
                        # Trap the PR 8 corruption shape at its source:
                        # a callback that touched the arrays mid-sweep.
                        # ``head`` is the pre-sweep value -- the sweep
                        # itself only moves it after this loop.
                        sanitizer.check_lane_after_callback(
                            self, head, on_expire, payload
                        )
        finally:
            self._sweeping = False
        self.sweeps += 1
        # ``on_expire`` may have pushed new slots: re-read the tail so
        # the re-arm/drain decision below sees them.  Dead slots beyond
        # the expired prefix are pruned first: request timeouts are
        # mostly answered long before they fire, so the control event
        # re-arms at the first *live* deadline (often none at all)
        # instead of popping once per dead batch.
        tail = len(deadlines)
        while cut < tail:
            payload = payloads[cut]
            if payload is not None and not is_dead(payload):
                break
            payloads[cut] = None
            self.cancelled += 1
            cut += 1
        if cut < tail:
            if cut >= _COMPACT_SLACK and cut * 2 >= tail:
                del deadlines[:cut]
                del payloads[:cut]
                cut = 0
            self.head = cut
            control = self.control
            control.callbacks = [self._sweep]
            self.env.schedule_at(control, deadlines[cut])
        else:
            deadlines.clear()
            payloads.clear()
            self.head = 0

    @property
    def pending(self) -> int:
        return len(self.deadlines) - self.head


def _waiter_is_dead(waiter: Event) -> bool:
    """A wheel waiter that already fired or was cancelled."""
    return waiter.callbacks is None or waiter.triggered


class _Lane(CallbackLane):
    """One wheel lane: waiter events sharing one delay."""

    __slots__ = ()

    # An own entry in vars(_Lane), which the e2e benchmark's tracer wraps.
    _sweep = CallbackLane._sweep


class TimerWheel:
    """Per-environment registry of delay lanes (see module docstring).

    The stats (for tests / docs) sum over the lanes: timers armed,
    fired, lazily dropped, control-event sweeps executed, and slots
    still queued (including dead waiters not yet swept).
    """

    __slots__ = ("env", "_lanes")

    def __init__(self, env: Environment) -> None:
        self.env = env
        self._lanes: Dict[float, _Lane] = {}

    def arm(self, delay: float, waiter: Event) -> None:
        """Succeed *waiter* with ``None`` after *delay* unless it triggers
        first.

        The waiter is observed lazily at expiry: if it has already been
        succeeded (a response arrived) or processed, the slot is skipped.
        Callers therefore need no explicit cancel -- dropping the timer
        costs nothing on the heap.
        """
        if delay < 0:
            raise ValueError("negative delay %s" % delay)
        env = self.env
        lane = self._lanes.get(delay)
        if lane is None:
            lane = self._lanes[delay] = _Lane(env, Event.succeed, _waiter_is_dead)
        # Same float arithmetic as ``Environment.timeout``: now + delay.
        lane.push(env._now + delay, waiter)

    @property
    def armed(self) -> int:
        return sum(lane.armed for lane in self._lanes.values())

    @property
    def expired(self) -> int:
        return sum(lane.expired for lane in self._lanes.values())

    @property
    def cancelled(self) -> int:
        return sum(lane.cancelled for lane in self._lanes.values())

    @property
    def sweeps(self) -> int:
        return sum(lane.sweeps for lane in self._lanes.values())

    @property
    def pending(self) -> int:
        return sum(lane.pending for lane in self._lanes.values())
