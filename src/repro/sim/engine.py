"""Core of the discrete-event simulation engine.

A small, deterministic, generator-based kernel.  Its vocabulary comes
from simpy, but it keeps only what the simulator uses:

- :class:`Environment` -- the event loop, simulation clock and scheduler.
- :class:`Event` -- the basic synchronisation primitive; a timeout
  (:meth:`Environment.timeout`) is a plain event scheduled with a delay.

An event only succeeds.  simpy's failed events, their defusing and its
``EmptySchedule`` signal are not kept: an exception raised in a
callback or a process leaves :meth:`Environment.run` from the frame
that raised it, and ``run()`` returns when the queue drains.

Processes and :func:`~repro.sim.process.kickoff` (a callback loop's
start) live in :mod:`repro.sim.process`, and the timer wheel and its
callback lanes in :mod:`repro.sim.timers`.

Determinism: events scheduled for the same simulated time are ordered by
``(time, priority, sequence)`` where ``sequence`` is a monotonically
increasing counter, so two runs of the same model with the same seeds
produce identical event orderings.
"""

from __future__ import annotations

import heapq
from typing import (
    TYPE_CHECKING,
    Any,
    Callable,
    Generator,
    List,
    Optional,
    Tuple,
    Union,
)

if TYPE_CHECKING:  # pragma: no cover - annotation-only imports
    from .process import Process
    from .timers import TimerWheel

__all__ = [
    "Environment",
    "Event",
    "StopSimulation",
    "URGENT",
    "NORMAL",
]

_heappush = heapq.heappush
_heappop = heapq.heappop

#: Scheduling priority for events that must run before ordinary events
#: scheduled at the same time (used internally for process resumption).
URGENT = 0

#: Default scheduling priority.
NORMAL = 1


class StopSimulation(Exception):
    """Raised internally to stop :meth:`Environment.run` at a target event
    (``run(until=event)``, which drives a process to its end)."""

    @classmethod
    def callback(cls, event: "Event") -> None:
        """Event callback that stops the simulation when *event* fires."""
        raise cls(event._value)


# Sentinel distinguishing "no value yet" from a legitimate ``None`` value.
_PENDING = object()


class Event:
    """An event that may happen at some point in simulated time.

    An event is *untriggered* until it is scheduled with a value
    (``triggered`` is then ``True``), and its ``callbacks`` are ``None``
    once it has been processed.  It has no failed state.

    Processes wait for events by ``yield``-ing them.  Multiple processes
    may wait on the same event.
    """

    __slots__ = ("env", "callbacks", "_value")

    def __init__(self, env: "Environment") -> None:
        self.env = env
        #: Callbacks ``f(event)`` executed when the event is processed.
        #: ``None`` once the event has been processed.
        self.callbacks: Optional[List[Callable[["Event"], None]]] = []
        self._value: Any = _PENDING

    def __repr__(self) -> str:
        return "<%s object at 0x%x>" % (type(self).__name__, id(self))

    @property
    def triggered(self) -> bool:
        """``True`` if the event has been scheduled (has a value)."""
        return self._value is not _PENDING

    @property
    def value(self) -> Any:
        """The event's value (valid once triggered)."""
        if self._value is _PENDING:
            raise AttributeError("value of %r is not yet available" % self)
        return self._value

    def succeed(self, value: Any = None) -> "Event":
        """Schedule the event with an optional *value*."""
        if self.triggered:
            raise RuntimeError("%r has already been triggered" % self)
        self._value = value
        self.env.schedule(self)
        return self


#: One scheduled entry in the event heap: ``(time, priority, seq, event)``.
_QueueEntry = Tuple[float, int, int, Event]


class Environment:
    """Execution environment: simulation clock plus the event queue.

    ``tracer`` is the observability hook (see :mod:`repro.obs.tracer`):
    instrumented call sites throughout the stack guard on
    ``env.tracer.enabled``, so the default no-op tracer costs one
    attribute read and a branch per instrumented site.  Tracers never
    schedule events or touch RNG state, so attaching one cannot change
    any simulated outcome.
    """

    __slots__ = (
        "_now",
        "_queue",
        "_eid",
        "_events_processed",
        "tracer",
        "timers",
        "sanitizer",
        "progress",
    )

    #: Events between two progress-hook invocations (power of two: with
    #: a hook installed, the loop tests ``processed & MASK == 0``).
    PROGRESS_STRIDE = 4096

    def __init__(
        self,
        initial_time: float = 0.0,
        tracer: Optional[Any] = None,
        sanitizer: Optional[Any] = None,
    ) -> None:
        from ..obs.tracer import NULL_TRACER
        from .timers import TimerWheel

        self._now = float(initial_time)
        self._queue: List[_QueueEntry] = []
        self._eid = 0
        self._events_processed = 0
        #: Observability hook; NULL_TRACER (a shared no-op) by default.
        self.tracer = tracer if tracer is not None else NULL_TRACER
        #: Schedule sanitizer (see :mod:`repro.sim.sanitize`); ``None``
        #: outside sanitize runs, fixed at construction.  Every push
        #: site -- including the inlined ones in the fast transport --
        #: must honor it.
        self.sanitizer = sanitizer
        #: Optional live-progress hook ``f(sim_time, events_processed)``
        #: (see :mod:`repro.obs.live`).  ``None`` costs the hot loop one
        #: compare per event; when set, ``run()`` invokes it every
        #: :data:`PROGRESS_STRIDE` processed events.  Hooks are purely
        #: observational: they must never schedule events or draw RNG.
        self.progress: Optional[Callable[[float, int], None]] = None
        #: Vectorized expiry sweeps for hot-path timers.
        self.timers: "TimerWheel" = TimerWheel(self)

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------
    @property
    def now(self) -> float:
        """Current simulated time."""
        return self._now

    @property
    def events_processed(self) -> int:
        """Number of events this environment has processed so far."""
        return self._events_processed

    # ------------------------------------------------------------------
    # scheduling / running
    # ------------------------------------------------------------------
    def schedule(
        self,
        event: Event,
        priority: int = NORMAL,
        delay: float = 0.0,
        _push: Callable[[List[_QueueEntry], _QueueEntry], None] = _heappush,
    ) -> None:
        """Schedule *event* ``delay`` time units into the future."""
        self._eid += 1
        sanitizer = self.sanitizer
        if sanitizer is None:
            _push(self._queue, (self._now + delay, priority, self._eid, event))
        else:
            at = self._now + delay
            _push(
                self._queue,
                (at, priority, sanitizer.tie_key(at, priority, self._eid), event),
            )

    def schedule_at(
        self,
        event: Event,
        at: float,
        priority: int = NORMAL,
        _push: Callable[[List[_QueueEntry], _QueueEntry], None] = _heappush,
    ) -> None:
        """Schedule *event* at the absolute simulated time *at*.

        Float addition is not associative, so re-deriving a stored
        deadline as ``now + (deadline - now)`` can land one ulp away from
        the original timeout's firing time.  Control-plane events that
        must fire at an exact recorded deadline (the timer wheel's sweep
        events) schedule through this method instead.
        """
        self._eid += 1
        sanitizer = self.sanitizer
        if sanitizer is None:
            _push(self._queue, (at, priority, self._eid, event))
        else:
            _push(
                self._queue,
                (at, priority, sanitizer.tie_key(at, priority, self._eid), event),
            )

    def run(self, until: Union[None, float, Event] = None) -> Any:
        """Run the simulation.

        ``until`` may be ``None`` (run until the queue drains), a number
        (run until the clock reaches that time), or an :class:`Event`
        (run until the event is processed, returning its value).
        """
        if until is not None and not isinstance(until, Event):
            at = float(until)
            if at <= self._now:
                raise ValueError(
                    "until (=%s) must be greater than the current time (=%s)"
                    % (at, self._now)
                )
            until = Event(self)
            until._value = None
            # URGENT so the stop event runs before ordinary events at `at`.
            self.schedule_at(until, at, priority=URGENT)

        if isinstance(until, Event):
            if until.callbacks is None:
                return until.value
            until.callbacks.append(StopSimulation.callback)

        # Harness telemetry profiles the hot loop as one span and counts
        # processed events once per run() call (never per event).
        from ..obs.telemetry import TELEMETRY

        events_before = self._events_processed
        queue = self._queue
        progress = self.progress
        stride_mask = self.PROGRESS_STRIDE - 1
        try:
            with TELEMETRY.span("engine.run"):
                # No per-event method call: one call per event is the
                # largest fixed cost of the hot loop at CDN scale.
                while queue:
                    self._now, _, _, event = _heappop(queue)
                    callbacks, event.callbacks = event.callbacks, None
                    if callbacks is None:  # pragma: no cover - cancelled
                        continue
                    self._events_processed += 1
                    if progress is not None and self._events_processed & stride_mask == 0:
                        progress(self._now, self._events_processed)
                    for callback in callbacks:
                        callback(event)
        except StopSimulation as stop:
            return stop.args[0]
        finally:
            if progress is not None:
                progress(self._now, self._events_processed)
            TELEMETRY.count(
                "engine.events", self._events_processed - events_before
            )
        if isinstance(until, Event) and not until.triggered:
            raise RuntimeError(
                "no scheduled events left but \"until\" event was not triggered"
            )
        return None

    # ------------------------------------------------------------------
    # factories
    # ------------------------------------------------------------------
    def event(self) -> Event:
        """Create a new untriggered :class:`Event`."""
        return Event(self)

    def timeout(self, delay: float, value: Any = None) -> Event:
        """An event that fires with *value* after *delay* time units."""
        # ``not >=`` also rejects NaN, which compares false both ways and
        # would otherwise set the clock to NaN when it fires.
        if not delay >= 0:
            raise ValueError("negative delay %s" % delay)
        event = Event(self)
        event._value = value
        self.schedule(event, delay=delay)
        return event

    def process(self, generator: Generator[Event, Any, Any]) -> "Process":
        """Start a new :class:`~repro.sim.process.Process` from *generator*."""
        from .process import Process

        return Process(self, generator)
