"""Processes for the simulation engine.

A *process* wraps a Python generator.  The generator describes the
behaviour of an actor over simulated time by ``yield``-ing events; the
process resumes when the yielded event is processed, receiving the
event's value as the result of the ``yield`` expression.  Events only
succeed, so nothing is ever thrown into a generator; an exception the
generator raises propagates out of :meth:`Environment.run` at once.

Processes run the loops that never stop early: provider update
schedules, scenario perturbations, absence windows, tree maintenance
and the HAT monitor.  A loop that must be stopped -- a server policy's
-- runs as callbacks on the same events instead, started through
:func:`kickoff` (see :class:`repro.consistency.base.ServerPolicy`).
"""

from __future__ import annotations

from typing import Callable, Generator

from .engine import Environment, Event, URGENT, _PENDING

__all__ = ["Process", "kickoff"]


def kickoff(env: Environment, callback: Callable[[Event], None]) -> Event:
    """Run ``callback(event)`` where a process started now would take its
    first step: an URGENT event at the current instant, popped ahead of
    the NORMAL events already queued for it.  A loop written as
    callbacks starts through this to keep a process's place in the
    event order."""
    event = Event(env)
    event.callbacks = [callback]
    event._value = None
    env.schedule(event, priority=URGENT)
    return event


class Process(Event):
    """A process wrapping a generator; it is also an event that fires
    (with the generator's return value) when the generator terminates."""

    __slots__ = ("_generator",)

    def __init__(self, env: Environment, generator: Generator) -> None:
        if not hasattr(generator, "send"):
            raise ValueError("%r is not a generator" % (generator,))
        super().__init__(env)
        self._generator = generator
        kickoff(env, self._resume)

    def __repr__(self) -> str:
        return "<Process(%s) object at 0x%x>" % (
            getattr(self._generator, "__name__", self._generator),
            id(self),
        )

    @property
    def is_alive(self) -> bool:
        """``True`` until the wrapped generator terminates."""
        return self._value is _PENDING

    def _resume(self, event: Event) -> None:
        """Resume the generator with the value of *event*.

        An exception the generator raises propagates from here, out of
        :meth:`Environment.run`, in the frame that raised it."""
        while True:
            try:
                next_event = self._generator.send(event._value)
            except StopIteration as stop:
                # Generator finished: the process event fires.
                self._value = stop.value
                self.env.schedule(self)
                return

            # The generator yielded `next_event`: wait for it.
            if not isinstance(next_event, Event):
                raise RuntimeError(
                    "invalid yield value %r (expected an Event)" % (next_event,)
                )

            if next_event.callbacks is not None:
                # Not yet processed: register and suspend.
                next_event.callbacks.append(self._resume)
                return

            # Already processed: loop around and resume immediately with it.
            event = next_event
