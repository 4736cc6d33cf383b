"""Processes for the simulation engine.

A *process* wraps a Python generator.  The generator describes the
behaviour of an actor over simulated time by ``yield``-ing events; the
process resumes when the yielded event is processed, receiving the
event's value as the result of the ``yield`` expression (or having the
event's exception thrown into it if the event failed).
"""

from __future__ import annotations

from typing import Any, Generator, Optional

from .engine import Environment, Event, URGENT, _PENDING

__all__ = ["Process", "Interrupt"]


class Interrupt(Exception):
    """Thrown into a process when :meth:`Process.interrupt` is called."""

    @property
    def cause(self) -> Any:
        """The cause passed to :meth:`Process.interrupt`."""
        return self.args[0]

    def __str__(self) -> str:
        return "Interrupt(%r)" % (self.cause,)


class _Initialize(Event):
    """Internal event that starts the execution of a new process."""

    __slots__ = ()

    def __init__(self, env: Environment, process: "Process") -> None:
        super().__init__(env)
        self.callbacks = [process._resume]
        self._ok = True
        self._value = None
        env.schedule(self, priority=URGENT)


class _Interruption(Event):
    """Internal event delivering an :class:`Interrupt` to a process."""

    __slots__ = ("_process",)

    def __init__(self, process: "Process", cause: Any) -> None:
        super().__init__(process.env)
        if process.triggered:
            raise RuntimeError("%r has terminated and cannot be interrupted" % process)
        if process is self.env.active_process:
            raise RuntimeError("a process is not allowed to interrupt itself")
        self.callbacks = [self._interrupt]
        self._ok = False
        self._value = Interrupt(cause)
        self._defused = True
        self._process = process
        self.env.schedule(self, priority=URGENT)

    def _interrupt(self, event: Event) -> None:
        process = self._process
        if process.triggered:
            return  # the process terminated before the interrupt arrived
        # Detach the process from whatever event it is waiting on so the
        # interrupt, not the stale event, resumes it.
        target = process._target
        if target is not None and target.callbacks is not None:
            try:
                target.callbacks.remove(process._resume)
            except ValueError:  # pragma: no cover - already detached
                pass
        process._resume(event)


class Process(Event):
    """A process wrapping a generator; it is also an event that fires
    (with the generator's return value) when the generator terminates."""

    __slots__ = ("_generator", "_target")

    def __init__(self, env: Environment, generator: Generator) -> None:
        if not hasattr(generator, "send") or not hasattr(generator, "throw"):
            raise ValueError("%r is not a generator" % (generator,))
        super().__init__(env)
        self._generator = generator
        self._target: Optional[Event] = _Initialize(env, self)

    def __repr__(self) -> str:
        return "<Process(%s) object at 0x%x>" % (
            getattr(self._generator, "__name__", self._generator),
            id(self),
        )

    @property
    def is_alive(self) -> bool:
        """``True`` until the wrapped generator terminates."""
        return self._value is _PENDING

    def interrupt(self, cause: Any = None) -> None:
        """Throw an :class:`Interrupt` (with *cause*) into the process."""
        _Interruption(self, cause)

    def _resume(self, event: Event) -> None:
        """Resume the generator with the state of *event*."""
        env = self.env
        env._active_proc = self

        while True:
            try:
                if event._ok:
                    next_event = self._generator.send(event._value)
                else:
                    # The process handles (or propagates) the failure.
                    event._defused = True
                    exc = event._value
                    next_event = self._generator.throw(exc)
            except StopIteration as stop:
                # Generator finished: the process event succeeds.
                self._ok = True
                self._value = getattr(stop, "value", None)
                env.schedule(self)
                break
            except BaseException as exc:
                # Generator crashed: the process event fails.
                self._ok = False
                self._value = exc
                env.schedule(self)
                break

            # The generator yielded `next_event`: wait for it.
            if not isinstance(next_event, Event):
                exc = RuntimeError(
                    "invalid yield value %r (expected an Event)" % (next_event,)
                )
                event = Event(env)
                event._ok = False
                event._value = exc
                event._defused = True
                continue

            if next_event.callbacks is not None:
                # Not yet processed: register and suspend.
                next_event.callbacks.append(self._resume)
                self._target = next_event
                break

            # Already processed: loop around and resume immediately with it.
            event = next_event

        env._active_proc = None
