"""Discrete-event simulation substrate.

A deterministic, generator-based simulation kernel built from scratch:
events that only succeed (a timeout is an event scheduled with a delay,
and an error raised while one is processed propagates out of ``run()``),
processes and the ``kickoff`` that starts a callback loop
(:mod:`repro.sim.process`), and the timer wheel with its callback lanes
(:mod:`repro.sim.timers`).
See :mod:`repro.sim.engine` for the core loop.  The generic
:mod:`repro.sim.resources` loads on first use (PEP 562 ``__getattr__``):
the message transport queues on its own port FIFO, so a deployment run
never needs it.
"""

from typing import Any

from .engine import Environment, Event, NORMAL, StopSimulation, URGENT
from .process import Process, kickoff
from .rng import RandomStream, StreamRegistry, derive_seed
from .simtime import TIME_EPS_S, is_zero_duration, times_close, times_equal


def __getattr__(name: str) -> Any:
    # The import system probes a package with hasattr() for ``from .
    # import submodule`` (as below), so only the names in ``__all__``
    # import anything.
    if name in __all__:
        from . import resources

        return getattr(resources, name)
    raise AttributeError("module %r has no attribute %r" % (__name__, name))


__all__ = [
    "Environment",
    "Event",
    "Process",
    "kickoff",
    "Resource",
    "Request",
    "Release",
    "RandomStream",
    "StreamRegistry",
    "derive_seed",
    "TIME_EPS_S",
    "times_equal",
    "times_close",
    "is_zero_duration",
    "StopSimulation",
    "NORMAL",
    "URGENT",
]
