"""Discrete-event simulation substrate.

A deterministic, generator-based simulation kernel built from scratch:
events that only succeed (a timeout is an event scheduled with a delay,
and an error raised while one is processed propagates out of ``run()``),
processes and the ``kickoff`` that starts a callback loop
(:mod:`repro.sim.process`), and the timer wheel with its callback lanes
(:mod:`repro.sim.timers`).
See :mod:`repro.sim.engine` for the core loop.
"""

from .engine import Environment, Event, NORMAL, StopSimulation, URGENT
from .process import Process, kickoff
from .resources import Release, Request, Resource
from .rng import RandomStream, StreamRegistry, derive_seed
from .simtime import TIME_EPS_S, is_zero_duration, times_close, times_equal

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
