"""Runtime schedule sanitizer: a race detector for the event kernel.

The kernel's determinism contract orders same-instant events by a
monotonic sequence number, so any two runs with the same seeds process
identical event sequences.  That also means the contract *hides* latent
order dependence: code whose outcome silently relies on the incidental
FIFO tie-break (rather than on simulated causality) produces stable --
but meaningless -- numbers, and the next kernel optimisation that
re-orders a tie turns into a silent results change.  This module is the
TSan-style answer, specialised for a discrete-event simulator:

**Tie-break perturbation.**  With a tie seed installed, every
NORMAL-priority queue entry's sequence slot becomes ``(r, seq)`` where
``r`` is drawn from a dedicated seeded stream (never from any model
stream): events scheduled for the same ``(time, priority)`` pop in a
random -- but reproducible -- order, while the global time/priority
order is untouched.  A model whose results are genuinely
order-independent produces bit-identical metrics, counters and
(within-instant canonicalized) traces under any tie seed; a model with
hidden order dependence diverges, and the diff is the diagnostic.  The
seq element keeps the tuple totally ordered (REP008) even when two
draws collide.

URGENT entries are never perturbed: URGENT is the kernel's internal
staging lane (process initialisation and its callback twin
:func:`~repro.sim.process.kickoff`, ``run``'s stop event), and its
same-instant FIFO order *is*
the documented contract -- "processes resume in registration order" --
not an incidental tie.  Perturbing it would shuffle which same-instant
``send()`` claims a shared output port first, i.e. re-run the model
under a different (equally arbitrary, explicitly specified) resumption
order rather than expose a hidden dependence on an unspecified one.
Model code never schedules URGENT itself (REP003's scheduling-call
surface keeps it that way; a callback loop starts through ``kickoff``,
exactly where a process would), so every model-visible tie is still
perturbed.

**Reentrancy traps.**  With traps enabled, the batched timer lanes
(:mod:`repro.sim.timers`) verify after every ``on_expire`` callback
that the callback did not mutate the lane's backing arrays, move its
head, or re-arm its control event mid-sweep -- the corruption shape of
the PR 8 reentrant-push bug, reported at the offending callback instead
of as a skipped timer three sweeps later.

Activation is explicit: pass a :class:`ScheduleSanitizer` as
``Environment(sanitizer=...)`` (or ``build_deployment(...,
sanitizer=...)``).  ``ScheduleSanitizer()`` enables the traps alone;
``ScheduleSanitizer(tie_seed=<int>)`` also seeds and enables tie
perturbation.  ``repro sanitize`` (see :mod:`repro.experiments.sanitize`)
drives both against real deployments and asserts replica identity.
"""

from __future__ import annotations

from random import Random
from typing import Dict, Optional, Tuple, Union

from .engine import URGENT as _URGENT

__all__ = ["ScheduleSanitizer", "SanitizerError"]

#: The sequence slot of a queue entry: a plain int normally, or the
#: sanitizer's ``(r, seq)`` pair under tie perturbation.  Both forms
#: are totally ordered and never mixed within one environment.
TieKey = Union[int, Tuple[float, int]]


class SanitizerError(AssertionError):
    """A sanitizer trap fired (lane corrupted mid-sweep, ...)."""


class ScheduleSanitizer:
    """Per-environment sanitizer state (see module docstring).

    ``tie_collisions`` counts scheduled entries that shared their
    ``(time, priority)`` slot with an earlier entry -- the ties whose
    order the perturbation actually changed.  A bit-identity proof over
    a run with zero collisions is vacuous; the driver reports the count
    so it cannot silently become one.
    """

    __slots__ = ("tie_rng", "traps", "tie_collisions", "_tie_seen")

    def __init__(self, tie_seed: Optional[int] = None, traps: bool = True) -> None:
        #: Dedicated tie stream -- deliberately separate from every
        #: model stream so perturbation cannot re-pair model draws.
        self.tie_rng: Optional[Random] = (
            Random(tie_seed) if tie_seed is not None else None
        )
        self.traps = bool(traps)
        self.tie_collisions = 0
        # (time, priority) pairs seen so far; bounded by the number of
        # distinct scheduling instants in the run (sanitize runs are
        # smoke-scale by design).
        self._tie_seen: Dict[Tuple[float, int], int] = {}

    def tie_key(self, time: float, priority: int, seq: int) -> TieKey:
        """The sequence-slot value for a new queue entry.

        Under perturbation the slot becomes ``(r, seq)``: random within
        a ``(time, priority)`` tie, still totally ordered via ``seq``
        on the (measure-zero) chance of equal draws.  URGENT entries
        keep their plain sequence number -- same-instant FIFO order is
        the kernel's registration-order contract there, not a tie (see
        module docstring).  Mixed slot types within one ``(time,
        priority)`` run never compare: URGENT and NORMAL sort apart on
        the priority element first.
        """
        rng = self.tie_rng
        if rng is None or priority == _URGENT:
            return seq
        slot = (time, priority)
        seen = self._tie_seen
        count = seen.get(slot, 0)
        seen[slot] = count + 1
        if count:
            self.tie_collisions += 1
        return (rng.random(), seq)

    # ------------------------------------------------------------------
    # lane traps (called from repro.sim.timers under `traps`)
    # ------------------------------------------------------------------
    def check_lane_after_callback(
        self,
        lane: object,
        head_before: int,
        callback: object,
        payload: object,
    ) -> None:
        """Verify a lane survived one ``on_expire`` callback intact."""
        deadlines = getattr(lane, "deadlines")
        payloads = getattr(lane, "payloads")
        control = getattr(lane, "control")
        if getattr(lane, "head") != head_before:
            raise SanitizerError(
                "sanitizer: lane callback %r moved lane.head (%d -> %d) "
                "mid-sweep while expiring %r; callbacks must not touch "
                "lane backing state -- go through push()"
                % (callback, head_before, getattr(lane, "head"), payload)
            )
        if len(deadlines) != len(payloads):
            raise SanitizerError(
                "sanitizer: lane callback %r left parallel arrays ragged "
                "(%d deadlines vs %d payloads) while expiring %r; "
                "callbacks must not touch lane backing state"
                % (callback, len(deadlines), len(payloads), payload)
            )
        if control.callbacks is not None:
            raise SanitizerError(
                "sanitizer: lane callback %r re-armed the lane control "
                "event mid-sweep while expiring %r; the sweep's own "
                "re-arm pass is the sole arming point -- go through push()"
                % (callback, payload)
            )
        for index in range(1, len(deadlines)):
            if deadlines[index] < deadlines[index - 1]:
                raise SanitizerError(
                    "sanitizer: lane callback %r broke deadline "
                    "monotonicity (%r < %r at slot %d) while expiring %r"
                    % (
                        callback,
                        deadlines[index],
                        deadlines[index - 1],
                        index,
                        payload,
                    )
                )

