"""Incremental staleness accounting (the testbed's metric path).

The batch pass in :mod:`repro.metrics.consistency` derives every lag
metric from scratch: it walks each server's full apply log and each
user's full observation log through
:func:`~repro.metrics.consistency.update_lags` (a ``searchsorted`` per
update per replica).  These trackers maintain the same quantities
*incrementally* -- a few float operations per version change or visit,
with no search: the testbed's collection pass replays each server's
apply log (the columns behind
:attr:`~repro.cdn.cache.CacheEntry.apply_log`) through a
:class:`ServerLagTracker`, and the user cohort's response path feeds
the user trackers as visits complete.  ``tests/test_golden.py`` checks
them against the batch pass, which shares no code with them.

Bit-identity with the batch pass is structural, not approximate:

- Apply logs record strictly increasing versions (the cache layer only
  appends strictly newer writes), so the first log entry whose running
  max reaches update ``i`` is exactly the apply that covered ``i``; the
  tracker scores ``i`` at that moment with the same float subtraction.
- Covered updates form a prefix ``1..V_final`` and censored updates the
  tail, in both implementations, so the lag list has the same values in
  the same order (pairwise summation is order-sensitive, so order is
  part of the contract).
- The batch pass averages with ``np.mean``; the trackers average with
  :func:`pairwise_mean`, numpy's pairwise summation order in pure
  Python, so the simulator's run path never imports numpy.
- The stale-visit count compares each observation against the running
  maximum seen *before* it, with the same strict ``<``.
"""

from __future__ import annotations

import math
from array import array
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Tuple

if TYPE_CHECKING:  # pragma: no cover - annotation-only imports (the cdn
    # package imports the metrics package at module load, so importing
    # back at runtime would be circular)
    from ..cdn.content import LiveContent

__all__ = [
    "pairwise_mean",
    "ServerLagTracker",
    "UserObservationTracker",
    "AggregateUserMetrics",
    "aggregate_user_rollup",
]


def _pairwise_sum(values: Sequence[float], start: int, n: int) -> float:
    """Sum of ``values[start:start + n]`` in numpy's pairwise order
    (``pairwise_sum`` in numpy's ``loops_utils.h``)."""
    if n < 8:
        total = 0.0
        for index in range(start, start + n):
            total += values[index]
        return total
    if n <= 128:
        r0, r1, r2, r3, r4, r5, r6, r7 = values[start:start + 8]
        end = start + n - n % 8
        for index in range(start + 8, end, 8):
            r0 += values[index]
            r1 += values[index + 1]
            r2 += values[index + 2]
            r3 += values[index + 3]
            r4 += values[index + 4]
            r5 += values[index + 5]
            r6 += values[index + 6]
            r7 += values[index + 7]
        total = ((r0 + r1) + (r2 + r3)) + ((r4 + r5) + (r6 + r7))
        for index in range(end, start + n):
            total += values[index]
        return total
    half = n // 2
    half -= half % 8
    return _pairwise_sum(values, start, half) + _pairwise_sum(
        values, start + half, n - half
    )


def pairwise_mean(values: Sequence[float]) -> float:
    """``float(np.mean(values))`` bit for bit, without numpy.

    numpy reduces a float64 array by pairwise summation: fewer than 8
    values in order, up to 128 with 8 accumulators over blocks of 8,
    and above that by halves split at a multiple of 8.  The reduction
    starts from ``0.0`` and the sum is divided by the count.  An empty
    *values* gives ``nan``, as ``np.mean([])`` does (without its
    warning).
    """
    n = len(values)
    if not n:
        return math.nan
    return (0.0 + _pairwise_sum(values, 0, n)) / n


class ServerLagTracker:
    """Running per-update lags of one server replica.

    ``on_apply(now, version)`` must be called once per strictly newer
    *version* that landed in the replica's cache, at its write time and
    in write order -- the entries of ``CacheEntry.apply_log`` after its
    ``(0.0, 0)`` start; versions across calls are therefore strictly
    increasing.

    *times* lets many trackers share one update-times list (the cohort
    plane builds hundreds of thousands of trackers per run); when given
    it must equal ``list(content.update_times)`` and is never mutated.
    """

    __slots__ = ("_times", "_lags", "_covered")

    def __init__(
        self, content: LiveContent, times: Optional[List[float]] = None
    ) -> None:
        self._times = times if times is not None else list(content.update_times)
        self._lags: List[float] = []
        #: Highest update index already scored (covered prefix).
        self._covered = 0

    def on_apply(self, now: float, version: int) -> None:
        times = self._times
        top = min(version, len(times))
        covered = self._covered
        if top <= covered:
            return
        lags = self._lags
        for index in range(covered + 1, top + 1):
            lags.append(max(0.0, now - times[index - 1]))
        self._covered = top

    def mean_lag(self, censor_at: float) -> float:
        """Mean update lag with never-covered updates censored at
        *censor_at* -- equals ``mean_update_lag(content, apply_log,
        censor_at=censor_at)`` on the replica's full log.  Non-destructive."""
        times = self._times
        lags = self._lags + [
            max(0.0, censor_at - times[index - 1])
            for index in range(self._covered + 1, len(times) + 1)
        ]
        if not lags:
            return 0.0
        return pairwise_mean(lags)


class UserObservationTracker:
    """Running per-update lags and stale-visit count of one end user.

    ``on_observe`` must be called once per successful visit, at its
    response time and in visit order.  Unlike server applies, observed
    versions may regress (a redirection to a stale server); regressions
    below the running maximum count as stale visits and never advance
    coverage.

    A tracker lives for the whole run, one per user, so its lags are an
    unboxed ``array("d")`` column (8 bytes a lag, where a list holds a
    pointer and a boxed float).
    """

    __slots__ = ("_times", "_lags", "_seen", "_stale", "_total")

    def __init__(
        self, content: LiveContent, times: Optional[List[float]] = None
    ) -> None:
        self._times = times if times is not None else list(content.update_times)
        self._lags = array("d")
        #: Running maximum observed version (-1 before any visit).
        self._seen = -1
        self._stale = 0
        self._total = 0

    def on_observe(self, now: float, version: int) -> None:
        self._total += 1
        seen = self._seen
        if version < seen:
            self._stale += 1
            return
        if version > seen:
            times = self._times
            lags = self._lags
            for index in range(max(seen, 0) + 1, min(version, len(times)) + 1):
                lags.append(max(0.0, now - times[index - 1]))
            self._seen = version

    def mean_lag(self, censor_at: float) -> float:
        """Mean first-sight update lag, censored at *censor_at* -- equals
        ``mean_update_lag`` on the user's full observation log."""
        times = self._times
        covered = min(max(self._seen, 0), len(times))
        lags = self._lags + array("d", [
            max(0.0, censor_at - times[index - 1])
            for index in range(covered + 1, len(times) + 1)
        ])
        if not lags:
            return 0.0
        return pairwise_mean(lags)

    def stale_fraction(self) -> float:
        """Equals ``stale_observation_fraction`` on the observation log."""
        if not self._total:
            return 0.0
        return self._stale / self._total


class AggregateUserMetrics:
    """O(1)-per-user staleness accumulators for planet-scale runs.

    The per-user tracker keeps a lag column per user (and the testbed
    keys one metrics-dict entry per user), which is the wrong memory
    shape for a million users.  This class keeps four unboxed scalars
    per user slot -- running max version, lag sum, stale count, visit
    count -- in :mod:`array` storage, and the collection pass groups
    slots by home server (:func:`aggregate_user_rollup`).

    The aggregate mode is its own metrics layout, not a bit-compatible
    re-expression of the per-user mode: lag sums accumulate left to
    right (the per-user tracker sums pairwise, see
    :func:`pairwise_mean`), and the reported dicts are keyed by home
    server.  Sharded runs merge deterministically (see
    ``repro.experiments.sharding``).

    ``on_observe`` mirrors :meth:`UserObservationTracker.on_observe`
    exactly (same strict comparisons, same censor clamping); versions
    may regress and count as stale visits.
    """

    __slots__ = ("_times", "_seen", "_lag_sum", "_stale", "_total")

    def __init__(
        self,
        content: LiveContent,
        n_slots: int,
        times: Optional[List[float]] = None,
    ) -> None:
        if n_slots < 0:
            raise ValueError("n_slots must be >= 0")
        self._times = times if times is not None else list(content.update_times)
        self._seen = array("q", [-1]) * n_slots
        self._lag_sum = array("d", [0.0]) * n_slots
        self._stale = array("q", [0]) * n_slots
        self._total = array("q", [0]) * n_slots

    @property
    def n_slots(self) -> int:
        return len(self._seen)

    def on_observe(self, slot: int, now: float, version: int) -> None:
        self._total[slot] += 1
        seen = self._seen[slot]
        if version < seen:
            self._stale[slot] += 1
            return
        if version > seen:
            times = self._times
            lag = self._lag_sum[slot]
            for index in range(max(seen, 0) + 1, min(version, len(times)) + 1):
                lag += max(0.0, now - times[index - 1])
            self._lag_sum[slot] = lag
            self._seen[slot] = version

    def mean_lags(self, censor_at: float) -> List[float]:
        """Per-slot mean first-sight lag, never-seen updates censored at
        *censor_at*.  Non-destructive; the censor loop only walks each
        slot's uncovered tail (empty for users that saw every update)."""
        times = self._times
        n_times = len(times)
        out: List[float] = []
        for slot in range(len(self._seen)):
            covered = min(max(self._seen[slot], 0), n_times)
            total = self._lag_sum[slot]
            for index in range(covered + 1, n_times + 1):
                total += max(0.0, censor_at - times[index - 1])
            out.append(total / n_times if n_times else 0.0)
        return out

    def stale_fractions(self) -> List[float]:
        return [
            self._stale[slot] / total if total else 0.0
            for slot, total in enumerate(self._total)
        ]


def aggregate_user_rollup(
    aggregate: AggregateUserMetrics,
    node_ids: Sequence[str],
    censor_at: float,
) -> Tuple[Dict[str, float], Dict[str, float]]:
    """Group per-slot aggregates by home server.

    *node_ids* are the user node ids in slot order; the home server is
    recovered from the testbed's ``<server>-user-<i>`` naming, so the
    grouping is stable under population sharding.
    Returns ``(user_lags, user_stale_fractions)`` keyed by server node
    id, both plain per-group means accumulated in slot order.
    """
    means = aggregate.mean_lags(censor_at)
    fracs = aggregate.stale_fractions()
    lag_sums: Dict[str, float] = {}
    frac_sums: Dict[str, float] = {}
    counts: Dict[str, int] = {}
    for slot, node_id in enumerate(node_ids):
        group = node_id.rsplit("-user-", 1)[0]
        if group in counts:
            counts[group] += 1
            lag_sums[group] += means[slot]
            frac_sums[group] += fracs[slot]
        else:
            counts[group] = 1
            lag_sums[group] = means[slot]
            frac_sums[group] = fracs[slot]
    user_lags = {group: lag_sums[group] / counts[group] for group in counts}
    stale = {group: frac_sums[group] / counts[group] for group in counts}
    return user_lags, stale
