"""Consistency metrics for the trace-driven experiments (Sections 4-5).

Ground truth is the content's update schedule; measurements come from

- a server's *apply log*: (time, version) for every cache write, and
- a user's *observation log*: (time, version) for every visit.

The core metric is the **update lag**: for each update ``i`` created at
``u_i``, the first time the server (or user) holds/sees version ``>= i``
minus ``u_i``.  Averaged per server this is the paper's "inconsistency
of each content server" (Figs. 14-15, 19-20); per user it is the
end-user inconsistency (Figs. 14b, 15b); the Fig. 24 metric is the
fraction of observations strictly older than something already seen.
"""

from __future__ import annotations

from typing import Iterable, List, Optional, Sequence, Tuple

import numpy as np

from ..cdn.cohort import Observation
from ..cdn.content import LiveContent

__all__ = [
    "update_lags",
    "mean_update_lag",
    "observation_update_lags",
    "stale_observation_fraction",
]


def _running_max(versions: Sequence[int]) -> np.ndarray:
    return np.maximum.accumulate(np.asarray(list(versions), dtype=np.int64))


def update_lags(
    content: LiveContent,
    log: Sequence[Tuple[float, int]],
    window: Optional[Tuple[float, float]] = None,
    censor_at: Optional[float] = None,
) -> List[float]:
    """Per-update lags from a (time, version) log.

    ``window`` restricts which updates are scored (by creation time);
    updates never realised in the log are censored at ``censor_at`` if
    given, otherwise skipped.
    """
    if not content.update_times:
        return []
    lo, hi = window if window is not None else (0.0, float("inf"))

    times = np.asarray([t for t, _ in log], dtype=float)
    versions = [v for _, v in log]
    max_versions = _running_max(versions) if versions else np.asarray([], dtype=np.int64)

    lags: List[float] = []
    for index, created in enumerate(content.update_times, start=1):
        if not lo <= created <= hi:
            continue
        pos = int(np.searchsorted(max_versions, index, side="left"))
        if pos >= len(times):
            if censor_at is not None:
                lags.append(max(0.0, censor_at - created))
            continue
        lags.append(max(0.0, float(times[pos]) - created))
    return lags


def mean_update_lag(
    content: LiveContent,
    log: Sequence[Tuple[float, int]],
    window: Optional[Tuple[float, float]] = None,
    censor_at: Optional[float] = None,
) -> float:
    """Mean update lag (0.0 when no update falls in the window)."""
    lags = update_lags(content, log, window=window, censor_at=censor_at)
    if not lags:
        return 0.0
    return float(np.mean(lags))


def observation_update_lags(
    content: LiveContent,
    observations: Iterable[Observation],
    window: Optional[Tuple[float, float]] = None,
    censor_at: Optional[float] = None,
) -> List[float]:
    """Update lags as experienced by one user (first *sight* of each
    update)."""
    log = [(obs.time, obs.version) for obs in observations]
    return update_lags(content, log, window=window, censor_at=censor_at)


def stale_observation_fraction(observations: Iterable[Observation]) -> float:
    """Fraction of observations showing content older than already seen.

    Fig. 24's "percentage of inconsistency observations": a visit is
    inconsistent if its version is strictly lower than the maximum
    version this user has observed before (e.g. the score goes
    2:3 -> 2:2 after a redirection to a stale server).
    """
    observations = list(observations)
    if not observations:
        return 0.0
    seen_max = -1
    stale = 0
    for obs in observations:
        if obs.version < seen_max:
            stale += 1
        seen_max = max(seen_max, obs.version)
    return stale / len(observations)
