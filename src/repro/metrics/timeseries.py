"""Time-binned staleness series.

Figures 3-24 summarise whole runs; this module answers "how stale was
the fleet *over time*" -- which exposes the play/break phase structure
(staleness climbs during bursts, collapses in silences) and the effect
of failures mid-run.  Used by examples and ablation analysis.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, List, Sequence, Tuple

import numpy as np

from ..cdn.content import LiveContent

__all__ = [
    "StalenessSeries",
    "staleness_series",
    "fleet_staleness_series",
]


@dataclass(frozen=True)
class StalenessSeries:
    """Staleness sampled on a regular time grid."""

    times: Tuple[float, ...]
    values: Tuple[float, ...]
    #: ``values`` as an ndarray, materialised once at construction so
    #: :meth:`over` / :meth:`mean` do not re-convert per call.
    _values_arr: "np.ndarray" = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if len(self.times) != len(self.values):
            raise ValueError("times and values must have equal length")
        object.__setattr__(self, "_values_arr", np.asarray(self.values, dtype=np.float64))

    def __len__(self) -> int:
        return len(self.times)

    def max(self) -> float:
        return max(self.values) if self.values else 0.0

    def mean(self) -> float:
        return float(np.mean(self._values_arr)) if self.values else 0.0

    def over(self, threshold: float) -> float:
        """Fraction of sampled instants with staleness above *threshold*."""
        if not self.values:
            return 0.0
        return float(np.mean(self._values_arr > threshold))


def staleness_series(
    content: LiveContent,
    apply_log: Sequence[Tuple[float, int]],
    horizon_s: float,
    step_s: float = 10.0,
) -> StalenessSeries:
    """One replica's staleness over time.

    At each grid instant ``t`` the staleness is how long the replica's
    cached version has been superseded (0 if it is current).
    """
    if step_s <= 0:
        raise ValueError("step_s must be positive")
    if horizon_s <= 0:
        raise ValueError("horizon_s must be positive")
    grid = np.arange(0.0, horizon_s, step_s)
    if not apply_log:
        apply_log = [(0.0, 0)]
    log_times = np.asarray([t for t, _ in apply_log])
    log_versions = np.maximum.accumulate(
        np.asarray([v for _, v in apply_log], dtype=np.int64)
    )
    idx = np.searchsorted(log_times, grid, side="right") - 1
    held = np.where(idx >= 0, log_versions[np.maximum(idx, 0)], 0)
    values = content.staleness_grid(held, grid)
    return StalenessSeries(
        times=tuple(float(t) for t in grid),
        values=tuple(float(v) for v in values),
    )


def fleet_staleness_series(
    content: LiveContent,
    apply_logs: Iterable[Sequence[Tuple[float, int]]],
    horizon_s: float,
    step_s: float = 10.0,
) -> StalenessSeries:
    """Mean staleness across a fleet of replicas, over time."""
    series_list: List[StalenessSeries] = [
        staleness_series(content, log, horizon_s, step_s) for log in apply_logs
    ]
    if not series_list:
        raise ValueError("need at least one apply log")
    stacked = np.asarray([s.values for s in series_list])
    return StalenessSeries(
        times=series_list[0].times,
        values=tuple(float(v) for v in stacked.mean(axis=0)),
    )

