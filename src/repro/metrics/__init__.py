"""Measurement infrastructure: statistics helpers and traffic accounting."""

from .stats import (
    Cdf,
    PercentileSummary,
    mean,
    pearson_r,
    percentile,
    rmse_against_uniform,
    rmse_between_cdfs,
    summarize,
    uniform_cdf_value,
)
from .incremental import ServerLagTracker, UserObservationTracker
from .timeseries import (
    StalenessSeries,
    fleet_staleness_series,
    staleness_series,
)
from .traffic import KindTotals, TrafficLedger

__all__ = [
    "Cdf",
    "PercentileSummary",
    "mean",
    "pearson_r",
    "percentile",
    "rmse_against_uniform",
    "rmse_between_cdfs",
    "summarize",
    "uniform_cdf_value",
    "KindTotals",
    "TrafficLedger",
    "StalenessSeries",
    "staleness_series",
    "fleet_staleness_series",
    "ServerLagTracker",
    "UserObservationTracker",
]
