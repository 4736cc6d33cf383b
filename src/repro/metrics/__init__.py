"""Measurement infrastructure: statistics helpers and traffic accounting.

Every name loads on first use (PEP 562 ``__getattr__``).  The
statistics helpers and the staleness series import numpy, which a
deployment run does not need; the simulator imports the trackers and
the traffic ledger by module path, so it needs nothing from this
package's own namespace.
"""

from typing import Any


def __getattr__(name: str) -> Any:
    # The import system probes a package with hasattr() for ``from .
    # import submodule`` (as below), so only the names in ``__all__``
    # import anything.
    if name in __all__:
        from . import incremental, stats, timeseries, traffic

        for module in (incremental, stats, timeseries, traffic):
            if name in module.__all__:
                return getattr(module, name)
    raise AttributeError("module %r has no attribute %r" % (__name__, name))


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
