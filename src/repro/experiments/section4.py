"""Section 4 figure drivers (trace-driven evaluation, Figs. 14-20).

Every driver expands its sweep into :class:`~repro.runner.RunSpec` grids
and executes them through a :class:`~repro.runner.Runner`, so sweeps run
in parallel when the ``runner=`` has workers and memoize through the
run registry when it has one.  Results are deterministic given the config's seed and
bit-identical across serial/parallel/cached execution.

Each driver returns a :class:`FigureResult`; the per-figure rich objects
(:class:`MethodComparison`, :class:`TrafficCostResult`, ...) live on as
its ``details``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple


from ..metrics.stats import PercentileSummary, summarize
from ..runner import Runner, RunSpec, run_specs
from .config import TestbedConfig
from ..obs.telemetry import profiled
from .result import FigureResult
from .testbed import DeploymentMetrics

__all__ = [
    "MethodComparison",
    "TrafficCostResult",
    "Fig18Point",
    "fig14_unicast_inconsistency",
    "fig15_multicast_inconsistency",
    "fig16_traffic_cost",
    "fig17_cost_vs_ttl",
    "fig18_invalidation_user_ttl",
    "fig19_packet_size",
    "fig20_network_size",
    "CORE_METHODS",
]

#: The three methods the paper evaluates in Section 4.
CORE_METHODS = ("push", "invalidation", "ttl")


@dataclass(frozen=True)
class MethodComparison:
    """Per-method metrics on one infrastructure (Figs. 14/15)."""

    infrastructure: str
    metrics: Dict[str, DeploymentMetrics]

    def mean_server_lag(self, method: str) -> float:
        return self.metrics[method].mean_server_lag

    def mean_user_lag(self, method: str) -> float:
        return self.metrics[method].mean_user_lag

    def server_lag_ordering(self) -> List[str]:
        """Methods sorted by server inconsistency (paper: push < inval < ttl)."""
        return sorted(self.metrics, key=lambda m: self.metrics[m].mean_server_lag)

    def sorted_server_lags(self, method: str) -> List[float]:
        """The per-server curve as plotted (sorted ascending)."""
        return sorted(self.metrics[method].server_lags.values())

    def sorted_user_lags(self, method: str) -> List[float]:
        return sorted(self.metrics[method].user_lags.values())


def _compare(
    figure: str,
    config: TestbedConfig,
    infrastructure: str,
    methods: Sequence[str] = CORE_METHODS,
    runner: Optional[Runner] = None,
) -> FigureResult:
    specs = [
        RunSpec(config=config, method=method, infrastructure=infrastructure)
        for method in methods
    ]
    outcome = run_specs(specs, runner)
    metrics = dict(zip(methods, outcome.metrics))
    details = MethodComparison(infrastructure=infrastructure, metrics=metrics)
    return FigureResult(
        name=figure,
        params={"infrastructure": infrastructure, "methods": list(methods)},
        series={
            "server_lags": {m: details.sorted_server_lags(m) for m in methods},
            "user_lags": {m: details.sorted_user_lags(m) for m in methods},
        },
        summary={
            "%s.mean_server_lag" % m: metrics[m].mean_server_lag for m in methods
        }
        | {"%s.mean_user_lag" % m: metrics[m].mean_user_lag for m in methods},
        details=details,
        stats=outcome.stats,
    )


@profiled("driver.fig14")
def fig14_unicast_inconsistency(
    config: TestbedConfig, runner: Optional[Runner] = None
) -> FigureResult:
    """Fig. 14: server/user inconsistency, unicast star.

    Paper: Push < Invalidation < TTL on servers; TTL mean ~ TTL/2;
    users add their own polling lag, Push ~ Invalidation < TTL.
    """
    return _compare("fig14", config, "unicast", runner=runner)


@profiled("driver.fig15")
def fig15_multicast_inconsistency(
    config: TestbedConfig, runner: Optional[Runner] = None
) -> FigureResult:
    """Fig. 15: same comparison on the binary multicast tree.

    Paper: same ordering, but TTL's inconsistency is amplified by tree
    depth (a layer-m node sees ~m times the layer-1 inconsistency).
    """
    return _compare("fig15", config, "multicast", runner=runner)


# ----------------------------------------------------------------------
# Fig. 16
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class TrafficCostResult:
    """km*KB consistency cost per (method, infrastructure) (Fig. 16)."""

    costs: Dict[Tuple[str, str], float]

    def cost(self, method: str, infrastructure: str) -> float:
        return self.costs[(method, infrastructure)]

    def multicast_saving(self, method: str) -> float:
        return self.cost(method, "unicast") - self.cost(method, "multicast")


@profiled("driver.fig16")
def fig16_traffic_cost(
    config: TestbedConfig,
    methods: Sequence[str] = CORE_METHODS,
    runner: Optional[Runner] = None,
) -> FigureResult:
    infrastructures = ("unicast", "multicast")
    grid = [(m, i) for i in infrastructures for m in methods]
    specs = [
        RunSpec(config=config, method=method, infrastructure=infrastructure)
        for method, infrastructure in grid
    ]
    outcome = run_specs(specs, runner)
    costs = {
        (method, infrastructure): metrics.cost_km_kb
        for (method, infrastructure), metrics in zip(grid, outcome.metrics)
    }
    details = TrafficCostResult(costs=costs)
    return FigureResult(
        name="fig16",
        params={"methods": list(methods)},
        series={
            infrastructure: {m: costs[(m, infrastructure)] for m in methods}
            for infrastructure in infrastructures
        },
        summary={
            "multicast_saving.%s" % m: details.multicast_saving(m) for m in methods
        },
        details=details,
        stats=outcome.stats,
    )


# ----------------------------------------------------------------------
# Fig. 17
# ----------------------------------------------------------------------
@profiled("driver.fig17")
def fig17_cost_vs_ttl(
    config: TestbedConfig,
    ttls_s: Sequence[float] = (10.0, 20.0, 30.0, 40.0, 50.0, 60.0),
    runner: Optional[Runner] = None,
) -> FigureResult:
    """Fig. 17: TTL-method cost falls as the TTL grows (both infras)."""
    infrastructures = ("unicast", "multicast")
    grid = [(i, ttl) for i in infrastructures for ttl in ttls_s]
    specs = [
        RunSpec(
            config=config.with_overrides(server_ttl_s=ttl),
            method="ttl",
            infrastructure=infrastructure,
        )
        for infrastructure, ttl in grid
    ]
    outcome = run_specs(specs, runner)
    series: Dict[str, Dict[float, float]] = {i: {} for i in infrastructures}
    for (infrastructure, ttl), metrics in zip(grid, outcome.metrics):
        series[infrastructure][ttl] = metrics.cost_km_kb
    return FigureResult(
        name="fig17",
        params={"ttls_s": list(ttls_s)},
        series=series,
        summary={
            "%s.cost_ratio_first_to_last" % i: (
                series[i][ttls_s[0]] / series[i][ttls_s[-1]]
            )
            for i in infrastructures
        },
        stats=outcome.stats,
    )


# ----------------------------------------------------------------------
# Fig. 18
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class Fig18Point:
    """One end-user-TTL setting for Invalidation (Fig. 18)."""

    user_ttl_s: float
    server_lag: PercentileSummary
    cost_km_kb: float


@profiled("driver.fig18")
def fig18_invalidation_user_ttl(
    config: TestbedConfig,
    user_ttls_s: Sequence[float] = (10.0, 30.0, 60.0, 90.0, 120.0),
    runner: Optional[Runner] = None,
) -> FigureResult:
    """Fig. 18: Invalidation with varying end-user TTL.

    Paper: server inconsistency grows with the user TTL (the fetch waits
    for a visit); traffic cost falls (visits skip whole update runs).
    """
    infrastructures = ("unicast", "multicast")
    grid = [(i, ttl) for i in infrastructures for ttl in user_ttls_s]
    specs = [
        RunSpec(
            config=config.with_overrides(user_ttl_s=user_ttl),
            method="invalidation",
            infrastructure=infrastructure,
        )
        for infrastructure, user_ttl in grid
    ]
    outcome = run_specs(specs, runner)
    series: Dict[str, List[Fig18Point]] = {i: [] for i in infrastructures}
    for (infrastructure, user_ttl), metrics in zip(grid, outcome.metrics):
        series[infrastructure].append(
            Fig18Point(
                user_ttl_s=user_ttl,
                server_lag=summarize(list(metrics.server_lags.values())),
                cost_km_kb=metrics.cost_km_kb,
            )
        )
    return FigureResult(
        name="fig18",
        params={"user_ttls_s": list(user_ttls_s)},
        series=series,
        summary={
            "%s.lag_growth" % i: (
                series[i][-1].server_lag.median - series[i][0].server_lag.median
            )
            for i in infrastructures
        },
        stats=outcome.stats,
    )


# ----------------------------------------------------------------------
# Fig. 19
# ----------------------------------------------------------------------
@profiled("driver.fig19")
def fig19_packet_size(
    config: TestbedConfig,
    sizes_kb: Sequence[float] = (1.0, 100.0, 500.0),
    infrastructures: Sequence[str] = ("unicast", "multicast"),
    methods: Sequence[str] = CORE_METHODS,
    runner: Optional[Runner] = None,
) -> FigureResult:
    """Fig. 19: mean server inconsistency vs update packet size.

    Paper: inconsistency grows with packet size; the growth rate orders
    Push > Invalidation > TTL, and multicast grows far slower than
    unicast (fan-out 2 vs fan-out N at the provider's uplink).
    """
    grid = [
        (infrastructure, method, size)
        for infrastructure in infrastructures
        for method in methods
        for size in sizes_kb
    ]
    specs = [
        RunSpec(
            config=config.with_overrides(update_size_kb=size),
            method=method,
            infrastructure=infrastructure,
        )
        for infrastructure, method, size in grid
    ]
    outcome = run_specs(specs, runner)
    series: Dict[str, Dict[str, Dict[float, float]]] = {
        i: {m: {} for m in methods} for i in infrastructures
    }
    for (infrastructure, method, size), metrics in zip(grid, outcome.metrics):
        series[infrastructure][method][size] = metrics.mean_server_lag
    return FigureResult(
        name="fig19",
        params={"sizes_kb": list(sizes_kb), "methods": list(methods)},
        series=series,
        summary={
            "%s.%s.lag_growth" % (i, m): (
                series[i][m][sizes_kb[-1]] - series[i][m][sizes_kb[0]]
            )
            for i in infrastructures
            for m in methods
        },
        stats=outcome.stats,
    )


# ----------------------------------------------------------------------
# Fig. 20
# ----------------------------------------------------------------------
@profiled("driver.fig20")
def fig20_network_size(
    config: TestbedConfig,
    n_servers: Sequence[int] = (170, 340, 510, 680, 850),
    infrastructures: Sequence[str] = ("unicast", "multicast"),
    methods: Sequence[str] = CORE_METHODS,
    runner: Optional[Runner] = None,
) -> FigureResult:
    """Fig. 20: mean server inconsistency vs network size.

    Paper: in unicast, TTL stays flat while Push/Invalidation grow with
    N (provider fan-out); in multicast, TTL grows fastest because the
    tree gets deeper and TTL lag stacks per layer.
    """
    grid = [
        (infrastructure, method, n)
        for infrastructure in infrastructures
        for method in methods
        for n in n_servers
    ]
    specs = [
        RunSpec(
            config=config.with_overrides(n_servers=n),
            method=method,
            infrastructure=infrastructure,
        )
        for infrastructure, method, n in grid
    ]
    outcome = run_specs(specs, runner)
    series: Dict[str, Dict[str, Dict[int, float]]] = {
        i: {m: {} for m in methods} for i in infrastructures
    }
    for (infrastructure, method, n), metrics in zip(grid, outcome.metrics):
        series[infrastructure][method][n] = metrics.mean_server_lag
    return FigureResult(
        name="fig20",
        params={"n_servers": list(n_servers), "methods": list(methods)},
        series=series,
        summary={
            "%s.%s.lag_growth" % (i, m): (
                series[i][m][n_servers[-1]] - series[i][m][n_servers[0]]
            )
            for i in infrastructures
            for m in methods
        },
        stats=outcome.stats,
    )
