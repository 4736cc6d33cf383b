"""Run scenarios through the Runner and roll the cells up.

:func:`run_scenario` expands a scenario into its cells, executes every
cell as a :class:`~repro.runner.RunSpec` (parallelised and memoized by
whatever :class:`~repro.runner.Runner` is supplied) and returns one
:class:`~repro.experiments.result.FigureResult` with per-cell series,
popularity-weighted rollups and the producing sweep's
:class:`~repro.runner.RunStats` (including its telemetry rollup).

:func:`compare_scenarios` is the Section-5-style cross-scenario figure:
one method/infrastructure evaluated under every named scenario, with
the scenarios ranked by the consistency they allow.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence

from ..experiments.config import TestbedConfig
from ..experiments.result import FigureResult
from ..experiments.testbed import DeploymentMetrics
from ..obs.telemetry import TELEMETRY, profiled
from ..runner import Runner, RunSpec, run_specs
from .base import ScenarioCell
from .registry import resolve_scenario

__all__ = [
    "ScenarioOutcome",
    "scenario_specs",
    "run_scenario",
    "compare_scenarios",
]


@dataclass
class ScenarioOutcome:
    """Per-cell metrics of one scenario run plus weighted rollups.

    Lag/staleness rollups weight each cell by its popularity weight
    (catalog objects contribute proportionally to their audience);
    traffic and message rollups sum over cells (the catalog's total
    footprint is the union of its objects' footprints).
    """

    scenario: str
    method: str
    infrastructure: str
    kind: str
    cells: List[ScenarioCell]
    metrics: List[DeploymentMetrics]

    def __post_init__(self) -> None:
        if len(self.cells) != len(self.metrics):
            raise ValueError("cells and metrics must align")
        if not self.cells:
            raise ValueError("a scenario outcome needs at least one cell")

    # ------------------------------------------------------------------
    def _weighted(self, values: List[float]) -> float:
        total = sum(cell.weight for cell in self.cells)
        if total <= 0.0:
            # An all-zero-weight catalog carries no audience: its rollup
            # is 0.0 rather than a ZeroDivisionError.  (An empty cell
            # list is already rejected in __post_init__.)
            return 0.0
        return sum(
            cell.weight * value for cell, value in zip(self.cells, values)
        ) / total

    @property
    def mean_server_lag(self) -> float:
        return self._weighted([m.mean_server_lag for m in self.metrics])

    @property
    def mean_user_lag(self) -> float:
        return self._weighted([m.mean_user_lag for m in self.metrics])

    @property
    def mean_stale_fraction(self) -> float:
        return self._weighted([m.mean_stale_fraction for m in self.metrics])

    @property
    def cost_km_kb(self) -> float:
        return sum(m.cost_km_kb for m in self.metrics)

    @property
    def update_messages(self) -> int:
        return sum(m.update_messages for m in self.metrics)

    @property
    def light_messages(self) -> int:
        return sum(m.light_messages for m in self.metrics)

    @property
    def dropped_messages(self) -> int:
        return sum(m.dropped_messages for m in self.metrics)

    @property
    def node_downtime_s(self) -> float:
        return sum(m.node_downtime_s for m in self.metrics)

    @property
    def events_processed(self) -> int:
        return sum(m.events_processed for m in self.metrics)

    def cell_summary(self, index: int) -> Dict[str, Any]:
        """One cell's plottable numbers (per-scenario series entry)."""
        cell, metrics = self.cells[index], self.metrics[index]
        return {
            "weight": cell.weight,
            "mean_server_lag": metrics.mean_server_lag,
            "mean_user_lag": metrics.mean_user_lag,
            "mean_stale_fraction": metrics.mean_stale_fraction,
            "cost_km_kb": metrics.cost_km_kb,
            "update_messages": metrics.update_messages,
            "light_messages": metrics.light_messages,
            "dropped_messages": metrics.dropped_messages,
            "node_downtime_s": metrics.node_downtime_s,
        }

    def rollup(self) -> Dict[str, Any]:
        """The headline scalars (weighted means + summed totals)."""
        return {
            "mean_server_lag": self.mean_server_lag,
            "mean_user_lag": self.mean_user_lag,
            "mean_stale_fraction": self.mean_stale_fraction,
            "cost_km_kb": self.cost_km_kb,
            "update_messages": self.update_messages,
            "light_messages": self.light_messages,
            "dropped_messages": self.dropped_messages,
            "node_downtime_s": self.node_downtime_s,
            "events_processed": self.events_processed,
            "n_cells": len(self.cells),
        }


def scenario_specs(
    scenario,
    config: TestbedConfig,
    method: str,
    infrastructure: str = "unicast",
    kind: str = "deployment",
) -> List[RunSpec]:
    """One :class:`RunSpec` per cell of *scenario* (registry-resolved)."""
    resolved = resolve_scenario(scenario)
    return [
        RunSpec(
            config=config,
            method=method,
            infrastructure=infrastructure,
            kind=kind,
            scenario=resolved.name,
            scenario_cell=index,
        )
        for index in range(resolved.n_cells(config))
    ]


@profiled("driver.scenario")
def run_scenario(
    scenario,
    config: TestbedConfig,
    method: str = "ttl",
    infrastructure: str = "unicast",
    kind: str = "deployment",
    runner: Optional[Runner] = None,
) -> FigureResult:
    """Run every cell of *scenario* and roll the metrics up (see module
    docstring)."""
    resolved = resolve_scenario(scenario)
    cells = resolved.cells(config)
    specs = scenario_specs(resolved, config, method, infrastructure, kind)
    outcome = run_specs(specs, runner)
    TELEMETRY.count("scenario.cells_run", len(cells))
    details = ScenarioOutcome(
        scenario=resolved.name,
        method=method,
        infrastructure=infrastructure,
        kind=kind,
        cells=cells,
        metrics=list(outcome.metrics),
    )
    return FigureResult(
        name="scenario:%s" % resolved.name,
        params={
            "scenario": resolved.name,
            "method": method,
            "infrastructure": infrastructure,
            "kind": kind,
            "seed": config.seed,
        },
        series={
            "cells": {
                cell.label: details.cell_summary(index)
                for index, cell in enumerate(cells)
            }
        },
        summary=details.rollup(),
        details=details,
        stats=outcome.stats,
    )


@profiled("driver.scenario_comparison")
def compare_scenarios(
    scenarios: Sequence[Any],
    config: TestbedConfig,
    method: str = "ttl",
    infrastructure: str = "unicast",
    kind: str = "deployment",
    runner: Optional[Runner] = None,
) -> FigureResult:
    """Section-5-style comparison: one method under every scenario.

    All cells of all scenarios go through one runner batch, so a shared
    registry caches across scenarios and a process pool overlaps them.
    """
    resolved = [resolve_scenario(s) for s in scenarios]
    if not resolved:
        raise ValueError("need at least one scenario to compare")
    per_scenario_specs = [
        scenario_specs(s, config, method, infrastructure, kind) for s in resolved
    ]
    flat = [spec for specs in per_scenario_specs for spec in specs]
    batch = run_specs(flat, runner)
    outcomes: Dict[str, ScenarioOutcome] = {}
    cursor = 0
    for s, specs in zip(resolved, per_scenario_specs):
        metrics = batch.metrics[cursor : cursor + len(specs)]
        cursor += len(specs)
        outcomes[s.name] = ScenarioOutcome(
            scenario=s.name,
            method=method,
            infrastructure=infrastructure,
            kind=kind,
            cells=s.cells(config),
            metrics=list(metrics),
        )
    ordering = sorted(
        outcomes, key=lambda name: outcomes[name].mean_user_lag
    )
    return FigureResult(
        name="scenario-comparison",
        params={
            "scenarios": [s.name for s in resolved],
            "method": method,
            "infrastructure": infrastructure,
            "kind": kind,
            "seed": config.seed,
        },
        series={name: outcomes[name].rollup() for name in outcomes},
        summary={
            "user_lag_ordering": ordering,
            "worst_scenario": ordering[-1],
            "best_scenario": ordering[0],
        },
        details=outcomes,
        stats=batch.stats,
    )
