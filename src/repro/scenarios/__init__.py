"""Pluggable workload scenarios for the consistency testbed.

A :class:`Scenario` bundles what the legacy testbed hard-wired: the
arrival workload, the content catalog and a schedule of mid-run
perturbations.  Scenarios resolve by name through a registry shaped
like :mod:`repro.consistency.registry`, expand into per-object
:class:`ScenarioCell` deployments, and run through the standard
:class:`~repro.runner.Runner` machinery (see :mod:`repro.scenarios.run`).
The run helpers import the runner, so they load on first use (PEP 562
``__getattr__``): building a deployment with a scenario never needs
them.
"""

from typing import Any

from .base import (
    PERTURBATION_STREAM,
    UPDATE_STREAM,
    Scenario,
    ScenarioCell,
    SingleObjectScenario,
    content_from_workload,
)
from .catalog import CatalogScenario, CatalogSpec, zipf_weights
from .perturbations import (
    DiurnalModulation,
    FailureStorm,
    FlashCrowd,
    Perturbation,
    Reconfiguration,
)
from .registry import (
    DEFAULT_SCENARIO,
    SCENARIO_REGISTRY,
    ScenarioEntry,
    register_scenario,
    resolve_scenario,
    scenario_choices,
    scenario_names,
)


def __getattr__(name: str) -> Any:
    # The import system probes a package with hasattr() for ``from .
    # import submodule`` (as below), so only the names in ``__all__``
    # import anything.
    if name in __all__:
        from . import run

        return getattr(run, name)
    raise AttributeError("module %r has no attribute %r" % (__name__, name))


__all__ = [
    "PERTURBATION_STREAM",
    "UPDATE_STREAM",
    "Scenario",
    "ScenarioCell",
    "SingleObjectScenario",
    "content_from_workload",
    "CatalogScenario",
    "CatalogSpec",
    "zipf_weights",
    "Perturbation",
    "FlashCrowd",
    "DiurnalModulation",
    "FailureStorm",
    "Reconfiguration",
    "DEFAULT_SCENARIO",
    "SCENARIO_REGISTRY",
    "ScenarioEntry",
    "register_scenario",
    "resolve_scenario",
    "scenario_choices",
    "scenario_names",
    "ScenarioOutcome",
    "scenario_specs",
    "run_scenario",
    "compare_scenarios",
]
