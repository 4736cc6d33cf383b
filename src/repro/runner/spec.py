"""RunSpec: one deployment-to-run, as pure hashable data."""

from __future__ import annotations

import hashlib
import json
from dataclasses import asdict, dataclass
from typing import Any, Dict

from ..experiments.config import TestbedConfig

__all__ = ["RunSpec"]

#: The two kinds of deployment the testbed can build.
KINDS = ("deployment", "system")

#: Kept in sync with ``repro.scenarios.DEFAULT_SCENARIO`` (asserted by
#: the scenario test suite); a literal so this module never imports the
#: scenarios package (which imports the runner).
DEFAULT_SCENARIO = "paper-baseline"


@dataclass(frozen=True)
class RunSpec:
    """Everything needed to (re)build and run one deployment.

    ``kind="deployment"`` runs *method* on *infrastructure* (the
    Section 4 grid via
    :func:`~repro.experiments.testbed.build_deployment`);
    ``kind="system"`` runs one of the Section 5 named systems via
    :func:`~repro.experiments.testbed.build_system`, in which case
    *method* is the system name and *infrastructure* is ignored.

    Specs are frozen, hashable (by content hash) and JSON-round-trip
    exactly, so they can key the on-disk run registry and cross process
    boundaries.

    ``scenario`` names the :mod:`repro.scenarios` entry that supplies
    workload, catalog and perturbations; ``scenario_cell`` picks the
    catalog cell (0 for single-object scenarios).  The default is the
    paper's baseline.  :meth:`to_dict` writes every field, defaults
    included, and :meth:`from_dict` reads them all back.
    """

    config: TestbedConfig
    method: str
    infrastructure: str = "unicast"
    kind: str = "deployment"
    #: Scenario name (a registry key; must stay a plain string so the
    #: spec is picklable and hashable -- ad-hoc Scenario objects can't
    #: cross process boundaries).  Literal default mirrors
    #: ``repro.scenarios.DEFAULT_SCENARIO`` (not imported here to keep
    #: this module importable before the scenarios package).
    scenario: str = DEFAULT_SCENARIO
    scenario_cell: int = 0

    def __post_init__(self) -> None:
        if self.kind not in KINDS:
            raise ValueError(
                "kind must be one of %s, not %r" % (KINDS, self.kind)
            )
        if not isinstance(self.scenario, str) or not self.scenario:
            raise ValueError(
                "scenario must be a registered scenario name, not %r"
                % (self.scenario,)
            )
        if self.scenario_cell < 0:
            raise ValueError("scenario_cell must be >= 0")

    # ------------------------------------------------------------------
    # identity / serialization
    # ------------------------------------------------------------------
    @property
    def label(self) -> str:
        """Human-readable one-liner (``push/unicast seed=0``)."""
        if self.kind == "system":
            base = "system:%s seed=%d" % (self.method, self.config.seed)
        else:
            base = "%s/%s seed=%d" % (
                self.method, self.infrastructure, self.config.seed
            )
        if self.scenario != DEFAULT_SCENARIO or self.scenario_cell != 0:
            base += " scenario=%s[%d]" % (self.scenario, self.scenario_cell)
        return base

    def to_dict(self) -> Dict[str, Any]:
        return {
            "kind": self.kind,
            "method": self.method,
            "infrastructure": self.infrastructure,
            "config": asdict(self.config),
            "scenario": self.scenario,
            "scenario_cell": self.scenario_cell,
        }

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "RunSpec":
        return cls(
            config=TestbedConfig(**data["config"]),
            method=data["method"],
            infrastructure=data["infrastructure"],
            kind=data["kind"],
            scenario=data["scenario"],
            scenario_cell=data["scenario_cell"],
        )

    def key(self) -> str:
        """Content hash -- identical specs share a key, any knob change
        (including the seed) produces a new one."""
        canonical = json.dumps(self.to_dict(), sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(canonical.encode("utf-8")).hexdigest()

    def __hash__(self) -> int:
        return int(self.key()[:16], 16)

    # ------------------------------------------------------------------
    # execution
    # ------------------------------------------------------------------
    def build(self, tracer: Any = None):
        """Wire the deployment this spec describes (not yet run)."""
        # Imported lazily: repro.experiments' figure drivers import this
        # package at module level.
        from ..experiments.testbed import build_deployment, build_system

        if self.kind == "system":
            return build_system(
                self.config,
                self.method,
                scenario=self.scenario,
                scenario_cell=self.scenario_cell,
                tracer=tracer,
            )
        return build_deployment(
            self.config,
            self.method,
            self.infrastructure,
            scenario=self.scenario,
            scenario_cell=self.scenario_cell,
            tracer=tracer,
        )

    def execute(self, tracer: Any = None, progress: Any = None):
        """Build and run to the config's horizon; returns the metrics.

        *tracer* and *progress* are observability hooks (a
        :mod:`repro.obs` tracer and an engine progress callable); both
        are purely observational, so attaching them cannot change the
        returned metrics.
        """
        deployment = self.build(tracer=tracer)
        if progress is not None:
            deployment.env.progress = progress
        return deployment.run()
