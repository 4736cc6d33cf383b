"""Experiment drivers: one function per paper figure, plus the testbed
builder and the EXPERIMENTS.md report generator.

The testbed, its config and :class:`FigureResult` load with the
package.  The figure drivers, sharding and the report import numpy or
the runner, so they load on first use (PEP 562 ``__getattr__``): a
deployment run imports only the simulator.
"""

from typing import Any

from .config import TestbedConfig, ci_scale, paper_scale, planet_scale, smoke_scale
from .result import FigureResult
from .testbed import (
    Deployment,
    DeploymentMetrics,
    INFRASTRUCTURES,
    METHODS,
    SYSTEMS,
    build_deployment,
    build_system,
)


def __getattr__(name: str) -> Any:
    # The import system probes a package with hasattr() for ``from .
    # import submodule`` (as below), so only the names in ``__all__``
    # import anything.
    if name in __all__:
        from . import planet, report, section3, section4, section5, sharding

        for module in (planet, report, section3, section4, section5, sharding):
            if name in module.__all__:
                return getattr(module, name)
    raise AttributeError("module %r has no attribute %r" % (__name__, name))


__all__ = [
    "FigureResult",
    "TestbedConfig",
    "paper_scale",
    "ci_scale",
    "smoke_scale",
    "planet_scale",
    "fig20x_planet_scale",
    "shard_specs",
    "shard_user_counts",
    "merge_shard_metrics",
    "Deployment",
    "DeploymentMetrics",
    "build_deployment",
    "build_system",
    "METHODS",
    "INFRASTRUCTURES",
    "SYSTEMS",
    "Section3Context",
    "fig3_inconsistency_cdf",
    "fig4_user_perspective",
    "fig5_inner_cluster",
    "fig6_ttl_inference",
    "fig7_provider_inconsistency",
    "fig8_distance",
    "fig9_isp",
    "fig10_absence",
    "fig11_static_tree",
    "fig12_dynamic_tree",
    "MethodComparison",
    "CORE_METHODS",
    "fig14_unicast_inconsistency",
    "fig15_multicast_inconsistency",
    "fig16_traffic_cost",
    "fig17_cost_vs_ttl",
    "fig18_invalidation_user_ttl",
    "fig19_packet_size",
    "fig20_network_size",
    "section5_config",
    "Fig22aResult",
    "Fig23Result",
    "fig22a_update_messages",
    "fig22b_provider_messages",
    "fig23_network_load",
    "fig24_inconsistency_observations",
    "ReportScale",
    "generate_report",
]
