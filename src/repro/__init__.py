"""repro: reproduction of "Measuring and Evaluating Live Content
Consistency in a Large-Scale CDN" (Liu, Shen, Chandler, Li --
ICDCS 2014 / IEEE TPDS 2015).

The library provides, from scratch:

- :mod:`repro.sim` -- a deterministic discrete-event simulation engine;
- :mod:`repro.network` -- geography / ISP / latency / bandwidth substrate;
- :mod:`repro.cdn` -- origin, edge servers, end users;
- :mod:`repro.consistency` -- TTL / Push / Invalidation / self-adaptive
  update methods on unicast / multicast-tree / broadcast infrastructures;
- :mod:`repro.core` -- HAT, the paper's hybrid self-adaptive proposal;
- :mod:`repro.trace` -- a generative model of the paper's CDN crawl and
  every Section 3 estimator (inconsistency lengths, TTL inference,
  tree-existence tests, cause breakdown);
- :mod:`repro.experiments` -- one driver per evaluation figure
  (Figs. 3-24) plus the paper-vs-measured report generator.

Quickstart::

    from repro.experiments import ci_scale, build_system

    metrics = build_system(ci_scale(server_ttl_s=60.0), "hat").run()
    print(metrics.mean_server_lag, metrics.response_messages)
"""

from . import cdn, consistency, core, experiments, metrics, network, sim, trace
from .core import HatConfig, HatSystem
from .experiments import (
    TestbedConfig,
    build_deployment,
    build_system,
    ci_scale,
    generate_report,
    paper_scale,
)
from .trace import SynthesisConfig, TraceSynthesizer, synthesize_trace

__version__ = "1.0.0"

__all__ = [
    "sim",
    "network",
    "cdn",
    "consistency",
    "core",
    "trace",
    "metrics",
    "experiments",
    "HatSystem",
    "HatConfig",
    "TestbedConfig",
    "build_deployment",
    "build_system",
    "ci_scale",
    "paper_scale",
    "generate_report",
    "SynthesisConfig",
    "TraceSynthesizer",
    "synthesize_trace",
    "__version__",
]
