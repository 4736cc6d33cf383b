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

Importing the package loads only ``__version__``; each subpackage and
named re-export below loads on first use (PEP 562 ``__getattr__``).  A
deployment's import path (:mod:`repro.experiments.testbed` and the
simulator under it) loads no numpy: numpy serves the Section 3 trace
analyses and the figure drivers only.
"""

import importlib
from typing import Any

__version__ = "1.0.0"

_SUBPACKAGES = (
    "sim",
    "network",
    "cdn",
    "consistency",
    "core",
    "trace",
    "metrics",
    "experiments",
)


def __getattr__(name: str) -> Any:
    if name in _SUBPACKAGES:
        return importlib.import_module("." + name, __name__)
    if name in __all__:
        from . import core, experiments, trace

        for module in (core, experiments, trace):
            if name in module.__all__:
                return getattr(module, name)
    raise AttributeError("module %r has no attribute %r" % (__name__, name))


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
