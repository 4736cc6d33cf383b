"""The import graph: a deployment run loads only the simulator.

Section 3's estimators need numpy; Section 4's testbed does not.  The
package inits load their analysis re-exports on first use (PEP 562), so
importing :mod:`repro.experiments.testbed` and running deployments
leaves numpy, the runner and the Section 3 stack unloaded, and with
them the trace sampler, live progress, attribution, the generic
resource and the schedule sanitizer, and ``difflib``, which only the
unknown-knob error of ``TestbedConfig.with_overrides`` needs.  Each
check runs in a fresh interpreter, because this test process has
already imported everything.
"""

from __future__ import annotations

import importlib
import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parents[1]
SRC = REPO_ROOT / "src"

#: Modules the simulator's run path must not load.
ANALYSIS_ONLY = (
    "numpy",
    "difflib",
    "repro.runner",
    "repro.trace.analysis",
    "repro.experiments.section3",
    "repro.obs.attribution",
    "repro.obs.live",
    "repro.obs.sampling",
    "repro.sim.resources",
    "repro.sim.sanitize",
)


def _python(code: str) -> str:
    """Run *code* in a fresh interpreter with ``src`` on the path and
    return its stdout."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    proc = subprocess.run(
        [sys.executable, "-c", textwrap.dedent(code)],
        capture_output=True, text=True, env=env, cwd=str(REPO_ROOT),
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_deployment_runs_load_no_analysis_modules():
    out = _python(
        """
        import json, sys
        from dataclasses import replace
        import repro.experiments.testbed as testbed
        from repro.experiments.config import smoke_scale

        config = smoke_scale(seed=0)
        cells = [
            (config, "push", "unicast", None),
            (config, "ttl", "multicast", "failure-storm"),
            (replace(config, user_metrics="aggregate"), "ttl", "unicast", None),
        ]
        for cell_config, method, infrastructure, scenario in cells:
            deployment = testbed.build_deployment(
                cell_config, method, infrastructure, scenario=scenario
            )
            metrics = deployment.run()
            assert metrics.to_dict()["server_lags"]
            metrics.mean_server_lag, metrics.mean_user_lag
        print(json.dumps(sorted(sys.modules)))
        """
    )
    loaded = set(json.loads(out))
    assert "repro.scenarios.perturbations" in loaded  # the storm ran
    assert [name for name in ANALYSIS_ONLY if name in loaded] == []


def test_cli_import_loads_no_numpy():
    out = _python("import sys, repro.cli; print('numpy' in sys.modules)")
    assert out.strip() == "False"


def test_every_module_imports_first():
    """No import cycle hides behind import order: each module under
    ``src/repro`` imports cleanly into an interpreter holding no other
    ``repro`` module."""
    names = []
    for path in sorted((SRC / "repro").rglob("*.py")):
        parts = list(path.relative_to(SRC).with_suffix("").parts)
        if parts[-1] == "__main__":
            continue
        if parts[-1] == "__init__":
            parts.pop()
        names.append(".".join(parts))
    out = _python(
        """
        import importlib, json, sys, traceback
        failed = {}
        for name in %r:
            for loaded in [m for m in sys.modules if m.split(".")[0] == "repro"]:
                del sys.modules[loaded]
            try:
                importlib.import_module(name)
            except Exception:
                failed[name] = traceback.format_exc(limit=-3)
        print(json.dumps(failed))
        """ % (names,)
    )
    assert len(names) > 100
    assert json.loads(out) == {}


@pytest.mark.parametrize(
    "package",
    [
        "repro",
        "repro.experiments",
        "repro.trace",
        "repro.metrics",
        "repro.scenarios",
        "repro.obs",
        "repro.sim",
    ],
)
def test_public_names_resolve(package):
    module = importlib.import_module(package)
    for name in module.__all__:
        assert hasattr(module, name), name
    with pytest.raises(AttributeError):
        getattr(module, "no_such_name")
