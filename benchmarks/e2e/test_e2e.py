"""Harness tests for the end-to-end benchmark, at smoke sizes (~20 s).

Outside the tier-1 ``testpaths``; run with
``PYTHONPATH=src python -m pytest benchmarks/e2e``.
"""

from __future__ import annotations

import json
import math
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import run  # noqa: E402
import workloads  # noqa: E402
from layers import LAYERS, LayerTracer, coverage  # noqa: E402

SPEC = run.load_spec()
UNITS = {m["name"]: m["unit"] for m in SPEC["end_to_end"] + SPEC["per_layer"]}


@pytest.fixture(scope="module")
def seed0():
    """One untraced and one traced smoke child per workload, seed 0."""
    return {
        name: (run.run_child(name, 0, False, smoke=True), run.run_child(name, 0, True, smoke=True))
        for name in workloads.WORKLOADS
    }


def _result_line(workload, trace):
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", "0", "--seconds", "0", "--trace", str(trace), "--smoke"],
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_workload_names_match_spec():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)


def test_metric_names_match_spec(seed0):
    end_to_end = {m["name"] for m in SPEC["end_to_end"]}
    layered = {m["name"] for m in SPEC["per_layer"]}
    for untraced, traced in seed0.values():
        assert end_to_end <= set(run.end_to_end(untraced))
        assert layered <= set(run.per_layer([untraced], [traced]))


@pytest.mark.parametrize("trace", [0, 1])
def test_result_line_carries_every_metric_with_its_unit(trace):
    result = _result_line("ttl-tree-storm", trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 3
    names = [m["name"] for m in SPEC["per_layer" if trace else "end_to_end"]]
    assert list(result["metrics"]) == names
    for name, metric in result["metrics"].items():
        assert metric["unit"] == UNITS[name]
        assert isinstance(metric["value"], (int, float)) and math.isfinite(metric["value"])


def test_batch_table_prints_every_metric_with_its_unit(capsys):
    run.batch(SPEC, ["push-fanout"], 0, 1, False, True, None)
    lines = capsys.readouterr().out.splitlines()
    for metric in SPEC["end_to_end"]:
        row = [line.split() for line in lines if line.split()[:1] == [metric["name"]]]
        assert row and row[0][1] == metric["unit"], metric["name"]


def test_same_seed_same_digest_other_seed_differs(seed0):
    for name, (untraced, traced) in seed0.items():
        other = run.run_child(name, 1, False, smoke=True)
        assert run.gate([untraced, traced], 0, None) == []
        digests = [cell["digest"] for cell in untraced["cells"]]
        assert digests == [cell["digest"] for cell in traced["cells"]], name
        assert digests != [cell["digest"] for cell in other["cells"]], name


def test_one_ulp_change_fails_the_gate():
    from repro.experiments.testbed import build_deployment

    cell = workloads.cells("push-fanout", 0, smoke=True)[0]
    metrics = build_deployment(cell.config, cell.method, cell.infrastructure).run().to_dict()
    pinned = {"0": {cell.label: workloads.digest(metrics)}}
    nudged = dict(metrics, cost_km_kb=math.nextafter(metrics["cost_km_kb"], math.inf))
    child = {"cells": [{"label": cell.label, "digest": workloads.digest(nudged)}]}
    assert len(run.gate([child], 0, pinned)) == 1
    # The event count is not an output: kernel batching may change it.
    recount = dict(metrics, events_processed=metrics["events_processed"] + 1)
    child = {"cells": [{"label": cell.label, "digest": workloads.digest(recount)}]}
    assert run.gate([child], 0, pinned) == []


def test_invariant_checks_fail_bad_cells():
    counters = {"messages_sent": 10, "messages_delivered": 9, "dropped_receiver_down": 2}
    metrics = {"server_lags": {"s": -1.0}, "user_lags": {"u": math.nan}}
    assert len(workloads.cell_errors(metrics, counters)) == 3
    labels = ["%s/%s" % (m, i) for i in ("unicast", "multicast")
              for m in ("push", "invalidation", "ttl")]
    costs = [1.0, 4.0, 3.0, 0.1, 0.2, 0.3]  # invalidation/unicast above ttl/unicast
    failed = workloads.grid_errors("fig16-grid", labels, [{"cost_km_kb": c} for c in costs])
    assert sorted(failed) == [1, 2]


def test_tracer_covers_the_traced_wall(seed0):
    for name, (_, traced) in seed0.items():
        assert coverage(traced["layers"]) >= 0.98, name
        assert set(traced["layers"]) == set(LAYERS)


def test_tracer_restores_the_originals():
    from repro.sim.engine import Environment

    before = Environment.__dict__["run"]
    with LayerTracer():
        assert Environment.__dict__["run"] is not before
    assert Environment.__dict__["run"] is before


def test_exits_nonzero_without_the_simulator(tmp_path):
    shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "benchmarks" / "e2e",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "benchmarks/e2e/run.py", "--workload", "fig16-grid",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
