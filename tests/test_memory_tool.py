"""Smoke test of the per-module memory report (benchmarks/memory.py)."""

import json
import os
import subprocess
import sys
from collections import OrderedDict

import pytest

import repro.experiments.testbed as testbed

BENCH_DIR = os.path.join(os.path.dirname(os.path.dirname(__file__)), "benchmarks")
if BENCH_DIR not in sys.path:
    sys.path.insert(0, BENCH_DIR)

import memory  # noqa: E402


def test_report_names_the_modules_that_hold_memory(monkeypatch, capsys):
    monkeypatch.setattr(testbed, "_PLACEMENT_CACHE", OrderedDict())
    assert memory.main(["ttl-tree-storm", "0", "--smoke"]) == 0
    out = capsys.readouterr().out
    header, columns, *rows = out.strip().splitlines()
    assert header.startswith("cell ttl/multicast@failure-storm: path memo ")
    assert "ru_maxrss" in header
    assert columns.split() == ["KiB", "held", "module"]
    held = {line.split(None, 1)[1]: float(line.split(None, 1)[0]) for line in rows}
    assert held["network/link.py"] > 0 and held["cdn/cache.py"] > 0
    parts = sum(size for name, size in held.items() if name != "total")
    assert held["total"] == pytest.approx(parts, abs=0.1 * len(held))


def test_measure_counts_the_memo_the_run_left(monkeypatch):
    monkeypatch.setattr(testbed, "_PLACEMENT_CACHE", OrderedDict())
    cells = memory.measure("fig16-grid", 0, smoke=True)
    assert [cell.label for cell in cells] == [
        "push/unicast", "invalidation/unicast", "ttl/unicast",
        "push/multicast", "invalidation/multicast", "ttl/multicast",
    ]
    for cell in cells:
        assert 0 < cell.path_memo
        assert cell.peak_rss_kib > 0
        assert all(size > 0 for size in cell.held.values())
        assert memory.OUTSIDE in cell.held


def test_lines_lists_the_largest_src_lines(monkeypatch, capsys):
    monkeypatch.setattr(testbed, "_PLACEMENT_CACHE", OrderedDict())
    assert memory.main(["ttl-tree-storm", "0", "--smoke", "--lines", "4"]) == 0
    rows = capsys.readouterr().out.strip().splitlines()
    start = next(i for i, row in enumerate(rows) if row.split()[1:] == ["total"])
    columns, *top = rows[start + 1:]
    assert columns.split() == ["KiB", "held", "allocs", "line"]
    assert len(top) == 4
    held = {row.split(None, 1)[1]: float(row.split(None, 1)[0]) for row in rows[2:start]}
    sizes = []
    for row in top:
        size, count, where = row.split()
        module, line = where.rsplit(":", 1)
        assert int(line) > 0 and int(count) > 0
        # A line holds no more than its module.
        assert float(size) <= held[module]
        sizes.append(float(size))
    assert sizes == sorted(sizes, reverse=True)


def test_lines_must_not_be_negative(capsys):
    with pytest.raises(SystemExit):
        memory.main(["ttl-tree-storm", "0", "--smoke", "--lines", "-1"])
    assert "--lines must be >= 0" in capsys.readouterr().err


#: Prints, as JSON, the bytes `ttl-tree-storm`'s smoke cell leaves held
#: outside src/repro and in each scenarios module, after *prelude*.
_SCENARIO_ROWS = """
import json, sys
sys.path.insert(0, %(bench)r)
import memory
%(prelude)s
(cell,) = memory.measure("ttl-tree-storm", 0, smoke=True)
print(json.dumps({
    module: size for module, size in cell.held.items()
    if module == memory.OUTSIDE or module.startswith("scenarios/")
}))
"""


def test_a_cell_is_not_charged_for_what_the_process_imported_first():
    # The cell's scenario is resolved before tracing starts, so a fresh
    # interpreter and one that already imported the scenario modules
    # (and difflib) report the same rows.
    rows = []
    for prelude in ("", "import difflib, repro.scenarios.library"):
        script = _SCENARIO_ROWS % {"bench": BENCH_DIR, "prelude": prelude}
        proc = subprocess.run(
            [sys.executable, "-c", script],
            capture_output=True, text=True, check=True,
        )
        rows.append(json.loads(proc.stdout))
    fresh, preloaded = rows
    assert memory.OUTSIDE in fresh
    assert fresh == preloaded
