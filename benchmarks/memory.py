"""Where a workload's memory goes: the bytes each ``src/repro`` module
still holds when a cell's run ends.

Usage::

    python3 benchmarks/memory.py WORKLOAD SEED [--smoke] [--lines N]

For each cell of the e2e benchmark's WORKLOAD (``benchmarks/e2e/
workloads.py``), this builds the deployment and runs it with
:mod:`tracemalloc` tracing from just before the build.  Right after
``Deployment.run`` returns, with the deployment and its metrics still
alive, it prints the bytes still held by the allocations that each
``src/repro`` module made during that cell, largest first, then the
traced bytes allocated anywhere else and the total.  With ``--lines
N`` it then prints the N ``src/repro`` lines holding the most bytes,
with the number of live allocations each made.  Each cell also reports
the fabric's path-memo entries and the process's peak RSS so far
(``ru_maxrss``, which includes tracing's own overhead).

Two steps before each cell's tracing keep its rows independent of what
the process did before.  The cell's scenario is resolved first, so the
scenario modules that resolving imports are charged to no cell,
whatever the process imported before.  Then a full collection
(``gc.collect()``) empties CPython's free lists of built-in types:
an object served from a free list is no new allocation to
:mod:`tracemalloc`, while one that missed it is, and stays charged to
its line after it dies and its block goes back on the list.  What the
lists hold depends on everything the process ran first (its imports,
and whether each module was compiled or loaded from bytecode); emptied,
every cell allocates, and is charged for, the same blocks.

A module is charged for what a line of it allocated, whoever holds it
now: a tuple appended to a log belongs to the module that appended it.
Tracing restarts per cell, so state an earlier cell left behind (the
placement memo) counts for none of the later cells, and the collection
before each cell frees an earlier cell's unreachable cycles before the
next cell is traced.  Tracing slows a run several-fold; ``--smoke``
runs the workload at test size.
"""

from __future__ import annotations

import argparse
import gc
import os
import resource
import sys
import tracemalloc
from typing import Dict, List, NamedTuple, Tuple

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(0, os.path.join(HERE, "e2e"))

import workloads  # noqa: E402

#: The key of traced bytes allocated outside ``src/repro``.
OUTSIDE = "(outside src/repro)"


class CellMemory(NamedTuple):
    """What one cell's run left allocated."""

    label: str
    #: Bytes held, by module path under ``src/repro`` (or :data:`OUTSIDE`).
    held: Dict[str, int]
    path_memo: int
    peak_rss_kib: int
    #: The ``src/repro`` lines holding the most bytes, largest first, as
    #: ``(module:line, bytes, allocations)``; empty unless asked for.
    top_lines: Tuple[Tuple[str, int, int], ...] = ()


def held_by_module(snapshot: tracemalloc.Snapshot, package_dir: str) -> Dict[str, int]:
    """Bytes held per allocating file: paths under *package_dir* by
    their relative path, every other file summed under :data:`OUTSIDE`."""
    prefix = package_dir + os.sep
    held: Dict[str, int] = {}
    for stat in snapshot.statistics("filename"):
        filename = os.path.abspath(stat.traceback[0].filename)
        key = filename[len(prefix):] if filename.startswith(prefix) else OUTSIDE
        held[key] = held.get(key, 0) + stat.size
    return held


def held_by_line(
    snapshot: tracemalloc.Snapshot, package_dir: str, n: int
) -> Tuple[Tuple[str, int, int], ...]:
    """The *n* lines under *package_dir* holding the most bytes, largest
    first: ``(relative path:line, bytes, allocations)``."""
    prefix = package_dir + os.sep
    top = []
    # statistics() sorts by size, largest first.
    for stat in snapshot.statistics("lineno"):
        if len(top) >= n:
            break
        frame = stat.traceback[0]
        filename = os.path.abspath(frame.filename)
        if filename.startswith(prefix):
            top.append(("%s:%d" % (filename[len(prefix):], frame.lineno), stat.size, stat.count))
    return tuple(top)


def measure(
    workload: str, seed: int, smoke: bool = False, lines: int = 0
) -> List[CellMemory]:
    """Run every cell of *workload* under tracing, one after another;
    keep each cell's *lines* largest ``src/repro`` lines."""
    import repro.experiments.testbed as testbed
    from repro.scenarios.registry import resolve_scenario

    package_dir = os.path.dirname(os.path.dirname(os.path.abspath(testbed.__file__)))
    out = []
    for cell in workloads.cells(workload, seed, smoke=smoke):
        scenario = None if cell.scenario is None else resolve_scenario(cell.scenario)
        # A full collection clears the free lists of built-in types
        # (tuples, floats, dicts, ...), so no block this cell uses was
        # left on them by what ran before.
        gc.collect()
        tracemalloc.start()
        try:
            deployment = testbed.build_deployment(
                cell.config, cell.method, cell.infrastructure, scenario=scenario
            )
            metrics = deployment.run()
            snapshot = tracemalloc.take_snapshot()
        finally:
            tracemalloc.stop()
        out.append(CellMemory(
            label=cell.label,
            held=held_by_module(snapshot, package_dir),
            path_memo=len(deployment.fabric._path_cache),
            peak_rss_kib=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
            top_lines=held_by_line(snapshot, package_dir, lines),
        ))
        del deployment, metrics, snapshot
    return out


def report(cell: CellMemory) -> str:
    lines = ["cell %s: path memo %d entries, ru_maxrss %.1f MiB" % (
        cell.label, cell.path_memo, cell.peak_rss_kib / 1024.0)]
    lines.append("%12s  %s" % ("KiB held", "module"))
    inside = sorted(
        ((size, module) for module, size in cell.held.items() if module != OUTSIDE),
        reverse=True,
    )
    for size, module in inside + [(cell.held.get(OUTSIDE, 0), OUTSIDE)]:
        lines.append("%12.1f  %s" % (size / 1024.0, module))
    lines.append("%12.1f  %s" % (sum(cell.held.values()) / 1024.0, "total"))
    if cell.top_lines:
        lines.append("%12s  %9s  %s" % ("KiB held", "allocs", "line"))
        for where, size, count in cell.top_lines:
            lines.append("%12.1f  %9d  %s" % (size / 1024.0, count, where))
    return "\n".join(lines)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__.split("\n")[0],
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument("workload", choices=sorted(workloads.WORKLOADS))
    parser.add_argument("seed", type=int)
    parser.add_argument("--smoke", action="store_true", help="test-size workload")
    parser.add_argument(
        "--lines", type=int, default=0, metavar="N",
        help="also print the N src/repro lines holding the most bytes",
    )
    args = parser.parse_args(argv)
    if args.lines < 0:
        parser.error("--lines must be >= 0")
    for cell in measure(args.workload, args.seed, smoke=args.smoke, lines=args.lines):
        print(report(cell) + "\n", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
