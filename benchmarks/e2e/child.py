"""Run one workload once in this (fresh) process and print one JSON line.

Usage: ``python child.py WORKLOAD SEED [--trace] [--smoke]``; ``run.py``
starts one of these per measured run.  The repository's ``src`` must sit
two directories above this file.

Set-up is timed from before ``import repro``, so it includes the import
and every build call.  Nothing but the workload runs here: no threads,
no other processes.

Before and after the workload the child times :func:`probe`, a fixed
pure-Python loop, so that ``run.py`` can tell how fast the host ran
while the workload did.
"""

from __future__ import annotations

import argparse
import contextlib
import heapq
import json
import os
import resource
import sys
import time
import traceback

from layers import LayerTracer

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(os.path.dirname(HERE)), "src")


class _Item:
    __slots__ = ("at", "payload")

    def __init__(self, at: float, payload: dict) -> None:
        self.at = at
        self.payload = payload


def probe(n: int = 100_000) -> float:
    """Seconds this host takes for a fixed event-loop-shaped loop.

    Heap pushes and pops of small slotted objects, dict updates and
    float sums are the interpreter work the simulator does, so
    contention from other tenants or a lower clock slows both alike.
    It shares no code with ``repro``: a change to the simulator cannot
    change the probe.
    """
    start = time.perf_counter()
    heap: list = []
    totals: dict = {}
    for seq in range(n):
        heapq.heappush(heap, ((seq * 7919) % 1000 * 0.001, seq, _Item(seq * 0.5, {"req": seq})))
        if len(heap) > 256:
            at, key, item = heapq.heappop(heap)
            totals[key & 1023] = totals.get(key & 1023, 0.0) + at + item.payload["req"]
    return time.perf_counter() - start


def _counters(deployment) -> dict:
    """Counters the program keeps, read after the run."""
    fabric = deployment.fabric.counters
    wheel = deployment.env.timers
    cohort = deployment.cohort
    lanes = [wheel] + ([cohort._timeouts] if cohort is not None else [])
    return {
        "events": deployment.env.events_processed,
        "messages_sent": fabric.messages_sent,
        "messages_delivered": fabric.messages_delivered,
        "dropped_receiver_down": fabric.dropped_receiver_down,
        "dropped": fabric.dropped_messages,
        "timers_armed": sum(lane.armed for lane in lanes),
        "timers_expired": sum(lane.expired for lane in lanes),
        "timers_cancelled": sum(lane.cancelled for lane in lanes),
        "timer_sweeps": sum(lane.sweeps for lane in lanes),
        "visits": cohort.visits_started if cohort is not None else 0,
        "visit_sweeps": cohort.sweeps if cohort is not None else 0,
        "failed_visits": cohort.total_failed_visits() if cohort is not None else 0,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("workload")
    parser.add_argument("seed", type=int)
    parser.add_argument("--trace", action="store_true", help="time each layer")
    parser.add_argument("--smoke", action="store_true", help="test-size workload")
    args = parser.parse_args(argv)

    probe_before = probe()
    sys.path.insert(0, SRC)
    import_start = time.perf_counter()
    import repro.experiments.testbed as testbed

    import workloads

    setup_s = time.perf_counter() - import_start
    tracer = LayerTracer() if args.trace else None
    results = []
    work_s = 0.0
    with tracer if tracer is not None else contextlib.nullcontext():
        for cell in workloads.cells(args.workload, args.seed, smoke=args.smoke):
            row = {"label": cell.label, "horizon_s": cell.config.run_horizon_s}
            try:
                start = time.perf_counter()
                deployment = testbed.build_deployment(
                    cell.config, cell.method, cell.infrastructure, scenario=cell.scenario
                )
                built = time.perf_counter()
                metrics = deployment.run()
                done = time.perf_counter()
            except Exception:  # a failing cell is reported, not fatal
                row["error"] = traceback.format_exc(limit=3)
                results.append((row, None))
                continue
            setup_s += built - start
            work_s += done - start
            row["run_s"] = done - built
            row["counters"] = _counters(deployment)
            results.append((row, metrics.to_dict()))
        wall_s = time.perf_counter() - import_start
        peak_rss_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    probe_s = (probe_before + probe()) / 2.0

    labels = [row["label"] for row, _ in results]
    all_metrics = [metrics for _, metrics in results]
    # Cross-cell checks need every cell; a cell that raised already fails.
    grid = {} if None in all_metrics else workloads.grid_errors(
        args.workload, labels, all_metrics
    )
    for index, (row, metrics) in enumerate(results):
        if metrics is None:
            continue
        row["digest"] = workloads.digest(metrics)
        errors = workloads.cell_errors(metrics, row["counters"])
        if index in grid:
            errors.append(grid[index])
        if errors:
            row["error"] = "; ".join(errors)

    out = {
        "workload": args.workload,
        "seed": args.seed,
        "setup_s": setup_s,
        "wall_s": wall_s,
        "work_s": work_s,
        "peak_rss_kib": peak_rss_kib,
        "probe_s": probe_s,
        "cells": [row for row, _ in results],
    }
    if tracer is not None:
        out["layers"] = tracer.report(work_s)
        out["entry_calls"] = tracer.entry_calls()
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
