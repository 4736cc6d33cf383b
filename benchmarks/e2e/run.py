"""End-to-end benchmark of the CDN simulator: four workloads, one command.

Every measured run is a fresh child process (``child.py``) that imports
``repro``, builds the workload's deployments and runs them; runs go one
at a time, so the machine holds one single-threaded simulator at once.
BENCHMARK.json at the repository root names the workloads and the
metrics with their units, directions and regression bounds.

Time-boxed run of one workload (the form BENCHMARK.json's command
takes); the last line of output is one JSON object::

    python3 benchmarks/e2e/run.py --workload push-fanout --seed 3 --seconds 25 --trace 0

``--trace 1`` adds traced children (``layers.py``) beside the untraced
ones and reports the per-layer metrics instead of the end-to-end ones.

Batch of every workload, round-robin so machine noise hits each alike,
with a table of medians and quartiles::

    python3 benchmarks/e2e/run.py --runs 5 --trace 1 --sets 2

``--sets 2`` repeats the batch and exits 1 when any metric's set-to-set
median change exceeds its bound.  ``--record`` rewrites expected.json.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from typing import Dict, List, Optional

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
EXPECTED_PATH = os.path.join(HERE, "expected.json")
#: Seeds whose per-cell digests expected.json pins.
PINNED_SEEDS = (0, 1, 2)
#: Fewest children a time-boxed run measures, however long they take.
MIN_ROUNDS = 3
#: A time-boxed run starts no child after this many seconds and kills
#: one still running then, so the whole run ends within 180 s.
HARD_LIMIT_S = 170.0
#: ``child.probe()`` on the reference host (2-vCPU Xeon VM, Python
#: 3.11), unloaded.  Reported times are scaled by REF / measured probe:
#: seconds at the reference host's speed.  Shared hosts slow down by
#: 30% for minutes at a time; the probe, timed in the same process
#: around the workload, slows down with them and cancels most of it.
PROBE_REF_S = 0.12

sys.path.insert(0, HERE)
from layers import LAYERS, coverage  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def load_spec() -> Dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        return json.load(handle)


def load_expected() -> Dict:
    with open(EXPECTED_PATH, encoding="utf-8") as handle:
        return json.load(handle)


# ----------------------------------------------------------------------
# children
# ----------------------------------------------------------------------
def child_env() -> Dict[str, str]:
    """The parent's environment without ``REPRO_*`` knobs (the benchmark
    measures the default configuration), with numeric libraries held to
    one thread and a fixed hash seed."""
    env = {key: value for key, value in os.environ.items() if not key.startswith("REPRO_")}
    env.update(
        PYTHONHASHSEED="0",
        OMP_NUM_THREADS="1",
        OPENBLAS_NUM_THREADS="1",
        MKL_NUM_THREADS="1",
    )
    return env


def run_child(
    workload: str, seed: int, trace: bool, smoke: bool = False, timeout_s: float = 150.0
) -> Dict:
    """Run ``child.py`` once; a crash or timeout comes back as a result
    whose only cell carries the error."""
    cmd = [sys.executable, os.path.join(HERE, "child.py"), workload, str(seed)]
    cmd += ["--trace"] * trace + ["--smoke"] * smoke
    try:
        proc = subprocess.run(
            cmd, cwd=ROOT, env=child_env(), capture_output=True, text=True,
            timeout=max(1.0, timeout_s),
        )
    except subprocess.TimeoutExpired:
        return {"cells": [{"label": "*", "error": "timed out after %.0f s" % timeout_s}]}
    if proc.returncode != 0:
        error = "exit %d: %s" % (proc.returncode, proc.stderr.strip()[-2000:])
        return {"cells": [{"label": "*", "error": error}]}
    return json.loads(proc.stdout.strip().splitlines()[-1])


def gate(children: List[Dict], seed: int, expected: Optional[Dict]) -> List[str]:
    """Check every cell of *children*; returns one reason per failed cell.

    A cell fails when the child reported an error for it (it raised or
    broke an invariant), when its digest differs from the pinned one for
    this seed, or when it differs from the same cell in the first child
    (every run of one seed, traced or not, must give the same outputs).
    """
    reasons = []
    reference: Dict[str, str] = {}
    for child in children:
        for cell in child["cells"]:
            label = cell["label"]
            if "error" in cell:
                reasons.append("%s: %s" % (label, cell["error"]))
                continue
            want = (expected or {}).get(str(seed), {}).get(label)
            first = reference.setdefault(label, cell["digest"])
            if want is not None and cell["digest"] != want:
                reasons.append("%s: digest %s, expected %s" % (label, cell["digest"], want))
            elif cell["digest"] != first:
                reasons.append("%s: digest differs between runs of one seed" % label)
    return reasons


def attempted(children: List[Dict]) -> int:
    return sum(len(child["cells"]) for child in children)


# ----------------------------------------------------------------------
# metrics
# ----------------------------------------------------------------------
def _ok(children: List[Dict]) -> List[Dict]:
    return [c for c in children if all("error" not in cell for cell in c["cells"])]


def speed(child: Dict) -> float:
    """Factor that turns the child's host seconds into reference seconds."""
    return PROBE_REF_S / child["probe_s"]


def end_to_end(child: Dict) -> Dict[str, float]:
    """The end-to-end metrics of one untraced child, in reference
    seconds, plus the raw probe time."""
    cells = child["cells"]
    scale = speed(child)
    run_s = scale * sum(cell["run_s"] for cell in cells)
    delivered = sum(cell["counters"]["messages_delivered"] for cell in cells)
    visits = sum(cell["counters"]["visits"] for cell in cells)
    values = {
        "wall_s": scale * child["wall_s"],
        "setup_s": scale * child["setup_s"],
        "sim_s_per_wall_s": sum(cell["horizon_s"] for cell in cells) / run_s,
        "msgs_per_s": delivered / run_s,
        "peak_rss_mib": child["peak_rss_kib"] / 1024.0,
        "probe_s": child["probe_s"],
    }
    if visits:
        values["visits_per_s"] = visits / run_s
    return values


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def per_layer(untraced: List[Dict], traced: List[Dict]) -> Dict[str, float]:
    """Per-layer metrics: layer calls, self time and share from the
    traced children (medians), counters the program keeps, and the
    tracing overhead against the untraced children."""
    values: Dict[str, float] = {}
    for layer in LAYERS:
        rows = [child["layers"][layer] for child in traced]
        values[layer + ".calls"] = rows[0]["calls"]
        values[layer + ".self_s"] = statistics.median(
            speed(child) * row["self_s"] for child, row in zip(traced, rows)
        )
        values[layer + ".share"] = statistics.median(row["share"] for row in rows)
    totals: Dict[str, int] = {}
    for cell in traced[0]["cells"]:
        for key, count in cell["counters"].items():
            totals[key] = totals.get(key, 0) + count
    sent = totals["messages_sent"]
    # The fabric asks its output port for a Request only when the port
    # is busy; an idle port is claimed without one.
    port_waits = traced[0]["entry_calls"].get("Resource.request", 0)
    values.update({
        "sim.engine.events": totals["events"],
        "sim.engine.events_per_msg": _ratio(totals["events"], sent),
        "network.msgs_sent": sent,
        "network.delivered_ratio": _ratio(totals["messages_delivered"], sent),
        "network.dropped": totals["dropped"],
        "sim.resources.port_waits": port_waits,
        "sim.resources.port_wait_ratio": _ratio(port_waits, sent),
        "sim.timers.armed": totals["timers_armed"],
        "sim.timers.expired": totals["timers_expired"],
        "sim.timers.cancelled": totals["timers_cancelled"],
        "sim.timers.cancel_ratio": _ratio(totals["timers_cancelled"], totals["timers_armed"]),
        "sim.timers.slots_per_sweep": _ratio(
            totals["timers_expired"] + totals["timers_cancelled"], totals["timer_sweeps"]
        ),
        "cdn.cohort.visits": totals["visits"],
        "cdn.cohort.visits_per_sweep": _ratio(totals["visits"], totals["visit_sweeps"]),
        "cdn.cohort.failed_visits": totals["failed_visits"],
        "trace_coverage": statistics.median(coverage(child["layers"]) for child in traced),
        "trace_overhead": statistics.median(speed(c) * c["work_s"] for c in traced)
        / statistics.median(speed(c) * c["work_s"] for c in untraced) - 1.0,
    })
    return values


def summary(values: List[float]) -> Dict[str, float]:
    """Median, quartiles and count of *values*."""
    if len(values) > 1:
        q1, median, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = median = q3 = values[0]
    return {"median": median, "q1": q1, "q3": q3, "n": len(values)}


def samples(children: List[Dict]) -> Dict[str, List[float]]:
    """Each end-to-end metric's values over *children*."""
    out: Dict[str, List[float]] = {}
    for child in children:
        for name, value in end_to_end(child).items():
            out.setdefault(name, []).append(value)
    return out


def medians(children: List[Dict]) -> Dict[str, float]:
    """Median of each end-to-end metric over *children*."""
    return {name: statistics.median(v) for name, v in samples(children).items()}


# ----------------------------------------------------------------------
# time-boxed run of one workload
# ----------------------------------------------------------------------
def timed_run(workload: str, seed: int, seconds: float, trace: bool, smoke: bool):
    """Children back to back until the next round would end after
    *seconds* (but at least MIN_ROUNDS); a round is one untraced child,
    plus one traced child with *trace*."""
    start = time.perf_counter()

    def child(traced_child: bool) -> Dict:
        remaining = HARD_LIMIT_S - (time.perf_counter() - start)
        return run_child(workload, seed, traced_child, smoke, remaining)

    untraced: List[Dict] = []
    traced: List[Dict] = []
    while True:
        untraced.append(child(False))
        if trace:
            traced.append(child(True))
        elapsed = time.perf_counter() - start
        rounds = len(untraced)
        if elapsed >= HARD_LIMIT_S:
            break
        if rounds >= MIN_ROUNDS and elapsed * (rounds + 1) / rounds > seconds:
            break
    return untraced, traced


def result_line(spec: Dict, workload: str, seed: int, untraced, traced,
                    expected: Optional[Dict], trace: bool) -> Dict:
    """The one-line result: correctness plus every end-to-end metric, or
    with *trace* every per-layer metric, as named in BENCHMARK.json."""
    children = untraced + traced
    reasons = gate(children, seed, expected)
    for reason in reasons:
        print("FAILED %s" % reason, file=sys.stderr)
    good, good_traced = _ok(untraced), _ok(traced)
    metrics = {}
    if good and (good_traced or not trace):
        values = per_layer(good, good_traced) if trace else medians(good)
        for metric in spec["per_layer" if trace else "end_to_end"]:
            metrics[metric["name"]] = {"value": values[metric["name"]], "unit": metric["unit"]}
    return {
        "correct": not reasons,
        "attempted": attempted(children),
        "failed": len(reasons),
        "metrics": metrics,
    }


# ----------------------------------------------------------------------
# batch mode
# ----------------------------------------------------------------------
def _units(spec: Dict) -> Dict[str, str]:
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    units.update(visits_per_s="1/s", failed_frac="ratio", probe_s="s")
    return units


def print_workload(spec: Dict, workload: str, untraced, traced, reasons) -> None:
    units = _units(spec)
    print("\n== %s  (%d untraced runs, %d traced)" % (workload, len(untraced), len(traced)))
    print("  %-22s %-6s %14s %14s %14s %3s" % ("metric", "unit", "median", "q1", "q3", "n"))
    rows = samples(_ok(untraced))
    rows["failed_frac"] = [len(reasons) / attempted(untraced + traced)]
    for name, values in rows.items():
        row = summary(values)
        print("  %-22s %-6s %14.6g %14.6g %14.6g %3d" % (
            name, units[name], row["median"], row["q1"], row["q3"], row["n"]))
    for reason in reasons:
        print("  FAILED %s" % reason)
    good, good_traced = _ok(untraced), _ok(traced)
    if not good or not good_traced:
        return
    values = per_layer(good, good_traced)
    print("  %-22s %12s %10s %8s" % ("layer", "calls", "self_s", "share"))
    for layer in LAYERS:
        print("  %-22s %12d %10.4f %7.1f%%" % (
            layer, values[layer + ".calls"], values[layer + ".self_s"],
            100.0 * values[layer + ".share"]))
    table = {layer + suffix for layer in LAYERS for suffix in (".calls", ".self_s", ".share")}
    for name, value in values.items():
        if name not in table:
            print("  %-34s %14.6g %s" % (name, value, units[name]))


def batch(spec: Dict, workloads: List[str], seed: int, runs: int, trace: bool,
          smoke: bool, expected: Optional[Dict]) -> Dict[str, Dict[str, float]]:
    """One set: *runs* untraced children per workload, round-robin, then
    one traced child each with *trace*; prints the tables and returns
    ``{workload: end-to-end medians}`` (``failed_frac`` included)."""
    untraced: Dict[str, List[Dict]] = {w: [] for w in workloads}
    traced: Dict[str, List[Dict]] = {w: [] for w in workloads}
    for _ in range(runs):
        for workload in workloads:
            untraced[workload].append(run_child(workload, seed, False, smoke))
    for workload in workloads if trace else ():
        traced[workload].append(run_child(workload, seed, True, smoke))
    out = {}
    for workload in workloads:
        children = untraced[workload] + traced[workload]
        reasons = gate(children, seed, (expected or {}).get(workload))
        print_workload(spec, workload, untraced[workload], traced[workload], reasons)
        good = _ok(untraced[workload])
        out[workload] = medians(good) if good else {}
        out[workload]["failed_frac"] = len(reasons) / attempted(children)
    return out


def compare_sets(spec: Dict, sets: List[Dict[str, Dict[str, float]]]) -> bool:
    """Print each metric's median change from the first set to each
    later one against its bound; ``True`` when all are within bounds."""
    within = True
    print("\n== set-to-set median change (bound = allowed change)")
    for later_index, later in enumerate(sets[1:], start=2):
        for workload, first in sets[0].items():
            for metric in spec["end_to_end"]:
                name, bound = metric["name"], metric["bound"]
                before, after = first.get(name), later[workload].get(name)
                if before is None or after is None:
                    ok, text = False, "missing"
                else:
                    delta = (after - before) / before
                    ok = abs(delta) <= bound
                    text = "%+.2f%%" % (100.0 * delta)
                within = within and ok
                print("  set %d %-15s %-18s %9s  bound %4.1f%%  %s" % (
                    later_index, workload, name, text, 100.0 * bound,
                    "ok" if ok else "OUT OF BOUND"))
    return within


def record() -> int:
    """Rewrite expected.json from one untraced run per workload and
    pinned seed; refuses if any cell fails its invariants."""
    expected: Dict[str, Dict[str, Dict[str, str]]] = {}
    for workload in WORKLOADS:
        for seed in PINNED_SEEDS:
            child = run_child(workload, seed, False)
            reasons = gate([child], seed, None)
            if reasons:
                print("not recorded: %s seed %d: %s" % (workload, seed, reasons), file=sys.stderr)
                return 1
            digests = {cell["label"]: cell["digest"] for cell in child["cells"]}
            expected.setdefault(workload, {})[str(seed)] = digests
    with open(EXPECTED_PATH, "w", encoding="utf-8") as handle:
        json.dump(expected, handle, indent=1, sort_keys=True)
        handle.write("\n")
    print("wrote %s" % EXPECTED_PATH)
    return 0


# ----------------------------------------------------------------------
def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__.split("\n")[0],
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument("--workload", action="append", choices=sorted(WORKLOADS),
                        help="workload to run (repeatable; default: all)")
    parser.add_argument("--seed", type=int, default=0, help="workload seed")
    parser.add_argument("--seconds", type=float,
                        help="time-box one workload and print the one-line JSON result")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: add traced runs and report per-layer metrics")
    parser.add_argument("--runs", type=int, default=5,
                        help="batch mode: untraced runs per workload per set")
    parser.add_argument("--sets", type=int, default=1,
                        help="batch mode: repeat the batch and compare set medians")
    parser.add_argument("--smoke", action="store_true", help="test-size workloads")
    parser.add_argument("--record", action="store_true",
                        help="rewrite expected.json from seeds %s" % (PINNED_SEEDS,))
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "repro", "__init__.py")):
        print("error: no simulator sources at %s" % os.path.join(ROOT, "src"), file=sys.stderr)
        return 2
    if args.record:
        return record()
    spec = load_spec()
    # Smoke-size cells have no pinned digests; invariants still apply.
    expected = None if args.smoke else load_expected()
    workloads = args.workload or [w["name"] for w in spec["workloads"]]

    if args.seconds is not None:
        if len(workloads) != 1:
            parser.error("--seconds measures exactly one --workload")
        (workload,) = workloads
        untraced, traced = timed_run(
            workload, args.seed, args.seconds, bool(args.trace), args.smoke
        )
        result = result_line(
            spec, workload, args.seed, untraced, traced,
            (expected or {}).get(workload), bool(args.trace),
        )
        print(json.dumps(result))
        return 0 if result["correct"] else 1

    sets = [
        batch(spec, workloads, args.seed, args.runs, bool(args.trace), args.smoke, expected)
        for _ in range(args.sets)
    ]
    failed = any(medians_["failed_frac"] for s in sets for medians_ in s.values())
    within = compare_sets(spec, sets) if len(sets) > 1 else True
    return 0 if within and not failed else 1


if __name__ == "__main__":
    sys.exit(main())
