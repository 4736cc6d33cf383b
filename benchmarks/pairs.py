"""Alternating A/B pairs of the end-to-end benchmark between two checkouts.

Usage::

    python3 benchmarks/pairs.py --parent ../parent --change . \\
        --workload push-fanout --seed 23 --pairs 10 --claim msgs_per_s \\
        [--cold]

A pair is one time-boxed run of BENCHMARK.json's command
(``benchmarks/e2e/run.py --workload W --seed S --seconds T --trace 0``,
with ``T`` its ``run_seconds``) in each checkout, one after the other,
each from its own ``src``.  Odd pairs run the parent first and even
pairs the change, so a host whose speed drifts while the pairs run
slows both sides alike.  Each pair prints one line as it ends.  Before
the first pair, both checkouts' ``src`` and ``benchmarks/e2e`` are
byte-compiled, so both sides import from ``.pyc`` files: a side that
compiles every module on each import reads a higher ``setup_s`` that is
not the program's.

``--cold`` measures the other way round: both checkouts lose every
``__pycache__`` under ``src`` and ``benchmarks/e2e`` before the first
pair, and both sides run under ``PYTHONDONTWRITEBYTECODE=1``, so every
benchmark child compiles the ``repro`` modules it imports and
``setup_s`` includes that.  That is how a fresh checkout runs; the
standard library keeps its installed bytecode either way.

Then, for every end-to-end metric of BENCHMARK.json, the summary gives
each side's median and quartiles over the pairs whose two runs were
both correct, the median change in percent and the pairs the change
won (ties count for neither side), with the direction taken from the
metric's ``better``.  The metric named by ``--claim`` is *claimed* only
over at least ten such pairs, when the change wins at least nine tenths
of them and its median beats the parent's by more than the parent's
interquartile range; the last line repeats that verdict.  Every other
metric is flagged when the change's median is worse than the parent's
by more than the metric's ``bound``, and reported *unresolved* when
either side's quartile spread is wider than the bound and not every
change run beats every parent run.

Exit status: 1 if any run reported ``"correct": false`` (or printed no
result), else 0; the verdicts are printed, not signalled.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import shutil
import subprocess
import sys
from typing import Dict, List, Optional, Sequence, Tuple

E2E_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "e2e")
sys.path.insert(0, E2E_DIR)
# The benchmark's own spec reader and quartile rule, so a pair summary
# reads medians and quartiles exactly as a benchmark run reports them.
from run import load_spec, summary  # noqa: E402

#: ``(parent metrics, change metrics)`` of one pair, by metric name; a
#: side whose run was not correct holds no metrics.
Pair = Tuple[Dict[str, float], Dict[str, float]]

#: Fewest pairs over which a gain can be claimed.
MIN_CLAIM_PAIRS = 10


#: The parts of a checkout whose bytecode a benchmark run imports.
CODE_DIRS = ("src", os.path.join("benchmarks", "e2e"))


def run_side(
    spec: Dict, checkout: str, workload: str, seed: int, cold: bool = False
) -> Dict:
    """One time-boxed benchmark run in *checkout*, as long as the spec's
    ``run_seconds`` (*cold*: writing no bytecode); its one-line result,
    or an incorrect result with no metrics if it printed none."""
    cmd = list(spec["command"]) + [
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(spec["run_seconds"]), "--trace", "0",
    ]
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1") if cold else None
    proc = subprocess.run(cmd, cwd=checkout, env=env, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    try:
        return json.loads(lines[-1])
    except (IndexError, ValueError):
        return {"correct": False, "metrics": {}, "error": proc.stderr.strip()[-500:]}


def compile_checkout(checkout: str) -> None:
    """Byte-compile the code a run of *checkout* imports.  ``compileall``
    writes the ``.pyc`` files even under ``PYTHONDONTWRITEBYTECODE``."""
    for part in CODE_DIRS:
        compileall.compile_dir(os.path.join(checkout, part), quiet=1)


def clear_bytecode(checkout: str) -> None:
    """Remove every ``__pycache__`` directory under the code a run of
    *checkout* imports."""
    for part in CODE_DIRS:
        for root, dirs, _ in os.walk(os.path.join(checkout, part)):
            if "__pycache__" in dirs:
                dirs.remove("__pycache__")
                shutil.rmtree(os.path.join(root, "__pycache__"))


def values(result: Dict) -> Dict[str, float]:
    """``{metric: value}`` of one run's result line."""
    return {name: entry["value"] for name, entry in result.get("metrics", {}).items()}


def quartiles(samples: List[float]) -> Tuple[float, float, float]:
    """``(q1, median, q3)`` of *samples*."""
    stats = summary(samples)
    return stats["q1"], stats["median"], stats["q3"]


def summarize(metrics: Sequence[Dict], pairs: Sequence[Pair], claim: Optional[str]) -> List[Dict]:
    """One row per metric of *metrics* (BENCHMARK.json ``end_to_end``
    entries) that every side of some pair reported.

    Each row holds both sides' quartiles, ``change_pct`` (median to
    median), ``wins`` out of ``n`` pairs and a ``verdict``: for *claim*
    ``"claimed"`` (at least :data:`MIN_CLAIM_PAIRS` pairs) or ``"not
    claimed"``; for the others ``"worse than bound"``, ``"unresolved"``
    or ``"within bound"``.
    """
    rows = []
    for metric in metrics:
        name, bound = metric["name"], metric["bound"]
        # +1 when a higher value is better: ``sign * (change - parent)``
        # is then positive exactly when the change is better.
        sign = 1.0 if metric["better"] == "higher" else -1.0
        both = [(p[name], c[name]) for p, c in pairs if name in p and name in c]
        if not both:
            continue
        parent = [p for p, _ in both]
        change = [c for _, c in both]
        p_q1, p_med, p_q3 = quartiles(parent)
        c_q1, c_med, c_q3 = quartiles(change)
        n = len(both)
        wins = sum(1 for p, c in both if sign * (c - p) > 0)
        gain = sign * (c_med - p_med)
        scale = abs(p_med)
        if name == claim:
            claimed = n >= MIN_CLAIM_PAIRS and 10 * wins >= 9 * n and gain > p_q3 - p_q1
            verdict = "claimed" if claimed else "not claimed"
        elif -gain > bound * scale:
            verdict = "worse than bound"
        elif max(p_q3 - p_q1, c_q3 - c_q1) > bound * scale and not (
            min(sign * c for c in change) > max(sign * p for p in parent)
        ):
            verdict = "unresolved"
        else:
            verdict = "within bound"
        rows.append({
            "name": name,
            "unit": metric["unit"],
            "better": metric["better"],
            "bound": bound,
            "parent": (p_q1, p_med, p_q3),
            "change": (c_q1, c_med, c_q3),
            "change_pct": 100.0 * (c_med - p_med) / p_med if p_med else 0.0,
            "wins": wins,
            "n": n,
            "verdict": verdict,
        })
    return rows


def fmt(value: float) -> str:
    return "%.0f" % value if abs(value) >= 1000 else "%.4g" % value


def pair_line(index: int, total: int, parent_first: bool, pair: Pair, names: Sequence[str]) -> str:
    parent, change = pair
    cells = [
        "%s %s->%s" % (name, fmt(parent[name]), fmt(change[name]))
        for name in names if name in parent and name in change
    ]
    order = "parent first" if parent_first else "change first"
    return "pair %2d/%d (%s)  %s" % (index, total, order, "  ".join(cells))


def print_summary(rows: Sequence[Dict]) -> None:
    print("\n%-17s %-5s %-6s %28s %28s %8s %6s  %s" % (
        "metric", "unit", "better", "parent median [q1, q3]",
        "change median [q1, q3]", "change", "wins", "verdict"))
    for row in rows:
        p_q1, p_med, p_q3 = row["parent"]
        c_q1, c_med, c_q3 = row["change"]
        print("%-17s %-5s %-6s %28s %28s %+7.1f%% %6s  %s" % (
            row["name"], row["unit"], row["better"],
            "%s [%s, %s]" % (fmt(p_med), fmt(p_q1), fmt(p_q3)),
            "%s [%s, %s]" % (fmt(c_med), fmt(c_q1), fmt(c_q3)),
            row["change_pct"], "%d/%d" % (row["wins"], row["n"]), row["verdict"]))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__.split("\n")[0],
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument("--parent", required=True, help="checkout of the parent commit")
    parser.add_argument("--change", required=True, help="checkout of the change")
    parser.add_argument("--workload", required=True, help="benchmark workload")
    parser.add_argument("--seed", type=int, required=True, help="workload seed")
    parser.add_argument("--pairs", type=int, default=10, help="pairs to run (default 10)")
    parser.add_argument("--claim", help="end-to-end metric the change claims to improve")
    parser.add_argument(
        "--cold", action="store_true",
        help="remove both sides' bytecode and run them writing none",
    )
    args = parser.parse_args(argv)

    spec = load_spec()
    metrics = spec["end_to_end"]
    names = [metric["name"] for metric in metrics]
    if args.claim is not None and args.claim not in names:
        parser.error("--claim must be one of %s" % ", ".join(names))
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")
    for checkout in (args.parent, args.change):
        if not os.path.isfile(os.path.join(checkout, "benchmarks", "e2e", "run.py")):
            parser.error("%s holds no benchmarks/e2e/run.py" % checkout)
    for checkout in (args.parent, args.change):
        (clear_bytecode if args.cold else compile_checkout)(checkout)

    pairs: List[Pair] = []
    correct = True
    for index in range(1, args.pairs + 1):
        parent_first = index % 2 == 1
        sides = [("parent", args.parent), ("change", args.change)]
        results = {}
        for side, checkout in sides if parent_first else reversed(sides):
            result = run_side(spec, checkout, args.workload, args.seed, args.cold)
            if result.get("correct", False):
                results[side] = values(result)
            else:
                # run.py still reports medians from its good children;
                # the pair leaves the summary instead.
                correct = False
                results[side] = {}
                print("pair %d: %s run not correct: %s" % (
                    index, side, result.get("error") or "%s of %s cells failed" % (
                        result.get("failed"), result.get("attempted"))), flush=True)
        pair = (results["parent"], results["change"])
        pairs.append(pair)
        print(pair_line(index, args.pairs, parent_first, pair, names), flush=True)

    rows = summarize(metrics, pairs, args.claim)
    print_summary(rows)
    if args.claim is not None:
        verdict = next((row["verdict"] for row in rows if row["name"] == args.claim),
                       "not claimed")
        print("\n%s: %s" % (args.claim, verdict))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
