"""Benchmark-trajectory gate for BENCH_*.json files.

Reads benchmark *trajectories* (see ``benchmarks/bench_history.py``;
the legacy single pytest-benchmark snapshot is still accepted), prints a
compact table for the latest entry (name, min/mean), and enforces two
soft gates meant for noisy CI runners (default 3x: only a gross
regression fails the job):

- against the *trailing median*: each benchmark's latest min time may
  not exceed ``--max-regression`` times the median min over the earlier
  entries of the trajectory (single-entry trajectories skip this gate
  -- there is no history yet);
- optionally, against a ``--baseline`` JSON from an earlier run
  (trajectory or legacy snapshot; its latest entry is used).

A trajectory with no recorded entries yet (a fresh checkout before the
first ``make bench``) is skipped with a warning rather than failing:
the gate compares runs, and there is nothing to compare yet.

Exit status 0 on pass, 1 on any gate failure, 2 on unreadable input.
"""

import argparse
import sys

from bench_history import load_trajectory


def load(path):
    try:
        return load_trajectory(path)
    except ValueError as exc:
        print("check_bench: %s" % exc, file=sys.stderr)
        sys.exit(2)


def latest_entry(trajectory, path):
    """Latest recorded entry, or ``None`` (with a warning) when the
    trajectory is still empty -- first runs have nothing to gate."""
    history = trajectory["history"]
    if not history:
        print(
            "check_bench: WARNING %s has no recorded entries yet; skipping"
            % path,
            file=sys.stderr,
        )
        return None
    return history[-1]


def iter_benchmarks(entry):
    for bench in entry.get("benchmarks", []):
        yield bench["name"], bench


def report(path, trajectory):
    entry = trajectory["history"][-1]
    print(
        "== %s (%d entr%s; latest%s) =="
        % (
            path,
            len(trajectory["history"]),
            "y" if len(trajectory["history"]) == 1 else "ies",
            " " + entry["recorded"] if entry.get("recorded") else "",
        )
    )
    for name, bench in iter_benchmarks(entry):
        stats = bench["stats"]
        print("  %-40s min %8.2f ms  mean %8.2f ms" % (
            name, stats["min"] * 1e3, stats["mean"] * 1e3
        ))


def _median(values):
    ordered = sorted(values)
    middle = len(ordered) // 2
    if len(ordered) % 2:
        return ordered[middle]
    return 0.5 * (ordered[middle - 1] + ordered[middle])


def check_trailing_median(trajectory, max_regression):
    """Trajectory gate: latest min vs the median min of earlier entries.

    The median -- not the previous entry -- so one anomalously fast or
    slow run does not poison the reference, and not the all-time best so
    a machine change re-normalises within a few runs.
    """
    history = trajectory["history"]
    if len(history) < 2:
        return []
    latest = history[-1]
    failures = []
    for name, bench in iter_benchmarks(latest):
        earlier = [
            b["stats"]["min"]
            for entry in history[:-1]
            for n, b in iter_benchmarks(entry)
            if n == name and b["stats"].get("min", 0) > 0
        ]
        if not earlier:
            continue
        reference = _median(earlier)
        now = bench["stats"]["min"]
        if now > max_regression * reference:
            failures.append(
                "%s: %.2f ms vs trailing median %.2f ms over %d run(s) "
                "(> %.1fx slower)"
                % (name, now * 1e3, reference * 1e3, len(earlier), max_regression)
            )
    return failures


def check_baseline(entry, baseline_entry, max_regression):
    base = {name: bench for name, bench in iter_benchmarks(baseline_entry)}
    failures = []
    for name, bench in iter_benchmarks(entry):
        if name not in base:
            continue
        now = bench["stats"]["min"]
        then = base[name]["stats"]["min"]
        if then > 0 and now > max_regression * then:
            failures.append(
                "%s: %.2f ms vs baseline %.2f ms (> %.1fx slower)"
                % (name, now * 1e3, then * 1e3, max_regression)
            )
    return failures


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("bench_json", nargs="+", help="BENCH_*.json trajectories")
    parser.add_argument("--baseline", help="earlier BENCH json to compare against")
    parser.add_argument(
        "--max-regression", type=float, default=3.0,
        help="fail only when slower than this factor (default 3.0)",
    )
    args = parser.parse_args(argv)

    baseline_entry = None
    if args.baseline:
        baseline_entry = latest_entry(load(args.baseline), args.baseline)
    failures = []
    checked = 0
    for path in args.bench_json:
        trajectory = load(path)
        entry = latest_entry(trajectory, path)
        if entry is None:
            continue
        checked += 1
        report(path, trajectory)
        failures += check_trailing_median(trajectory, args.max_regression)
        if baseline_entry is not None:
            failures += check_baseline(entry, baseline_entry, args.max_regression)

    if failures:
        for failure in failures:
            print("check_bench: FAIL %s" % failure, file=sys.stderr)
        return 1
    print("check_bench: OK (%d of %d file(s) gated, max regression %.1fx)"
          % (checked, len(args.bench_json), args.max_regression))
    return 0


if __name__ == "__main__":
    sys.exit(main())
