"""Scale-smoke gate: wall-clock and peak-RSS budgets for planet runs.

Reads the harness-telemetry artifact a registry-backed ``repro sweep``
appends next to its run registry (``<registry>.telemetry.json``; see
``repro.obs.telemetry``), picks one run entry (latest by default), and
asserts:

- ``wall_time_s`` stays under ``--max-wall-s``;
- the rollup's ``peak_rss_kb`` (max over the sweep's main process and
  every worker) stays under ``--max-rss-kb``.

Budgets are deliberately loose -- this is a "planet scale still fits
CI" canary, not a performance benchmark (``make bench-user-plane``
owns throughput).  Both budgets come from the required flags only; no
environment variable changes them.

Exit status 0 on pass, 1 on a blown budget, 2 on unreadable input.
"""

import argparse
import json
import sys


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("artifact", help="telemetry artifact JSON path")
    parser.add_argument(
        "--run", type=int, default=-1,
        help="which run entry to gate (default: -1 = latest)",
    )
    parser.add_argument(
        "--max-wall-s", type=float, required=True,
        help="wall-clock budget for the gated sweep, seconds",
    )
    parser.add_argument(
        "--max-rss-kb", type=float, required=True,
        help="peak-RSS budget across the sweep's processes, KiB",
    )
    args = parser.parse_args(argv)

    try:
        with open(args.artifact) as handle:
            artifact = json.load(handle)
        runs = artifact["runs"]
        entry = runs[args.run]
    except (OSError, ValueError, KeyError, IndexError, TypeError) as exc:
        print(
            "check_scale: cannot read run %d from %s: %s"
            % (args.run, args.artifact, exc),
            file=sys.stderr,
        )
        return 2

    wall_s = float(entry.get("wall_time_s", 0.0))
    rollup = entry.get("rollup") or {}
    rss_kb = float(rollup.get("peak_rss_kb", 0))
    max_wall_s = args.max_wall_s
    max_rss_kb = args.max_rss_kb

    print(
        "check_scale: %d spec(s), %d executed, %d worker(s): "
        "wall %.1f s (budget %.0f s), peak RSS %.0f MiB (budget %.0f MiB)"
        % (
            entry.get("n_specs", 0),
            entry.get("executed", 0),
            entry.get("workers", 0),
            wall_s,
            max_wall_s,
            rss_kb / 1024.0,
            max_rss_kb / 1024.0,
        )
    )
    failed = False
    if wall_s > max_wall_s:
        print(
            "check_scale: FAIL wall %.1f s > budget %.0f s" % (wall_s, max_wall_s),
            file=sys.stderr,
        )
        failed = True
    if rss_kb > max_rss_kb:
        print(
            "check_scale: FAIL peak RSS %.0f KiB > budget %.0f KiB"
            % (rss_kb, max_rss_kb),
            file=sys.stderr,
        )
        failed = True
    if rss_kb <= 0:
        print(
            "check_scale: WARNING no peak_rss_kb in rollup "
            "(telemetry disabled?); RSS budget not enforced",
            file=sys.stderr,
        )
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
