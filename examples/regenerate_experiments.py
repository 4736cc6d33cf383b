"""Regenerate EXPERIMENTS.md by running every figure driver.

Run:  python examples/regenerate_experiments.py [--scale small|medium] [--out PATH]
                                                [--workers N|auto] [--registry PATH]

``medium`` (~1/3 paper scale) takes several minutes; ``small`` finishes
in about a minute.  The output is fully deterministic for a given scale
and seed -- including with ``--workers`` > 1 (the Section 4/5 sweeps
fan over a process pool) and with ``--registry`` (completed deployments
are memoized on disk and reused on the next run).
"""

import argparse
import os
import sys
import time

from repro.experiments.report import ReportScale, generate_report
from repro.runner import Runner


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--scale", choices=("small", "medium"), default="medium")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--out",
        default=os.path.join(os.path.dirname(__file__), "..", "EXPERIMENTS.md"),
    )
    parser.add_argument(
        "--workers",
        default="1",
        help='parallel workers; "auto" = one per CPU (default: 1)',
    )
    parser.add_argument(
        "--registry",
        default=None,
        metavar="PATH",
        help="run-registry JSON memoizing deployments (default: none)",
    )
    args = parser.parse_args()

    scale = (
        ReportScale.small(args.seed) if args.scale == "small" else ReportScale.medium(args.seed)
    )
    runner = Runner(workers=args.workers, registry=args.registry)
    started = time.time()
    markdown = generate_report(scale, log=sys.stderr, runner=runner)
    out_path = os.path.abspath(args.out)
    with open(out_path, "w") as handle:
        handle.write(markdown)
    print("wrote %s (%.1f s, scale=%s)" % (out_path, time.time() - started, args.scale))


if __name__ == "__main__":
    main()
