"""``repro sanitize``: drive the schedule sanitizer over real cells.

For each requested cell -- ``method:infrastructure``, or a Section 5
system by name (``hat``, ``hybrid``) -- the driver runs one
*baseline* deployment (sanitizer traps on, FIFO tie-breaking) and ``N``
*perturbed replicas* (same seeds, same config, but same-instant event
ties popped in seeded-random order -- see :mod:`repro.sim.sanitize`),
then asserts the replicas are **bit-identical** to the baseline on

- the full :meth:`DeploymentMetrics.to_dict` payload (every lag, load,
  message and drop counter), and
- the recorded trace stream, canonicalized within each simulated
  instant (same-time events are a *set* as far as causality is
  concerned; their relative emission order is exactly the tie order
  being perturbed).

A divergence means the model's results depend on the incidental FIFO
tie order rather than on simulated causality -- a determinism bug the
normal test suite cannot see, because the kernel's FIFO order is itself
deterministic.  The signature hazard is a *shared* RNG stream drawn
from same-instant callbacks: reordering the ties re-pairs draws with
consumers, so per-consumer numbers change while the draw multiset does
not (``tests/test_sanitize.py`` demonstrates the divergence in
miniature, and the per-consumer ``StreamRegistry`` streams are the
repo-wide fix that keeps the real cells immune).  The cells gated in CI
(``make sanitize-smoke``) cover every update-method family and the
paper's HAT system.

Only NORMAL-priority ties are perturbed: same-instant URGENT order is
the kernel's registration-order contract (process resumption, transport
staging), not an incidental tie -- see :mod:`repro.sim.sanitize`.

Every replica also reports how many scheduled entries actually shared a
``(time, priority)`` slot: an identity proof over zero perturbed ties
would be vacuous, so the driver fails cells that exercised none.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Dict, List, Optional, Sequence, Tuple

from ..consistency.registry import resolve_infrastructure, resolve_method
from ..obs.tracer import RecordingTracer
from ..sim.sanitize import ScheduleSanitizer
from .config import TestbedConfig
from .testbed import Deployment, build_deployment, build_system

__all__ = ["main", "build_parser", "driver_config", "run_cell", "CellReport"]

#: Section 5 systems that are cells by name: neither is one method on
#: one infrastructure.  (``self`` is the ``self-adaptive`` method alias,
#: so ``self:unicast`` is its cell.)
SYSTEM_CELLS = ("hat", "hybrid")

#: Cells gated by ``make sanitize-smoke``: one cell per update-method
#: family, push and invalidation on the broadcast graph, whose cycles
#: are the relay protocols' hardest case, and the self-adaptive method
#: alone and inside HAT, whose on-demand refreshes race the mode
#: switches.
DEFAULT_CELLS = (
    "push:unicast",
    "push:broadcast",
    "invalidation:unicast",
    "ttl:unicast",
    "invalidation:broadcast",
    "self-adaptive:unicast",
    "hat",
)

_CanonicalTrace = List[Tuple[float, str, str, str]]


def _split_cell(cell: str) -> Tuple[str, str]:
    """``"method:infra"`` -> ``(method, infra)``; infra defaults to
    unicast."""
    method, _, infrastructure = cell.partition(":")
    return method, infrastructure or "unicast"


def _canonical_trace(tracer: RecordingTracer) -> _CanonicalTrace:
    """The trace stream with same-instant emission order factored out."""
    return sorted(
        (
            event.time,
            event.kind,
            event.node,
            json.dumps(event.detail, sort_keys=True, default=repr),
        )
        for event in tracer.events()
    )


def _build(
    cell: str,
    config: TestbedConfig,
    tracer: Optional[RecordingTracer],
    sanitizer: ScheduleSanitizer,
) -> Deployment:
    if cell in SYSTEM_CELLS:
        return build_system(config, cell, tracer=tracer, sanitizer=sanitizer)
    method, infrastructure = _split_cell(cell)
    return build_deployment(
        config, method, infrastructure, tracer=tracer, sanitizer=sanitizer
    )


def run_cell(
    config: TestbedConfig,
    cell: str,
    tie_seed: Optional[int],
    record_trace: bool = True,
) -> Tuple[Dict[str, object], Optional[_CanonicalTrace], int]:
    """One sanitized run of *cell*; returns (metrics dict, canonical
    trace, ties).

    ``tie_seed=None`` runs the trap-only baseline (FIFO tie order);
    an integer runs a perturbed replica.
    """
    sanitizer = ScheduleSanitizer(tie_seed=tie_seed, traps=True)
    tracer = RecordingTracer() if record_trace else None
    metrics = _build(cell, config, tracer, sanitizer).run()
    trace = _canonical_trace(tracer) if tracer is not None else None
    return metrics.to_dict(), trace, sanitizer.tie_collisions


def _diff_metrics(
    baseline: Dict[str, object], replica: Dict[str, object], limit: int = 5
) -> List[str]:
    diffs: List[str] = []
    for key in sorted(set(baseline) | set(replica)):
        left = baseline.get(key, "<missing>")
        right = replica.get(key, "<missing>")
        if left != right:
            diffs.append("metrics[%r]: baseline=%r replica=%r" % (key, left, right))
            if len(diffs) >= limit:
                break
    return diffs


def _diff_traces(
    baseline: _CanonicalTrace, replica: _CanonicalTrace, limit: int = 3
) -> List[str]:
    diffs: List[str] = []
    if len(baseline) != len(replica):
        diffs.append(
            "trace length: baseline=%d replica=%d" % (len(baseline), len(replica))
        )
    for index, (left, right) in enumerate(zip(baseline, replica)):
        if left != right:
            diffs.append(
                "trace[%d]: baseline=%r replica=%r" % (index, left, right)
            )
            if len(diffs) >= limit:
                break
    return diffs


class CellReport:
    """Outcome of sanitizing one method x infrastructure cell."""

    __slots__ = ("cell", "identical", "ties", "diffs")

    def __init__(
        self, cell: str, identical: bool, ties: List[int], diffs: List[str]
    ) -> None:
        self.cell = cell
        self.identical = identical
        #: Perturbed-tie count per replica (non-zero or the proof is
        #: vacuous -- the driver fails zero-tie cells).
        self.ties = ties
        self.diffs = diffs

    @property
    def vacuous(self) -> bool:
        return not any(self.ties)

    @property
    def ok(self) -> bool:
        return self.identical and not self.vacuous


def sanitize_cell(
    cell: str,
    config: TestbedConfig,
    replicas: int,
    tie_seed_base: int,
    record_trace: bool = True,
) -> CellReport:
    """Baseline plus *replicas* perturbed runs; compare bit-for-bit."""
    base_metrics, base_trace, _ = run_cell(
        config, cell, tie_seed=None, record_trace=record_trace
    )
    diffs: List[str] = []
    ties: List[int] = []
    for replica in range(replicas):
        metrics, trace, tie_count = run_cell(
            config,
            cell,
            tie_seed=tie_seed_base + replica,
            record_trace=record_trace,
        )
        ties.append(tie_count)
        if metrics != base_metrics:
            diffs.extend(
                "replica %d (tie seed %d): %s" % (replica, tie_seed_base + replica, d)
                for d in _diff_metrics(base_metrics, metrics)
            )
        if base_trace is not None and trace is not None and trace != base_trace:
            diffs.extend(
                "replica %d (tie seed %d): %s" % (replica, tie_seed_base + replica, d)
                for d in _diff_traces(base_trace, trace)
            )
    return CellReport(cell, identical=not diffs, ties=ties, diffs=diffs)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro sanitize",
        description="Schedule sanitizer: perturb same-instant event ties "
        "under a dedicated seeded stream and assert metrics/counters/"
        "traces stay bit-identical (see docs/static-analysis.md).",
    )
    parser.add_argument(
        "cells", nargs="*", default=list(DEFAULT_CELLS),
        metavar="METHOD:INFRA|SYSTEM",
        help="cells to sanitize: a method on an infrastructure, or a "
        "Section 5 system (%s) (default: %s)"
        % (", ".join(SYSTEM_CELLS), " ".join(DEFAULT_CELLS)),
    )
    parser.add_argument("--servers", type=int, default=20)
    parser.add_argument("--users-per-server", type=int, default=2)
    parser.add_argument("--updates", type=int, default=40)
    parser.add_argument("--duration", type=float, default=800.0)
    parser.add_argument("--ttl", type=float, default=10.0)
    parser.add_argument("--seed", type=int, default=3, help="model seed")
    parser.add_argument(
        "--replicas", type=int, default=2,
        help="perturbed replicas per cell (default: 2)",
    )
    parser.add_argument(
        "--tie-seed", type=int, default=1000,
        help="base seed of the dedicated tie stream (default: 1000)",
    )
    parser.add_argument(
        "--no-trace", action="store_true",
        help="compare metrics/counters only (skip trace recording)",
    )
    return parser


def driver_config(args: argparse.Namespace) -> TestbedConfig:
    """The deployment every cell of one driver run is built from."""
    return TestbedConfig(
        n_servers=args.servers,
        users_per_server=args.users_per_server,
        n_updates=args.updates,
        game_duration_s=args.duration,
        server_ttl_s=args.ttl,
        seed=args.seed,
        # Read by the system cells only: one HAT cluster per five
        # servers (4 at the default 20).  The config's 20 clusters would
        # make every server a supernode, and the cell would tie once.
        hat_clusters=max(1, args.servers // 5),
    )


def run(args: argparse.Namespace, out=sys.stdout, err=sys.stderr) -> int:
    config = driver_config(args)
    failed = False
    for cell in args.cells:
        report = sanitize_cell(
            cell,
            config,
            replicas=args.replicas,
            tie_seed_base=args.tie_seed,
            record_trace=not args.no_trace,
        )
        if report.ok:
            out.write(
                "sanitize %-24s OK: %d replica(s) bit-identical, "
                "ties perturbed per replica: %s\n"
                % (cell, len(report.ties), report.ties)
            )
            continue
        failed = True
        if report.vacuous and report.identical:
            out.write(
                "sanitize %-24s VACUOUS: no same-instant ties "
                "were exercised; grow the cell until the proof means "
                "something\n" % (cell,)
            )
            continue
        out.write(
            "sanitize %-24s DIVERGED: results depend on the "
            "same-instant tie order (ties per replica: %s)\n"
            % (cell, report.ties)
        )
        for diff in report.diffs:
            out.write("  %s\n" % diff)
    return 1 if failed else 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(list(argv) if argv is not None else None)
    if args.replicas < 1:
        parser.error("--replicas must be >= 1")
    # Reject every unknown cell before running any: a typo must not
    # cost a run and then exit like a DIVERGED cell.
    for cell in args.cells:
        if cell in SYSTEM_CELLS:
            continue
        method, infrastructure = _split_cell(cell)
        try:
            resolve_method(method)
            resolve_infrastructure(infrastructure)
        except ValueError as error:
            parser.error("cell %r: %s" % (cell, error))
    return run(args)
