"""Golden pins: the simulator's outputs on 70 fixed cells, bit for bit.

Each cell is one small deployment.  ``tests/fixtures/golden/cells.json``
pins, per cell:

- ``metrics``: sha256 of ``DeploymentMetrics.to_dict()`` without
  ``events_processed``;
- ``counters``: sha256 of ``FabricCounters.to_dict()``;
- ``trace``: sha256 of the message and visit trace (``msg_send``,
  ``msg_recv``, ``msg_drop``, ``visit``, ``visit_timeout``,
  ``msg_timeout``);
- ``events_processed``: the exact number of kernel events.

JSON writes floats with ``repr``, so a one-ulp change anywhere moves a
digest.

The cells:

- every method x infrastructure at seeds 0-2 on a tiny config (6
  servers, 2 users per server, 6 updates, a 200 s game, 3 HAT
  clusters);
- ``ttl`` and ``push`` on four perturbation-heavy scenarios;
- both user selectors at seeds 0-1, and aggregate user metrics;
- three user-plane edge cases: no users, a 1 ms start window, and a
  2-server deployment whose first server is down from 80 s to 140 s.

The pins were recorded while a generator-based transport, a per-event
kernel and a per-user actor plane still existed beside the current
ones, and each of those implementations reproduced every pin but
``events_processed``, a count they did not share.

After a change that is meant to move the outputs, re-pin, and say in
the commit why they moved::

    PYTHONPATH=src python tests/test_golden.py --record

Without ``--record`` the script checks every cell and names the ones
that moved.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import os
import sys
from typing import Any, Dict, List, NamedTuple, Optional, Tuple

import pytest

import repro.network.message as message_mod
from repro.experiments.config import TestbedConfig
from repro.experiments.testbed import INFRASTRUCTURES, METHODS, build_deployment
from repro.metrics.consistency import mean_update_lag, stale_observation_fraction
from repro.obs.tracer import RecordingTracer

GOLDEN_PATH = os.path.join(
    os.path.dirname(os.path.abspath(__file__)), "fixtures", "golden", "cells.json"
)

TRACE_KINDS = (
    "msg_send",
    "msg_recv",
    "msg_drop",
    "visit",
    "visit_timeout",
    "msg_timeout",
)

_TINY = dict(
    n_servers=6,
    users_per_server=2,
    n_updates=6,
    game_duration_s=200.0,
    hat_clusters=3,
)


class Cell(NamedTuple):
    """One pinned deployment."""

    method: str
    infrastructure: str
    seed: int = 0
    scenario: Optional[str] = None
    #: ``TestbedConfig`` fields that differ from the tiny config.
    overrides: Tuple[Tuple[str, Any], ...] = ()
    #: Take the first server down from 80 s to 140 s.
    outage: bool = False


def grid_label(method: str, infrastructure: str, seed: int) -> str:
    return "%s/%s/seed%d" % (method, infrastructure, seed)


def _cells() -> Dict[str, Cell]:
    cells: Dict[str, Cell] = {}
    for method in METHODS:
        for infrastructure in INFRASTRUCTURES:
            for seed in (0, 1, 2):
                cells[grid_label(method, infrastructure, seed)] = Cell(
                    method, infrastructure, seed
                )
    for scenario in ("paper-baseline", "failure-storm", "flash-crowd", "cdn-reconfig"):
        for method in ("ttl", "push"):
            cells["%s/unicast@%s" % (method, scenario)] = Cell(
                method, "unicast", scenario=scenario
            )
    for selector in ("fixed", "switch"):
        for seed in (0, 1):
            cells["ttl/unicast/%s-selector/seed%d" % (selector, seed)] = Cell(
                "ttl", "unicast", seed, overrides=(("user_selector", selector),)
            )
    cells["ttl/unicast/aggregate"] = Cell(
        "ttl", "unicast", overrides=(("user_metrics", "aggregate"),)
    )
    cells["users/none"] = Cell(
        "ttl", "unicast", overrides=(("n_servers", 4), ("users_per_server", 0))
    )
    cells["users/1ms-start-window"] = Cell(
        "ttl", "unicast", overrides=(("n_servers", 4), ("user_start_window_s", 0.001))
    )
    cells["users/2x1-outage"] = Cell(
        "ttl", "unicast", overrides=(("n_servers", 2), ("users_per_server", 1)), outage=True
    )
    return cells


CELLS = _cells()


class Outcome(NamedTuple):
    """What one cell's run leaves for the tests."""

    pins: Dict[str, Any]
    metrics: Any
    content: Any
    horizon: float
    #: ``server id -> apply log``.
    apply_logs: Dict[str, List[Tuple[float, int]]]
    #: ``user id -> observations``; ``None`` with aggregate user metrics.
    observations: Optional[Dict[str, list]]


def _sha256(value: Any) -> str:
    text = json.dumps(value, sort_keys=True, separators=(",", ":"), default=repr)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _outage(env, node):
    yield env.timeout(80.0)
    node.mark_down()
    yield env.timeout(60.0)
    node.mark_up()


@functools.lru_cache(maxsize=None)
def outcome(label: str) -> Outcome:
    """Run cell *label* (once per process)."""
    cell = CELLS[label]
    config = TestbedConfig(seed=cell.seed, **dict(_TINY, **dict(cell.overrides)))
    message_mod._SEQ = 0
    tracer = RecordingTracer()
    deployment = build_deployment(
        config, cell.method, cell.infrastructure, tracer=tracer, scenario=cell.scenario
    )
    if cell.outage:
        deployment.env.process(_outage(deployment.env, deployment.servers[0].node))
    metrics = deployment.run()
    body = metrics.to_dict()
    events_processed = body.pop("events_processed")
    trace = [
        [event.time, event.kind, event.node, event.detail]
        for event in tracer.events(kinds=TRACE_KINDS)
    ]
    observations = None
    if deployment.config.user_metrics == "per-user":
        observations = {
            user.node.node_id: list(user.observations) for user in deployment.users
        }
    return Outcome(
        pins={
            "metrics": _sha256(body),
            "counters": _sha256(deployment.fabric.counters.to_dict()),
            "trace": _sha256(trace),
            "events_processed": events_processed,
        },
        metrics=metrics,
        content=deployment.content,
        horizon=deployment.config.run_horizon_s,
        apply_logs={
            server.node.node_id: list(server.apply_log())
            for server in deployment.servers
        },
        observations=observations,
    )


@functools.lru_cache(maxsize=None)
def golden() -> Dict[str, Dict[str, Any]]:
    with open(GOLDEN_PATH, encoding="utf-8") as handle:
        return json.load(handle)["cells"]


def assert_golden(label: str) -> None:
    """Cell *label* reproduces its pins."""
    got, want = outcome(label).pins, golden().get(label)
    assert got == want, "%s moved off its golden pins: %r, pinned %r" % (label, got, want)


# ----------------------------------------------------------------------
# tests
# ----------------------------------------------------------------------
def test_golden_file_pins_every_cell():
    assert len(CELLS) == 70
    assert sorted(golden()) == sorted(CELLS)


@pytest.mark.parametrize("label", sorted(CELLS))
def test_cell_matches_golden(label):
    assert_golden(label)


@pytest.mark.parametrize("label", sorted(CELLS))
def test_metrics_match_independent_oracle(label):
    """The incremental trackers agree with :mod:`repro.metrics.consistency`,
    which re-derives every lag from the full logs and shares no code with
    :mod:`repro.metrics.incremental`."""
    run = outcome(label)
    metrics = run.metrics
    assert metrics.server_lags == {
        server_id: mean_update_lag(run.content, log, censor_at=run.horizon)
        for server_id, log in run.apply_logs.items()
    }
    if run.observations is None:
        return
    assert metrics.user_lags == {
        user_id: mean_update_lag(
            run.content,
            [(obs.time, obs.version) for obs in observations],
            censor_at=run.horizon,
        )
        for user_id, observations in run.observations.items()
    }
    assert metrics.user_stale_fractions == {
        user_id: stale_observation_fraction(observations)
        for user_id, observations in run.observations.items()
    }


# ----------------------------------------------------------------------
# command line
# ----------------------------------------------------------------------
def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--record", action="store_true", help="rewrite the pins")
    args = parser.parse_args(argv)
    labels = sorted(CELLS)
    if args.record:
        pins = {label: outcome(label).pins for label in labels}
        os.makedirs(os.path.dirname(GOLDEN_PATH), exist_ok=True)
        with open(GOLDEN_PATH, "w", encoding="utf-8") as handle:
            json.dump({"format": 1, "cells": pins}, handle, indent=1, sort_keys=True)
            handle.write("\n")
        print("pinned %d cells in %s" % (len(pins), GOLDEN_PATH))
        return 0
    moved = [label for label in labels if outcome(label).pins != golden().get(label)]
    for label in moved:
        print("moved: %s" % label)
    print("%d of %d cells match their pins" % (len(labels) - len(moved), len(labels)))
    return 1 if moved else 0


if __name__ == "__main__":
    sys.exit(main())
