"""The benchmark's workloads and the output gate every run passes through.

A workload is a closed batch of deployments ("cells"): each cell is one
``build_deployment`` call followed by ``Deployment.run``.  Cells are made
from the ``--seed`` argument alone, so a seed fixes a workload's inputs.

The sizes are chosen so that one cold child process runs a workload in
about 2 s on a 2-core x86 box, which leaves room for a dozen children
(and so a median) inside one 25 s benchmark run.  Each workload
keeps the shape that makes it stress its layer; ``smoke=True`` shrinks
every workload to the same shape at test size.

This module imports ``repro`` lazily: ``run.py`` imports it only for the
workload names, and the child imports ``repro`` inside its set-up timer.
"""

from __future__ import annotations

import hashlib
import json
import math
from typing import Dict, List, NamedTuple, Optional

#: The paper's game cadence: 306 snapshots over 8760 s.
_PAPER_UPDATES = 306
_PAPER_GAME_S = 8760.0


class Cell(NamedTuple):
    """One deployment of a workload."""

    label: str
    config: object
    method: str
    infrastructure: str
    scenario: Optional[str] = None


def _game(n_updates: int) -> Dict[str, float]:
    """*n_updates* at the paper's update rate (a shortened live game)."""
    return dict(
        n_updates=n_updates,
        game_duration_s=_PAPER_GAME_S * n_updates / _PAPER_UPDATES,
    )


def _fig16_grid(seed: int, smoke: bool) -> List[Cell]:
    from repro.experiments.config import ci_scale, smoke_scale

    # CI scale: 30 servers, 2 users each, 50 updates.
    config = (smoke_scale if smoke else ci_scale)(seed=seed)
    return [
        Cell("%s/%s" % (method, infrastructure), config, method, infrastructure)
        for infrastructure in ("unicast", "multicast")
        for method in ("push", "invalidation", "ttl")
    ]


def _user_plane(seed: int, smoke: bool) -> List[Cell]:
    from repro.experiments.config import planet_scale

    # 6000 users with aggregate metrics; every user has its own node, so
    # request/response traffic comes from distinct senders.
    n_servers, users = (20, 5) if smoke else (150, 40)
    config = planet_scale(n_servers=n_servers, users_per_server=users, seed=seed)
    return [Cell("ttl/unicast", config, "ttl", "unicast")]


def _push_fanout(seed: int, smoke: bool) -> List[Cell]:
    from repro.experiments.config import TestbedConfig

    # One provider unicasting every update to 1000 servers: each update
    # queues 1000 transmissions on the provider's output port.
    n_servers, updates = (50, 10) if smoke else (1000, 60)
    config = TestbedConfig(
        n_servers=n_servers, users_per_server=0, seed=seed, **_game(updates)
    )
    return [
        Cell("%s/unicast" % method, config, method, "unicast")
        for method in ("push", "invalidation")
    ]


def _ttl_tree_storm(seed: int, smoke: bool) -> List[Cell]:
    from repro.experiments.config import TestbedConfig

    # TTL polls up a binary tree (10 s server TTL) while two failure
    # storms take a quarter of the servers down: timers fire as well as
    # get cancelled, and messages drop as well as arrive.
    n_servers, updates = (30, 10) if smoke else (300, 60)
    config = TestbedConfig(
        n_servers=n_servers, users_per_server=0, seed=seed, **_game(updates)
    )
    return [Cell("ttl/multicast@failure-storm", config, "ttl", "multicast", "failure-storm")]


#: Workload name -> cell factory ``f(seed, smoke)``.  The reasons for
#: each workload are in BENCHMARK.json and README.md.
WORKLOADS = {
    "fig16-grid": _fig16_grid,
    "user-plane": _user_plane,
    "push-fanout": _push_fanout,
    "ttl-tree-storm": _ttl_tree_storm,
}


def cells(workload: str, seed: int, smoke: bool = False) -> List[Cell]:
    """The cells of *workload* for *seed*."""
    try:
        factory = WORKLOADS[workload]
    except KeyError:
        raise ValueError(
            "unknown workload %r (expected one of %s)" % (workload, ", ".join(WORKLOADS))
        ) from None
    return factory(seed, smoke)


# ----------------------------------------------------------------------
# output gate
# ----------------------------------------------------------------------
def digest(metrics: Dict) -> str:
    """sha256 of a cell's ``DeploymentMetrics.to_dict()``.

    ``events_processed`` is left out: kernel batching changes the event
    count without changing any output.  JSON writes floats with
    ``repr``, so a one-ulp change to any value changes the digest.
    """
    body = {key: value for key, value in metrics.items() if key != "events_processed"}
    text = json.dumps(body, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def cell_errors(metrics: Dict, counters: Dict) -> List[str]:
    """Invariants every cell must satisfy, whatever the seed.

    Sender-down drops never leave the sender, so they are not in
    ``messages_sent``; only receiver-down drops are bounded by it.
    """
    errors = []
    sent = counters["messages_sent"]
    arrived = counters["messages_delivered"] + counters["dropped_receiver_down"]
    if arrived > sent:
        errors.append(
            "delivered + receiver-down drops (%d) exceed sent (%d)" % (arrived, sent)
        )
    for key in ("server_lags", "user_lags"):
        bad = [
            node
            for node, lag in metrics[key].items()
            if not (math.isfinite(lag) and lag >= 0.0)
        ]
        if bad:
            errors.append("%s: %d negative or non-finite, e.g. %s" % (key, len(bad), bad[0]))
    return errors


def grid_errors(workload: str, labels: List[str], metrics: List[Dict]) -> Dict[int, str]:
    """Cross-cell checks, as ``{cell index: reason}``.

    On ``fig16-grid`` the consistency cost must order push <
    invalidation < ttl on each infrastructure, and multicast < unicast
    for each method (the paper's Fig. 16).  Both cells of a violated
    pair fail.
    """
    if workload != "fig16-grid":
        return {}
    index = {label: i for i, label in enumerate(labels)}
    cost = {label: m["cost_km_kb"] for label, m in zip(labels, metrics)}
    pairs = []
    for infrastructure in ("unicast", "multicast"):
        chain = ["%s/%s" % (m, infrastructure) for m in ("push", "invalidation", "ttl")]
        pairs += list(zip(chain, chain[1:]))
    for method in ("push", "invalidation", "ttl"):
        pairs.append(("%s/multicast" % method, "%s/unicast" % method))
    failed: Dict[int, str] = {}
    for low, high in pairs:
        if not cost[low] < cost[high]:
            reason = "cost %s (%r) not below %s (%r)" % (low, cost[low], high, cost[high])
            failed.setdefault(index[low], reason)
            failed.setdefault(index[high], reason)
    return failed
