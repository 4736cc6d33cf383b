"""Always-on per-layer counters.

:class:`FabricCounters` is owned by the
:class:`~repro.network.link.NetworkFabric` and incremented inline on the
message path: plain attribute adds, no branching on configuration, so a
run costs the same whether or not anyone reads the counters.  Being
independent of the (optional) tracer keeps
:class:`~repro.experiments.testbed.DeploymentMetrics` bit-identical
with tracing enabled or disabled.

The counters deliberately measure the paper's cause layers:

- ``queueing_s`` -- output-port wait + per-message overhead +
  transmission time at the sender (Section 3.4.4's provider-bandwidth
  bottleneck); ``port_waits`` counts the messages that found the port
  busy and queued;
- ``propagation_s`` -- distance-driven one-way delay (Section 3.4.2);
- ``isp_penalty_s`` / ``isp_crossing_*`` -- inter-ISP handoffs
  (Section 3.4.3);
- drops by reason -- server absences (Section 3.4.5).
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Tuple

__all__ = ["FabricCounters", "staleness_histogram", "STALENESS_BIN_EDGES_S"]

#: Upper edges (seconds) of the per-server staleness histogram bins; the
#: final bin collects everything at or above the last edge.
STALENESS_BIN_EDGES_S = (1.0, 2.0, 5.0, 10.0, 20.0, 50.0, 100.0)


class FabricCounters:
    """Message-path totals for one simulation run."""

    __slots__ = (
        "messages_sent",
        "messages_delivered",
        "dropped_sender_down",
        "dropped_receiver_down",
        "bytes_kb",
        "isp_crossing_messages",
        "isp_crossing_kb",
        "isp_penalty_s",
        "propagation_s",
        "queueing_s",
        "port_waits",
        "link_bytes_kb",
    )

    def __init__(self) -> None:
        #: Messages whose bytes left the sender (matches the ledger).
        self.messages_sent = 0
        #: Messages that reached the receiver's inbox.
        self.messages_delivered = 0
        self.dropped_sender_down = 0
        self.dropped_receiver_down = 0
        self.bytes_kb = 0.0
        #: Traffic that crossed an ISP boundary (Section 3.4.3).
        self.isp_crossing_messages = 0
        self.isp_crossing_kb = 0.0
        #: Total extra one-way delay charged for inter-ISP handoffs.
        self.isp_penalty_s = 0.0
        #: Total distance/jitter-driven one-way delay (excl. ISP penalty).
        self.propagation_s = 0.0
        #: Total sender-side time: port queueing + overhead + transmission.
        self.queueing_s = 0.0
        #: Messages that queued behind a busy output port.
        self.port_waits = 0
        #: KB per directed link, keyed ``"src->dst"``.
        self.link_bytes_kb: Dict[str, float] = {}

    # ------------------------------------------------------------------
    @property
    def dropped_messages(self) -> int:
        return self.dropped_sender_down + self.dropped_receiver_down

    def to_dict(self) -> Dict[str, object]:
        """JSON-safe snapshot (used by ``repro trace`` summaries)."""
        return {
            "messages_sent": self.messages_sent,
            "messages_delivered": self.messages_delivered,
            "dropped_sender_down": self.dropped_sender_down,
            "dropped_receiver_down": self.dropped_receiver_down,
            "bytes_kb": self.bytes_kb,
            "isp_crossing_messages": self.isp_crossing_messages,
            "isp_crossing_kb": self.isp_crossing_kb,
            "isp_penalty_s": self.isp_penalty_s,
            "propagation_s": self.propagation_s,
            "queueing_s": self.queueing_s,
            "port_waits": self.port_waits,
            "n_links": len(self.link_bytes_kb),
        }


def staleness_histogram(
    lags_s: Sequence[float],
    edges_s: Sequence[float] = STALENESS_BIN_EDGES_S,
) -> Tuple[List[float], List[int]]:
    """Histogram server staleness values into fixed, deterministic bins.

    Returns ``(edges, counts)`` where ``counts`` has one more entry than
    ``edges``: ``counts[i]`` holds values below ``edges[i]`` (and above
    the previous edge); the final count collects values ``>= edges[-1]``.
    Pure Python on purpose -- identical results on every platform.
    """
    edges = [float(edge) for edge in edges_s]
    counts = [0] * (len(edges) + 1)
    for lag in lags_s:
        for index, edge in enumerate(edges):
            if lag < edge:
                counts[index] += 1
                break
        else:
            counts[-1] += 1
    return edges, counts
