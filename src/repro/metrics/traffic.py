"""Traffic accounting.

The paper measures consistency-maintenance *efficiency* two ways:

- Section 4 (Fig. 16-18): traffic cost in ``km * KB`` summed over every
  consistency packet (following [41]).
- Section 5 (Fig. 22-23): message *counts* (update vs light) and network
  load as total transmission distance in ``km``.

:class:`TrafficLedger` records every message the fabric carries and can
answer all of those queries, broken down by message kind, with counts
of consistency messages per sender.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from typing import Dict, Iterable, Optional

from ..network.message import LIGHT_KINDS, UPDATE_KINDS, Message, MessageKind

__all__ = ["TrafficLedger", "KindTotals"]

#: Consistency traffic: update and light kinds.  The per-sender table
#: counts only these, since every per-sender query is restricted to them.
_CONSISTENCY_KINDS = UPDATE_KINDS | LIGHT_KINDS


@dataclass(slots=True)
class KindTotals:
    """Aggregated totals for one message kind."""

    count: int = 0
    km_kb: float = 0.0
    km: float = 0.0
    kb: float = 0.0


class TrafficLedger:
    """Accumulates per-message traffic statistics for one experiment run."""

    def __init__(self) -> None:
        self._by_kind: Dict[MessageKind, KindTotals] = defaultdict(KindTotals)
        #: Consistency messages per sender per kind: the per-sender
        #: queries only count.
        self._sent_by: Dict[str, Dict[MessageKind, int]] = defaultdict(
            lambda: defaultdict(int)
        )

    # ------------------------------------------------------------------
    # recording
    # ------------------------------------------------------------------
    def record(self, message: Message, distance_km: float) -> None:
        """Record one delivered *message* that travelled *distance_km*."""
        if distance_km < 0:
            raise ValueError("distance_km must be >= 0")
        kind = message.kind
        size_kb = message.size_kb
        totals = self._by_kind[kind]
        totals.count += 1
        totals.km_kb += distance_km * size_kb
        totals.km += distance_km
        totals.kb += size_kb
        if kind in _CONSISTENCY_KINDS:
            src = message.src
            try:
                sender = src.node_id
            except AttributeError:
                sender = str(src)
            self._sent_by[sender][kind] += 1

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    def totals(self, kinds: Optional[Iterable[MessageKind]] = None) -> KindTotals:
        """Aggregate totals over *kinds* (all kinds if ``None``)."""
        result = KindTotals()
        selected = set(kinds) if kinds is not None else None
        for kind, totals in self._by_kind.items():
            if selected is not None and kind not in selected:
                continue
            result.count += totals.count
            result.km_kb += totals.km_kb
            result.km += totals.km
            result.kb += totals.kb
        return result

    def kind_totals(self, kind: MessageKind) -> KindTotals:
        """Totals for a single message kind (zeros if never seen)."""
        return self._by_kind.get(kind, KindTotals())

    def consistency_cost_km_kb(self) -> float:
        """Fig. 16/17-style cost: km*KB over all consistency messages."""
        return self.totals(_CONSISTENCY_KINDS).km_kb

    def update_message_count(self) -> int:
        """Fig. 22a-style count of body-carrying update messages."""
        return self.totals(UPDATE_KINDS).count

    def light_message_count(self) -> int:
        """Count of light consistency-maintenance messages."""
        return self.totals(LIGHT_KINDS).count

    def update_load_km(self) -> float:
        """Fig. 23-style network load (km) of update messages."""
        return self.totals(UPDATE_KINDS).km

    def light_load_km(self) -> float:
        """Fig. 23-style network load (km) of light messages."""
        return self.totals(LIGHT_KINDS).km

    def response_message_count(self) -> int:
        """The paper's Fig. 22 metric: bodies *plus* poll responses.

        Section 5.3 "use[s] the number of update messages to indicate the
        network load including the polling responses and update
        messages" -- i.e. not-modified poll answers count too.
        """
        kinds = set(UPDATE_KINDS) | {MessageKind.POLL_NOT_MODIFIED}
        return self.totals(kinds).count

    def updates_sent_by(self, sender_id: str) -> int:
        """Update messages whose sender is *sender_id* (Fig. 22b:
        provider load)."""
        per_kind = self._sent_by.get(sender_id)
        if not per_kind:
            return 0
        return sum(n for k, n in per_kind.items() if k in UPDATE_KINDS)

    def responses_sent_by(self, sender_id: str) -> int:
        """Fig. 22 metric restricted to one sender (bodies + poll
        responses)."""
        per_kind = self._sent_by.get(sender_id)
        if not per_kind:
            return 0
        kinds = set(UPDATE_KINDS) | {MessageKind.POLL_NOT_MODIFIED}
        return sum(n for k, n in per_kind.items() if k in kinds)

    def response_load_km(self) -> float:
        """Fig. 23 'update message' network load (km), using the same
        response-inclusive definition as :meth:`response_message_count`."""
        kinds = set(UPDATE_KINDS) | {MessageKind.POLL_NOT_MODIFIED}
        return self.totals(kinds).km

    def request_load_km(self) -> float:
        """Fig. 23 'light message' load (km): everything consistency-
        related that is not a response (polls, fetch requests,
        invalidations, switch notices, tree maintenance)."""
        kinds = set(LIGHT_KINDS) - {MessageKind.POLL_NOT_MODIFIED}
        return self.totals(kinds).km

    def messages_sent_by(self, sender_id: str) -> int:
        """All consistency messages sent by *sender_id* (the only kinds
        the per-sender table counts)."""
        per_kind = self._sent_by.get(sender_id)
        if not per_kind:
            return 0
        return sum(per_kind.values())

    def snapshot(self) -> Dict[str, Dict[str, float]]:
        """A plain-dict view (for reports and serialisation)."""
        return {
            kind.value: {
                "count": totals.count,
                "km_kb": totals.km_kb,
                "km": totals.km,
                "kb": totals.kb,
            }
            for kind, totals in sorted(self._by_kind.items(), key=lambda kv: kv[0].value)
        }
