"""Message taxonomy for consistency maintenance and content delivery.

Section 5.3 of the paper distinguishes *update messages* (carrying a
content body -- "usually much larger than the size of other messages")
from *light messages* (update polls, invalidation notices, structure
maintenance).  Every message in the simulation is tagged with a
:class:`MessageKind` so the ledger can reproduce that split exactly.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Any, Optional

__all__ = ["MessageKind", "Message", "LIGHT_KINDS", "UPDATE_KINDS"]


class MessageKind(enum.Enum):
    """All message types exchanged in the simulated CDN."""

    # Members are process-wide singletons, so the identity hash is
    # correct -- and C-speed, unlike ``enum.Enum.__hash__`` (a Python
    # function that dominates ledger/counter dict lookups at CDN scale).
    __hash__ = object.__hash__

    # --- consistency maintenance: update (heavy) messages --------------
    PUSH_UPDATE = "push_update"          # provider/parent pushes new body
    POLL_RESPONSE = "poll_response"      # poll answered *with a new body*
    FETCH_RESPONSE = "fetch_response"    # invalidation-triggered fetch body

    # --- consistency maintenance: light messages -----------------------
    POLL = "poll"                        # TTL poll request
    POLL_NOT_MODIFIED = "poll_not_modified"  # poll answered "unchanged"
    INVALIDATE = "invalidate"            # invalidation notice
    FETCH = "fetch"                      # fetch request after invalidation
    SWITCH_NOTICE = "switch_notice"      # self-adaptive TTL<->Inval notice
    TREE_MAINTENANCE = "tree_maintenance"  # multicast-tree join/repair

    # --- content delivery (end-user traffic, not consistency) ----------
    CONTENT_REQUEST = "content_request"
    CONTENT_RESPONSE = "content_response"


#: Message kinds that carry a content body (the paper's "update messages").
UPDATE_KINDS = frozenset(
    {MessageKind.PUSH_UPDATE, MessageKind.POLL_RESPONSE, MessageKind.FETCH_RESPONSE}
)

#: Consistency-maintenance messages without a body ("light messages").
LIGHT_KINDS = frozenset(
    {
        MessageKind.POLL,
        MessageKind.POLL_NOT_MODIFIED,
        MessageKind.INVALIDATE,
        MessageKind.FETCH,
        MessageKind.SWITCH_NOTICE,
        MessageKind.TREE_MAINTENANCE,
    }
)

#: Process-wide message sequence counter.  Seq values never feed a
#: simulated outcome (request/response pairing is per-message and the
#: metrics never read them), but they do appear in trace details, so
#: :func:`reset_seq` below rebases the counter per deployment build --
#: traces are then a function of the run, not of process history.
_SEQ = 0


def _next_seq() -> int:
    global _SEQ  # repro: noqa REP010 -- counter is reset per deployment build (reset_seq); values never feed metrics
    _SEQ += 1
    return _SEQ


def reset_seq() -> None:
    """Rebase the message counter (called once per deployment build).

    Makes trace ``seq`` fields -- and therefore whole trace streams --
    bit-identical for identical runs regardless of what else the
    process simulated earlier, which is what lets the schedule
    sanitizer compare replica traces within one process.
    """
    global _SEQ  # repro: noqa REP010 -- the reset that makes the counter run-deterministic
    _SEQ = 0


@dataclass(slots=True)
class Message:
    """A single message in flight.

    ``version`` is the content-snapshot index the message refers to
    (``None`` when it refers to none, e.g. tree maintenance).
    ``payload`` carries protocol-specific extras (e.g. the poller's
    reply inbox).
    """

    kind: MessageKind
    src: Any
    dst: Any
    size_kb: float
    version: Optional[int] = None
    payload: Any = None
    created_at: float = 0.0
    seq: int = field(default_factory=_next_seq)

    @property
    def is_update(self) -> bool:
        """``True`` if this is a body-carrying update message."""
        return self.kind in UPDATE_KINDS

    @property
    def is_light(self) -> bool:
        """``True`` if this is a light consistency-maintenance message."""
        return self.kind in LIGHT_KINDS

    @property
    def is_consistency(self) -> bool:
        """``True`` if the message belongs to consistency maintenance."""
        return self.is_update or self.is_light

    def trace_detail(self) -> dict:
        """The structured-trace payload describing this message (see
        :mod:`repro.obs.tracer`)."""
        return {
            "msg": self.kind.value,
            "src": getattr(self.src, "node_id", str(self.src)),
            "dst": getattr(self.dst, "node_id", str(self.dst)),
            "kb": self.size_kb,
            "version": self.version,
            "seq": self.seq,
        }

    def __repr__(self) -> str:
        return "Message(%s, %s->%s, v=%s, %.1fKB)" % (
            self.kind.value,
            getattr(self.src, "node_id", self.src),
            getattr(self.dst, "node_id", self.dst),
            self.version,
            self.size_kb,
        )
