"""Message taxonomy for consistency maintenance and content delivery.

Section 5.3 of the paper distinguishes *update messages* (carrying a
content body -- "usually much larger than the size of other messages")
from *light messages* (update polls, invalidation notices, structure
maintenance).  Every message in the simulation is tagged with a
:class:`MessageKind` so the ledger can reproduce that split exactly.
"""

from __future__ import annotations

import enum
from typing import Any, Optional

__all__ = [
    "MessageKind", "Message", "LIGHT_KINDS", "UPDATE_KINDS",
    "PUSH_UPDATE", "POLL_RESPONSE", "FETCH_RESPONSE", "POLL", "POLL_NOT_MODIFIED",
    "INVALIDATE", "FETCH", "SWITCH_NOTICE", "TREE_MAINTENANCE",
    "CONTENT_REQUEST", "CONTENT_RESPONSE",
]


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


# Every kind bound once as a module global.  ``MessageKind.X`` is a slow
# class-attribute lookup on Python 3.11 (the enum metaclass defines
# ``__getattr__``); ``from repro.network.message import POLL`` binds a
# global that the per-message dispatch and send paths read cheaply.
PUSH_UPDATE = MessageKind.PUSH_UPDATE
POLL_RESPONSE = MessageKind.POLL_RESPONSE
FETCH_RESPONSE = MessageKind.FETCH_RESPONSE
POLL = MessageKind.POLL
POLL_NOT_MODIFIED = MessageKind.POLL_NOT_MODIFIED
INVALIDATE = MessageKind.INVALIDATE
FETCH = MessageKind.FETCH
SWITCH_NOTICE = MessageKind.SWITCH_NOTICE
TREE_MAINTENANCE = MessageKind.TREE_MAINTENANCE
CONTENT_REQUEST = MessageKind.CONTENT_REQUEST
CONTENT_RESPONSE = MessageKind.CONTENT_RESPONSE

#: Message kinds that carry a content body (the paper's "update messages").
UPDATE_KINDS = frozenset({PUSH_UPDATE, POLL_RESPONSE, FETCH_RESPONSE})

#: Consistency-maintenance messages without a body ("light messages").
LIGHT_KINDS = frozenset(
    {POLL, POLL_NOT_MODIFIED, INVALIDATE, FETCH, SWITCH_NOTICE, TREE_MAINTENANCE}
)

#: Process-wide message sequence counter: :class:`Message` numbers each
#: message it builds.  Seq values never feed a simulated outcome
#: (request/response pairing is per-message and the metrics never read
#: them), but they do appear in trace details, so :func:`reset_seq`
#: below rebases the counter per deployment build -- traces are then a
#: function of the run, not of process history.
_SEQ = 0


def reset_seq() -> None:
    """Rebase the message counter (called once per deployment build).

    Makes trace ``seq`` fields -- and therefore whole trace streams --
    bit-identical for identical runs regardless of what else the
    process simulated earlier, which is what lets the schedule
    sanitizer compare replica traces within one process.
    """
    global _SEQ  # repro: noqa REP010 -- the reset that makes the counter run-deterministic
    _SEQ = 0


class Message:
    """A single message in flight.

    ``version`` is the content-snapshot index the message refers to
    (``None`` when it refers to none, e.g. tree maintenance).
    ``payload`` is the one value the kind needs: a response's is the
    ``seq`` of the request it answers, a POLL's the version the poller
    holds, a SWITCH_NOTICE's the replica's new mode; every other
    message's is ``None``.  ``seq`` numbers messages in construction order;
    ``created_at`` is stamped when the fabric accepts the message.

    Hot paths build messages positionally: on Python 3.11 a class call
    with keyword arguments packs them into a fresh dict for
    ``__init__``, once per message.
    """

    __slots__ = ("kind", "src", "dst", "size_kb", "version", "payload", "created_at", "seq")

    def __init__(
        self,
        kind: MessageKind,
        src: Any,
        dst: Any,
        size_kb: float,
        version: Optional[int] = None,
        payload: Any = None,
    ) -> None:
        global _SEQ  # repro: noqa REP010 -- counter is reset per deployment build (reset_seq); values never feed metrics
        _SEQ += 1
        self.kind = kind
        self.src = src
        self.dst = dst
        self.size_kb = size_kb
        self.version = version
        self.payload = payload
        self.created_at = 0.0
        self.seq = _SEQ

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
