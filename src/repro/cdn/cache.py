"""Edge-server cache bookkeeping.

A server replicates one live content object, so its cache is one
:class:`CacheEntry`: the cached version, when its TTL expires, and
whether an invalidation notice has marked it stale.  It also keeps an
*apply log* -- the (time, version) history of cache writes -- which is
the raw material for all server-side inconsistency metrics.  The log
is two unboxed columns, an ``array("d")`` of times and an
``array("q")`` of versions: 16 bytes a write, where a listed
``(time, version)`` tuple and its boxed float take 88.
:attr:`CacheEntry.apply_log` builds that list for the analyses.
"""

from __future__ import annotations

from array import array
from typing import List, Optional, Tuple

__all__ = ["CacheEntry"]


class CacheEntry:
    """One server's cached copy of the live content (version 0 at t=0)."""

    __slots__ = ("version", "expires_at", "invalidated", "apply_times", "apply_versions")

    def __init__(self) -> None:
        self.version = 0
        self.expires_at = 0.0
        self.invalidated = False
        #: The apply log's columns: the time and version of every newer
        #: write, in time order.
        self.apply_times = array("d")
        self.apply_versions = array("q")

    @property
    def apply_log(self) -> List[Tuple[float, int]]:
        """``(time, version)`` for every write, in time order, after the
        ``(0.0, 0)`` start (a new list on each read)."""
        return [(0.0, 0)] + list(zip(self.apply_times, self.apply_versions))

    def __repr__(self) -> str:
        return "CacheEntry(version=%d, expires_at=%r, invalidated=%r)" % (
            self.version, self.expires_at, self.invalidated,
        )

    def is_expired(self, now: float) -> bool:
        return now >= self.expires_at

    def is_fresh(self, now: float) -> bool:
        """Usable without refetch: TTL unexpired and not invalidated."""
        return not self.invalidated and not self.is_expired(now)

    def store(self, version: int, now: float, ttl: float) -> bool:
        """Record a (re)fetch of *version* at time *now*.

        Returns ``True`` if the stored version is newer than the cached
        one.  A refetch of the same version still refreshes the TTL and
        clears any invalidation mark.
        """
        self.expires_at = now + ttl
        self.invalidated = False
        if version > self.version:
            self.version = version
            self.apply_times.append(now)
            self.apply_versions.append(version)
            return True
        return False

    def renew(self, now: float, ttl: float) -> None:
        """A poll found the copy current: it stays usable for *ttl* more
        seconds.  An invalidation mark stays; only a stored body clears
        it."""
        self.expires_at = now + ttl

    def invalidate(self, version: Optional[int] = None) -> bool:
        """Mark the entry stale (server-based Invalidation).

        *version* is the superseding version from the notice; the mark is
        skipped if the cache already holds that version or newer.
        Returns ``True`` if the entry was (already or newly) stale.
        """
        if version is not None and self.version >= version:
            return self.invalidated
        self.invalidated = True
        return True
