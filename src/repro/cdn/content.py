"""Live content and its update schedule.

A :class:`LiveContent` is a single dynamic object (e.g. the live-game
statistics page of the paper) that goes through numbered *snapshots*:
version 0 exists from the start; version ``i`` (1-based) is created at
``update_times[i-1]``.  The schedule is the ground truth against which
all inconsistency is measured.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, List, Sequence

if TYPE_CHECKING:  # pragma: no cover - annotation-only import
    import numpy as np

__all__ = ["LiveContent", "DEFAULT_UPDATE_SIZE_KB", "DEFAULT_LIGHT_SIZE_KB"]

#: Paper Section 4: "The size of all consistency maintenance related
#: packages and content request packages were set to 1KB."
DEFAULT_UPDATE_SIZE_KB = 1.0
DEFAULT_LIGHT_SIZE_KB = 1.0


@dataclass
class LiveContent:
    """A dynamic content object with a fixed update schedule."""

    content_id: str
    update_times: List[float] = field(default_factory=list)
    update_size_kb: float = DEFAULT_UPDATE_SIZE_KB
    light_size_kb: float = DEFAULT_LIGHT_SIZE_KB

    def __post_init__(self) -> None:
        times = list(self.update_times)
        if any(t < 0 for t in times):
            raise ValueError("update times must be non-negative")
        if times != sorted(times):
            raise ValueError("update times must be sorted")
        self.update_times = times

    # ------------------------------------------------------------------
    @property
    def n_updates(self) -> int:
        """Number of updates (versions beyond the initial version 0)."""
        return len(self.update_times)

    @property
    def last_version(self) -> int:
        return self.n_updates

    def version_at(self, t: float) -> int:
        """The current version index at simulated time *t*."""
        return bisect.bisect_right(self.update_times, t)

    def creation_time(self, version: int) -> float:
        """The time version *version* came into existence."""
        if version == 0:
            return 0.0
        if not 1 <= version <= self.n_updates:
            raise ValueError("unknown version %r" % (version,))
        return self.update_times[version - 1]

    def next_update_after(self, t: float) -> float:
        """Time of the first update strictly after *t* (inf if none)."""
        idx = bisect.bisect_right(self.update_times, t)
        if idx >= len(self.update_times):
            return float("inf")
        return self.update_times[idx]

    def staleness(self, version: int, t: float) -> float:
        """How long version *version* has been outdated at time *t*.

        Zero if *version* is still the newest version at *t*; otherwise
        the time elapsed since the superseding version appeared.
        """
        if version >= self.version_at(t):
            return 0.0
        superseding = self.creation_time(version + 1)
        return max(0.0, t - superseding)

    def staleness_grid(self, versions: "np.ndarray", times: "np.ndarray") -> "np.ndarray":
        """Vectorised :meth:`staleness` over parallel version/time arrays.

        ``versions[i]`` is the held version at instant ``times[i]``;
        returns a float array equal element-wise (bit-identically) to
        ``[self.staleness(int(v), float(t)) for v, t in zip(...)]``.
        Only the analyses call it, so numpy is imported here rather
        than on the simulator's import path.
        """
        import numpy as np

        versions = np.asarray(versions, dtype=np.int64)
        times = np.asarray(times, dtype=np.float64)
        update_times = np.asarray(self.update_times, dtype=np.float64)
        if update_times.size == 0:
            return np.zeros(times.shape, dtype=np.float64)
        # version_at(t) == searchsorted(update_times, t, side="right").
        current = np.searchsorted(update_times, times, side="right")
        stale = versions < current
        # creation_time(version + 1) == update_times[version] for
        # version >= 0 (and 0.0 for version -1); the index is only read
        # where ``stale`` holds (version < current <= n).
        clipped = np.clip(versions, 0, update_times.size - 1)
        superseding = np.where(versions < 0, 0.0, update_times[clipped])
        return np.where(stale, np.maximum(0.0, times - superseding), 0.0)

    def versions_in(self, start: float, end: float) -> Sequence[int]:
        """Version indices created in the window ``(start, end]``."""
        lo = bisect.bisect_right(self.update_times, start)
        hi = bisect.bisect_right(self.update_times, end)
        return range(lo + 1, hi + 1)
