"""Update workload generators.

The paper's content is live sports-game statistics: bursts of frequent
updates during play, long silences during breaks ("frequent updates
during some time (during the match), and maintain silence for a long
time (during the breaks)").  Section 5 notes the same burst/silence
pattern in online social networks (TAO-style post-comment bursts).

The trace's reference game (Jun 2 2012) had 306 snapshots over
2 h 26 m (8,760 s); :class:`LiveGameWorkload` reproduces those numbers
by default.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from ..sim.rng import RandomStream

__all__ = [
    "LiveGameWorkload",
    "PoissonWorkload",
    "BurstSilenceWorkload",
    "FlashSaleWorkload",
    "AuctionWorkload",
]

#: Active-play windows of the default game: two halves plus a closing
#: period, separated by breaks (seconds from session start).
DEFAULT_PLAY_WINDOWS: Tuple[Tuple[float, float], ...] = (
    (60.0, 3060.0),     # first half
    (3960.0, 6960.0),   # second half (after a 15-minute break)
    (7560.0, 8700.0),   # closing period / stoppage coverage
)

DEFAULT_GAME_DURATION_S = 8760.0  # 2 h 26 m
DEFAULT_SNAPSHOT_COUNT = 306


def _require_finite(**values: float) -> None:
    """Reject NaN/inf knobs by name.  The thinning generators loop until
    ``t >= duration``; a NaN or infinite duration or rate would make
    that loop spin (and allocate) forever, so bad values must die at
    construction, not at generate time."""
    for name, value in values.items():
        if not math.isfinite(value):
            raise ValueError("%s must be finite, got %r" % (name, value))


@dataclass
class LiveGameWorkload:
    """Bursty live-game updates: active windows with updates, silent breaks."""

    n_updates: int = DEFAULT_SNAPSHOT_COUNT
    duration_s: float = DEFAULT_GAME_DURATION_S
    #: Active-play windows; ``None`` scales :data:`DEFAULT_PLAY_WINDOWS`
    #: proportionally to ``duration_s`` (handy for shortened CI runs).
    play_windows: Optional[Sequence[Tuple[float, float]]] = None
    #: Relative jitter of inter-update gaps inside a window (0 = evenly
    #: spaced, 1 = strongly irregular).
    burstiness: float = 0.8

    def __post_init__(self) -> None:
        if self.n_updates <= 0:
            raise ValueError("n_updates must be positive")
        if self.duration_s <= 0:
            raise ValueError("duration_s must be positive")
        if self.play_windows is None:
            scale = self.duration_s / DEFAULT_GAME_DURATION_S
            self.play_windows = tuple(
                (a * scale, b * scale) for a, b in DEFAULT_PLAY_WINDOWS
            )
        windows = [(float(a), float(b)) for a, b in self.play_windows]
        for start, end in windows:
            if not 0 <= start < end <= self.duration_s:
                raise ValueError("invalid play window (%r, %r)" % (start, end))
        for (_, prev_end), (next_start, _) in zip(windows, windows[1:]):
            if next_start < prev_end:
                raise ValueError("play windows must not overlap")
        if not 0.0 <= self.burstiness <= 1.0:
            raise ValueError("burstiness must be in [0, 1]")
        self.play_windows = tuple(windows)

    @property
    def active_time_s(self) -> float:
        return sum(end - start for start, end in self.play_windows)

    def generate(self, stream: RandomStream) -> List[float]:
        """Update times: exactly ``n_updates`` sorted timestamps.

        Updates are placed only inside play windows; positions within the
        active timeline are uniform with multiplicative jitter, giving a
        bursty but exact-count schedule.
        """
        active = self.active_time_s
        # Uniform positions on the *active* timeline, jittered.
        slot = active / self.n_updates
        positions = []
        for index in range(self.n_updates):
            base = (index + 0.5) * slot
            offset = stream.uniform(-0.5, 0.5) * slot * self.burstiness
            positions.append(min(active - 1e-9, max(0.0, base + offset)))
        positions.sort()
        return [self._active_to_wall(p) for p in positions]

    def _active_to_wall(self, active_pos: float) -> float:
        """Map a position on the concatenated-active timeline to wall time."""
        remaining = active_pos
        for start, end in self.play_windows:
            width = end - start
            if remaining < width:
                return start + remaining
            remaining -= width
        # Numerical edge: clamp to the end of the last window.
        return self.play_windows[-1][1]

    def is_break(self, t: float) -> bool:
        """``True`` when *t* falls outside every play window."""
        return not any(start <= t < end for start, end in self.play_windows)


@dataclass
class PoissonWorkload:
    """Memoryless updates at a constant rate (baseline workload)."""

    rate_per_s: float
    duration_s: float
    start_s: float = 0.0

    def __post_init__(self) -> None:
        if self.rate_per_s <= 0 or self.duration_s <= 0:
            raise ValueError("rate and duration must be positive")

    def generate(self, stream: RandomStream) -> List[float]:
        times: List[float] = []
        t = self.start_s
        end = self.start_s + self.duration_s
        while True:
            t += stream.expovariate(self.rate_per_s)
            if t >= end:
                return times
            times.append(t)


@dataclass
class BurstSilenceWorkload:
    """OSN-style workload: short intense bursts separated by long silences.

    Models the TAO pattern the paper cites ([42], [43]): a post triggers
    a burst of comment updates, then the object goes quiet.
    """

    n_bursts: int = 10
    updates_per_burst: int = 20
    burst_gap_mean_s: float = 5.0
    silence_mean_s: float = 600.0
    start_s: float = 0.0

    def __post_init__(self) -> None:
        if self.n_bursts <= 0 or self.updates_per_burst <= 0:
            raise ValueError("bursts and updates_per_burst must be positive")
        if self.burst_gap_mean_s <= 0 or self.silence_mean_s <= 0:
            raise ValueError("gap means must be positive")

    def generate(self, stream: RandomStream) -> List[float]:
        times: List[float] = []
        t = self.start_s
        for _ in range(self.n_bursts):
            t += stream.expovariate(1.0 / self.silence_mean_s)
            for _ in range(self.updates_per_burst):
                t += stream.expovariate(1.0 / self.burst_gap_mean_s)
                times.append(t)
        return times


@dataclass
class FlashSaleWorkload:
    """E-commerce inventory updates around a flash sale.

    The paper's introduction names e-commerce as a live-content driver.
    The model: a low base update rate (price/stock corrections), then a
    sale window where the rate multiplies (inventory counts down with
    every purchase), then decay back to the base rate.
    """

    duration_s: float = 7200.0
    sale_start_s: float = 3600.0
    sale_duration_s: float = 900.0
    base_rate_per_s: float = 1.0 / 300.0
    sale_rate_multiplier: float = 60.0

    def __post_init__(self) -> None:
        _require_finite(
            duration_s=self.duration_s,
            sale_start_s=self.sale_start_s,
            sale_duration_s=self.sale_duration_s,
            base_rate_per_s=self.base_rate_per_s,
            sale_rate_multiplier=self.sale_rate_multiplier,
        )
        if self.duration_s <= 0:
            raise ValueError(
                "duration_s must be positive, got %r" % self.duration_s
            )
        if self.sale_duration_s <= 0:
            raise ValueError(
                "sale_duration_s must be positive, got %r" % self.sale_duration_s
            )
        if not 0 <= self.sale_start_s <= self.duration_s:
            raise ValueError(
                "sale_start_s must be within [0, duration_s=%r], got %r"
                % (self.duration_s, self.sale_start_s)
            )
        if self.base_rate_per_s <= 0:
            raise ValueError(
                "base_rate_per_s must be positive, got %r" % self.base_rate_per_s
            )
        if self.sale_rate_multiplier < 1:
            raise ValueError(
                "sale_rate_multiplier must be >= 1, got %r"
                % self.sale_rate_multiplier
            )

    def rate_at(self, t: float) -> float:
        """Instantaneous update rate (piecewise constant)."""
        sale_end = self.sale_start_s + self.sale_duration_s
        if self.sale_start_s <= t < sale_end:
            return self.base_rate_per_s * self.sale_rate_multiplier
        return self.base_rate_per_s

    def generate(self, stream: RandomStream) -> List[float]:
        """Thinned inhomogeneous-Poisson update times."""
        peak = self.base_rate_per_s * self.sale_rate_multiplier
        times: List[float] = []
        t = 0.0
        while True:
            t += stream.expovariate(peak)
            if t >= self.duration_s:
                return times
            if stream.random() < self.rate_at(t) / peak:
                times.append(t)


@dataclass
class AuctionWorkload:
    """Online-auction bid updates: sparse early bidding, then sniping.

    Bid arrivals accelerate toward the closing time (the classic
    last-minute sniping pattern): the rate grows linearly from
    ``base_rate_per_s`` to ``closing_rate_per_s`` over the auction.
    """

    duration_s: float = 3600.0
    base_rate_per_s: float = 1.0 / 240.0
    closing_rate_per_s: float = 0.5

    def __post_init__(self) -> None:
        _require_finite(
            duration_s=self.duration_s,
            base_rate_per_s=self.base_rate_per_s,
            closing_rate_per_s=self.closing_rate_per_s,
        )
        if self.duration_s <= 0:
            raise ValueError(
                "duration_s must be positive, got %r" % self.duration_s
            )
        if not 0 < self.base_rate_per_s <= self.closing_rate_per_s:
            raise ValueError(
                "need 0 < base_rate_per_s <= closing_rate_per_s, got "
                "base_rate_per_s=%r, closing_rate_per_s=%r"
                % (self.base_rate_per_s, self.closing_rate_per_s)
            )

    def rate_at(self, t: float) -> float:
        frac = min(1.0, max(0.0, t / self.duration_s))
        return self.base_rate_per_s + frac * (
            self.closing_rate_per_s - self.base_rate_per_s
        )

    def generate(self, stream: RandomStream) -> List[float]:
        times: List[float] = []
        t = 0.0
        peak = self.closing_rate_per_s
        while True:
            t += stream.expovariate(peak)
            if t >= self.duration_s:
                return times
            if stream.random() < self.rate_at(t) / peak:
                times.append(t)
