"""Experiment configuration: one knob set shared by all Section 4/5 drivers.

The paper's testbed: 170 PlanetLab nodes (mainly U.S./Europe/Asia), the
provider in Atlanta, one day's live game (306 snapshots over 2 h 26 m),
five simulated end-users per node polling every 10 s, 1 KB packets, the
provider starting updates at t = 60 s and users starting at random times
in [0 s, 50 s].

``paper_scale()`` reproduces those numbers; ``ci_scale()`` is a
shrunken-but-same-shape configuration for tests and quick benchmark
runs; ``smoke_scale()`` is minimal.
"""

from __future__ import annotations

import difflib
import math
import warnings
from dataclasses import dataclass, fields, replace
from typing import Optional

__all__ = ["TestbedConfig", "paper_scale", "ci_scale", "smoke_scale", "planet_scale"]

#: Workload-shape knobs whose override-plumbing is deprecated in favour
#: of scenarios (:mod:`repro.scenarios`): a scenario owns the update
#: schedule, so tweaking these per-run knobs behind its back is the old
#: way.  Still honoured for one release; the warning points at the
#: replacement.
DEPRECATED_WORKLOAD_KNOBS = ("game_duration_s", "n_updates", "update_start_s")

#: Times (in seconds) that must be finite; ``horizon_s`` only when set.
_FINITE_TIME_KNOBS = (
    "server_ttl_s",
    "user_ttl_s",
    "game_duration_s",
    "update_start_s",
    "user_start_window_s",
    "horizon_s",
)


@dataclass(kw_only=True)
class TestbedConfig:
    """All tunables of one trace-driven experiment run.

    Fields are keyword-only: configs are built and modified by knob
    name, never positionally.  Use :meth:`with_overrides` (or its short
    alias :meth:`with_`) to derive modified copies -- unknown knob names
    are rejected with a "did you mean" hint instead of silently
    configuring nothing.
    """

    #: Not a pytest test class, despite the name.
    __test__ = False

    # --- deployment -------------------------------------------------------
    n_servers: int = 170
    users_per_server: int = 5
    provider_city: str = "Atlanta"
    tree_arity: int = 2          # Section 4's binary multicast tree
    hat_clusters: int = 20       # Section 5: 20 geographic clusters
    hat_arity: int = 4           # Section 5: 4-ary supernode tree

    # --- content / workload -------------------------------------------------
    n_updates: int = 306
    game_duration_s: float = 8760.0
    update_start_s: float = 60.0   # "provider starts to update contents at 60s"
    update_size_kb: float = 1.0
    light_size_kb: float = 1.0

    # --- update methods ------------------------------------------------------
    #: Content-server TTL.  Section 4 figures imply 10 s (TTL's average
    #: server inconsistency is 5.7 s ~ TTL/2); Section 5 uses 60 s.
    server_ttl_s: float = 10.0
    user_ttl_s: float = 10.0
    user_start_window_s: float = 50.0

    # --- user behaviour ---------------------------------------------------
    #: "fixed": each user sticks to its home server; "switch": a user
    #: visits a different random server every visit (the Fig. 24 scenario).
    user_selector: str = "fixed"

    # --- planet-scale user plane (see docs/scalability.md) -----------------
    #: "per-user": per-user observation logs, trackers and metrics-dict
    #: entries (the legacy layout).  "aggregate": O(1)-per-user scalar
    #: accumulators, metrics grouped by home server at collection --
    #: required for sharded merges; per-visit observations are not
    #: retained.
    user_metrics: str = "per-user"
    #: Deterministic population sharding: this run simulates only the
    #: users whose per-server index u satisfies u % user_shards ==
    #: user_shard, against the full (identical) server plane.  Shard
    #: metrics merge exactly via repro.experiments.sharding.
    user_shards: int = 1
    user_shard: int = 0

    # --- run --------------------------------------------------------------
    horizon_s: Optional[float] = None  # default: update_start + duration + slack
    seed: int = 0

    def __post_init__(self) -> None:
        # A NaN time lets the clock run backwards and an infinite one
        # never ends the run, so times must be finite before any range
        # check (every comparison with NaN is False).
        for name in _FINITE_TIME_KNOBS:
            value = getattr(self, name)
            if value is not None and not math.isfinite(value):
                raise ValueError("%s must be finite, got %r" % (name, value))
        if self.n_servers <= 0:
            raise ValueError("n_servers must be positive")
        if self.users_per_server < 0:
            raise ValueError("users_per_server must be >= 0")
        if self.n_updates <= 0 or self.game_duration_s <= 0:
            raise ValueError("n_updates and game_duration_s must be positive")
        if self.server_ttl_s <= 0 or self.user_ttl_s <= 0:
            raise ValueError("TTLs must be positive")
        if self.user_selector not in ("fixed", "switch"):
            raise ValueError("user_selector must be 'fixed' or 'switch'")
        if self.user_metrics not in ("per-user", "aggregate"):
            raise ValueError("user_metrics must be 'per-user' or 'aggregate'")
        if self.user_shards < 1:
            raise ValueError("user_shards must be >= 1")
        if not 0 <= self.user_shard < self.user_shards:
            raise ValueError("user_shard must be in [0, user_shards)")

    @property
    def run_horizon_s(self) -> float:
        if self.horizon_s is not None:
            return self.horizon_s
        # Enough slack for the last update to propagate everywhere.
        return self.update_start_s + self.game_duration_s + 4.0 * max(
            self.server_ttl_s, self.user_ttl_s
        )

    def with_overrides(self, **overrides) -> "TestbedConfig":
        """A modified copy; rejects unknown knob names explicitly.

        Sweep drivers feed user-supplied knob names through here, so a
        typo'd parameter fails loudly with the list of valid knobs (and
        the closest match) instead of surfacing as a confusing
        ``TypeError`` from the generated ``__init__``.
        """
        valid = {f.name for f in fields(self)}
        unknown = sorted(set(overrides) - valid)
        if unknown:
            hints = []
            for name in unknown:
                close = difflib.get_close_matches(name, valid, n=1)
                hints.append(
                    "%r%s" % (name, " (did you mean %r?)" % close[0] if close else "")
                )
            raise ValueError(
                "unknown TestbedConfig knob(s) %s; valid knobs: %s"
                % (", ".join(hints), ", ".join(sorted(valid)))
            )
        deprecated = sorted(set(overrides) & set(DEPRECATED_WORKLOAD_KNOBS))
        if deprecated:
            warnings.warn(
                "overriding workload knob(s) %s via with_overrides is "
                "deprecated: workload shape now belongs to a scenario "
                "(see repro.scenarios; register or select one instead). "
                "The override still applies for now."
                % ", ".join(repr(name) for name in deprecated),
                DeprecationWarning,
                stacklevel=2,
            )
        return replace(self, **overrides)

    def with_(self, **changes) -> "TestbedConfig":
        """Short alias for :meth:`with_overrides`."""
        return self.with_overrides(**changes)


def paper_scale(**overrides) -> TestbedConfig:
    """The paper's Section 4 testbed dimensions."""
    return TestbedConfig(**overrides)


def ci_scale(**overrides) -> TestbedConfig:
    """~6x smaller and ~6x shorter; preserves every shape the figures test."""
    defaults = dict(
        n_servers=30,
        users_per_server=2,
        n_updates=50,
        game_duration_s=1460.0,
        hat_clusters=6,
    )
    defaults.update(overrides)
    return TestbedConfig(**defaults)


def smoke_scale(**overrides) -> TestbedConfig:
    """Minimal configuration for fast unit tests."""
    defaults = dict(
        n_servers=8,
        users_per_server=1,
        n_updates=12,
        game_duration_s=400.0,
        hat_clusters=3,
    )
    defaults.update(overrides)
    return TestbedConfig(**defaults)


def planet_scale(**overrides) -> TestbedConfig:
    """Fig. 20x planet-scale defaults (see docs/scalability.md).

    A short, Section-5-cadenced workload (20 updates over 5 minutes,
    60 s TTLs -> ~10 visits per user) with aggregate user metrics, so
    wall time and memory scale with the population instead of with
    per-user bookkeeping.  Size knobs (``n_servers``,
    ``users_per_server``, ``user_shards``) are supplied per run.
    """
    defaults = dict(
        n_servers=10_000,
        users_per_server=50,
        n_updates=20,
        game_duration_s=300.0,
        server_ttl_s=60.0,
        user_ttl_s=60.0,
        user_metrics="aggregate",
    )
    defaults.update(overrides)
    return TestbedConfig(**defaults)
