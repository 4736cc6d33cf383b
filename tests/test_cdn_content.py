"""Tests for LiveContent and the TTL cache."""

import pytest

from repro.cdn.cache import CacheEntry
from repro.cdn.content import LiveContent


class TestLiveContent:
    def test_validation(self):
        with pytest.raises(ValueError):
            LiveContent("c", update_times=[5.0, 3.0])
        with pytest.raises(ValueError):
            LiveContent("c", update_times=[-1.0])

    def test_version_at(self):
        content = LiveContent("c", update_times=[10.0, 20.0, 30.0])
        assert content.version_at(0.0) == 0
        assert content.version_at(10.0) == 1
        assert content.version_at(15.0) == 1
        assert content.version_at(99.0) == 3
        assert content.last_version == 3

    def test_creation_time(self):
        content = LiveContent("c", update_times=[10.0, 20.0])
        assert content.creation_time(0) == 0.0
        assert content.creation_time(2) == 20.0
        with pytest.raises(ValueError):
            content.creation_time(3)

    def test_next_update_after(self):
        content = LiveContent("c", update_times=[10.0, 20.0])
        assert content.next_update_after(5.0) == 10.0
        assert content.next_update_after(10.0) == 20.0
        assert content.next_update_after(20.0) == float("inf")

    def test_staleness(self):
        content = LiveContent("c", update_times=[10.0, 20.0])
        assert content.staleness(0, 5.0) == 0.0       # still newest
        assert content.staleness(0, 15.0) == 5.0      # v1 appeared at 10
        assert content.staleness(1, 25.0) == 5.0      # v2 appeared at 20
        assert content.staleness(2, 100.0) == 0.0     # newest forever

    def test_versions_in_window(self):
        content = LiveContent("c", update_times=[10.0, 20.0, 30.0])
        assert list(content.versions_in(5.0, 25.0)) == [1, 2]
        assert list(content.versions_in(0.0, 100.0)) == [1, 2, 3]
        assert list(content.versions_in(30.0, 40.0)) == []


class TestTTLCache:
    """A server's TTL cache: its one :class:`CacheEntry`."""

    def test_entry_starts_at_version_zero(self):
        entry = CacheEntry()
        assert entry.version == 0
        assert entry.apply_log == [(0.0, 0)]

    def test_store_newer_version(self):
        entry = CacheEntry()
        assert entry.store(3, now=100.0, ttl=60.0) is True
        assert entry.version == 3
        assert entry.expires_at == 160.0
        assert entry.apply_log[-1] == (100.0, 3)

    def test_store_same_version_refreshes_ttl_only(self):
        entry = CacheEntry()
        entry.store(3, now=100.0, ttl=60.0)
        assert entry.store(3, now=200.0, ttl=60.0) is False
        assert entry.expires_at == 260.0
        assert len(entry.apply_log) == 2  # initial + one real write

    def test_store_clears_invalidation(self):
        entry = CacheEntry()
        entry.invalidate(version=1)
        assert entry.invalidated
        entry.store(1, now=10.0, ttl=60.0)
        assert not entry.invalidated

    def test_invalidate_skipped_when_already_newer(self):
        entry = CacheEntry()
        entry.store(5, now=1.0, ttl=60.0)
        entry.invalidate(version=4)
        assert not entry.invalidated
        entry.invalidate(version=6)
        assert entry.invalidated

    def test_freshness(self):
        entry = CacheEntry()
        entry.store(1, now=0.0, ttl=60.0)
        assert entry.is_fresh(30.0)
        assert not entry.is_fresh(60.0)
        entry.invalidate(version=2)
        assert not entry.is_fresh(30.0)

    def test_version_monotonicity(self):
        entry = CacheEntry()
        entry.store(5, now=1.0, ttl=60.0)
        entry.store(3, now=2.0, ttl=60.0)  # stale arrival ignored
        assert entry.version == 5
        versions = [v for _, v in entry.apply_log]
        assert versions == sorted(versions)
