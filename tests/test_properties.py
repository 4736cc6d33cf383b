"""Property-based tests (hypothesis) for core invariants."""

import math
import random

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.cdn.cohort import Observation
from repro.cdn.content import LiveContent
from repro.consistency.hilbert import hilbert_number, hilbert_to_xy, xy_to_hilbert
from repro.metrics.consistency import stale_observation_fraction, update_lags
from repro.metrics.incremental import pairwise_mean
from repro.metrics.stats import Cdf
from repro.network.geo import GeoPoint, haversine_km
from repro.sim import Environment, derive_seed
from repro.trace.records import PollSeries


# ----------------------------------------------------------------------
# Hilbert curve
# ----------------------------------------------------------------------
@given(
    order=st.integers(min_value=1, max_value=8),
    data=st.data(),
)
def test_hilbert_roundtrip(order, data):
    side = 1 << order
    x = data.draw(st.integers(min_value=0, max_value=side - 1))
    y = data.draw(st.integers(min_value=0, max_value=side - 1))
    d = xy_to_hilbert(order, x, y)
    assert 0 <= d < side * side
    assert hilbert_to_xy(order, d) == (x, y)


@given(
    lat=st.floats(min_value=-90, max_value=90, allow_nan=False),
    lon=st.floats(min_value=-180, max_value=180, allow_nan=False),
)
def test_hilbert_number_in_range(lat, lon):
    d = hilbert_number(GeoPoint(lat, lon), order=10)
    assert 0 <= d < (1 << 10) ** 2


# ----------------------------------------------------------------------
# geography
# ----------------------------------------------------------------------
coords = st.tuples(
    st.floats(min_value=-90, max_value=90, allow_nan=False),
    st.floats(min_value=-180, max_value=180, allow_nan=False),
)


@given(a=coords, b=coords)
def test_haversine_symmetric_bounded(a, b):
    pa, pb = GeoPoint(*a), GeoPoint(*b)
    d1 = haversine_km(pa, pb)
    d2 = haversine_km(pb, pa)
    assert abs(d1 - d2) < 1e-6
    assert 0.0 <= d1 <= 20038.0  # half the Earth's circumference


# ----------------------------------------------------------------------
# CDF
# ----------------------------------------------------------------------
@given(st.lists(st.floats(min_value=0, max_value=1e6, allow_nan=False), min_size=1))
def test_cdf_monotone_and_bounded(values):
    cdf = Cdf(values)
    xs = sorted(set(values))
    previous = 0.0
    for x in xs:
        current = cdf.at(x)
        assert 0.0 <= current <= 1.0
        assert current >= previous
        assert cdf.fraction_below(x) <= current
        previous = current
    assert cdf.at(max(xs)) == 1.0


# ----------------------------------------------------------------------
# update lags
# ----------------------------------------------------------------------
@st.composite
def content_and_log(draw):
    update_times = sorted(
        draw(
            st.lists(
                st.floats(min_value=1.0, max_value=1e4, allow_nan=False),
                min_size=1,
                max_size=20,
                unique=True,
            )
        )
    )
    content = LiveContent("c", update_times=update_times)
    n_entries = draw(st.integers(min_value=1, max_value=30))
    times = sorted(
        draw(
            st.lists(
                st.floats(min_value=0.0, max_value=2e4, allow_nan=False),
                min_size=n_entries,
                max_size=n_entries,
            )
        )
    )
    versions = []
    current = 0
    for t in times:
        ceiling = content.version_at(t)
        current = draw(st.integers(min_value=current, max_value=max(current, ceiling)))
        versions.append(current)
    log = list(zip(times, versions))
    return content, log


@given(content_and_log())
def test_update_lags_nonnegative_and_bounded_count(pair):
    content, log = pair
    lags = update_lags(content, log)
    assert all(lag >= 0.0 for lag in lags)
    assert len(lags) <= content.n_updates


@given(content_and_log(), st.floats(min_value=2e4, max_value=3e4))
def test_update_lags_censoring_scores_every_update(pair, censor):
    content, log = pair
    lags = update_lags(content, log, censor_at=censor)
    assert len(lags) == content.n_updates
    assert all(lag >= 0.0 for lag in lags)


# ----------------------------------------------------------------------
# pairwise mean (the trackers' numpy-free np.mean)
# ----------------------------------------------------------------------
@settings(max_examples=300, deadline=None)
@given(
    n=st.integers(min_value=1, max_value=1100),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
def test_pairwise_mean_is_numpy_mean_at_every_length(n, seed):
    # Lengths 1-1100 cover numpy's three branches: in order below 8,
    # eight accumulators up to 128, halving above; lags span 1e-3-1e4 s.
    rng = random.Random(seed)
    values = [10.0 ** rng.uniform(-3.0, 4.0) for _ in range(n)]
    assert pairwise_mean(values) == float(np.mean(values))


@given(st.lists(st.floats(min_value=1e-3, max_value=1e4), min_size=1, max_size=300))
def test_pairwise_mean_is_numpy_mean_on_drawn_values(values):
    assert pairwise_mean(values) == float(np.mean(values))


def test_pairwise_mean_of_nothing_is_nan():
    assert math.isnan(pairwise_mean([]))


# ----------------------------------------------------------------------
# stale fraction
# ----------------------------------------------------------------------
@given(
    st.lists(st.integers(min_value=0, max_value=50), min_size=0, max_size=100)
)
def test_stale_fraction_in_unit_interval(versions):
    observations = [Observation(float(i), v, "s") for i, v in enumerate(versions)]
    fraction = stale_observation_fraction(observations)
    assert 0.0 <= fraction <= 1.0
    if versions == sorted(versions):
        assert fraction == 0.0


# ----------------------------------------------------------------------
# engine scheduling
# ----------------------------------------------------------------------
@given(st.lists(st.floats(min_value=0, max_value=100, allow_nan=False), min_size=1, max_size=30))
@settings(max_examples=50, deadline=None)
def test_timeouts_fire_in_time_order(delays):
    env = Environment()
    fired = []

    def waiter(env, delay):
        yield env.timeout(delay)
        fired.append(delay)

    for delay in delays:
        env.process(waiter(env, delay))
    env.run()
    assert fired == sorted(fired, key=float) or fired == sorted(fired)
    assert sorted(fired) == sorted(delays)


# ----------------------------------------------------------------------
# rng
# ----------------------------------------------------------------------
@given(st.integers(min_value=0, max_value=2**31), st.text(min_size=1, max_size=30))
def test_derive_seed_stable_and_64bit(master, name):
    seed = derive_seed(master, name)
    assert seed == derive_seed(master, name)
    assert 0 <= seed < 2**64


# ----------------------------------------------------------------------
# poll series
# ----------------------------------------------------------------------
@given(
    st.lists(
        st.tuples(
            st.floats(min_value=0, max_value=1e4, allow_nan=False),
            st.integers(min_value=0, max_value=100),
        ),
        min_size=1,
        max_size=50,
    )
)
def test_poll_series_version_at_matches_linear_scan(entries):
    entries.sort()
    times = np.array([t for t, _ in entries])
    versions = np.maximum.accumulate(np.array([v for _, v in entries], dtype=np.int64))
    series = PollSeries(times=times, versions=versions)
    for probe in [times[0] - 1.0, float(times[len(times) // 2]), times[-1] + 1.0]:
        expected = 0
        for t, v in zip(times, versions):
            if t <= probe:
                expected = int(v)
        assert series.version_at(float(probe)) == expected


# ----------------------------------------------------------------------
# method advisor
# ----------------------------------------------------------------------
from repro.core import MethodAdvisor, WorkloadProfile  # noqa: E402


@given(
    update_rate=st.floats(min_value=0.0, max_value=10.0, allow_nan=False),
    visit_rate=st.floats(min_value=0.0, max_value=10.0, allow_nan=False),
    n_servers=st.integers(min_value=1, max_value=2000),
    silence=st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
    tolerance=st.floats(min_value=0.0, max_value=600.0, allow_nan=False),
)
@settings(max_examples=100, deadline=None)
def test_advisor_recommendation_invariants(update_rate, visit_rate, n_servers, silence, tolerance):
    advisor = MethodAdvisor()
    profile = WorkloadProfile(
        update_rate_per_s=update_rate,
        visit_rate_per_s=visit_rate,
        n_servers=n_servers,
        silence_fraction=silence,
    )
    rec = advisor.recommend(profile, tolerance)
    assert rec.method in ("push", "invalidation", "ttl", "self-adaptive")
    assert rec.infrastructure in ("unicast", "multicast")
    assert rec.expected_messages_per_hour >= 0.0
    assert rec.expected_kb_per_hour >= 0.0
    assert rec.expected_staleness_s >= 0.0
    if rec.ttl_s is not None:
        assert advisor.min_ttl_s <= rec.ttl_s <= advisor.max_ttl_s
        # TTL-family staleness honours the tolerance (expected = TTL/2)
        assert rec.expected_staleness_s <= max(tolerance, advisor.min_ttl_s / 2.0) + 1e-9


@given(
    update_rate=st.floats(min_value=0.001, max_value=5.0, allow_nan=False),
    n_small=st.integers(min_value=1, max_value=100),
    extra=st.integers(min_value=1, max_value=100),
)
@settings(max_examples=50, deadline=None)
def test_advisor_costs_monotone_in_fleet_size(update_rate, n_small, extra):
    advisor = MethodAdvisor()
    small = WorkloadProfile(update_rate, 0.1, n_small)
    large = WorkloadProfile(update_rate, 0.1, n_small + extra)
    for method in ("push", "invalidation", "ttl", "self-adaptive"):
        assert advisor.expected_messages_per_hour(
            small, method, 30.0
        ) <= advisor.expected_messages_per_hour(large, method, 30.0)
        assert advisor.expected_kb_per_hour(
            small, method, 30.0
        ) <= advisor.expected_kb_per_hour(large, method, 30.0)
