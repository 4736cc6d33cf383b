"""Tests for statistics helpers, traffic ledger and consistency metrics."""

import numpy as np
import pytest

from repro.cdn.cohort import Observation
from repro.cdn.content import LiveContent
from repro.metrics import (
    Cdf,
    TrafficLedger,
    mean,
    pearson_r,
    percentile,
    rmse_against_uniform,
    summarize,
    uniform_cdf_value,
)
from repro.metrics.consistency import (
    mean_update_lag,
    observation_update_lags,
    stale_observation_fraction,
    update_lags,
)
from repro.network.message import Message, MessageKind


class TestStats:
    def test_mean_empty_raises(self):
        with pytest.raises(ValueError):
            mean([])

    def test_percentile_bounds(self):
        with pytest.raises(ValueError):
            percentile([1, 2], 101)
        assert percentile([1.0, 2.0, 3.0], 50) == 2.0

    def test_summarize(self):
        summary = summarize(range(1, 101))
        assert summary.median == pytest.approx(50.5)
        assert summary.count == 100
        assert summary.p5 < summary.median < summary.p95
        assert set(summary.as_dict()) == {"p5", "median", "p95", "mean", "count"}

    def test_cdf_basics(self):
        cdf = Cdf([1.0, 2.0, 3.0, 4.0])
        assert cdf.at(2.0) == 0.5
        assert cdf.fraction_below(2.0) == 0.25
        assert cdf.fraction_above(3.0) == 0.25
        assert cdf.quantile(0.0) == 1.0
        assert cdf.quantile(1.0) == 4.0
        assert len(cdf) == 4

    def test_cdf_points_monotone(self):
        cdf = Cdf(np.random.RandomState(0).rand(500))
        points = cdf.points(100)
        xs = [x for x, _ in points]
        ys = [y for _, y in points]
        assert xs == sorted(xs)
        assert ys == sorted(ys)
        assert ys[-1] == pytest.approx(1.0)

    def test_cdf_empty_raises(self):
        with pytest.raises(ValueError):
            Cdf([])

    def test_uniform_cdf_value(self):
        assert uniform_cdf_value(-1, 0, 10) == 0.0
        assert uniform_cdf_value(5, 0, 10) == 0.5
        assert uniform_cdf_value(20, 0, 10) == 1.0
        with pytest.raises(ValueError):
            uniform_cdf_value(0, 5, 5)

    def test_rmse_against_uniform_for_uniform_sample(self):
        rng = np.random.RandomState(1)
        sample = rng.uniform(0, 60, 20000)
        assert rmse_against_uniform(sample, 60.0) < 0.02

    def test_rmse_against_uniform_detects_mismatch(self):
        rng = np.random.RandomState(2)
        shifted = rng.uniform(30, 60, 20000)
        assert rmse_against_uniform(shifted, 60.0) > 0.2

    def test_pearson_r(self):
        xs = list(range(100))
        assert pearson_r(xs, xs) == pytest.approx(1.0)
        assert pearson_r(xs, [-x for x in xs]) == pytest.approx(-1.0)
        assert abs(pearson_r(xs, [1.0] * 100)) == 0.0
        with pytest.raises(ValueError):
            pearson_r([1, 2], [1])


def _msg(kind, size=1.0, src="a", dst="b"):
    return Message(kind, src, dst, size)


class TestTrafficLedger:
    def test_record_and_totals(self):
        ledger = TrafficLedger()
        ledger.record(_msg(MessageKind.PUSH_UPDATE, size=2.0), distance_km=100.0)
        ledger.record(_msg(MessageKind.POLL), distance_km=50.0)
        totals = ledger.totals()
        assert totals.count == 2
        assert totals.km_kb == pytest.approx(250.0)
        assert totals.km == pytest.approx(150.0)

    def test_negative_distance_rejected(self):
        with pytest.raises(ValueError):
            TrafficLedger().record(_msg(MessageKind.POLL), distance_km=-1.0)

    def test_update_vs_light_split(self):
        ledger = TrafficLedger()
        ledger.record(_msg(MessageKind.PUSH_UPDATE), 10.0)
        ledger.record(_msg(MessageKind.POLL_RESPONSE), 10.0)
        ledger.record(_msg(MessageKind.POLL), 10.0)
        ledger.record(_msg(MessageKind.INVALIDATE), 10.0)
        assert ledger.update_message_count() == 2
        assert ledger.light_message_count() == 2
        assert ledger.update_load_km() == pytest.approx(20.0)
        assert ledger.light_load_km() == pytest.approx(20.0)

    def test_response_metric_includes_not_modified(self):
        ledger = TrafficLedger()
        ledger.record(_msg(MessageKind.POLL_RESPONSE), 1.0)
        ledger.record(_msg(MessageKind.POLL_NOT_MODIFIED), 1.0)
        ledger.record(_msg(MessageKind.POLL), 1.0)
        assert ledger.response_message_count() == 2
        assert ledger.response_load_km() == pytest.approx(2.0)
        assert ledger.request_load_km() == pytest.approx(1.0)

    def test_per_sender_accounting(self):
        ledger = TrafficLedger()

        class Node:
            def __init__(self, node_id):
                self.node_id = node_id

        provider = Node("provider")
        ledger.record(Message(MessageKind.PUSH_UPDATE, provider, None, 1.0), 5.0)
        ledger.record(Message(MessageKind.POLL_NOT_MODIFIED, provider, None, 1.0), 5.0)
        ledger.record(Message(MessageKind.POLL, Node("server-1"), None, 1.0), 5.0)
        assert ledger.updates_sent_by("provider") == 1
        assert ledger.responses_sent_by("provider") == 2
        assert ledger.messages_sent_by("provider") == 2
        assert ledger.updates_sent_by("nobody") == 0

    def test_content_traffic_counts_in_totals_not_per_sender(self):
        ledger = TrafficLedger()

        class Node:
            def __init__(self, node_id):
                self.node_id = node_id

        provider, server, user = Node("provider"), Node("server-1"), Node("user-1")
        ledger.record(Message(MessageKind.PUSH_UPDATE, provider, server, 4.0), 10.0)
        ledger.record(Message(MessageKind.CONTENT_REQUEST, user, provider, 1.0), 10.0)
        ledger.record(Message(MessageKind.CONTENT_RESPONSE, provider, user, 4.0), 10.0)
        ledger.record(Message(MessageKind.CONTENT_REQUEST, user, server, 1.0), 20.0)
        ledger.record(Message(MessageKind.CONTENT_RESPONSE, server, user, 4.0), 20.0)
        # Content traffic counts in the per-kind totals ...
        assert ledger.totals().count == 5
        assert ledger.totals().km == pytest.approx(70.0)
        assert ledger.kind_totals(MessageKind.CONTENT_REQUEST).count == 2
        assert ledger.kind_totals(MessageKind.CONTENT_RESPONSE).count == 2
        assert ledger.kind_totals(MessageKind.CONTENT_RESPONSE).km_kb == pytest.approx(120.0)
        # ... but moves no per-sender count, for the provider ...
        assert ledger.updates_sent_by("provider") == 1
        assert ledger.responses_sent_by("provider") == 1
        assert ledger.messages_sent_by("provider") == 1
        # ... nor for senders that sent only content.
        for sender in ("server-1", "user-1"):
            assert ledger.updates_sent_by(sender) == 0
            assert ledger.responses_sent_by(sender) == 0
            assert ledger.messages_sent_by(sender) == 0

    def test_content_traffic_not_in_consistency_cost(self):
        ledger = TrafficLedger()
        ledger.record(_msg(MessageKind.CONTENT_RESPONSE, size=100.0), 1000.0)
        ledger.record(_msg(MessageKind.POLL), 10.0)
        assert ledger.consistency_cost_km_kb() == pytest.approx(10.0)

    def test_snapshot_roundtrip_keys(self):
        ledger = TrafficLedger()
        ledger.record(_msg(MessageKind.POLL), 1.0)
        snapshot = ledger.snapshot()
        assert snapshot["poll"]["count"] == 1


class TestUpdateLags:
    def make_content(self):
        return LiveContent("c", update_times=[10.0, 20.0, 30.0])

    def test_basic_lags(self):
        content = self.make_content()
        log = [(0.0, 0), (12.0, 1), (21.0, 2), (35.0, 3)]
        assert update_lags(content, log) == [2.0, 1.0, 5.0]

    def test_version_skip_realises_older_updates(self):
        content = self.make_content()
        log = [(0.0, 0), (32.0, 3)]  # jumps straight to v3
        assert update_lags(content, log) == [22.0, 12.0, 2.0]

    def test_window_filters_updates(self):
        content = self.make_content()
        log = [(0.0, 0), (12.0, 1), (21.0, 2), (35.0, 3)]
        assert update_lags(content, log, window=(15.0, 25.0)) == [1.0]

    def test_censoring(self):
        content = self.make_content()
        log = [(0.0, 0), (12.0, 1)]  # never sees v2/v3
        assert update_lags(content, log) == [2.0]
        assert update_lags(content, log, censor_at=50.0) == [2.0, 30.0, 20.0]

    def test_mean_update_lag_empty_is_zero(self):
        content = LiveContent("c", update_times=[])
        assert mean_update_lag(content, [(0.0, 0)]) == 0.0

    def test_observation_lags(self):
        content = self.make_content()
        observations = [
            Observation(5.0, 0, "s1"),
            Observation(15.0, 1, "s1"),
            Observation(25.0, 1, "s2"),  # stale server
            Observation(33.0, 3, "s1"),
        ]
        assert observation_update_lags(content, observations) == [5.0, 13.0, 3.0]


class TestStaleFraction:
    def test_no_observations(self):
        assert stale_observation_fraction([]) == 0.0

    def test_monotone_stream_has_no_staleness(self):
        observations = [Observation(float(i), i, "s") for i in range(10)]
        assert stale_observation_fraction(observations) == 0.0

    def test_regression_counts_once_per_stale_visit(self):
        observations = [
            Observation(0.0, 0, "a"),
            Observation(1.0, 2, "a"),
            Observation(2.0, 1, "b"),  # stale!
            Observation(3.0, 1, "b"),  # still below the max seen (2)
            Observation(4.0, 3, "a"),
        ]
        assert stale_observation_fraction(observations) == pytest.approx(2 / 5)
