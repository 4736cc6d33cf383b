"""Cross-module integration tests.

The most important one cross-validates the two Section 3 paths: the
fast generative trace model and a genuine discrete-event simulation of
the same system (lazy-TTL unicast CDN + periodic crawler) must agree on
the headline statistic (mean inconsistency ~ TTL/2 + delivery noise).
"""

import numpy as np

from repro.cdn import LiveContent, ProviderActor, ServerActor, UserCohort
from repro.consistency import TTLPolicy, UnicastInfrastructure
from repro.experiments import build_system
from repro.experiments.section5 import section5_config
from repro.metrics.consistency import update_lags
from repro.network import NetworkFabric, TopologyBuilder
from repro.obs.tracer import RecordingTracer
from repro.sim import Environment, StreamRegistry
from repro.trace import SynthesisConfig, TraceSynthesizer, all_inconsistencies
from repro.trace.records import CdnTrace, DayTrace, PollSeries, ServerInfo
from repro.trace.workload import LiveGameWorkload
from tests.test_golden import visit_observations


def run_des_crawl(n_servers=20, ttl=60.0, horizon=3000.0, seed=31):
    """A DES CDN with lazy TTL + a 10 s crawler per server; returns a
    CdnTrace built from what the crawler observed."""
    env = Environment(tracer=RecordingTracer())
    streams = StreamRegistry(seed)
    topology = TopologyBuilder(env, streams).build(n_servers=n_servers, users_per_server=1)
    fabric = NetworkFabric(env, streams=streams)
    workload = LiveGameWorkload(n_updates=40, duration_s=horizon * 0.9)
    content = LiveContent(
        "game", update_times=workload.generate(streams.stream("updates"))
    )
    provider = ProviderActor(env, topology.provider, fabric, content)
    servers = [
        ServerActor(
            env, node, fabric, content,
            policy=TTLPolicy(ttl, stream=streams.stream("phase"), eager=False),
        )
        for node in topology.servers
    ]
    UnicastInfrastructure().wire(provider, servers)
    # Random crawler start offsets desynchronise the servers' lazy-TTL
    # refresh phases, exactly as organic demand does in the real CDN.
    offsets = streams.stream("crawler.offsets")
    crawlers = UserCohort(
        env, fabric, content, [group[0] for group in topology.users],
        user_ttl_s=10.0,
        start_offsets=[offsets.uniform(0.0, ttl) for _ in range(n_servers)],
        targets=[server.node for server in servers],
    )
    for server in servers:
        server.start()
    crawlers.start()
    env.run(until=horizon)

    day = DayTrace(
        day_index=0,
        session_length_s=horizon,
        update_times=np.asarray(content.update_times),
    )
    infos = {}
    crawls = visit_observations(env.tracer, crawlers)
    for slot, server in enumerate(servers):
        sid = server.node.node_id
        observations = crawls[slot]
        times = np.asarray([obs.time for obs in observations])
        versions = np.maximum.accumulate(
            np.asarray([obs.version for obs in observations], dtype=np.int64)
        )
        day.polls[sid] = PollSeries(times=times, versions=versions)
        infos[sid] = ServerInfo(
            sid, server.node.point, server.node.isp.name, server.node.city_name or "?",
            topology.provider.distance_km(server.node),
        )
    return CdnTrace(servers=infos, days=[day], poll_interval_s=10.0, ttl_s=ttl)


class TestDesVsGenerativeModel:
    """The generative trace model and the DES agree on the TTL statistic."""

    def test_des_crawl_mean_matches_ttl_half(self):
        trace = run_des_crawl()
        lengths = all_inconsistencies(trace)
        assert lengths.size > 50
        # TTL/2 = 30 s, minus crawler granularity, plus delivery noise
        assert 18.0 < lengths.mean() < 40.0

    def test_generative_model_same_band(self):
        config = SynthesisConfig(
            n_servers=20,
            n_days=1,
            session_length_s=3000.0,
            updates_per_day_low=40,
            updates_per_day_high=40,
            # disable the extra noise sources so the comparison isolates
            # the TTL mechanism itself
            absence_prob_per_day=0.0,
            congested_isp_prob=0.0,
            clean_isp_severity_low_s=0.0,
            clean_isp_severity_high_s=1e-9,
            provider_staleness_mean_s=1e-9,
        )
        trace = TraceSynthesizer(config, master_seed=31).synthesize()
        lengths = all_inconsistencies(trace)
        assert 18.0 < lengths.mean() < 40.0

    def test_both_paths_recover_the_ttl(self):
        from repro.trace import infer_ttl

        des_trace = run_des_crawl(n_servers=30, horizon=4000.0)
        des_ttl = infer_ttl(all_inconsistencies(des_trace)).ttl_s
        assert 48.0 <= des_ttl <= 72.0


class TestSection5EndToEnd:
    def test_hat_beats_unicast_ttl_on_provider_load(self, smoke_config):
        config = section5_config(smoke_config)
        ttl_metrics = build_system(config, "ttl").run()
        hat_metrics = build_system(config, "hat").run()
        assert (
            hat_metrics.provider_response_messages
            < ttl_metrics.provider_response_messages
        )

    def test_self_adaptive_saves_messages_vs_ttl(self, smoke_config):
        config = section5_config(smoke_config)
        ttl_metrics = build_system(config, "ttl").run()
        self_metrics = build_system(config, "self").run()
        assert self_metrics.response_messages <= ttl_metrics.response_messages

    def test_push_keeps_servers_freshest(self, smoke_config):
        config = section5_config(smoke_config)
        lags = {
            system: build_system(config, system).run().mean_server_lag
            for system in ("push", "ttl", "hat")
        }
        assert lags["push"] < lags["hat"] < lags["ttl"]


class TestUserLagConsistency:
    def test_user_never_sees_version_before_it_exists(self, smoke_config):
        tracer = RecordingTracer()
        deployment = build_system(smoke_config, "push", tracer=tracer)
        deployment.run()
        content = deployment.content
        observations = visit_observations(tracer, deployment.cohort)
        assert sum(map(len, observations)) > 0
        for visits in observations:
            for obs in visits:
                assert obs.version <= content.version_at(obs.time)

    def test_server_apply_log_matches_update_lag_metric(self, smoke_config):
        deployment = build_system(smoke_config, "push")
        deployment.run()
        content = deployment.content
        server = deployment.servers[0]
        lags = update_lags(content, server.apply_log())
        # push delivery is sub-second at smoke scale
        assert all(lag < 2.0 for lag in lags)
