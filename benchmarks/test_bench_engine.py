"""True performance microbenchmarks: DES engine throughput, trace
synthesis throughput, and analysis throughput.

Unlike the figure benchmarks these run multiple rounds -- they are the
regression canaries for the substrate's performance.
"""

import numpy as np

from repro.sim import Environment, Resource
from repro.trace import SynthesisConfig, TraceSynthesizer, all_inconsistencies


def test_engine_timeout_throughput(benchmark):
    """Schedule-and-run of 20k chained timeouts."""

    def run():
        env = Environment()

        def ticker(env):
            for _ in range(20_000):
                yield env.timeout(1)

        env.process(ticker(env))
        env.run()
        return env.now

    result = benchmark(run)
    assert result == 20_000


def test_engine_process_churn(benchmark):
    """Spawn 5k short-lived processes."""

    def run():
        env = Environment()
        done = []

        def worker(env, i):
            yield env.timeout(i % 7)
            done.append(i)

        for i in range(5_000):
            env.process(worker(env, i))
        env.run()
        return len(done)

    assert benchmark(run) == 5_000


def test_engine_resource_contention(benchmark):
    """2k processes contending for a capacity-2 resource."""

    def run():
        env = Environment()
        resource = Resource(env, capacity=2)
        completed = []

        def worker(env, i):
            with resource.request() as grant:
                yield grant
                yield env.timeout(1)
            completed.append(i)

        for i in range(2_000):
            env.process(worker(env, i))
        env.run()
        return len(completed)

    assert benchmark(run) == 2_000


def test_trace_synthesis_throughput(benchmark):
    """Generative model: one day of 200 servers (~180k poll records)."""

    config = SynthesisConfig(n_servers=200, n_days=1)

    def run():
        trace = TraceSynthesizer(config, master_seed=1).synthesize()
        return trace.total_polls()

    polls = benchmark(run)
    assert polls > 100_000


def test_trace_analysis_throughput(benchmark):
    """alpha/beta episode extraction over a full synthetic day."""

    config = SynthesisConfig(n_servers=200, n_days=1)
    trace = TraceSynthesizer(config, master_seed=1).synthesize()

    def run():
        return all_inconsistencies(trace)

    lengths = benchmark(run)
    assert lengths.size > 1_000
    assert np.isfinite(lengths).all()


def _transport_storm(n_servers=40, rounds=60):
    """Peer-exchange storm: every round each server messages its ring
    neighbour.  Distinct senders keep the output ports uncontended, the
    regime the synchronous port claim targets (a provider fan-out
    instead serialises on one port and measures the port queue, not the
    transport)."""
    from repro.network import Message, MessageKind, NetworkFabric, TopologyBuilder
    from repro.sim import StreamRegistry

    env = Environment()
    streams = StreamRegistry(0)
    topology = TopologyBuilder(env, streams).build(
        n_servers=n_servers, users_per_server=0
    )
    fabric = NetworkFabric(env, streams=streams)
    servers = topology.servers
    received = []
    for server in servers:
        server.consumer = received.append

    def driver(env):
        for round_no in range(rounds):
            for i, server in enumerate(servers):
                fabric.send(
                    Message(
                        MessageKind.PUSH_UPDATE, server,
                        servers[(i + 1) % n_servers], 4.0,
                        version=round_no,
                    )
                )
            yield env.timeout(5.0)

    env.process(driver(env))
    env.run()
    assert len(received) == fabric.counters.messages_delivered == n_servers * rounds
    return env.events_processed


def test_transport_throughput(benchmark):
    """Messages and kernel events per second through the transport."""
    n_messages = 40 * 60
    events = benchmark(_transport_storm)
    fast_s = benchmark.stats.stats.min
    benchmark.extra_info["messages"] = n_messages
    benchmark.extra_info["fast_events"] = events
    benchmark.extra_info["fast_msgs_per_s"] = n_messages / fast_s
    benchmark.extra_info["fast_events_per_s"] = events / fast_s


def _kernel_deployment():
    """One full TTL/unicast deployment run at CI scale."""
    import repro.network.message as message_mod
    from repro.experiments.config import ci_scale
    from repro.experiments.testbed import build_deployment

    message_mod._SEQ = 0
    return build_deployment(ci_scale(users_per_server=2), "ttl").run().events_processed


def test_kernel_throughput(benchmark):
    """Kernel events per second over a whole CI-scale deployment run:
    timer wheel, synchronous dispatch and inline transport together."""
    events = benchmark(_kernel_deployment)
    fast_s = benchmark.stats.stats.min
    benchmark.extra_info["fast_events"] = events
    benchmark.extra_info["fast_events_per_s"] = events / fast_s
