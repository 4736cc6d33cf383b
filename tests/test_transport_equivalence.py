"""Differential tests: fast callback transport vs legacy generator transport.

The fast path (`repro.network.link._FastTransfer`) must be a pure
performance change: every simulated outcome -- delivery times, RNG draw
order, ledger totals, fabric counters, DeploymentMetrics -- must be
bit-identical to the legacy generator path for every update method on
every infrastructure.  Only the kernel-event *count* may differ (that is
the point of the fast path), so ``events_processed`` is excluded from
the metric comparison and asserted strictly smaller instead.
"""

import pytest

import repro.network.message as message_mod
from repro.cdn.server import schedule_absence
from repro.experiments.config import TestbedConfig
from repro.experiments.testbed import INFRASTRUCTURES, METHODS, build_deployment
from repro.network import Message, MessageKind, NetworkFabric, TopologyBuilder
from repro.obs.tracer import RecordingTracer
from repro.sim import Environment, StreamRegistry

#: One tiny-but-complete testbed cell; the paper-shape knobs all stay on.
def _tiny_config(seed, **overrides):
    defaults = dict(
        n_servers=6,
        users_per_server=1,
        n_updates=6,
        game_duration_s=200.0,
        hat_clusters=3,
        seed=seed,
    )
    defaults.update(overrides)
    return TestbedConfig(**defaults)


_MESSAGE_KINDS = ("msg_send", "msg_recv", "msg_drop")


def _run_cell(method, infrastructure, seed, legacy, **overrides):
    """One deployment run; returns (metrics, counters, message trace)."""
    # Message.seq is a process-global counter; reset it so the two runs
    # under comparison label their messages identically.
    message_mod._SEQ = 0
    tracer = RecordingTracer()
    deployment = build_deployment(
        _tiny_config(seed, **overrides), method, infrastructure, tracer=tracer
    )
    deployment.fabric.legacy_transport = legacy
    metrics = deployment.run()
    trace = tracer.events(kinds=_MESSAGE_KINDS)
    return metrics, deployment.fabric.counters.to_dict(), trace


def _cell_overrides(method, infrastructure):
    # invalidation/broadcast floods (quadratic re-broadcast storm); cut
    # the horizon shortly after the storm starts so the cell stays fast
    # while still exercising tens of thousands of transfers.
    if (method, infrastructure) == ("invalidation", "broadcast"):
        return {"horizon_s": 80.0}
    return {}


@pytest.mark.parametrize("infrastructure", INFRASTRUCTURES)
@pytest.mark.parametrize("method", METHODS)
def test_fast_path_bit_identical(method, infrastructure):
    """Fast and legacy transport agree exactly, at three seeds."""
    overrides = _cell_overrides(method, infrastructure)
    for seed in (0, 1, 2):
        fast_m, fast_c, fast_t = _run_cell(
            method, infrastructure, seed, legacy=False, **overrides
        )
        legacy_m, legacy_c, legacy_t = _run_cell(
            method, infrastructure, seed, legacy=True, **overrides
        )

        fast_d = fast_m.to_dict()
        legacy_d = legacy_m.to_dict()
        fast_events = fast_d.pop("events_processed")
        legacy_events = legacy_d.pop("events_processed")

        assert fast_d == legacy_d, "DeploymentMetrics diverged (seed %d)" % seed
        assert fast_c == legacy_c, "FabricCounters diverged (seed %d)" % seed
        assert fast_t == legacy_t, "message traces diverged (seed %d)" % seed
        # The same traffic must cost the fast kernel strictly fewer events.
        if fast_c["messages_sent"]:
            assert fast_events < legacy_events


def _make_fabric(seed, legacy):
    env = Environment(tracer=RecordingTracer())
    streams = StreamRegistry(seed)
    topology = TopologyBuilder(env, streams).build(n_servers=4, users_per_server=0)
    fabric = NetworkFabric(env, streams=streams, legacy_transport=legacy)
    return env, topology, fabric


def _storm_with_absences(legacy, seed=5):
    """Fan-out traffic while sender and receivers flap up/down."""
    env, topology, fabric = _make_fabric(seed, legacy)
    provider = topology.provider
    results = []

    # Receiver 0 is down for the whole middle of the run; the provider
    # itself drops out briefly, exercising the sender_down path.
    schedule_absence(env, topology.servers[0], start=2.0, duration=6.0)
    schedule_absence(env, provider, start=4.0, duration=1.0)

    def driver(env):
        for round_no in range(10):
            for server in topology.servers:
                done = fabric.send(
                    Message(MessageKind.PUSH_UPDATE, provider, server, 4.0,
                            version=round_no)
                )
                done.callbacks.append(lambda ev: results.append(ev.value))
            yield env.timeout(1.0)

    env.process(driver(env))
    env.run()
    trace = env.tracer.events(kinds=_MESSAGE_KINDS)
    return results, fabric.counters.to_dict(), fabric.dropped, trace


def test_failure_injection_equivalence():
    """Drops (sender and receiver down) are identical on both paths."""
    message_mod._SEQ = 0
    fast = _storm_with_absences(legacy=False)
    message_mod._SEQ = 0
    legacy = _storm_with_absences(legacy=True)
    assert fast == legacy
    # The scenario actually exercised both drop reasons.
    counters = fast[1]
    assert counters["dropped_sender_down"] > 0
    assert counters["dropped_receiver_down"] > 0
    assert False in fast[0] and True in fast[0]


def _port_is_idle(node):
    return not node.port_busy and not node.port_waiters


def test_uncontended_port_skips_grant_events():
    """Distinct senders never queue: one event per transport stage."""
    env, topology, fabric = _make_fabric(7, legacy=False)
    for server in topology.servers:
        fabric.send(Message(MessageKind.POLL, server, topology.provider, 1.0))
    env.run()
    # 4 messages, uncontended: transmit hop + deliver hop + inbox
    # StorePut = 3 events each (the done event completes lazily because
    # nobody registered a callback on it, and the fast kernel starts the
    # transfer synchronously inside send()).  The legacy kernel keeps
    # the start hop: 4 events each.
    assert fabric.counters.messages_delivered == 4
    assert fabric.counters.port_waits == 0
    assert env.events_processed == (16 if env.legacy_kernel else 12)
    for server in topology.servers:
        assert _port_is_idle(server)
        # The deque is built on first contention only.
        assert server.port_waiters is None


def test_contended_port_hands_off_without_grant_events():
    """A queued transfer costs no more heap events than an idle-port one:
    the releasing transfer schedules the waiter's transmit hop itself."""
    env, topology, fabric = _make_fabric(9, legacy=False)
    provider = topology.provider
    for server in topology.servers:
        fabric.send(Message(MessageKind.PUSH_UPDATE, provider, server, 4.0))
    env.run()
    # 4 messages, 3 of them queued: transmit hop + deliver hop per
    # message, plus the inbox StorePut (and the start hop on the legacy
    # kernel) -- no grant events.
    assert fabric.counters.messages_delivered == 4
    assert fabric.counters.port_waits == 3
    assert env.events_processed == (16 if env.legacy_kernel else 12)
    assert _port_is_idle(provider)


@pytest.mark.parametrize("legacy", [False, True])
@pytest.mark.parametrize("k", [1, 2, 7])
def test_fan_out_counts_k_minus_1_port_waits(k, legacy):
    """A k-message burst from one sender queues all but the first."""
    env, topology, fabric = _make_fabric(12, legacy)
    provider = topology.provider
    for index in range(k):
        server = topology.servers[index % len(topology.servers)]
        fabric.send(Message(MessageKind.PUSH_UPDATE, provider, server, 4.0))
    env.run()
    assert fabric.counters.messages_delivered == k
    assert fabric.counters.port_waits == k - 1


def test_contended_port_stays_fifo():
    """Queued fast transfers drain in FIFO order at full port rate."""
    env, topology, fabric = _make_fabric(8, legacy=False)
    provider = topology.provider
    size_kb = provider.uplink_kbps  # 1 s of pure transmission each
    order = []

    def receiver(env, index, server):
        message = yield server.inbox.get()
        order.append((index, message.version))

    for index, server in enumerate(topology.servers):
        fabric.send(
            Message(MessageKind.PUSH_UPDATE, provider, server, size_kb, version=index)
        )
        env.process(receiver(env, index, server))
    env.run()
    assert [version for _, version in sorted(order)] == [0, 1, 2, 3]
    # Transmissions serialised: total sender-side time covers 4 back-to-
    # back transmissions (plus queue wait), so >= 1+2+3+4 seconds.
    assert fabric.counters.queueing_s >= 10.0
    assert fabric.counters.port_waits == 3
    assert _port_is_idle(provider)


def _two_sender_burst(legacy, seed=10):
    """Two senders fan out interleaved sends; returns per-sender send
    order, counters and the message trace."""
    env, topology, fabric = _make_fabric(seed, legacy)
    provider, relay = topology.provider, topology.servers[0]
    size_kb = provider.uplink_kbps / 4.0  # 0.25 s of transmission each
    for version in range(3):
        for server in topology.servers[1:]:
            fabric.send(
                Message(MessageKind.PUSH_UPDATE, provider, server, size_kb, version=version)
            )
            fabric.send(
                Message(MessageKind.PUSH_UPDATE, relay, server, size_kb, version=version)
            )
    env.run()
    trace = env.tracer.events(kinds=_MESSAGE_KINDS)
    sends = {}
    for event in trace:
        if event.kind == "msg_send":
            sends.setdefault(event.node, []).append(
                (event.detail["dst"], event.detail["version"])
            )
    assert _port_is_idle(provider) and _port_is_idle(relay)
    return sends, fabric.counters.to_dict(), trace


def test_interleaved_senders_each_drain_fifo():
    """Each sender's port drains in its own send order, unaffected by the
    other sender's queue, and both transports agree exactly."""
    message_mod._SEQ = 0
    fast = _two_sender_burst(legacy=False)
    message_mod._SEQ = 0
    legacy = _two_sender_burst(legacy=True)
    assert fast == legacy
    sends, counters, _ = fast
    expected = [
        (server, version)
        for version in range(3)
        for server in ("server-1", "server-2", "server-3")
    ]
    assert sends["provider"] == expected
    assert sends["server-0"] == expected
    # Everything but each sender's first message queued.
    assert counters["port_waits"] == 2 * (len(expected) - 1)


def _sender_fails_while_queued(legacy, seed=11):
    """The sender goes down while its port queue is full, then revives
    while the queue is still draining."""
    env, topology, fabric = _make_fabric(seed, legacy)
    provider = topology.provider
    size_kb = provider.uplink_kbps  # 1 s each: round 0 holds the port ~4 s
    results = []
    schedule_absence(env, provider, start=0.5, duration=2.0)

    def driver(env):
        for round_no in range(4):
            for server in topology.servers:
                done = fabric.send(
                    Message(MessageKind.PUSH_UPDATE, provider, server, size_kb,
                            version=round_no)
                )
                done.callbacks.append(lambda ev: results.append((env.now, ev.value)))
            yield env.timeout(1.0)

    env.process(driver(env))
    env.run()
    assert _port_is_idle(provider)
    trace = env.tracer.events(kinds=_MESSAGE_KINDS)
    return results, fabric.counters.to_dict(), fabric.dropped, trace


def test_sender_down_with_queued_transfers_equivalence():
    """Transfers already queued when the sender goes down still drain
    (the sender is checked once, at send time) on both transports."""
    message_mod._SEQ = 0
    fast = _sender_fails_while_queued(legacy=False)
    message_mod._SEQ = 0
    legacy = _sender_fails_while_queued(legacy=True)
    assert fast == legacy
    results, counters, dropped, _ = fast
    # Rounds 1 and 2 hit the down sender; rounds 0 and 3 are delivered,
    # round 3 queueing behind round 0's still-draining transfers.
    assert counters["dropped_sender_down"] == dropped == 8
    assert counters["messages_delivered"] == 8
    assert counters["port_waits"] == 3 + 4
    assert sorted(value for _, value in results) == [False] * 8 + [True] * 8
