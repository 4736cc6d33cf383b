"""The transport's pinned outputs and its output-port micro-scenarios.

The callback transport (``repro.network.link._FastTransfer``) must
reproduce every golden pin (``tests/test_golden.py``) for every update
method on every infrastructure: delivery times, RNG draw order, ledger
totals, fabric counters, DeploymentMetrics and the kernel-event count.
The micro-scenarios below pin the sender's output port -- FIFO order,
handoff cost, drops while queued -- with explicit counts.
"""

import pytest

import repro.network.message as message_mod
from repro.cdn.server import schedule_absence
from repro.experiments.testbed import INFRASTRUCTURES, METHODS
from repro.network import Message, MessageKind, NetworkFabric, TopologyBuilder
from repro.obs.tracer import RecordingTracer
from repro.sim import Environment, StreamRegistry
from tests.test_golden import assert_golden, grid_label

_MESSAGE_KINDS = ("msg_send", "msg_recv", "msg_drop")


@pytest.mark.parametrize("infrastructure", INFRASTRUCTURES)
@pytest.mark.parametrize("method", METHODS)
def test_fast_path_bit_identical(method, infrastructure):
    """Every method on every infrastructure keeps its pins, at three seeds."""
    for seed in (0, 1, 2):
        assert_golden(grid_label(method, infrastructure, seed))


def _make_fabric(seed):
    env = Environment(tracer=RecordingTracer())
    streams = StreamRegistry(seed)
    topology = TopologyBuilder(env, streams).build(n_servers=4, users_per_server=0)
    fabric = NetworkFabric(env, streams=streams)
    return env, topology, fabric


def _storm_with_absences(seed=5):
    """Fan-out traffic while sender and receivers flap up/down."""
    env, topology, fabric = _make_fabric(seed)
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
    """Sender-down and receiver-down drops are counted, traced and
    reported to the sender's ``done`` event, and repeat exactly."""
    message_mod._SEQ = 0
    first = _storm_with_absences()
    message_mod._SEQ = 0
    assert _storm_with_absences() == first
    results, counters, dropped, trace = first
    # 10 rounds x 4 servers.  Round 4 finds the provider down (4 sender
    # drops); rounds 2, 3, 5, 6 and 7 reach server 0 while it is down
    # (5 receiver drops).
    assert len(results) == 40
    assert counters["dropped_sender_down"] == 4
    assert counters["dropped_receiver_down"] == 5
    assert dropped == 9
    assert counters["messages_sent"] == 36
    assert counters["messages_delivered"] == 31
    assert results.count(False) == 9
    assert sum(1 for event in trace if event.kind == "msg_drop") == 9


def _port_is_idle(node):
    return not node.port_busy and not node.port_waiters


def test_uncontended_port_skips_grant_events():
    """Distinct senders never queue: one event per transport stage."""
    env, topology, fabric = _make_fabric(7)
    for server in topology.servers:
        fabric.send(Message(MessageKind.POLL, server, topology.provider, 1.0))
    env.run()
    # 4 messages, uncontended: transmit hop + deliver hop + inbox
    # StorePut = 3 events each (the done event completes lazily because
    # nobody registered a callback on it, and the transfer starts
    # synchronously inside send()).
    assert fabric.counters.messages_delivered == 4
    assert fabric.counters.port_waits == 0
    assert env.events_processed == 12
    for server in topology.servers:
        assert _port_is_idle(server)
        # The deque is built on first contention only.
        assert server.port_waiters is None


def test_contended_port_hands_off_without_grant_events():
    """A queued transfer costs no more heap events than an idle-port one:
    the releasing transfer schedules the waiter's transmit hop itself."""
    env, topology, fabric = _make_fabric(9)
    provider = topology.provider
    for server in topology.servers:
        fabric.send(Message(MessageKind.PUSH_UPDATE, provider, server, 4.0))
    env.run()
    # 4 messages, 3 of them queued: transmit hop + deliver hop per
    # message, plus the inbox StorePut -- no grant events.
    assert fabric.counters.messages_delivered == 4
    assert fabric.counters.port_waits == 3
    assert env.events_processed == 12
    assert _port_is_idle(provider)


@pytest.mark.parametrize("watch_done", [False, True])
@pytest.mark.parametrize("k", [1, 2, 7])
def test_fan_out_counts_k_minus_1_port_waits(k, watch_done):
    """A k-message burst from one sender queues all but the first,
    whether or not the sender waits on the ``done`` events (watched
    ``done`` events complete through the heap, one more event each)."""
    env, topology, fabric = _make_fabric(12)
    provider = topology.provider
    outcomes = []
    for index in range(k):
        server = topology.servers[index % len(topology.servers)]
        done = fabric.send(Message(MessageKind.PUSH_UPDATE, provider, server, 4.0))
        if watch_done:
            done.callbacks.append(lambda ev: outcomes.append(ev.value))
    env.run()
    assert fabric.counters.messages_delivered == k
    assert fabric.counters.port_waits == k - 1
    assert outcomes == ([True] * k if watch_done else [])
    assert env.events_processed == (4 if watch_done else 3) * k
    assert _port_is_idle(provider)


def test_contended_port_stays_fifo():
    """Queued transfers drain in FIFO order at full port rate."""
    env, topology, fabric = _make_fabric(8)
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


def _two_sender_burst(seed=10):
    """Two senders fan out interleaved sends; returns per-sender send
    order, counters and the message trace."""
    env, topology, fabric = _make_fabric(seed)
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
    other sender's queue."""
    message_mod._SEQ = 0
    sends, counters, _ = _two_sender_burst()
    expected = [
        (server, version)
        for version in range(3)
        for server in ("server-1", "server-2", "server-3")
    ]
    assert sends["provider"] == expected
    assert sends["server-0"] == expected
    # Everything but each sender's first message queued.
    assert counters["port_waits"] == 2 * (len(expected) - 1)
    assert counters["messages_delivered"] == 2 * len(expected)


def _sender_fails_while_queued(seed=11):
    """The sender goes down while its port queue is full, then revives
    while the queue is still draining."""
    env, topology, fabric = _make_fabric(seed)
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
    return results, fabric.counters.to_dict(), fabric.dropped


def test_sender_down_with_queued_transfers_equivalence():
    """Transfers already queued when the sender goes down still drain
    (the sender is checked once, at send time)."""
    message_mod._SEQ = 0
    results, counters, dropped = _sender_fails_while_queued()
    # Rounds 1 and 2 hit the down sender; rounds 0 and 3 are delivered,
    # round 3 queueing behind round 0's still-draining transfers.
    assert counters["dropped_sender_down"] == dropped == 8
    assert counters["messages_delivered"] == 8
    assert counters["port_waits"] == 3 + 4
    assert sorted(value for _, value in results) == [False] * 8 + [True] * 8
    # Sender-down drops complete at their send instants (t=1 and t=2);
    # deliveries wait on the 1 s transmissions queued at the port.
    assert sorted(time for time, value in results if not value) == [1.0] * 4 + [2.0] * 4
    assert min(time for time, value in results if value) > 1.0
