"""The transport's pinned outputs and its output-port micro-scenarios.

The callback transport (``repro.network.link._FastTransfer``) must
reproduce every golden pin (``tests/test_golden.py``) for every update
method on every infrastructure: delivery times, RNG draw order, ledger
totals, fabric counters, DeploymentMetrics and the kernel-event count.
The micro-scenarios below pin the sender's output port -- FIFO order,
handoff cost, drops while queued -- with explicit counts, and an oracle
that shares no code with the transport recomputes every delivery
instant from the two fabric streams.
"""

import random

import pytest

import repro.network.message as message_mod
from repro.cdn.server import schedule_absence
from repro.experiments.testbed import INFRASTRUCTURES, METHODS
from repro.network import (
    ISP,
    FabricParams,
    GeoPoint,
    InterISPModel,
    Message,
    MessageKind,
    NetworkFabric,
    NetworkNode,
    TopologyBuilder,
)
from repro.obs.tracer import RecordingTracer
from repro.sim import Environment, StreamRegistry, derive_seed
from repro.sim.sanitize import ScheduleSanitizer
from tests.test_golden import assert_golden, grid_label

_MESSAGE_KINDS = ("msg_send", "msg_recv", "msg_drop")


@pytest.mark.parametrize("infrastructure", INFRASTRUCTURES)
@pytest.mark.parametrize("method", METHODS)
def test_fast_path_bit_identical(method, infrastructure):
    """Every method on every infrastructure keeps its pins, at three seeds."""
    for seed in (0, 1, 2):
        assert_golden(grid_label(method, infrastructure, seed))


def _make_fabric(seed):
    """A traced fabric over 4 servers; every node records what it
    receives as ``(time, node_id, version)`` in the returned list."""
    env = Environment(tracer=RecordingTracer())
    streams = StreamRegistry(seed)
    topology = TopologyBuilder(env, streams).build(n_servers=4, users_per_server=0)
    fabric = NetworkFabric(env, streams=streams)
    received = []
    for node in [topology.provider] + topology.servers:
        node.consumer = lambda message, node=node: received.append(
            (env.now, node.node_id, message.version)
        )
    return env, topology, fabric, received


def _drops(trace):
    """``(time, node, reason)`` of every ``msg_drop`` in *trace*."""
    return [
        (event.time, event.node, event.detail["reason"])
        for event in trace
        if event.kind == "msg_drop"
    ]


def _storm_with_absences(seed=5):
    """Fan-out traffic while sender and receivers flap up/down."""
    env, topology, fabric, received = _make_fabric(seed)
    provider = topology.provider

    # Receiver 0 is down for the whole middle of the run; the provider
    # itself drops out briefly, exercising the sender_down path.
    schedule_absence(env, topology.servers[0], start=2.0, duration=6.0)
    schedule_absence(env, provider, start=4.0, duration=1.0)

    def driver(env):
        for round_no in range(10):
            for server in topology.servers:
                fabric.send(
                    Message(MessageKind.PUSH_UPDATE, provider, server, 4.0,
                            version=round_no)
                )
            yield env.timeout(1.0)

    env.process(driver(env))
    env.run()
    trace = env.tracer.events(kinds=_MESSAGE_KINDS)
    return received, fabric.counters.to_dict(), fabric.dropped, trace


def test_failure_injection_equivalence():
    """Sender-down and receiver-down drops are counted and traced, the
    consumers see only the delivered messages, and all of it repeats
    exactly."""
    message_mod._SEQ = 0
    first = _storm_with_absences()
    message_mod._SEQ = 0
    assert _storm_with_absences() == first
    received, counters, dropped, trace = first
    # 10 rounds x 4 servers.  Round 4 finds the provider down (4 sender
    # drops); rounds 2, 3, 5, 6 and 7 reach server 0 while it is down
    # (5 receiver drops).
    drops = _drops(trace)
    assert len(received) + len(drops) == 40
    assert counters["dropped_sender_down"] == 4
    assert counters["dropped_receiver_down"] == 5
    assert dropped == 9
    assert counters["messages_sent"] == 36
    assert counters["messages_delivered"] == len(received) == 31
    assert sorted((node, reason) for _, node, reason in drops) == (
        [("provider", "sender_down")] * 4 + [("server-0", "receiver_down")] * 5
    )
    assert sorted(
        version for _, node, version in received if node == "server-0"
    ) == [0, 1, 8, 9]


def _port_is_idle(node):
    return not node.port_busy and not node.port_waiters


def test_uncontended_port_skips_grant_events():
    """Distinct senders never queue: one event per transport stage."""
    env, topology, fabric, received = _make_fabric(7)
    for server in topology.servers:
        fabric.send(Message(MessageKind.POLL, server, topology.provider, 1.0))
    env.run()
    # 4 messages, uncontended: transmit hop + deliver hop = 2 events
    # each (the transfer starts synchronously inside send(), and the
    # consumer runs inside the deliver hop).
    assert len(received) == fabric.counters.messages_delivered == 4
    assert fabric.counters.port_waits == 0
    assert env.events_processed == 8
    for server in topology.servers:
        assert _port_is_idle(server)
        # The deque is built on first contention only.
        assert server.port_waiters is None


def test_contended_port_hands_off_without_grant_events():
    """A queued transfer costs no more heap events than an idle-port one:
    the releasing transfer schedules the waiter's transmit hop itself."""
    env, topology, fabric, received = _make_fabric(9)
    provider = topology.provider
    for server in topology.servers:
        fabric.send(Message(MessageKind.PUSH_UPDATE, provider, server, 4.0))
    env.run()
    # 4 messages, 3 of them queued: transmit hop + deliver hop per
    # message -- no grant events.
    assert len(received) == fabric.counters.messages_delivered == 4
    assert fabric.counters.port_waits == 3
    assert env.events_processed == 8
    assert _port_is_idle(provider)


@pytest.mark.parametrize("k", [1, 2, 7, 200])
def test_fan_out_counts_k_minus_1_port_waits(k):
    """A k-message burst from one sender queues all but the first, at
    two heap events per message; only messages on the wire hold a
    transfer, so the pool stays far below k."""
    env, topology, fabric, received = _make_fabric(12)
    provider = topology.provider
    for index in range(k):
        server = topology.servers[index % len(topology.servers)]
        fabric.send(Message(MessageKind.PUSH_UPDATE, provider, server, 4.0))
    env.run()
    assert len(received) == fabric.counters.messages_delivered == k
    assert fabric.counters.port_waits == k - 1
    assert env.events_processed == 2 * k
    assert _port_is_idle(provider)
    # Every transfer is back in the pool, so its size is the most
    # messages ever transmitting or propagating at once.
    assert len(fabric._transfer_pool) < 50


def test_contended_port_stays_fifo():
    """Queued transfers drain in FIFO order at full port rate."""
    env, topology, fabric, received = _make_fabric(8)
    provider = topology.provider
    size_kb = provider.uplink_kbps  # 1 s of pure transmission each
    for index, server in enumerate(topology.servers):
        fabric.send(
            Message(MessageKind.PUSH_UPDATE, provider, server, size_kb, version=index)
        )
    env.run()
    sends = [
        event.detail["version"]
        for event in env.tracer.events(kinds=("msg_send",))
    ]
    assert sends == [0, 1, 2, 3]
    assert sorted((node, version) for _, node, version in received) == [
        ("server-%d" % index, index) for index in range(4)
    ]
    # Transmissions serialised: total sender-side time covers 4 back-to-
    # back transmissions (plus queue wait), so >= 1+2+3+4 seconds.
    assert fabric.counters.queueing_s >= 10.0
    assert fabric.counters.port_waits == 3
    assert _port_is_idle(provider)


def _two_sender_burst(seed=10):
    """Two senders fan out interleaved sends; returns per-sender send
    order, counters and the message trace."""
    env, topology, fabric, _ = _make_fabric(seed)
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
    env, topology, fabric, received = _make_fabric(seed)
    provider = topology.provider
    size_kb = provider.uplink_kbps  # 1 s each: round 0 holds the port ~4 s
    schedule_absence(env, provider, start=0.5, duration=2.0)

    def driver(env):
        for round_no in range(4):
            for server in topology.servers:
                fabric.send(
                    Message(MessageKind.PUSH_UPDATE, provider, server, size_kb,
                            version=round_no)
                )
            yield env.timeout(1.0)

    env.process(driver(env))
    env.run()
    assert _port_is_idle(provider)
    drops = _drops(env.tracer.events(kinds=_MESSAGE_KINDS))
    return received, drops, fabric.counters.to_dict(), fabric.dropped


def test_sender_down_with_queued_transfers_equivalence():
    """Transfers already queued when the sender goes down still drain
    (the sender is checked once, at send time)."""
    message_mod._SEQ = 0
    received, drops, counters, dropped = _sender_fails_while_queued()
    # Rounds 1 and 2 hit the down sender; rounds 0 and 3 are delivered,
    # round 3 queueing behind round 0's still-draining transfers.
    assert counters["dropped_sender_down"] == dropped == len(drops) == 8
    assert counters["messages_delivered"] == len(received) == 8
    assert counters["port_waits"] == 3 + 4
    assert sorted(version for _, _, version in received) == [0] * 4 + [3] * 4
    # Sender-down drops happen at their send instants (t=1 and t=2);
    # deliveries wait on the 1 s transmissions queued at the port.
    assert sorted(time for time, _, _ in drops) == [1.0] * 4 + [2.0] * 4
    assert {reason for _, _, reason in drops} == {"sender_down"}
    assert min(time for time, _, _ in received) > 1.0


class _CountingSanitizer(ScheduleSanitizer):
    """Counts the heap pushes that consult the sanitizer."""

    __slots__ = ("tie_keys",)

    def __init__(self, tie_seed):
        super().__init__(tie_seed=tie_seed)
        self.tie_keys = 0

    def tie_key(self, time, priority, seq):
        self.tie_keys += 1
        return super().tie_key(time, priority, seq)


#: Jitter wide enough to clamp some propagation delays to zero, and an
#: inter-ISP base small enough to clamp some penalties to zero.
_CLAMPING = FabricParams(
    latency_jitter_frac=1.5, inter_isp=InterISPModel(base_s=0.01, jitter_s=0.03)
)


def _two_isp_burst(seed, params, sanitizer=None):
    """Six nodes on two ISPs; three senders fan out to all the others
    before the run, so ports queue and paths are intra- and inter-ISP."""
    env = Environment(tracer=RecordingTracer(), sanitizer=sanitizer)
    isp_a, isp_b = ISP(0, "isp-a", "na"), ISP(1, "isp-b", "eu")
    places = [
        ("atlanta", 33.75, -84.39, isp_a),
        ("chicago", 41.88, -87.63, isp_a),
        ("denver", 39.74, -104.99, isp_b),
        ("london", 51.51, -0.13, isp_b),
        ("paris", 48.86, 2.35, isp_a),
        ("berlin", 52.52, 13.40, isp_b),
    ]
    nodes = {
        name: NetworkNode(env, name, GeoPoint(lat, lon), isp)
        for name, lat, lon, isp in places
    }
    for node in nodes.values():
        node.consumer = lambda message: None
    fabric = NetworkFabric(env, params=params, streams=StreamRegistry(seed))
    order = list(nodes.values())
    for round_no, size_kb in enumerate((4.0, 1.0, 40.0)):
        for sender in order[:3]:
            for receiver in order:
                if receiver is not sender:
                    fabric.send(
                        Message(MessageKind.PUSH_UPDATE, sender, receiver, size_kb,
                                version=round_no)
                    )
    env.run()
    return env, nodes, fabric


def _oracle(seed, nodes, fabric, trace):
    """``seq -> (send time, propagation, crosses ISPs, penalty)`` per
    message, recomputed with stdlib generators seeded like the fabric's
    two streams and drawn in ``msg_send`` order."""
    frac = fabric.params.latency_jitter_frac
    inter = fabric.params.inter_isp
    jitter_rng = random.Random(derive_seed(seed, "fabric.jitter"))
    isp_rng = random.Random(derive_seed(seed, "fabric.isp"))
    expected = {}
    for event in trace:
        if event.kind != "msg_send":
            continue
        src, dst = nodes[event.detail["src"]], nodes[event.detail["dst"]]
        base = fabric.min_latency_s(src, dst)
        jitter = base * (1.0 + jitter_rng.uniform(-frac, frac)) - base
        propagation = max(0.0, base + jitter)
        crosses = src.isp.isp_id != dst.isp.isp_id
        penalty = 0.0
        if crosses:
            penalty = max(
                0.0, inter.base_s + isp_rng.uniform(-inter.jitter_s, inter.jitter_s)
            )
        expected[event.detail["seq"]] = (event.time, propagation, crosses, penalty)
    return expected


@pytest.mark.parametrize("tie_seed", [None, 4])
@pytest.mark.parametrize(
    "params", [FabricParams(), _CLAMPING], ids=["default", "clamping"]
)
@pytest.mark.parametrize("seed", [0, 1])
def test_delivery_instants_match_stdlib_oracle(seed, params, tie_seed):
    """Jitter, the inter-ISP penalty, their clamps and their draw order
    equal an oracle built on ``random.Random.uniform`` and ``max``, bit
    for bit.  Under tie perturbation every transport push consults the
    sanitizer: two per message."""
    sanitizer = _CountingSanitizer(tie_seed) if tie_seed is not None else None
    env, nodes, fabric = _two_isp_burst(seed, params, sanitizer)
    trace = env.tracer.events(kinds=_MESSAGE_KINDS)
    expected = _oracle(seed, nodes, fabric, trace)
    counters = fabric.counters
    recvs = [event for event in trace if event.kind == "msg_recv"]
    assert len(recvs) == len(expected) == counters.messages_sent == 45
    for event in recvs:
        sent, propagation, crosses, penalty = expected[event.detail["seq"]]
        assert event.time == sent + (propagation + penalty)
        if not crosses:
            # No penalty term at all on an intra-ISP path.
            assert event.time == sent + propagation
    records = list(expected.values())
    assert {crosses for _, _, crosses, _ in records} == {False, True}
    assert counters.propagation_s == sum(record[1] for record in records)
    assert counters.isp_penalty_s == sum(record[3] for record in records)
    assert counters.isp_crossing_messages == sum(
        1 for record in records if record[3] > 0.0
    )
    if params is _CLAMPING:
        # Both clamps fire, so the oracle's ``max`` is exercised.
        assert any(record[1] == 0.0 for record in records)
        assert any(record[2] and record[3] == 0.0 for record in records)
    if sanitizer is not None:
        assert sanitizer.tie_keys == 2 * counters.messages_sent
        assert sanitizer.tie_collisions > 0
