"""Determinism and priority-ordering tests for the engine and fabric."""


from repro.cdn import LiveContent, ProviderActor, ServerActor
from repro.consistency import SelfAdaptivePolicy, UnicastInfrastructure
from repro.network import MessageKind, NetworkFabric, TopologyBuilder
from repro.sim import Environment, StreamRegistry, kickoff
from repro.sim.engine import NORMAL, URGENT


class TestSchedulingPriority:
    def test_urgent_runs_before_normal_at_same_time(self):
        env = Environment()
        order = []

        normal = env.event()
        urgent = env.event()
        normal.callbacks.append(lambda e: order.append("normal"))
        urgent.callbacks.append(lambda e: order.append("urgent"))
        normal._value = urgent._value = None
        env.schedule(normal, priority=NORMAL, delay=5.0)
        env.schedule(urgent, priority=URGENT, delay=5.0)
        env.run()
        assert order == ["urgent", "normal"]

    def test_new_process_starts_before_same_time_timeouts(self):
        env = Environment()
        order = []

        def early(env):
            order.append("process-body")
            yield env.timeout(1)

        def scheduler(env):
            yield env.timeout(5)
            env.timeout(0).callbacks.append(lambda e: order.append("timeout"))
            env.process(early(env))

        env.process(scheduler(env))
        env.run()
        # the new process's start event is URGENT: body runs first
        assert order == ["process-body", "timeout"]

    def test_kickoff_takes_a_process_starts_place(self):
        # A callback loop started with kickoff() runs where a process
        # started at the same point would: URGENT, in registration order.
        env = Environment()
        order = []

        def body(name):
            order.append(name)
            yield env.timeout(1)

        def scheduler(env):
            yield env.timeout(5)
            env.timeout(0).callbacks.append(lambda e: order.append("timeout"))
            env.process(body("process-1"))
            kickoff(env, lambda e: order.append("kickoff"))
            env.process(body("process-2"))

        env.process(scheduler(env))
        env.run()
        assert order == ["process-1", "kickoff", "process-2", "timeout"]

    def test_run_until_time_excludes_events_at_that_instant(self):
        env = Environment()
        fired = []

        def proc(env):
            yield env.timeout(10)
            fired.append(env.now)

        env.process(proc(env))
        env.run(until=10)
        # the stop event is URGENT at t=10, so the timeout has not fired
        assert fired == []
        env.run()
        assert fired == [10]


class TestFabricDeterminism:
    def run_world(self, seed):
        env = Environment()
        streams = StreamRegistry(seed)
        topology = TopologyBuilder(env, streams).build(n_servers=6, users_per_server=0)
        fabric = NetworkFabric(env, streams=streams)
        content = LiveContent("c", update_times=[25.0, 60.0, 300.0])
        provider = ProviderActor(env, topology.provider, fabric, content)
        servers = [
            ServerActor(
                env, node, fabric, content,
                policy=SelfAdaptivePolicy(20.0, stream=streams.stream("phase")),
            )
            for node in topology.servers
        ]
        UnicastInfrastructure().wire(provider, servers)
        provider.use_self_adaptive()
        for server in servers:
            server.start()
        env.run(until=500.0)
        return (
            fabric.ledger.snapshot(),
            [tuple(server.apply_log()) for server in servers],
        )

    def test_identical_given_seed(self):
        assert self.run_world(77) == self.run_world(77)

    def test_different_across_seeds(self):
        assert self.run_world(77) != self.run_world(78)


class TestReannounce:
    def test_reannounce_only_in_invalidation_mode(self):
        env = Environment()
        streams = StreamRegistry(5)
        topology = TopologyBuilder(env, streams).build(n_servers=1, users_per_server=0)
        fabric = NetworkFabric(env, streams=streams)
        content = LiveContent("c", update_times=[30.0])
        provider = ProviderActor(env, topology.provider, fabric, content)
        policy = SelfAdaptivePolicy(15.0)
        server = ServerActor(
            env, topology.servers[0], fabric, content,
            policy=policy, upstream=topology.provider,
        )
        # TTL mode: reannounce is a no-op
        policy.reannounce()
        env.run(until=5.0)
        assert fabric.ledger.kind_totals(MessageKind.SWITCH_NOTICE).count == 0
        # Force invalidation mode and reannounce
        policy.mode = "invalidation"
        policy.reannounce()
        env.run(until=10.0)
        assert fabric.ledger.kind_totals(MessageKind.SWITCH_NOTICE).count == 1
        assert server.node in provider.adaptive_members
