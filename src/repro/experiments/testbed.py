"""Build and run one simulated-CDN deployment (the Section 4/5 testbed).

A *deployment* is a fully wired simulation: topology + fabric + content +
provider + servers (with an update-method policy) + end users, run to a
horizon and summarised into :class:`DeploymentMetrics`.

Two entry points:

- :func:`build_deployment` -- one update method on one infrastructure
  (the Section 4 grid: {push, invalidation, ttl, self-adaptive,
  adaptive-ttl} x {unicast, multicast, broadcast});
- :func:`build_system` -- the Section 5 named systems, adding ``self``
  (self-adaptive on unicast), ``hybrid`` (HAT infrastructure with plain
  TTL members) and ``hat`` (the full proposal).
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Dict, List, Optional

import numpy as np

from ..cdn.cohort import UserCohort
from ..cdn.content import LiveContent
from ..cdn.provider import ProviderActor
from ..cdn.server import ServerActor
from ..consistency.registry import (
    infrastructure_names,
    method_names,
    resolve_infrastructure,
    resolve_method,
)
from ..core.hat import HatConfig, HatSystem
from ..metrics.incremental import ServerLagTracker, aggregate_user_rollup
from ..metrics.traffic import TrafficLedger
from ..network.link import NetworkFabric
from ..network.message import reset_seq
from ..network.node import NetworkNode
from ..network.topology import Topology, TopologyBuilder
from ..obs.counters import staleness_histogram
from ..obs.telemetry import TELEMETRY, span
from ..obs.tracer import Tracer
from ..sim.engine import Environment
from ..sim.rng import StreamRegistry
from ..sim.sanitize import ScheduleSanitizer
from ..trace.workload import LiveGameWorkload
from .config import TestbedConfig

__all__ = [
    "METHODS",
    "INFRASTRUCTURES",
    "SYSTEMS",
    "Deployment",
    "DeploymentMetrics",
    "build_deployment",
    "build_system",
]

#: Canonical name lists, derived from the consistency registry (the CLI
#: and the sweep runner resolve through the same table).
METHODS = method_names()
INFRASTRUCTURES = infrastructure_names()
#: Section 5 systems (Figs. 22-24).
SYSTEMS = ("push", "invalidation", "ttl", "self", "hybrid", "hat")


@dataclass
class DeploymentMetrics:
    """Everything the figure drivers read off one finished run."""

    name: str
    server_lags: Dict[str, float]
    user_lags: Dict[str, float]
    user_stale_fractions: Dict[str, float]
    cost_km_kb: float
    update_messages: int
    light_messages: int
    #: Fig. 22 metric: bodies + poll responses ("update messages" in the
    #: paper's Section 5 accounting).
    response_messages: int
    provider_response_messages: int
    update_load_km: float
    light_load_km: float
    #: Fig. 23 loads under the response-inclusive split.
    response_load_km: float
    request_load_km: float
    provider_update_messages: int
    provider_messages: int
    #: Events the simulation kernel processed to produce this run
    #: (exposed so sweep drivers can report throughput).
    events_processed: int = 0
    # ---- observability layer (repro.obs): per-layer fabric counters ----
    #: Messages per ledger category (``update`` / ``light``), as counted
    #: on the wire; reconciles 1:1 with traced ``msg_send`` events.
    message_counts: Dict[str, int] = field(default_factory=dict)
    #: Messages dropped because the sender or receiver was down.
    dropped_messages: int = 0
    #: Traffic that crossed an ISP boundary (Section 3.4.3).
    isp_crossing_messages: int = 0
    isp_crossing_kb: float = 0.0
    #: Summed one-way delay components over all propagated messages.
    isp_penalty_s: float = 0.0
    propagation_s: float = 0.0
    #: Summed sender-side time (port queueing + overhead + transmission).
    queueing_s: float = 0.0
    #: KB per directed link, keyed ``"src->dst"``.
    link_bytes_kb: Dict[str, float] = field(default_factory=dict)
    #: Summed downtime over every node (failure injection), seconds.
    node_downtime_s: float = 0.0
    #: Up -> down transitions across all nodes.
    down_transitions: int = 0
    #: Per-server staleness histogram (see
    #: :func:`repro.obs.counters.staleness_histogram`).
    staleness_hist_edges: List[float] = field(default_factory=list)
    staleness_hist_counts: List[int] = field(default_factory=list)

    def to_dict(self) -> Dict:
        """A JSON-safe dict (used by the run registry); exact inverse of
        :meth:`from_dict` -- floats round-trip bit-identically."""
        return {
            "name": self.name,
            "server_lags": dict(self.server_lags),
            "user_lags": dict(self.user_lags),
            "user_stale_fractions": dict(self.user_stale_fractions),
            "cost_km_kb": self.cost_km_kb,
            "update_messages": self.update_messages,
            "light_messages": self.light_messages,
            "response_messages": self.response_messages,
            "provider_response_messages": self.provider_response_messages,
            "update_load_km": self.update_load_km,
            "light_load_km": self.light_load_km,
            "response_load_km": self.response_load_km,
            "request_load_km": self.request_load_km,
            "provider_update_messages": self.provider_update_messages,
            "provider_messages": self.provider_messages,
            "events_processed": self.events_processed,
            "message_counts": dict(self.message_counts),
            "dropped_messages": self.dropped_messages,
            "isp_crossing_messages": self.isp_crossing_messages,
            "isp_crossing_kb": self.isp_crossing_kb,
            "isp_penalty_s": self.isp_penalty_s,
            "propagation_s": self.propagation_s,
            "queueing_s": self.queueing_s,
            "link_bytes_kb": dict(self.link_bytes_kb),
            "node_downtime_s": self.node_downtime_s,
            "down_transitions": self.down_transitions,
            "staleness_hist_edges": list(self.staleness_hist_edges),
            "staleness_hist_counts": list(self.staleness_hist_counts),
        }

    @classmethod
    def from_dict(cls, data: Dict) -> "DeploymentMetrics":
        return cls(**data)

    @property
    def mean_server_lag(self) -> float:
        return float(np.mean(list(self.server_lags.values())))

    @property
    def mean_user_lag(self) -> float:
        return float(np.mean(list(self.user_lags.values())))

    @property
    def mean_stale_fraction(self) -> float:
        return float(np.mean(list(self.user_stale_fractions.values())))

    def server_lag_percentiles(self, qs=(5.0, 50.0, 95.0)) -> List[float]:
        values = np.asarray(list(self.server_lags.values()))
        return [float(np.percentile(values, q)) for q in qs]


class Deployment:
    """A wired, startable simulation instance."""

    def __init__(
        self,
        name: str,
        config: TestbedConfig,
        env: Environment,
        streams: StreamRegistry,
        fabric: NetworkFabric,
        content: LiveContent,
        provider: ProviderActor,
        servers: List[ServerActor],
        cohort: UserCohort,
    ) -> None:
        self.name = name
        self.config = config
        self.env = env
        self.streams = streams
        self.fabric = fabric
        self.content = content
        self.provider = provider
        self.servers = servers
        #: The user plane; it keeps its own staleness accumulators.
        self.cohort = cohort
        self._ran = False
        #: Running server lag sums updated at version-change events, so
        #: the collection pass is a cheap read instead of a full log
        #: re-scan.
        self._server_trackers: Dict[str, ServerLagTracker] = {}
        for server in servers:
            tracker = ServerLagTracker(content)
            self._server_trackers[server.node.node_id] = tracker
            server.on_apply_hooks.append(self._apply_hook(tracker))

    def _apply_hook(self, tracker: ServerLagTracker):
        env = self.env

        def hook(version: int) -> None:
            tracker.on_apply(env.now, version)

        return hook

    def run(self, horizon_s: Optional[float] = None) -> DeploymentMetrics:
        """Start all actors, run to the horizon, and summarise."""
        if self._ran:
            raise RuntimeError("deployment %r already ran" % self.name)
        self._ran = True
        horizon = horizon_s if horizon_s is not None else self.config.run_horizon_s
        for server in self.servers:
            server.start()
        self.cohort.start()
        self.env.run(until=horizon)
        with span("deployment.collect"):
            return self._collect(horizon)

    def _all_nodes(self):
        yield self.provider.node
        for server in self.servers:
            yield server.node
        yield from self.cohort.nodes

    def _collect(self, horizon: float) -> DeploymentMetrics:
        ledger = self.fabric.ledger
        counters = self.fabric.counters
        # Bridge the always-on fabric counters into harness telemetry as
        # per-run totals (never per message: the hot path stays clean).
        TELEMETRY.count("fabric.messages_sent", counters.messages_sent)
        TELEMETRY.count("fabric.messages_delivered", counters.messages_delivered)
        TELEMETRY.count("fabric.dropped_messages", counters.dropped_messages)
        TELEMETRY.count("fabric.bytes_kb", counters.bytes_kb)
        TELEMETRY.count(
            "fabric.isp_crossing_messages", counters.isp_crossing_messages
        )
        server_lags = {
            server_id: tracker.mean_lag(horizon)
            for server_id, tracker in self._server_trackers.items()
        }
        cohort = self.cohort
        if cohort.aggregate is not None:
            user_lags, stale = aggregate_user_rollup(
                cohort.aggregate, [node.node_id for node in cohort.nodes], horizon
            )
        else:
            user_lags = {}
            stale = {}
            for node, user_tracker in zip(cohort.nodes, cohort.trackers):
                user_lags[node.node_id] = user_tracker.mean_lag(horizon)
                stale[node.node_id] = user_tracker.stale_fraction()
        hist_edges, hist_counts = staleness_histogram(list(server_lags.values()))
        return DeploymentMetrics(
            name=self.name,
            server_lags=server_lags,
            user_lags=user_lags,
            user_stale_fractions=stale,
            cost_km_kb=ledger.consistency_cost_km_kb(),
            update_messages=ledger.update_message_count(),
            light_messages=ledger.light_message_count(),
            response_messages=ledger.response_message_count(),
            provider_response_messages=ledger.responses_sent_by("provider"),
            update_load_km=ledger.update_load_km(),
            light_load_km=ledger.light_load_km(),
            response_load_km=ledger.response_load_km(),
            request_load_km=ledger.request_load_km(),
            provider_update_messages=ledger.updates_sent_by("provider"),
            provider_messages=ledger.messages_sent_by("provider"),
            events_processed=self.env.events_processed,
            message_counts={
                "update": ledger.update_message_count(),
                "light": ledger.light_message_count(),
            },
            dropped_messages=counters.dropped_messages,
            isp_crossing_messages=counters.isp_crossing_messages,
            isp_crossing_kb=counters.isp_crossing_kb,
            isp_penalty_s=counters.isp_penalty_s,
            propagation_s=counters.propagation_s,
            queueing_s=counters.queueing_s,
            link_bytes_kb=dict(counters.link_bytes_kb),
            node_downtime_s=sum(
                node.downtime_s(horizon) for node in self._all_nodes()
            ),
            down_transitions=sum(
                node.down_transitions for node in self._all_nodes()
            ),
            staleness_hist_edges=hist_edges,
            staleness_hist_counts=hist_counts,
        )


# ----------------------------------------------------------------------
# shared construction pieces
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class _NodeSpec:
    """Environment-free snapshot of one placed node."""

    node_id: str
    point: object
    isp: object
    uplink_kbps: float
    city_name: Optional[str]


@dataclass
class _Placement:
    """A memoized topology placement plus its shared path geometry.

    Placement draws come exclusively from the dedicated
    ``topology.place`` / ``topology.isp`` streams, so sweep points that
    share ``(seed, n_servers, users_per_server, provider_city)`` place
    identical nodes; rebuilding nodes from the snapshot (instead of
    re-drawing) is bit-identical and skips the catalog sampling, ISP
    assignment, and -- via the shared ``path_cache`` -- the per-pair
    great-circle trigonometry of every later run.
    """

    provider: _NodeSpec
    servers: tuple
    users: tuple
    path_cache: Dict


#: Memoized placements, LRU-ordered (most recently used last), at most
#: ``_PLACEMENT_CACHE_MAX`` of them.  The capacity is read at each
#: insertion, so tests can retune it.
_PLACEMENT_CACHE: "OrderedDict[tuple, _Placement]" = OrderedDict()
_PLACEMENT_CACHE_MAX = 32


def _snapshot_node(node: NetworkNode) -> _NodeSpec:
    return _NodeSpec(
        node_id=node.node_id,
        point=node.point,
        isp=node.isp,
        uplink_kbps=node.uplink_kbps,
        city_name=node.city_name,
    )


def _spawn_node(env: Environment, spec: _NodeSpec) -> NetworkNode:
    return NetworkNode(
        env,
        node_id=spec.node_id,
        point=spec.point,  # type: ignore[arg-type]
        isp=spec.isp,  # type: ignore[arg-type]
        uplink_kbps=spec.uplink_kbps,
        city_name=spec.city_name,
    )


def _placed_topology(env: Environment, streams: StreamRegistry, config: TestbedConfig):
    """Build (or rebuild from cache) the topology for *config*.

    Returns ``(topology, path_cache)``.
    """
    # Population shards are part of the key: shards share (seed, shape)
    # but place different user subsets, so a shard-blind key would both
    # return the wrong users and make a round-robin over shards evict
    # pathologically.
    key = (
        config.seed,
        config.n_servers,
        config.users_per_server,
        config.provider_city,
        config.user_shards,
        config.user_shard,
    )
    placement = _PLACEMENT_CACHE.get(key)
    if placement is None:
        builder = TopologyBuilder(env, streams)
        topology = builder.build(
            n_servers=config.n_servers,
            users_per_server=config.users_per_server,
            provider_city=config.provider_city,
            user_shards=config.user_shards,
            user_shard=config.user_shard,
        )
        placement = _Placement(
            provider=_snapshot_node(topology.provider),
            servers=tuple(_snapshot_node(node) for node in topology.servers),
            users=tuple(
                tuple(_snapshot_node(node) for node in group)
                for group in topology.users
            ),
            path_cache={},
        )
        # Value-pure memoization: the placement is a pure function of the
        # full config key, so cache state can never change what a shard
        # computes -- only how fast (see RNG-stream note below).
        while len(_PLACEMENT_CACHE) >= _PLACEMENT_CACHE_MAX:
            _PLACEMENT_CACHE.popitem(last=False)  # repro: noqa REP010 -- value-pure memoization keyed by full config
        _PLACEMENT_CACHE[key] = placement  # repro: noqa REP010 -- value-pure memoization keyed by full config
        return topology, placement.path_cache
    # Cache hit: rebuild nodes without touching the placement streams.
    # Nothing else ever draws from topology.place / topology.isp, so
    # later stream consumers see identical RNG state either way.
    _PLACEMENT_CACHE.move_to_end(key)
    topology = Topology(
        provider=_spawn_node(env, placement.provider),
        servers=[_spawn_node(env, spec) for spec in placement.servers],
        users=[
            [_spawn_node(env, spec) for spec in group] for group in placement.users
        ],
    )
    return topology, placement.path_cache


def _resolve_scenario_cell(config: TestbedConfig, scenario, scenario_cell: int):
    """Resolve a scenario name (or instance) to its requested cell.

    ``scenario=None`` keeps the legacy hard-wired path (bit-identical to
    the ``paper-baseline`` scenario; the differential tests pin both).
    The scenarios package is imported lazily: it imports the runner,
    which imports this module.
    """
    if scenario is None:
        if scenario_cell != 0:
            raise ValueError(
                "scenario_cell=%d requires an explicit scenario" % scenario_cell
            )
        return None, None
    from ..scenarios.registry import resolve_scenario

    resolved = resolve_scenario(scenario)
    return resolved, resolved.cell(config, scenario_cell)


def _base(
    config: TestbedConfig,
    tracer: Optional[Tracer] = None,
    cell=None,
    sanitizer: Optional[ScheduleSanitizer] = None,
):
    """Build env/streams/topology/fabric/content, honouring the cell's
    config overrides (applied *before* the topology is sized) and its
    content factory.  Returns the effective config last."""
    if cell is not None and cell.config_overrides:
        config = config.with_overrides(**dict(cell.config_overrides))
    # Rebase the process-wide message counter so trace seq fields are a
    # function of this run alone (see repro.network.message.reset_seq).
    reset_seq()
    env = Environment(tracer=tracer, sanitizer=sanitizer)
    streams = StreamRegistry(config.seed)
    topology, path_cache = _placed_topology(env, streams, config)
    fabric = NetworkFabric(
        env, ledger=TrafficLedger(), streams=streams, path_cache=path_cache
    )
    if cell is not None:
        content = cell.content_factory(config, streams)
    else:
        content = _make_content(config, streams)
    return env, streams, topology, fabric, content, config


def _make_content(config: TestbedConfig, streams: StreamRegistry) -> LiveContent:
    """The legacy hard-wired content: the ``paper-baseline`` scenario's
    ``content_from_workload`` replicates this recipe exactly (same
    stream name, same parameters) -- change them together."""
    workload = LiveGameWorkload(
        n_updates=config.n_updates, duration_s=config.game_duration_s
    )
    times = workload.generate(streams.stream("testbed.updates"))
    return LiveContent(
        "live-game",
        update_times=[config.update_start_s + t for t in times],
        update_size_kb=config.update_size_kb,
        light_size_kb=config.light_size_kb,
    )


def _scenario_name_suffix(resolved, config: TestbedConfig, cell) -> str:
    """Deployment-name suffix for non-default scenarios (the baseline
    keeps its legacy name so memoized metrics stay comparable)."""
    if resolved is None:
        return ""
    from ..scenarios.registry import DEFAULT_SCENARIO

    if resolved.name == DEFAULT_SCENARIO:
        return ""
    suffix = "@%s" % resolved.name
    if resolved.n_cells(config) > 1:
        suffix += "/%s" % cell.label
    return suffix


def _install_perturbations(deployment: "Deployment", cell) -> None:
    """Install the cell's perturbations on the wired deployment.

    The perturbation stream is only requested when there is something to
    install, so perturbation-free scenarios consume exactly the streams
    the legacy path did.
    """
    if cell is None or not cell.perturbations:
        return
    from ..scenarios.base import PERTURBATION_STREAM

    stream = deployment.streams.stream(PERTURBATION_STREAM)
    for perturbation in cell.perturbations:
        perturbation.install(deployment, stream)


def _make_policy(method: str, config: TestbedConfig, streams: StreamRegistry):
    phase = streams.stream("testbed.poll.phase")
    return resolve_method(method).factory(config.server_ttl_s, phase)


def _wire_provider(provider: ProviderActor, method: str) -> None:
    hook = resolve_method(method).provider_hook
    if hook is not None:
        getattr(provider, hook)()
    # pull-only methods (ttl / adaptive-ttl): the provider just answers polls.


def _make_infrastructure(name: str, config: TestbedConfig, fabric: NetworkFabric):
    return resolve_infrastructure(name).factory(fabric, config.tree_arity)


def _make_users(
    config: TestbedConfig,
    env: Environment,
    streams: StreamRegistry,
    fabric: NetworkFabric,
    content: LiveContent,
    topology: Topology,
    server_of_node: Dict[str, ServerActor],
) -> UserCohort:
    """Build the user plane: one :class:`UserCohort` whose slots run in
    home-server-major order, each with a start offset drawn from the
    ``testbed.user.start`` stream."""
    start_stream = streams.stream("testbed.user.start")
    switch_stream = streams.stream("testbed.user.switch")
    nodes: List[NetworkNode] = []
    targets: List[NetworkNode] = []
    offsets: List[float] = []
    for index, server_node in enumerate(topology.servers):
        for user_node in topology.users[index]:
            nodes.append(user_node)
            targets.append(server_node)
            offsets.append(start_stream.uniform(0.0, config.user_start_window_s))
    if config.user_selector == "switch":
        return UserCohort(
            env, fabric, content, nodes,
            user_ttl_s=config.user_ttl_s,
            start_offsets=offsets,
            switch_servers=[server.node for server in server_of_node.values()],
            switch_stream=switch_stream,
            user_metrics=config.user_metrics,
        )
    return UserCohort(
        env, fabric, content, nodes,
        user_ttl_s=config.user_ttl_s,
        start_offsets=offsets,
        targets=targets,
        user_metrics=config.user_metrics,
    )


# ----------------------------------------------------------------------
# entry points
# ----------------------------------------------------------------------
def build_deployment(
    config: TestbedConfig,
    method: str,
    infrastructure: str = "unicast",
    tracer: Optional[Tracer] = None,
    scenario=None,
    scenario_cell: int = 0,
    sanitizer: Optional[ScheduleSanitizer] = None,
) -> Deployment:
    """One Section 4 cell: *method* running on *infrastructure*.

    Names resolve through :mod:`repro.consistency.registry`, so aliases
    ("self", "inval", "tree", ...) are accepted anywhere a canonical
    name is.  Pass a :class:`~repro.obs.tracer.RecordingTracer` as
    *tracer* to capture structured events (outcomes are unaffected).

    *scenario* (a :mod:`repro.scenarios` name, alias or instance)
    selects the workload/catalog/perturbation bundle; *scenario_cell*
    picks the catalog cell for multi-object scenarios.  ``None`` is the
    legacy hard-wired path, bit-identical to ``"paper-baseline"``.

    *sanitizer* installs a :class:`~repro.sim.sanitize.ScheduleSanitizer`
    on the deployment's environment (``repro sanitize`` runs).
    """
    with span("testbed.build"):
        return _build_deployment(
            config, method, infrastructure, tracer, scenario, scenario_cell,
            sanitizer,
        )


def _build_deployment(
    config: TestbedConfig,
    method: str,
    infrastructure: str,
    tracer: Optional[Tracer],
    scenario=None,
    scenario_cell: int = 0,
    sanitizer: Optional[ScheduleSanitizer] = None,
) -> Deployment:
    method = resolve_method(method).name
    infrastructure = resolve_infrastructure(infrastructure).name
    resolved, cell = _resolve_scenario_cell(config, scenario, scenario_cell)
    env, streams, topology, fabric, content, config = _base(
        config, tracer=tracer, cell=cell, sanitizer=sanitizer
    )
    provider = ProviderActor(env, topology.provider, fabric, content)
    servers = [
        ServerActor(
            env, node, fabric, content, policy=_make_policy(method, config, streams)
        )
        for node in topology.servers
    ]
    infra = _make_infrastructure(infrastructure, config, fabric)
    infra.wire(provider, servers)
    _wire_provider(provider, method)
    server_of_node = {server.node.node_id: server for server in servers}
    cohort = _make_users(
        config, env, streams, fabric, content, topology, server_of_node
    )
    deployment = Deployment(
        name="%s/%s%s"
        % (method, infrastructure, _scenario_name_suffix(resolved, config, cell)),
        config=config,
        env=env,
        streams=streams,
        fabric=fabric,
        content=content,
        provider=provider,
        servers=servers,
        cohort=cohort,
    )
    _install_perturbations(deployment, cell)
    return deployment


def build_system(
    config: TestbedConfig,
    system: str,
    tracer: Optional[Tracer] = None,
    scenario=None,
    scenario_cell: int = 0,
) -> Deployment:
    """One Section 5 system (Figs. 22-24); *scenario* as in
    :func:`build_deployment`."""
    if system in ("push", "invalidation", "ttl"):
        return build_deployment(
            config,
            system,
            "unicast",
            tracer=tracer,
            scenario=scenario,
            scenario_cell=scenario_cell,
        )
    if system == "self":
        deployment = build_deployment(
            config,
            "self-adaptive",
            "unicast",
            tracer=tracer,
            scenario=scenario,
            scenario_cell=scenario_cell,
        )
        # Rename but keep any scenario suffix ("@name" / "@name/cell").
        _, sep, suffix = deployment.name.partition("@")
        deployment.name = "self" + sep + suffix
        return deployment
    if system in ("hybrid", "hat"):
        with span("testbed.build"):
            return _build_hat_system(config, system, tracer, scenario, scenario_cell)
    raise ValueError("unknown system %r (expected one of %s)" % (system, SYSTEMS))


def _build_hat_system(
    config: TestbedConfig,
    system: str,
    tracer: Optional[Tracer],
    scenario=None,
    scenario_cell: int = 0,
) -> Deployment:
    resolved, cell = _resolve_scenario_cell(config, scenario, scenario_cell)
    env, streams, topology, fabric, content, config = _base(
        config, tracer=tracer, cell=cell
    )
    hat = HatSystem(
        env,
        fabric,
        streams,
        content,
        provider_node=topology.provider,
        server_nodes=list(topology.servers),
        config=HatConfig(
            n_clusters=config.hat_clusters,
            tree_arity=config.hat_arity,
            server_ttl_s=config.server_ttl_s,
            member_method="ttl" if system == "hybrid" else "self-adaptive",
        ),
    )
    server_of_node = dict(hat.server_by_node_id)
    cohort = _make_users(
        config, env, streams, fabric, content, topology, server_of_node
    )
    deployment = Deployment(
        name=system + _scenario_name_suffix(resolved, config, cell),
        config=config,
        env=env,
        streams=streams,
        fabric=fabric,
        content=content,
        provider=hat.provider,
        servers=hat.servers,
        cohort=cohort,
    )
    _install_perturbations(deployment, cell)
    return deployment
