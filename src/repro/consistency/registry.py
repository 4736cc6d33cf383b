"""Canonical registry of update methods and update infrastructures.

Every place that turns a *name* into a policy or an infrastructure --
the CLI's ``--method``/``--infrastructure`` choices, the testbed's
:func:`~repro.experiments.testbed.build_deployment`, and the sweep
runner's :class:`~repro.runner.RunSpec` -- resolves through this one
table, so aliases ("self", "adaptive", "inval") and the canonical name
lists cannot drift apart.

A method entry knows how to build its :class:`ServerPolicy` from the
two knobs every policy shares (the content-server TTL and the polling
phase RNG stream) and, for push-flavoured methods, which provider-side
hook (:class:`~repro.cdn.provider.ProviderActor` method name) arms the
origin to feed the servers.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Optional, Tuple

from .adaptive import AdaptiveTTLPolicy, SelfAdaptivePolicy
from .base import Infrastructure, ServerPolicy
from .broadcast import BroadcastInfrastructure
from .invalidation import InvalidationPolicy
from .multicast import MulticastTreeInfrastructure
from .push import PushPolicy
from .ttl import TTLPolicy
from .unicast import UnicastInfrastructure

__all__ = [
    "MethodEntry",
    "InfrastructureEntry",
    "METHOD_REGISTRY",
    "INFRASTRUCTURE_REGISTRY",
    "method_names",
    "method_choices",
    "infrastructure_names",
    "infrastructure_choices",
    "resolve_method",
    "resolve_infrastructure",
]


@dataclass(frozen=True)
class MethodEntry:
    """One update method: canonical name, aliases, and factories."""

    name: str
    #: Builds the per-server policy from (server_ttl_s, phase_stream).
    factory: Callable[[float, object], ServerPolicy]
    aliases: Tuple[str, ...] = ()
    #: Name of the ProviderActor method that arms the origin for this
    #: update method (``None`` for pull-only methods).
    provider_hook: Optional[str] = None


@dataclass(frozen=True)
class InfrastructureEntry:
    """One update infrastructure: canonical name, aliases, factory."""

    name: str
    #: Builds the infrastructure from (fabric, tree_arity).
    factory: Callable[[object, int], Infrastructure]
    aliases: Tuple[str, ...] = ()


def _dynamic_policy(ttl_s: float, stream) -> ServerPolicy:
    # Imported lazily: repro.core depends on repro.consistency, so a
    # module-level import here would be circular.
    from ..core.dynamic import DynamicPolicy

    return DynamicPolicy(
        ttl_s, staleness_tolerance_s=ttl_s / 2.0, stream=stream
    )


#: Canonical method table, in the order the paper introduces them.
METHOD_REGISTRY: Dict[str, MethodEntry] = {
    entry.name: entry
    for entry in (
        MethodEntry(
            name="push",
            factory=lambda ttl_s, stream: PushPolicy(),
            provider_hook="use_push",
        ),
        MethodEntry(
            name="invalidation",
            factory=lambda ttl_s, stream: InvalidationPolicy(),
            aliases=("inval",),
            provider_hook="use_invalidation",
        ),
        MethodEntry(
            name="ttl",
            factory=lambda ttl_s, stream: TTLPolicy(ttl_s, stream=stream),
        ),
        MethodEntry(
            name="self-adaptive",
            factory=lambda ttl_s, stream: SelfAdaptivePolicy(ttl_s, stream=stream),
            aliases=("self",),
            provider_hook="use_self_adaptive",
        ),
        MethodEntry(
            name="adaptive-ttl",
            factory=lambda ttl_s, stream: AdaptiveTTLPolicy(
                min_ttl_s=ttl_s, max_ttl_s=8.0 * ttl_s, stream=stream
            ),
            aliases=("adaptive",),
        ),
        MethodEntry(
            name="dynamic",
            factory=_dynamic_policy,
            provider_hook="use_dynamic",
        ),
    )
}

#: Canonical infrastructure table.
INFRASTRUCTURE_REGISTRY: Dict[str, InfrastructureEntry] = {
    entry.name: entry
    for entry in (
        InfrastructureEntry(
            name="unicast",
            factory=lambda fabric, arity: UnicastInfrastructure(),
            aliases=("star",),
        ),
        InfrastructureEntry(
            name="multicast",
            factory=lambda fabric, arity: MulticastTreeInfrastructure(
                fabric, arity=arity
            ),
            aliases=("tree",),
        ),
        InfrastructureEntry(
            name="broadcast",
            factory=lambda fabric, arity: BroadcastInfrastructure(fabric),
        ),
    )
}


def _alias_map(registry) -> Dict[str, str]:
    mapping: Dict[str, str] = {}
    for entry in registry.values():
        mapping[entry.name] = entry.name
        for alias in entry.aliases:
            mapping[alias] = entry.name
    return mapping


def method_names() -> Tuple[str, ...]:
    """The canonical method names, in registry order."""
    return tuple(METHOD_REGISTRY)


def method_choices() -> Tuple[str, ...]:
    """Canonical names plus every alias (for CLI ``choices=``)."""
    choices = list(METHOD_REGISTRY)
    for entry in METHOD_REGISTRY.values():
        choices.extend(entry.aliases)
    return tuple(choices)


def infrastructure_names() -> Tuple[str, ...]:
    """The canonical infrastructure names, in registry order."""
    return tuple(INFRASTRUCTURE_REGISTRY)


def infrastructure_choices() -> Tuple[str, ...]:
    """Canonical infrastructure names plus every alias."""
    choices = list(INFRASTRUCTURE_REGISTRY)
    for entry in INFRASTRUCTURE_REGISTRY.values():
        choices.extend(entry.aliases)
    return tuple(choices)


def resolve_method(name: str) -> MethodEntry:
    """Look up a method by canonical name or alias."""
    canonical = _alias_map(METHOD_REGISTRY).get(name)
    if canonical is None:
        raise ValueError(
            "unknown method %r (expected one of %s)"
            % (name, ", ".join(method_choices()))
        )
    return METHOD_REGISTRY[canonical]


def resolve_infrastructure(name: str) -> InfrastructureEntry:
    """Look up an infrastructure by canonical name or alias."""
    canonical = _alias_map(INFRASTRUCTURE_REGISTRY).get(name)
    if canonical is None:
        raise ValueError(
            "unknown infrastructure %r (expected one of %s)"
            % (name, ", ".join(infrastructure_choices()))
        )
    return INFRASTRUCTURE_REGISTRY[canonical]
