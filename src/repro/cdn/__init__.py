"""CDN substrate: content model, origin, edge servers and end users."""

from .base import Actor, RESPONSE_KINDS, UpdateSourceMixin
from .cache import CacheEntry
from .cohort import Observation, UserCohort
from .content import DEFAULT_LIGHT_SIZE_KB, DEFAULT_UPDATE_SIZE_KB, LiveContent
from .provider import ProviderActor
from .server import ServerActor, schedule_absence

__all__ = [
    "Actor",
    "UpdateSourceMixin",
    "RESPONSE_KINDS",
    "CacheEntry",
    "LiveContent",
    "DEFAULT_UPDATE_SIZE_KB",
    "DEFAULT_LIGHT_SIZE_KB",
    "ProviderActor",
    "ServerActor",
    "schedule_absence",
    "UserCohort",
    "Observation",
]
