"""Named, seeded random streams.

Every stochastic decision in the library draws from a :class:`RandomStream`
obtained from a :class:`StreamRegistry`.  Each stream's seed is derived
deterministically from ``(master_seed, stream_name)``, so

- two runs with the same master seed are bit-for-bit identical, and
- adding a new consumer of randomness does not perturb existing streams
  (unlike sharing one global ``random.Random``).
"""

from __future__ import annotations

import hashlib
import random
from typing import Callable, Dict, Iterator, List, Sequence, TypeVar

__all__ = ["RandomStream", "StreamRegistry", "derive_seed"]

T = TypeVar("T")


def derive_seed(master_seed: int, name: str) -> int:
    """Derive a 64-bit child seed from ``(master_seed, name)``.

    Uses BLAKE2b, so distinct names give statistically independent seeds.
    """
    digest = hashlib.blake2b(
        name.encode("utf-8"),
        key=str(int(master_seed)).encode("utf-8"),
        digest_size=8,
    ).digest()
    return int.from_bytes(digest, "big")


class RandomStream:
    """A named pseudo-random stream (thin wrapper over ``random.Random``)."""

    def __init__(self, name: str, seed: int) -> None:
        self.name = name
        self.seed = seed
        self._rng = random.Random(seed)
        #: The generator's own bound method: one C call per draw, for
        #: hot paths that bind it once (the fabric's jitter draws).
        self.random: Callable[[], float] = self._rng.random

    def __repr__(self) -> str:
        return "RandomStream(name=%r, seed=%d)" % (self.name, self.seed)

    # Delegated primitives -- explicit rather than __getattr__ so the
    # public surface is greppable and tooling-friendly.
    def uniform(self, a: float, b: float) -> float:
        return self._rng.uniform(a, b)

    def randint(self, a: int, b: int) -> int:
        return self._rng.randint(a, b)

    def expovariate(self, lambd: float) -> float:
        return self._rng.expovariate(lambd)

    def gauss(self, mu: float, sigma: float) -> float:
        return self._rng.gauss(mu, sigma)

    def lognormvariate(self, mu: float, sigma: float) -> float:
        return self._rng.lognormvariate(mu, sigma)

    def paretovariate(self, alpha: float) -> float:
        return self._rng.paretovariate(alpha)

    def choice(self, seq: Sequence[T]) -> T:
        return self._rng.choice(seq)

    def sample(self, population: Sequence[T], k: int) -> List[T]:
        return self._rng.sample(population, k)

    def shuffle(self, seq: list) -> None:
        self._rng.shuffle(seq)

    def choices(self, population: Sequence[T], weights=None, k: int = 1) -> List[T]:
        return self._rng.choices(population, weights=weights, k=k)

    def bernoulli(self, p: float) -> bool:
        """``True`` with probability *p*."""
        return self._rng.random() < p


class StreamRegistry:
    """Factory and cache of :class:`RandomStream` objects for one run."""

    def __init__(self, master_seed: int = 0) -> None:
        self.master_seed = int(master_seed)
        self._streams: Dict[str, RandomStream] = {}

    def stream(self, name: str) -> RandomStream:
        """Return the stream for *name*, creating it on first use."""
        existing = self._streams.get(name)
        if existing is not None:
            return existing
        stream = RandomStream(name, derive_seed(self.master_seed, name))
        self._streams[name] = stream
        return stream

    def __contains__(self, name: str) -> bool:
        return name in self._streams

    def names(self) -> Iterator[str]:
        return iter(sorted(self._streams))
