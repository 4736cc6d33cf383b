"""Shared fixtures for the per-figure benchmarks.

Benchmarks run the real experiment drivers at a reduced-but-same-shape
scale (``python -m repro report`` runs them at the report's scale).
Each benchmark asserts the paper's qualitative claim for its figure --
who wins, in which order, and roughly by what factor.
"""

import pytest

from repro.experiments.config import ci_scale
from repro.experiments.section3 import Section3Context
from repro.experiments.section5 import section5_config
from repro.trace.synthesize import SynthesisConfig


@pytest.fixture(scope="session")
def s3ctx():
    """Section 3 context at benchmark scale (~1/20 of the paper crawl)."""
    config = SynthesisConfig(n_servers=150, n_days=6)
    return Section3Context(config, seed=0, n_users=60)


@pytest.fixture(scope="session")
def s4cfg():
    """Section 4 testbed at benchmark scale (30 servers, 4 users each)."""
    return ci_scale(users_per_server=4)


@pytest.fixture(scope="session")
def sweep_cfg():
    """Shorter game for parameter sweeps (Figs. 17-20, 22, 24)."""
    return ci_scale(n_updates=30, game_duration_s=876.0, users_per_server=2)


@pytest.fixture(scope="session")
def s5cfg():
    """Section 5 testbed: server TTL 60 s, 6 HAT clusters at this scale."""
    return section5_config(ci_scale(users_per_server=2))


@pytest.fixture
def run_once(benchmark):
    """Run an experiment exactly once under pytest-benchmark timing.

    The experiments are deterministic and expensive, so one round is
    both sufficient and honest.
    """

    def runner(fn, *args, **kwargs):
        return benchmark.pedantic(fn, args=args, kwargs=kwargs, rounds=1, iterations=1)

    return runner
