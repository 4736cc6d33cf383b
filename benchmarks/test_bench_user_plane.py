"""User-plane throughput: the struct-of-arrays cohort at planet cadence.

One TTL/unicast deployment of 200 servers x 25 users = 5k users with
aggregate user metrics, the default planet path.  The recorded
``cohort_users_per_s`` feeds the BENCH_user_plane.json trajectory.  At
this (deliberately bench-sized) config the shared network fabric is the
largest layer; docs/scalability.md has the planet-scale numbers.
"""

import time

import repro.network.message as message_mod
from repro.experiments.config import planet_scale
from repro.experiments.testbed import _PLACEMENT_CACHE, build_deployment

N_SERVERS = 200
USERS_PER_SERVER = 25
N_USERS = N_SERVERS * USERS_PER_SERVER


def _user_plane_run():
    """Build and run the deployment; returns ``(metrics_dict,
    sim_seconds)`` with the timing covering only the simulation phase
    (topology build cost is benchmarked elsewhere)."""
    message_mod._SEQ = 0
    _PLACEMENT_CACHE.clear()
    deployment = build_deployment(
        planet_scale(n_servers=N_SERVERS, users_per_server=USERS_PER_SERVER), "ttl"
    )
    started = time.perf_counter()
    metrics = deployment.run().to_dict()
    return metrics, time.perf_counter() - started


def test_user_plane_throughput(benchmark):
    """Simulated users per second of simulation wall time."""
    metrics, cohort_s = benchmark(_user_plane_run)
    benchmark.extra_info["n_users"] = N_USERS
    benchmark.extra_info["cohort_users_per_s"] = N_USERS / cohort_s
    # Aggregate metrics: one user-lag entry per home server.
    assert len(metrics["user_lags"]) == N_SERVERS
