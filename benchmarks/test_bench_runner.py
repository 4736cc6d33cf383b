"""Benchmarks for the parallel experiment runner.

Records serial-vs-parallel wall-clock for a fixed 8-deployment sweep and
checks the runner's two hard guarantees: parallel results are
bit-identical to serial, and a second registry-backed invocation
rebuilds zero deployments.

The speedup assertion only fires on hosts with enough CPUs -- on a
single-core box a process pool cannot beat serial execution, and the
numbers are recorded for inspection either way.
"""

import multiprocessing
import os
import time

import pytest

from repro.runner import Runner, RunSpec


def _usable_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux
        return multiprocessing.cpu_count()


@pytest.fixture(scope="module")
def sweep_specs():
    """The acceptance sweep: 8 deployments, 2 methods x 2 infras x 2 TTLs."""
    from repro.experiments.config import ci_scale

    config = ci_scale(users_per_server=2)
    return [
        RunSpec(
            config=config.with_overrides(server_ttl_s=ttl),
            method=method,
            infrastructure=infrastructure,
        )
        for method in ("push", "ttl")
        for infrastructure in ("unicast", "multicast")
        for ttl in (10.0, 20.0)
    ]


def test_serial_vs_parallel_wall_clock(benchmark, sweep_specs):
    serial_runner = Runner(workers=1)
    started = time.perf_counter()
    serial = serial_runner.run(sweep_specs)
    serial_s = time.perf_counter() - started

    parallel_runner = Runner(workers=4)
    started = time.perf_counter()
    parallel = parallel_runner.run(sweep_specs)
    parallel_s = time.perf_counter() - started

    # Record the parallel run (now warm) as the benchmark number and the
    # comparison in extra_info for the JSON output.
    benchmark.extra_info["serial_s"] = round(serial_s, 3)
    benchmark.extra_info["parallel_s"] = round(parallel_s, 3)
    benchmark.extra_info["speedup"] = round(serial_s / max(parallel_s, 1e-9), 2)
    benchmark.extra_info["cpus"] = _usable_cpus()
    benchmark.pedantic(
        Runner(workers=4).run,
        args=(sweep_specs,),
        rounds=1,
        iterations=1,
    )

    # Hard guarantee on any host: bit-identical results.
    for left, right in zip(serial.metrics, parallel.metrics):
        assert left.to_dict() == right.to_dict()

    # The >= 2x speedup claim needs real parallel hardware.
    if _usable_cpus() >= 4:
        assert serial_s > 2.0 * parallel_s


def test_registry_second_run_rebuilds_nothing(benchmark, sweep_specs, tmp_path):
    path = str(tmp_path / "runs.json")
    first = Runner(workers=1, registry=path).run(sweep_specs)
    assert first.stats.executed == len(sweep_specs)

    second = benchmark.pedantic(
        Runner(workers=1, registry=path).run,
        args=(sweep_specs,),
        rounds=1,
        iterations=1,
    )
    assert second.stats.executed == 0
    assert second.stats.cache_hits == len(sweep_specs)
    for fresh, cached in zip(first.metrics, second.metrics):
        assert fresh.to_dict() == cached.to_dict()
