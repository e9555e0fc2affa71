"""Benchmarks: the sharded parallel runner (repro.shard).

Two claims ride on :class:`~repro.shard.ShardedCluster` and both are
checked here with wall-clock and RSS numbers, not just unit tests:

* At 5,000 workers under the least-loaded policy, a 4-shard run is
  bit-identical to the serial engine and uses the cores it runs on:
  its speedup over serial is at least half of linear in
  ``min(4, os.cpu_count())``, the cores four shard processes can
  occupy.  Both sides drive the same heap-backed policy (O(log N) per
  assignment), so the win is parallel — each shard steps a
  quarter-size event heap on its own core — and the bound scales with
  the runner instead of assuming four free cores.
* The 100,000-worker frontier point fits in bounded memory: each shard
  holds the full topology but only its slice of the hardware, so
  per-shard peak RSS stays under 1 GiB where a serial build of the
  same cluster would hold every board and worker process in one heap.

The sharded leg runs first: forking from a heap already inflated by a
serial 5,000-worker build would bill copy-on-write page faults to the
shards and muddy the comparison.
"""

import os
import time

from benchmarks.conftest import emit
from repro.shard import ClusterSpec, ShardedCluster

#: Least share of linear speedup the 4-shard run must reach on the
#: cores it can use.
MIN_PARALLEL_EFFICIENCY = 0.5

#: 5,000 workers x 10 jobs each, spread over the 17-function suite.
SPEC_5K = ClusterSpec(
    kind="microfaas",
    worker_count=5_000,
    seed=1,
    policy="least-loaded",
    telemetry_exact=False,
)
PER_FUNCTION_5K = 5_000 * 10 // 17

SPEC_100K = ClusterSpec(
    kind="microfaas",
    worker_count=100_000,
    seed=1,
    policy="least-loaded",
    telemetry_exact=False,
)


def _run_sharded_5k():
    start = time.perf_counter()
    with ShardedCluster(SPEC_5K, 4, executor="process") as sharded:
        result = sharded.run_saturated(
            invocations_per_function=PER_FUNCTION_5K
        )
    return time.perf_counter() - start, result


def test_bench_shard_speedup_at_5000_workers(benchmark):
    sharded_wall, sharded = benchmark.pedantic(
        _run_sharded_5k, rounds=1, iterations=1
    )

    serial_start = time.perf_counter()
    serial = SPEC_5K.build().run_saturated(
        invocations_per_function=PER_FUNCTION_5K
    )
    serial_wall = time.perf_counter() - serial_start

    speedup = serial_wall / sharded_wall
    cores = min(4, os.cpu_count() or 1)
    efficiency = speedup / cores
    emit(
        f"5,000 workers, least-loaded, {sharded.jobs_completed} jobs:\n"
        f"  serial   {serial_wall:7.2f} s\n"
        f"  4 shards {sharded_wall:7.2f} s   ({speedup:.2f}x on {cores} "
        f"cores, parallel efficiency {efficiency:.2f})"
    )
    # Same simulation, to the bit.
    assert sharded.jobs_completed == serial.jobs_completed
    assert sharded.duration_s == serial.duration_s
    assert sharded.energy_joules == serial.energy_joules
    # The parallel claim, scaled to the runner's cores.
    assert efficiency >= MIN_PARALLEL_EFFICIENCY, (
        f"4-shard run managed {speedup:.2f}x over serial on {cores} "
        f"cores ({sharded_wall:.2f}s vs {serial_wall:.2f}s): parallel "
        f"efficiency {efficiency:.2f} < {MIN_PARALLEL_EFFICIENCY}"
    )


def test_bench_shard_100k_worker_point_is_memory_bounded(benchmark):
    def run_100k():
        with ShardedCluster(SPEC_100K, 4, executor="process") as sharded:
            result = sharded.run_saturated(invocations_per_function=60)
            return result, sharded.stats

    result, stats = benchmark.pedantic(run_100k, rounds=1, iterations=1)
    emit(
        f"100,000 workers, 4 shards: {result.jobs_completed} jobs, "
        f"{result.throughput_per_min:,.0f} func/min, "
        f"peak shard RSS {stats.peak_shard_rss_mib:,.0f} MiB"
    )
    assert result.jobs_completed == 60 * 17
    assert result.worker_count == 100_000
    # Each shard carries the full topology but only 25,000 workers of
    # hardware; measured ~530 MiB, bounded with headroom for allocator
    # and interpreter drift.
    assert 0 < stats.peak_shard_rss_mib < 1024
