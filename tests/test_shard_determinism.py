"""Sharded == serial, bit for bit.

The whole value proposition of :mod:`repro.shard` is that splitting a
simulation over N processes changes wall-clock and memory, never
results.  These tests pin that with exact (``==``, not ``isclose``)
comparisons between the serial engine and 2- and 4-way sharded runs of
the same spec, across the three workload shapes the protocol covers:
saturated bursts, the paper's interval arrival process, and chaos runs
with cross-shard job salvage.  The inline executor runs the identical
code path as the forked one (a separate test pins process == inline),
so the suite stays fork-free and fast.
"""

import random

import pytest

from repro.cluster.microfaas import MicroFaaSCluster
from repro.core.scheduler import make_policy
from repro.obs.export import validate_chrome_trace_file, write_trace_file
from repro.obs.trace import TraceConfig, merge_traces
from repro.reliability.chaos import ChaosEngine, ChaosPlan, ChaosProfile
from repro.shard import ClusterSpec, ShardedCluster
from repro.sim.rng import RandomStreams


def assert_identical(serial_result, sharded_result):
    """Every externally observable number must match exactly."""
    assert sharded_result.jobs_completed == serial_result.jobs_completed
    assert sharded_result.duration_s == serial_result.duration_s
    assert sharded_result.energy_joules == serial_result.energy_joules
    assert sharded_result.pool_energy == serial_result.pool_energy
    assert sharded_result.worker_count == serial_result.worker_count
    a, b = serial_result.telemetry, sharded_result.telemetry
    assert b.count == a.count
    assert b.mean_latency_s() == a.mean_latency_s()
    assert b.mean_queue_wait_s() == a.mean_queue_wait_s()
    for p in (50.0, 90.0, 99.0, 100.0):
        assert b.percentile_latency_s(p) == a.percentile_latency_s(p)
    assert b.functions_seen == a.functions_seen
    for name in a.functions_seen:
        sa, sb = a.function_stats(name), b.function_stats(name)
        assert (sb.count, sb.mean_working_s, sb.mean_overhead_s) == (
            sa.count, sa.mean_working_s, sa.mean_overhead_s
        )


@pytest.mark.parametrize("shards", [2, 4])
def test_saturated_run_is_bit_identical(shards):
    spec = ClusterSpec(kind="microfaas", worker_count=10, seed=42)
    serial = spec.build().run_saturated(invocations_per_function=3)
    with ShardedCluster(spec, shards, executor="inline") as sharded:
        result = sharded.run_saturated(invocations_per_function=3)
    assert_identical(serial, result)


@pytest.mark.parametrize("shards", [2, 4])
def test_paper_arrivals_are_bit_identical(shards):
    spec = ClusterSpec(kind="microfaas", worker_count=10, seed=7)
    serial = spec.build().run_paper_arrivals(
        jobs_per_second=2, total_jobs=60
    )
    with ShardedCluster(spec, shards, executor="inline") as sharded:
        result = sharded.run_paper_arrivals(
            jobs_per_second=2, total_jobs=60
        )
    assert_identical(serial, result)


@pytest.mark.parametrize("policy", ["least-loaded", "round-robin"])
def test_named_policy_spec_is_bit_identical(policy):
    """spec.build() must schedule with the spec's named policy — a twin
    that silently fell back to the platform default (random-sampling)
    would diverge from the replayer immediately."""
    spec = ClusterSpec(
        kind="microfaas", worker_count=12, seed=5, policy=policy
    )
    serial = spec.build().run_saturated(invocations_per_function=3)
    explicit = spec.build(
        policy=make_policy(policy)
    ).run_saturated(invocations_per_function=3)
    assert serial.duration_s == explicit.duration_s
    with ShardedCluster(spec, 3, executor="inline") as sharded:
        result = sharded.run_saturated(invocations_per_function=3)
    assert_identical(serial, result)


def test_hybrid_energy_aware_is_bit_identical():
    spec = ClusterSpec(kind="hybrid", sbc_count=8, vm_count=4, seed=3)
    serial = spec.build().run_saturated(invocations_per_function=3)
    with ShardedCluster(spec, 3, executor="inline") as sharded:
        result = sharded.run_saturated(invocations_per_function=3)
    assert_identical(serial, result)
    # Per-platform split survives the merge exactly, too.
    assert (
        result.telemetry.platform_percentile_latency_s("arm", 99.0)
        == serial.telemetry.platform_percentile_latency_s("arm", 99.0)
    )


def test_hybrid_carbon_aware_is_bit_identical():
    """The preferred platform flips while arrivals are still coming in,
    so serial and sharded runs must read the same decision times."""
    from repro.energy.controlplane import CarbonSignal

    signals = {
        "arm": CarbonSignal(base=100.0, amplitude=90.0, period_s=16.0),
        "x86": CarbonSignal(
            base=100.0, amplitude=90.0, period_s=16.0, phase_s=8.0
        ),
    }
    spec = ClusterSpec(
        kind="hybrid", sbc_count=6, vm_count=4, seed=9,
        policy="carbon-aware", carbon_signals=signals,
        carbon_weights={"arm": 1.0, "x86": 1.2},
    )
    serial_cluster = spec.build()
    serial = serial_cluster.run_paper_arrivals(
        jobs_per_second=3, total_jobs=90
    )
    with ShardedCluster(spec, 3, executor="inline") as sharded:
        result = sharded.run_paper_arrivals(jobs_per_second=3, total_jobs=90)
    assert_identical(serial, result)
    # Both platforms were preferred at some point of the run.
    assert serial.telemetry.platform_percentile_latency_s("x86", 50.0) > 0
    assert serial.telemetry.platform_percentile_latency_s("arm", 50.0) > 0


def board_only_plan(worker_count, seed, horizon_s=40.0):
    profile = ChaosProfile(
        scale=1.0,
        switch_outage_per_hour=0.0,
        backend_fault_per_hour=0.0,
    )
    return ChaosPlan.sample(
        profile, worker_count, horizon_s, streams=RandomStreams(seed)
    )


@pytest.mark.parametrize("shards", [2, 4])
def test_chaos_run_with_cross_shard_salvage_is_bit_identical(shards):
    plan = board_only_plan(10, seed=99)
    spec = ClusterSpec(
        kind="microfaas",
        worker_count=10,
        seed=21,
        chaos_plan=plan,
        chaos_detection_delay_s=1.0,
        chaos_max_power_cycles=3,
    )
    serial_cluster = spec.build()
    engine = ChaosEngine(
        serial_cluster, detection_delay_s=1.0, max_power_cycles=3
    )
    engine.apply(plan)
    serial = serial_cluster.run_saturated(invocations_per_function=4)
    # The protocol's precondition: the serial engine never hit its
    # last-worker guard (that guard is engine-local in shards, so a
    # run leaning on it would be out of contract).
    assert engine.skipped_last_worker == 0
    assert engine.recovered_jobs > 0

    with ShardedCluster(spec, shards, executor="inline") as sharded:
        result = sharded.run_saturated(invocations_per_function=4)
        stats = sharded.stats
    assert_identical(serial, result)
    assert stats.resubmissions == serial_cluster.orchestrator.resubmissions
    assert stats.chaos["recovered_jobs"] == engine.recovered_jobs
    if shards > 1:
        assert stats.salvage_assignments == engine.recovered_jobs


def test_process_executor_matches_inline():
    spec = ClusterSpec(kind="microfaas", worker_count=8, seed=11)
    with ShardedCluster(spec, 2, executor="inline") as inline:
        a = inline.run_saturated(invocations_per_function=2)
    with ShardedCluster(spec, 2, executor="process") as forked:
        b = forked.run_saturated(invocations_per_function=2)
    assert_identical(a, b)


def test_forked_traced_shards_match_serial_and_validate(tmp_path):
    """Forked shard processes, traced, under least-loaded: same numbers
    as serial, and the merged span trees pass the validator."""
    spec = ClusterSpec(
        kind="microfaas",
        worker_count=12,
        seed=9,
        policy="least-loaded",
        trace=TraceConfig(sample_rate=1.0),
    )
    serial = spec.build().run_saturated(invocations_per_function=2)
    with ShardedCluster(spec, 2, executor="process") as forked:
        result = forked.run_saturated(invocations_per_function=2)
        traces = forked.traces
    assert_identical(serial, result)
    path = tmp_path / "shard-trace.json"
    write_trace_file(traces, str(path))
    assert validate_chrome_trace_file(str(path)) == []


def test_traced_sharded_run_merges_validator_clean(tmp_path):
    trace = TraceConfig(sample_rate=1.0)
    spec = ClusterSpec(kind="microfaas", worker_count=10, seed=13, trace=trace)
    serial_cluster = spec.build()
    serial = serial_cluster.run_saturated(invocations_per_function=2)
    with ShardedCluster(spec, 2, executor="inline") as sharded:
        result = sharded.run_saturated(invocations_per_function=2)
        merged = sharded.traces
    assert_identical(serial, result)

    reference = merge_traces([serial_cluster.finished_traces()])
    assert [t.trace_id for t in merged] == [t.trace_id for t in reference]
    assert [t.label for t in merged] == [t.label for t in reference]
    assert [t.start_s for t in merged] == [t.start_s for t in reference]
    assert [t.end_s for t in merged] == [t.end_s for t in reference]
    assert [len(t.spans) for t in merged] == [
        len(t.spans) for t in reference
    ]

    path = tmp_path / "sharded.json"
    write_trace_file(merged, str(path))
    assert validate_chrome_trace_file(str(path)) == []


def test_validate_rejects_unshardable_specs():
    with pytest.raises(ValueError, match="not shardable"):
        ClusterSpec(
            kind="microfaas", worker_count=4, policy="packing"
        ).validate()
    with pytest.raises(ValueError, match="sample_rate"):
        ClusterSpec(
            kind="microfaas",
            worker_count=4,
            trace=TraceConfig(sample_rate=0.5),
        ).validate()
    shared = ChaosPlan.sample(
        ChaosProfile(scale=2.0),
        worker_count=4,
        horizon_s=600.0,
        streams=RandomStreams(1),
    )
    assert shared.has_shared_fabric_events()
    with pytest.raises(ValueError, match="board/link"):
        ClusterSpec(
            kind="microfaas", worker_count=4, chaos_plan=shared
        ).validate()
    with pytest.raises(ValueError, match="tracing with chaos"):
        ClusterSpec(
            kind="microfaas",
            worker_count=4,
            trace=TraceConfig(sample_rate=1.0),
            chaos_plan=board_only_plan(4, seed=2),
        ).validate()


def test_shard_remote_policy_raises_if_consulted():
    from repro.shard.runtime import ShardRemotePolicy

    with pytest.raises(RuntimeError, match="coordinator"):
        ShardRemotePolicy().select(None, [], lambda wid: True)


def test_sharded_rejects_random_policy_object_mismatch():
    """The serial twin of a spec must use the spec's policy: building
    with a different seed diverges (sanity check that the determinism
    assertions above would actually catch a protocol break)."""
    spec = ClusterSpec(kind="microfaas", worker_count=10, seed=42)
    other = MicroFaaSCluster(
        worker_count=10,
        seed=42,
        policy=make_policy("random-sampling", random.Random(43)),
    )
    different = other.run_saturated(invocations_per_function=3)
    with ShardedCluster(spec, 2, executor="inline") as sharded:
        result = sharded.run_saturated(invocations_per_function=3)
    assert result.duration_s != different.duration_s
