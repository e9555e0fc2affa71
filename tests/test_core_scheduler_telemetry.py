"""Unit tests for assignment policies and telemetry."""

import random

import pytest

from repro.core import (
    InvocationRecord,
    LeastLoadedPolicy,
    Orchestrator,
    PackingPolicy,
    RandomSamplingPolicy,
    RoundRobinPolicy,
    TelemetryCollector,
    make_policy,
)
from repro.core.job import Job
from repro.sim import Environment


def make_queues(n, policy, is_powered=None):
    """``n`` worker queues on an orchestrator assigning with ``policy``."""
    orch = Orchestrator(Environment(), policy=policy)
    queues = [orch.add_worker() for _ in range(n)]
    if is_powered is not None:
        orch.view.is_powered = is_powered
    return queues


def job(i=0):
    return Job(job_id=i, function="FloatOps", input_bytes=1, output_bytes=1)


# -- policies -----------------------------------------------------------------------


def test_random_sampling_covers_all_queues():
    policy = RandomSamplingPolicy(random.Random(0))
    make_queues(5, policy)
    chosen = {policy.select(job(i)) for i in range(200)}
    assert chosen == {0, 1, 2, 3, 4}


def test_random_sampling_is_seed_deterministic():
    a = RandomSamplingPolicy(random.Random(7))
    b = RandomSamplingPolicy(random.Random(7))
    make_queues(5, a)
    make_queues(5, b)
    seq_a = [a.select(job(i)) for i in range(20)]
    seq_b = [b.select(job(i)) for i in range(20)]
    assert seq_a == seq_b


def test_random_sampling_is_roughly_uniform():
    policy = RandomSamplingPolicy(random.Random(3))
    make_queues(4, policy)
    counts = [0, 0, 0, 0]
    for i in range(4000):
        counts[policy.select(job(i))] += 1
    for count in counts:
        assert 800 < count < 1200


def test_round_robin_cycles():
    policy = RoundRobinPolicy()
    make_queues(3, policy)
    assert [policy.select(job(i)) for i in range(7)] == [
        0, 1, 2, 0, 1, 2, 0,
    ]


def test_least_loaded_picks_shallowest():
    policy = LeastLoadedPolicy()
    queues = make_queues(3, policy)
    queues[0].push(job(1))
    queues[0].push(job(2))
    queues[1].push(job(3))
    assert policy.select(job(4)) == 2


def test_least_loaded_tie_breaks_by_index():
    policy = LeastLoadedPolicy()
    make_queues(3, policy)
    assert policy.select(job(0)) == 0


def test_packing_prefers_powered_workers():
    powered = {2}
    policy = PackingPolicy()
    make_queues(4, policy, is_powered=lambda i: i in powered)
    assert policy.select(job(0)) == 2


def test_packing_wakes_lowest_when_all_off():
    policy = PackingPolicy()
    make_queues(4, policy, is_powered=lambda i: False)
    assert policy.select(job(0)) == 0


def test_policies_reject_empty_queue_list():
    for policy in (
        RandomSamplingPolicy(), RoundRobinPolicy(),
        LeastLoadedPolicy(), PackingPolicy(),
    ):
        make_queues(0, policy)
        with pytest.raises(ValueError):
            policy.select(job(0))


def test_make_policy_factory():
    assert make_policy("random-sampling").name == "random-sampling"
    assert make_policy("round-robin").name == "round-robin"
    assert make_policy("least-loaded").name == "least-loaded"
    assert make_policy("packing").name == "packing"
    with pytest.raises(KeyError):
        make_policy("magic")


# -- telemetry -----------------------------------------------------------------------


def record(
    job_id=0, function="FloatOps", start=0.0, queued=None,
    boot=1.5, working=1.0, overhead=0.1,
):
    queued = start if queued is None else queued
    return InvocationRecord(
        job_id=job_id,
        function=function,
        worker_id=0,
        platform="arm",
        t_queued=queued,
        t_started=start,
        t_completed=start + boot + working + overhead,
        boot_s=boot,
        working_s=working,
        overhead_s=overhead,
    )


def test_record_validation():
    with pytest.raises(ValueError):
        InvocationRecord(0, "f", 0, "arm", 0.0, 5.0, 4.0, 1.0, 1.0, 1.0)
    with pytest.raises(ValueError):
        InvocationRecord(0, "f", 0, "arm", 0.0, 0.0, 1.0, -1.0, 1.0, 1.0)


def test_record_derived_metrics():
    r = record(boot=1.5, working=2.0, overhead=0.5)
    assert r.runtime_s == pytest.approx(2.5)
    assert r.cycle_s == pytest.approx(4.0)


def test_throughput_per_min():
    collector = TelemetryCollector()
    # 10 jobs completing over 60 seconds.
    for i in range(10):
        collector.record(record(job_id=i, start=i * 6.0, boot=0.0,
                                working=5.9, overhead=0.1))
    # Window: first start 0, last completion 60 => 10 jobs/min.
    assert collector.throughput_per_min() == pytest.approx(10.0)


def test_throughput_requires_records():
    with pytest.raises(ValueError):
        TelemetryCollector().throughput_per_min()


def test_function_stats_split_working_overhead():
    collector = TelemetryCollector()
    for i in range(4):
        collector.record(record(job_id=i, function="CascSHA",
                                working=2.0, overhead=0.5))
    stats = collector.function_stats("CascSHA")
    assert stats.count == 4
    assert stats.mean_working_s == pytest.approx(2.0)
    assert stats.mean_overhead_s == pytest.approx(0.5)
    assert stats.mean_runtime_s == pytest.approx(2.5)


def test_function_stats_unknown():
    with pytest.raises(KeyError):
        TelemetryCollector().function_stats("Ghost")


def test_all_function_stats_groups():
    collector = TelemetryCollector()
    collector.record(record(job_id=0, function="A"))
    collector.record(record(job_id=1, function="B"))
    assert set(collector.all_function_stats()) == {"A", "B"}


def test_queue_wait_metrics():
    collector = TelemetryCollector()
    collector.record(record(job_id=0, queued=0.0, start=2.0))
    collector.record(record(job_id=1, queued=0.0, start=4.0))
    assert collector.mean_queue_wait_s() == pytest.approx(3.0)
    assert collector.percentile_queue_wait_s(100) == pytest.approx(4.0)


def test_mean_cycle():
    collector = TelemetryCollector()
    collector.record(record(boot=1.0, working=1.0, overhead=1.0))
    assert collector.mean_cycle_s() == pytest.approx(3.0)
