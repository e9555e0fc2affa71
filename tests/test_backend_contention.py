"""Tests for the backend-service capacity model."""

import pytest

from repro.cluster import MicroFaaSCluster
from repro.core.scheduler import LeastLoadedPolicy
from repro.services.backend import (
    BackendCapacityModel,
    BackendFleet,
    SERVICE_SHARE,
    service_for,
)
from repro.sim import Environment


def test_service_mapping():
    assert service_for("kv.set") == "redis"
    assert service_for("sql.select") == "postgres"
    assert service_for("cos.get") == "minio"
    assert service_for("mq.produce") == "kafka"
    with pytest.raises(KeyError):
        service_for("blockchain.mine")


def test_model_validation():
    with pytest.raises(ValueError):
        BackendCapacityModel(concurrency={"redis": 1})  # missing services
    with pytest.raises(ValueError):
        BackendCapacityModel(
            concurrency={"redis": 0, "postgres": 1, "minio": 1, "kafka": 1}
        )


def test_uncontended_serve_preserves_total_wait():
    env = Environment()
    fleet = BackendFleet(env)
    done = []

    def client():
        yield from fleet.serve("sql.select", 1.0)
        done.append(env.now)

    env.process(client())
    env.run()
    assert done[0] == pytest.approx(1.0)
    assert fleet.requests_served["postgres"] == 1


def test_serve_validates_wait():
    env = Environment()
    fleet = BackendFleet(env)

    def client():
        yield from fleet.serve("sql.select", -1.0)

    env.process(client())
    with pytest.raises(ValueError):
        env.run()


def test_contention_queues_only_the_service_share():
    """postgres concurrency 2: three 1 s requests => the third queues
    behind a 0.7 s service slot, finishing ~0.7 s late."""
    env = Environment()
    fleet = BackendFleet(env)
    finishes = []

    def client():
        yield from fleet.serve("sql.select", 1.0)
        finishes.append(env.now)

    for _ in range(3):
        env.process(client())
    env.run()
    assert finishes[0] == pytest.approx(1.0)
    assert finishes[1] == pytest.approx(1.0)
    assert finishes[2] == pytest.approx(1.0 + SERVICE_SHARE["postgres"])


def test_utilization_accounting():
    env = Environment()
    fleet = BackendFleet(env)

    def client():
        yield from fleet.serve("mq.produce", 2.0)

    env.process(client())
    env.run()
    service_s = 2.0 * SERVICE_SHARE["kafka"]
    assert fleet.utilization("kafka", env.now) == pytest.approx(
        service_s / (env.now * 6)
    )
    with pytest.raises(ValueError):
        fleet.utilization("kafka", 0.0)


def test_backend_invisible_at_testbed_scale():
    """10 workers cannot stress one-box backends: results match the
    uncontended calibration."""
    contended = MicroFaaSCluster(
        worker_count=10, seed=1, policy=LeastLoadedPolicy(),
        backend=BackendCapacityModel(),
    )
    r_contended = contended.run_saturated(invocations_per_function=12)
    free = MicroFaaSCluster(worker_count=10, seed=1, policy=LeastLoadedPolicy())
    r_free = free.run_saturated(invocations_per_function=12)
    assert r_contended.throughput_per_min == pytest.approx(
        r_free.throughput_per_min, rel=0.03
    )
    assert contended.backend.utilization(
        "postgres", r_contended.duration_s
    ) < 0.35


def test_backend_binds_at_scale():
    """At 150 workers the single-board MinIO saturates first (COSGet's
    object handling dominates its service share), and the network-bound
    functions stretch, bending cluster throughput."""
    contended = MicroFaaSCluster(
        worker_count=150, seed=2, policy=LeastLoadedPolicy(),
        backend=BackendCapacityModel(),
    )
    r_contended = contended.run_saturated(invocations_per_function=30)
    free = MicroFaaSCluster(
        worker_count=150, seed=2, policy=LeastLoadedPolicy()
    )
    r_free = free.run_saturated(invocations_per_function=30)
    assert contended.backend.utilization(
        "minio", r_contended.duration_s
    ) > 0.8
    assert r_contended.throughput_per_min < 0.9 * r_free.throughput_per_min
    # CPU-bound functions are untouched by backend congestion.
    sha_contended = r_contended.telemetry.function_stats("CascSHA")
    sha_free = r_free.telemetry.function_stats("CascSHA")
    assert sha_contended.mean_working_s == pytest.approx(
        sha_free.mean_working_s, rel=0.05
    )
    # Network-bound ones are where the queueing shows.
    sql_contended = r_contended.telemetry.function_stats("SQLSelect")
    sql_free = r_free.telemetry.function_stats("SQLSelect")
    assert sql_contended.mean_working_s > 1.5 * sql_free.mean_working_s


def test_crash_while_queued_for_a_backend_slot_releases_the_slot():
    """A board crashing while its worker waits for a backend slot must
    withdraw the request; a leaked claim would hold the slot forever
    once granted and wedge every later job on that service."""
    from repro.reliability.chaos import (
        ChaosEngine,
        ChaosEvent,
        ChaosKind,
        ChaosPlan,
    )

    cluster = MicroFaaSCluster(
        worker_count=3, seed=1, jitter_sigma=0.0,
        policy=LeastLoadedPolicy(),
        backend=BackendCapacityModel(
            concurrency={"redis": 8, "postgres": 1, "minio": 2, "kafka": 6}
        ),
    )
    env = cluster.env
    postgres = cluster.backend.resources["postgres"]
    cluster.orchestrator.submit_batch(["SQLSelect", "SQLSelect"])
    # Step until one worker holds the only slot and the other queues.
    while postgres.queue_length == 0:
        env.step()
    queued = postgres._waiting[0]
    waiting = next(
        worker.sbc.node_id
        for worker in cluster.workers
        if worker.process._target is queued
    )
    ChaosEngine(cluster).apply(ChaosPlan(events=(
        ChaosEvent(ChaosKind.WORKER_CRASH, 0.0, waiting, 5.0),
    )))
    cluster.orchestrator.submit_batch(["SQLSelect"] * 4)
    env.run(until=120.0)
    assert postgres.count == 0
    assert postgres.queue_length == 0
    assert cluster.orchestrator.telemetry.count == 6
