"""Backend-service capacity model.

The testbed hosts each backend service (Redis/PostgreSQL/MinIO/Kafka)
on *one dedicated SBC* (Sec. IV-C).  At 10 workers those boxes coast;
scaled to hundreds of workers, a single-board PostgreSQL becomes the
next wall after the control plane.  This module models each backend as
a finite-concurrency server: a network-bound function's backend-facing
I/O claims a slot for the *service* share of its wait, so queueing
emerges once concurrent demand exceeds the backend's parallelism.

The non-service share of the I/O phase (network round-trip time) never
queues — the wire is idle waiting, not backend work.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Mapping, Optional

from repro.sim.kernel import Environment
from repro.sim.resources import Resource

#: Which backend box serves each service operation prefix.
SERVICE_OF_OP = {
    "kv": "redis",
    "sql": "postgres",
    "cos": "minio",
    "mq": "kafka",
}

#: Fraction of a network-bound function's I/O phase that is backend
#: processing (the rest is round-trip wire time).  Calibration note:
#: the profiles fold both into ``(1 - cpu_fraction) * work``; point-op
#: services are RTT-dominated, query/object services work-dominated.
SERVICE_SHARE = {
    "redis": 0.25,
    "postgres": 0.70,
    "minio": 0.65,
    "kafka": 0.30,
}


@dataclass(frozen=True)
class BackendCapacityModel:
    """Concurrency each single-board backend sustains.

    Defaults reflect one SBC per service: Redis and Kafka are
    single-threaded event loops that interleave well (higher effective
    concurrency for sub-ms ops); PostgreSQL and MinIO do real per-request
    work on one core.
    """

    concurrency: Mapping[str, int] = field(
        default_factory=lambda: {
            "redis": 8,
            "postgres": 2,
            "minio": 2,
            "kafka": 6,
        }
    )

    def __post_init__(self) -> None:
        missing = set(SERVICE_SHARE) - set(self.concurrency)
        if missing:
            raise ValueError(f"missing concurrency for services: {missing}")
        bad = {s: c for s, c in self.concurrency.items() if c < 1}
        if bad:
            raise ValueError(f"concurrency must be >= 1: {bad}")


def service_for(operation: str) -> str:
    """Map a profile's ``service_op`` (e.g. ``sql.select``) to its box."""
    prefix = operation.split(".", 1)[0]
    if prefix not in SERVICE_OF_OP:
        raise KeyError(f"unknown service operation {operation!r}")
    return SERVICE_OF_OP[prefix]


class BackendFleet:
    """The simulation-side backend boxes, one resource per service."""

    def __init__(
        self,
        env: Environment,
        model: BackendCapacityModel = BackendCapacityModel(),
    ):
        self.env = env
        self.model = model
        self.resources: Dict[str, Resource] = {
            service: Resource(env, capacity=count)
            for service, count in model.concurrency.items()
        }
        self.requests_served: Dict[str, int] = {
            service: 0 for service in model.concurrency
        }
        self.busy_seconds: Dict[str, float] = {
            service: 0.0 for service in model.concurrency
        }
        #: Chaos state: per-service outage horizon.  A request arriving
        #: while its service is down waits out the remainder (clients
        #: block on reconnect; the work itself is not lost).
        self.down_until: Dict[str, float] = {
            service: 0.0 for service in model.concurrency
        }
        self.faults_injected: Dict[str, int] = {
            service: 0 for service in model.concurrency
        }

    def fail_service(self, service: str, until_s: float) -> None:
        """Take one backend box down until ``until_s`` (extends)."""
        if service not in self.down_until:
            raise KeyError(f"unknown service {service!r}")
        self.down_until[service] = max(self.down_until[service], until_s)
        self.faults_injected[service] += 1

    def outage_remaining_s(self, service: str) -> float:
        return max(0.0, self.down_until[service] - self.env.now)

    def serve(self, operation: str, io_wait_s: float):
        """Process helper: perform a function's backend I/O phase.

        Splits the wait into wire time (non-queueing) and service time
        (claims the backend's concurrency), preserving the calibrated
        total when uncontended.
        """
        if io_wait_s < 0:
            raise ValueError("negative I/O wait")
        service = service_for(operation)
        outage = self.outage_remaining_s(service)
        if outage > 0:
            # The box is down: the client blocks retrying until it
            # answers again, then the operation proceeds normally.
            yield self.env.timeout(outage)
        service_s = io_wait_s * SERVICE_SHARE[service]
        wire_s = io_wait_s - service_s
        if wire_s > 0:
            yield self.env.timeout(wire_s)
        if service_s > 0:
            resource = self.resources[service]
            request = resource.request()
            try:
                # Inside the try: a crash while still queued must
                # withdraw the claim (release cancels an ungranted one),
                # or the slot leaks to a dead worker once granted.
                yield request
                yield self.env.timeout(service_s)
                self.busy_seconds[service] += service_s
            finally:
                resource.release(request)
        self.requests_served[service] += 1

    def queue_length(self, service: str) -> int:
        return self.resources[service].queue_length

    def utilization(self, service: str, duration_s: float) -> float:
        """Busy fraction of one backend over a window."""
        if duration_s <= 0:
            raise ValueError("duration must be positive")
        capacity = self.model.concurrency[service]
        return min(1.0, self.busy_seconds[service] / (duration_s * capacity))


__all__ = [
    "BackendCapacityModel",
    "BackendFleet",
    "SERVICE_OF_OP",
    "SERVICE_SHARE",
    "service_for",
]
