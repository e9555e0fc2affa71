"""Backend adapters: one invocation surface over every cluster shape.

The executor never talks to a cluster directly; it talks to a backend
adapter with four duties:

- **submit** one call (optionally with extra input bytes for chained
  intermediate data, billed through the backend's transfer model);
- **submit a batch** of calls in order, exactly as
  :meth:`~repro.core.orchestrator.Orchestrator.submit_batch` does;
- **push resolutions** to the job monitor via the backend's
  ``on_job_done`` hook (never polled);
- expose enough metadata for the monitor (attempt start times for
  RUNNING detection, trace annotation, output sizes for chaining).

Two adapters cover the whole stack: :class:`ClusterBackend` wraps any
:class:`~repro.cluster.harness.ClusterHarness` (MicroFaaS,
Conventional, Hybrid), and :class:`FederationBackend` wraps a
:class:`~repro.federation.gateway.FederatedCluster` via its gateway.
:func:`as_backend` picks the right adapter from a bare object.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, List, Optional

from repro.workloads.profiles import profile_for

#: Resolution pushed to the monitor:
#: ``callback(key, ok, value, failure_reason, output_bytes)``.
DoneCallback = Callable[[Any, bool, Any, Optional[str], int], None]


@dataclass(frozen=True)
class CallSpec:
    """One backend submission, as the invoker carries it."""

    function: str
    #: Intermediate data from resolved parent futures, added to the
    #: job's input payload (billed through the transfer model).
    extra_input_bytes: int = 0
    #: Client idempotency key (stamped on the backend job so every
    #: client retry of the call shares one logical identity).
    idempotency_key: Optional[str] = None
    #: Federation-only routing hints (ignored by cluster backends).
    geo: Optional[str] = None
    priority: int = 1


class ClusterBackend:
    """Adapter over any harness-built cluster (SBC, VM, or hybrid)."""

    kind = "cluster"
    #: Chained calls may add parent output bytes to a job's input.
    supports_chaining = True

    def __init__(self, cluster):
        self.cluster = cluster
        self.env = cluster.env
        self.orchestrator = cluster.orchestrator

    def connect(self, callback: DoneCallback) -> None:
        """Route orchestrator job resolutions into the monitor."""

        def bridge(job, record):
            callback(
                job.job_id,
                record is not None,
                record,
                job.failure,
                job.output_bytes,
            )

        self.orchestrator.on_job_done(bridge)

    def _make_job(self, spec: CallSpec):
        job = self.orchestrator.make_job(spec.function)
        if spec.extra_input_bytes:
            job.input_bytes += spec.extra_input_bytes
        if spec.idempotency_key is not None:
            job.idempotency_key = spec.idempotency_key
        return job

    def submit(self, spec: CallSpec) -> Any:
        """Submit one call now; returns the backend job."""
        return self.orchestrator.submit(self._make_job(spec))

    def submit_batch(self, specs: List[CallSpec]) -> List[Any]:
        """Submit calls in order, exactly like
        :meth:`Orchestrator.submit_batch`."""
        return [self.submit(spec) for spec in specs]

    # -- monitor metadata ----------------------------------------------------

    def key_of(self, handle) -> Any:
        return handle.job_id

    def trace_id_of(self, handle) -> Optional[Any]:
        return handle.trace_id

    def running_since(self, key) -> Optional[float]:
        """When the job's current attempt started executing (None while
        queued, or once the job is evicted)."""
        job = self.orchestrator.jobs.get(key)
        return job.t_started if job is not None else None

    def annotate(self, trace_id, name: str, now: float, attrs=None) -> None:
        self.orchestrator.tracer.annotate(trace_id, name, now, attrs=attrs)

    def drain_event(self):
        """Backend-level drain (used by study runners to let late
        duplicate attempts finish so energy windows seal)."""
        return self.orchestrator.wait_all()


class FederationBackend:
    """Adapter over a federated cluster's gateway front door."""

    kind = "federation"
    #: The gateway builds regional jobs itself; intermediate-data
    #: billing is a region-internal concern the front door cannot
    #: reach, so chained calls are rejected with a clear error.
    supports_chaining = False

    def __init__(self, federation, default_geo: Optional[str] = None):
        self.federation = federation
        self.env = federation.env
        self.default_geo = (
            default_geo
            if default_geo is not None
            else federation.regions[0].geo
        )

    def connect(self, callback: DoneCallback) -> None:
        def bridge(fed):
            callback(
                fed.fed_id,
                fed.delivered,
                fed,
                "shed" if fed.shed else None,
                profile_for(fed.function).output_bytes,
            )

        self.federation.on_job_done(bridge)

    def submit(self, spec: CallSpec) -> Any:
        if spec.extra_input_bytes:
            raise ValueError(
                "futures-as-inputs chaining is not supported over the "
                "federation gateway (intermediate data cannot be billed "
                "through a region's transfer model from the front door)"
            )
        geo = spec.geo if spec.geo is not None else self.default_geo
        return self.federation.submit(spec.function, geo, spec.priority)

    def submit_batch(self, specs: List[CallSpec]) -> List[Any]:
        # The gateway pays per-job WAN ingress processes: a batch is an
        # ordered loop.
        return [self.submit(spec) for spec in specs]

    # -- monitor metadata ----------------------------------------------------

    def key_of(self, handle) -> Any:
        return handle.fed_id

    def trace_id_of(self, handle) -> Optional[Any]:
        return None  # regional traces live behind the WAN

    def running_since(self, key) -> Optional[float]:
        return None  # attempt starts are region-internal

    def annotate(self, trace_id, name: str, now: float, attrs=None) -> None:
        pass

    def drain_event(self):
        return self.federation.wait_all()


def as_backend(target):
    """Coerce a cluster-ish object into a backend adapter.

    Accepts an existing adapter (anything with ``connect`` and
    ``submit_batch``), a :class:`~repro.cluster.harness.ClusterHarness`
    (or subclass), or a
    :class:`~repro.federation.gateway.FederatedCluster`.
    """
    if hasattr(target, "connect") and hasattr(target, "key_of"):
        return target  # already an adapter
    if hasattr(target, "orchestrator") and hasattr(target, "env"):
        return ClusterBackend(target)
    if hasattr(target, "regions") and hasattr(target, "submit"):
        return FederationBackend(target)
    raise TypeError(f"cannot build a client backend over {target!r}")


__all__ = [
    "CallSpec",
    "ClusterBackend",
    "DoneCallback",
    "FederationBackend",
    "as_backend",
]
