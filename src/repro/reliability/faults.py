"""Fault injection for the MicroFaaS cluster simulation.

A :class:`FaultPlan` schedules worker deaths (and optional repairs); the
:class:`FaultInjector` executes the plan against a running
:class:`~repro.cluster.microfaas.MicroFaaSCluster`:

1. at the fault time the board loses power instantly (crash, not a
   clean shutdown) and its worker process dies;
2. after a detection delay (the OP's heartbeat timeout) the
   orchestrator marks the worker dead, drains its queue, and resubmits
   the in-flight job plus everything queued behind it to live workers;
3. if the plan includes a repair, a replacement worker process spawns
   on the same queue after the repair delay.

Because run-to-completion functions are stateless and the result is
only reported at the end, resubmission is safe — the paper's model has
no partial side effects to roll back (network-bound functions would
rely on their backends' idempotence, e.g. the NX/XX guards RedisInsert
already uses).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Tuple

from repro.reliability.mtbf import FailureModel
from repro.sim.rng import RandomStreams


@dataclass(frozen=True)
class FaultEvent:
    """One planned worker death."""

    time_s: float
    worker_id: int
    repair_after_s: Optional[float] = None

    def __post_init__(self) -> None:
        if self.time_s < 0:
            raise ValueError("fault time cannot be negative")
        if self.repair_after_s is not None and self.repair_after_s <= 0:
            raise ValueError("repair delay must be positive")


@dataclass(frozen=True)
class FaultPlan:
    """A schedule of worker deaths."""

    events: Tuple[FaultEvent, ...]

    def __post_init__(self) -> None:
        worker_times: set = set()
        for event in self.events:
            key = (event.worker_id, event.time_s)
            if key in worker_times:
                raise ValueError(f"duplicate fault {key}")
            worker_times.add(key)

    @classmethod
    def single(
        cls, time_s: float, worker_id: int, repair_after_s: Optional[float] = None
    ) -> "FaultPlan":
        """Plan with one fault."""
        return cls(events=(FaultEvent(time_s, worker_id, repair_after_s),))

    @classmethod
    def from_failure_model(
        cls,
        model: FailureModel,
        worker_count: int,
        duration_s: float,
        acceleration: float = 1.0,
        streams: Optional[RandomStreams] = None,
        repair_after_s: Optional[float] = None,
    ) -> "FaultPlan":
        """Sample faults from an MTBF model over a run.

        Real SBC MTBFs are measured in centuries, so experiments use an
        ``acceleration`` factor (>1 makes failures proportionally more
        frequent) to observe recovery behaviour in feasible runs.

        Each worker's failures form a renewal process: after a failure
        and its repair, the clock restarts and the worker can fail again
        within the same run.  Without a repair delay a dead worker stays
        dead, so at most one failure is drawn for it.
        """
        if worker_count < 1:
            raise ValueError("need at least one worker")
        if duration_s <= 0:
            raise ValueError("duration must be positive")
        if acceleration <= 0:
            raise ValueError("acceleration must be positive")
        streams = streams if streams is not None else RandomStreams(0)
        events: List[FaultEvent] = []
        for worker_id in range(worker_count):
            clock_s = 0.0
            failure_index = 0
            while True:
                draw = streams.uniform(
                    f"fault-{worker_id}-{failure_index}", 1e-12, 1.0
                )
                lifetime_s = (
                    model.sample_lifetime_hours(draw) * 3600.0 / acceleration
                )
                clock_s += lifetime_s
                if clock_s >= duration_s:
                    break
                events.append(
                    FaultEvent(clock_s, worker_id, repair_after_s)
                )
                if repair_after_s is None:
                    break  # dead stays dead: no further failures to draw
                clock_s += repair_after_s
                failure_index += 1
        return cls(events=tuple(sorted(events, key=lambda e: e.time_s)))


class FaultInjector:
    """Executes a :class:`FaultPlan` against a MicroFaaS cluster."""

    def __init__(self, cluster, detection_delay_s: float = 1.0):
        if detection_delay_s < 0:
            raise ValueError("detection delay cannot be negative")
        self.cluster = cluster
        self.detection_delay_s = detection_delay_s
        # Kills land at arbitrary instants: workers must run every job
        # phase by phase so a kill sees the board mid-phase.
        cluster.env.attach_actor(self)
        self.kills: List[Tuple[float, int]] = []
        self.recovered_jobs = 0
        self.repairs = 0

    def apply(self, plan: FaultPlan) -> None:
        """Schedule every fault in the plan (call before running)."""
        for event in plan.events:
            self.cluster.env.process(
                self._inject(event), name=f"fault-w{event.worker_id}"
            )

    def _inject(self, event: FaultEvent):
        env = self.cluster.env
        yield env.timeout(event.time_s)
        worker = self.cluster.workers[event.worker_id]
        sbc = self.cluster.sbcs[event.worker_id]
        orchestrator = self.cluster.orchestrator
        self.kills.append((env.now, event.worker_id))
        # Power cut + process death.
        if worker.process.is_alive:
            worker.process.interrupt("hardware fault")
        if sbc.is_powered:
            sbc.power_off()
        # Detection (heartbeat timeout) before recovery starts.
        yield env.timeout(self.detection_delay_s)
        # A second fault may land on a worker already marked dead (e.g.
        # overlapping events before the repair) — marking is idempotent
        # then, and the repair below must still run so the board comes
        # back.
        if event.worker_id not in orchestrator.dead_workers:
            orchestrator.mark_worker_dead(event.worker_id)
        orchestrator.note_worker_failure(event.worker_id)
        # Re-read the worker: a repair from an earlier fault may have
        # replaced the object while we waited out the detection delay.
        worker = self.cluster.workers[event.worker_id]
        lost = []
        if worker.current_job is not None and not worker.current_job.is_finished:
            lost.append(worker.current_job)
            worker.current_job = None
        lost.extend(orchestrator.queues[event.worker_id].drain())
        for job in lost:
            if orchestrator.recover_job(job):
                self.recovered_jobs += 1
        # Optional repair: replacement board on the same port/queue.
        if event.repair_after_s is not None:
            yield env.timeout(event.repair_after_s)
            if not self.cluster.workers[event.worker_id].process.is_alive:
                self.cluster.respawn_worker(event.worker_id)
            orchestrator.mark_worker_alive(event.worker_id)
            orchestrator.note_worker_recovered(event.worker_id)
            self.repairs += 1


__all__ = ["FaultEvent", "FaultInjector", "FaultPlan"]
