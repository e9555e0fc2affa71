"""Per-worker job queues and the load view assignment policies read.

The OP "maintains a job queue for each worker" (Sec. IV-D).  A
:class:`WorkerQueue` wraps a simulation :class:`~repro.sim.resources.Store`
with job bookkeeping: depth statistics and the enqueue hook the
orchestrator uses to trigger GPIO power-on for sleeping workers.

A :class:`LoadView` is the integer scheduling state of one cluster:
per-worker outstanding counts, platform tags, the dead set and the
decision time.  Queues keep their outstanding count in it, so every
push and completion reaches the assignment policy bound to the view,
whoever makes it.  A shard coordinator, which holds no queues, keeps a
view of its own and updates it from the shards' reports.
"""

from __future__ import annotations

from typing import Callable, Iterable, List, Optional, Sequence

from repro.core.job import Job, JobStatus
from repro.core.platform import ARM
from repro.sim.kernel import Environment
from repro.sim.resources import Store


class LoadView:
    """Integer scheduling state: what every assignment policy reads.

    ``loads[w]`` counts the jobs assigned to worker ``w`` and not yet
    finished (queued plus in flight), ``platforms[w]`` is its tag,
    ``dead`` holds the failed workers and ``now`` is the time of the
    decision being made, set by whoever asks the bound policy for a
    pick.  ``is_powered`` and ``depth`` are probes only an orchestrator
    can answer; they stay None on a coordinator's view.
    """

    now = 0.0
    policy = None
    is_powered: Optional[Callable[[int], bool]] = None
    depth: Optional[Callable[[int], int]] = None
    _alive: Optional[List[int]] = None  # cached alive_ids()

    def __init__(self, platforms: Sequence[str] = ()):
        self.loads: List[int] = [0] * len(platforms)
        self.platforms: List[str] = list(platforms)
        self.dead: set = set()

    def add_workers(self, platform: str, count: int = 1) -> int:
        """Append ``count`` idle workers; returns the first new id."""
        first = len(self.loads)
        self.loads.extend([0] * count)
        self.platforms.extend([platform] * count)
        self._alive = None
        return first

    def change_load(self, worker_id: int, delta: int) -> None:
        self.loads[worker_id] += delta
        if self.policy is not None:
            self.policy.on_load_change(worker_id)

    def mark_dead(self, worker_id: int) -> None:
        self.dead.add(worker_id)
        self._alive_changed(worker_id)

    def mark_alive(self, worker_id: int) -> None:
        self.dead.discard(worker_id)
        self._alive_changed(worker_id)

    def _alive_changed(self, worker_id: int) -> None:
        self._alive = None
        if self.policy is not None:
            self.policy.on_alive_change(worker_id)

    def alive_ids(self) -> Sequence[int]:
        """Alive worker ids in ascending order."""
        dead = self.dead
        if not dead:
            return range(len(self.loads))
        if self._alive is None:
            self._alive = [w for w in range(len(self.loads)) if w not in dead]
        return self._alive

    def skip_set(
        self, quarantined: Iterable[int], exclude: Optional[int] = None
    ) -> set:
        """Alive workers a decision should pass over.

        Quarantined workers (alive, each listed once) are skipped unless
        that would skip every alive worker; then ``exclude`` (the worker
        a retry or hedge flees) is skipped unless it is the last
        candidate left.  Neither ever starves the cluster.
        """
        alive = len(self.loads) - len(self.dead)
        skip = set(quarantined)
        if len(skip) >= alive:
            skip = set()
        if (
            exclude is not None
            and exclude not in self.dead
            and exclude not in skip
            and alive - len(skip) > 1
        ):
            skip.add(exclude)
        return skip


class WorkerQueue:
    """FIFO job queue owned by one worker."""

    def __init__(self, env: Environment, worker_id: int, platform: str = ARM):
        self.env = env
        self.worker_id = worker_id
        #: Worker platform tag (see :mod:`repro.core.platform`), copied
        #: into the load view platform-aware policies read.
        self.platform = platform
        self._store = Store(env)
        self.jobs_enqueued = 0
        self.jobs_dequeued = 0
        # The outstanding count lives in a load view: a private one
        # until an orchestrator moves the queue into its cluster's view.
        self._view = LoadView((platform,))
        self._slot = 0
        self.peak_depth = 0
        self._on_enqueue: List[Callable[[Job], None]] = []

    @property
    def outstanding(self) -> int:
        """Jobs assigned here and not yet finished (queued + in flight).

        The load signal join-shortest-queue policies read: depth alone
        misses the job the worker is executing.
        """
        return self._view.loads[self._slot]

    def count_in(self, view: LoadView) -> None:
        """Keep this (idle) queue's outstanding count in ``view``."""
        self._slot = view.add_workers(self.platform)
        self._view = view

    @property
    def depth(self) -> int:
        """Jobs currently waiting."""
        return len(self._store)

    def on_enqueue(self, callback: Callable[[Job], None]) -> None:
        """Register a hook fired on every enqueue (e.g. GPIO power-on)."""
        self._on_enqueue.append(callback)

    def push(self, job: Job) -> None:
        """Enqueue a job (the store is unbounded, so this never blocks)."""
        job.worker_id = self.worker_id
        job.transition(JobStatus.QUEUED, self.env.now)
        self._store.put(job)
        self.jobs_enqueued += 1
        self._view.change_load(self._slot, 1)
        self.peak_depth = max(self.peak_depth, self.depth)
        for callback in self._on_enqueue:
            callback(job)

    def pop(self):
        """Event that fires with the next job (worker-side)."""
        event = self._store.get()
        event.callbacks.append(self._count_dequeue)
        return event

    def _count_dequeue(self, _event) -> None:
        self.jobs_dequeued += 1

    def cancel_pop(self, event) -> None:
        """Withdraw a pending :meth:`pop` (e.g. the worker died)."""
        self._store.cancel(event)

    def job_finished(self) -> None:
        """One assigned job completed/failed/left: drop it from the
        outstanding count."""
        if self.outstanding <= 0:
            raise RuntimeError(
                f"queue {self.worker_id}: outstanding underflow"
            )
        self._view.change_load(self._slot, -1)

    def drain(self) -> List[Job]:
        """Remove and return every queued job (dead-worker recovery)."""
        drained = list(self._store.items)
        self._store.items.clear()
        return drained

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<WorkerQueue #{self.worker_id} depth={self.depth}>"


class RemoteQueueStub:
    """Queue-shaped placeholder for a worker another shard simulates.

    Blueprint-built shards (see :mod:`repro.cluster.blueprint`) keep
    every global worker id in ``orchestrator.queues`` so ids stay
    aligned with the serial build, but a remote worker never receives
    work locally — all policy decisions route through the coordinator
    before any queue is touched.  The stub carries only the identity
    and always-zero load counters; any attempt to actually enqueue or
    dequeue on it is a sharding bug and raises.
    """

    __slots__ = ("worker_id", "platform")

    # Load counters are class attributes: always zero, and read-only
    # through instances (writes raise AttributeError via __slots__).
    depth = 0
    outstanding = 0
    jobs_enqueued = 0
    jobs_dequeued = 0
    peak_depth = 0

    def __init__(self, worker_id: int, platform: str = ARM):
        self.worker_id = worker_id
        self.platform = platform

    def push(self, job) -> None:
        raise RuntimeError(
            f"worker {self.worker_id} is remote to this shard; "
            "jobs must not be enqueued on its stub queue"
        )

    def pop(self):
        raise RuntimeError(
            f"worker {self.worker_id} is remote to this shard"
        )

    def drain(self):
        raise RuntimeError(
            f"worker {self.worker_id} is remote to this shard"
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<RemoteQueueStub #{self.worker_id}>"


__all__ = ["LoadView", "RemoteQueueStub", "WorkerQueue"]
