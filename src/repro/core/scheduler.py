"""Job assignment policies.

The paper's OP adds each job "to a random sampling of those queues"
(Sec. IV-D) — i.e. every invocation goes to a uniformly random worker
queue.  Alternative policies are provided for the scheduling ablation:
round-robin, least-loaded, a packing policy that prefers workers that
are already powered on (trading energy proportionality for fewer cold
boots), and the hybrid cluster's energy- and carbon-aware routing.

Each policy is bound to one :class:`~repro.core.queue.LoadView`, an
orchestrator's or a shard coordinator's, and both drive it through the
same hooks, so sharded runs make the serial picks by construction.
Candidates are the alive, un-skipped workers in id order; every
least-loaded choice is the lowest-id minimum.
"""

from __future__ import annotations

import abc
import heapq
import random
from typing import Collection, Dict, List, Optional, Tuple

from repro.core.job import Job
from repro.core.platform import ARM
from repro.core.queue import LoadView

#: A lazy heap is rebuilt from live loads once it holds more than twice
#: its member count plus this many entries.
HEAP_SLACK = 16


class AssignmentPolicy(abc.ABC):
    """Chooses a worker for each incoming job."""

    name: str = ""
    #: Whether a shard coordinator can run this policy.  Its view holds
    #: loads, platform tags, the dead set and the decision time only; a
    #: policy that reads board power or queue depth is serial-only.
    shardable: bool = True
    #: The view this policy decides on (see :meth:`bind`).
    view: Optional[LoadView] = None

    def bind(self, view: LoadView) -> None:
        """Attach the policy to the one cluster view it will serve.

        A policy carries per-cluster state (heaps, counters, an RNG
        stream), so binding it to a second view is an error.
        """
        if self.view is not None and self.view is not view:
            raise RuntimeError(
                f"{self.name} policy is already bound to another cluster; "
                "build one policy object per orchestrator or coordinator"
            )
        self.view = view
        view.policy = self

    @abc.abstractmethod
    def select(self, job: Optional[Job], skip: Collection[int] = ()) -> int:
        """The worker id for ``job``: an alive worker not in ``skip``."""

    def on_load_change(self, worker_id: int) -> None:
        """``worker_id``'s outstanding count changed."""

    def on_alive_change(self, worker_id: int) -> None:
        """``worker_id`` died or was revived."""

    def _candidates(self, skip: Collection[int]):
        ids = self.view.alive_ids()
        if skip:
            ids = [wid for wid in ids if wid not in skip]
        if not ids:
            raise ValueError("no alive workers available")
        return ids


class RandomSamplingPolicy(AssignmentPolicy):
    """The paper's policy: a uniformly random queue per job."""

    name = "random-sampling"

    def __init__(self, rng: Optional[random.Random] = None):
        self.rng = rng if rng is not None else random.Random(0)

    def select(self, job, skip=()) -> int:
        ids = self._candidates(skip)
        return ids[self.rng.randrange(len(ids))]


class RoundRobinPolicy(AssignmentPolicy):
    """Cycle through workers in order."""

    name = "round-robin"

    def __init__(self):
        self._next = 0

    def select(self, job, skip=()) -> int:
        ids = self._candidates(skip)
        index = self._next % len(ids)
        self._next += 1
        return ids[index]


class PackingPolicy(AssignmentPolicy):
    """Prefer already-powered workers; wake the fewest boards possible.

    Among powered workers, pick the one with the fewest waiting jobs; if
    everyone is off, wake the lowest-numbered board.  Concentrates load
    (good for boot amortization, bad for queueing delay) — the opposite
    corner of the design space from random sampling.  Board power and
    queue depth are orchestrator-side state, so packing is serial-only.
    """

    name = "packing"
    shardable = False

    def bind(self, view: LoadView) -> None:
        if view.is_powered is None or view.depth is None:
            raise ValueError(
                "packing reads board power and queue depth, which only "
                "an orchestrator's view carries"
            )
        super().bind(view)

    def select(self, job, skip=()) -> int:
        ids = self._candidates(skip)
        is_powered, depth = self.view.is_powered, self.view.depth
        powered = [wid for wid in ids if is_powered(wid)]
        return min(powered or ids, key=lambda wid: (depth(wid), wid))


class _LoadHeap:
    """Lazy min-heap of ``(load, worker_id)`` over one group of workers.

    Every load or liveness change pushes a fresh entry; entries whose
    load no longer matches, or whose worker died, are dropped when they
    surface.  Stale entries beneath a valid top never surface, so the
    heap is rebuilt from live loads once it outgrows twice its members
    plus :data:`HEAP_SLACK` — bounded by the group, not the decisions.
    """

    __slots__ = ("view", "members", "entries")

    def __init__(self, view: LoadView, members: List[int]):
        self.view = view
        self.members = members
        self.rebuild()

    def rebuild(self) -> None:
        loads, dead = self.view.loads, self.view.dead
        self.entries = [
            (loads[wid], wid) for wid in self.members if wid not in dead
        ]
        heapq.heapify(self.entries)

    def push(self, worker_id: int) -> None:
        heapq.heappush(self.entries, (self.view.loads[worker_id], worker_id))
        if len(self.entries) > 2 * len(self.members) + HEAP_SLACK:
            self.rebuild()

    def top(self, skip: Collection[int]) -> Optional[Tuple[int, int]]:
        """The ``(load, worker_id)`` minimum over alive members not in
        ``skip``, or None."""
        loads, dead, entries = self.view.loads, self.view.dead, self.entries
        held = []
        found = None
        while entries:
            entry = entries[0]
            load, wid = entry
            if wid in dead or loads[wid] != load:
                heapq.heappop(entries)
            elif wid in skip:
                held.append(heapq.heappop(entries))
            else:
                found = entry
                break
        for entry in held:
            heapq.heappush(entries, entry)
        return found


class LeastLoadedPolicy(AssignmentPolicy):
    """Join-shortest-queue: fewest outstanding jobs (ties: lowest id).

    Outstanding counts queued *plus in-flight* work — depth alone would
    route jobs behind a busy worker whose queue happens to be empty.
    A lazy heap per worker group makes each decision O(log W).  Heaps
    are built from the view at the first decision after the worker
    count changes; until then hooks for workers they do not cover are
    ignored, as the build reads the live loads anyway.
    """

    name = "least-loaded"

    def bind(self, view: LoadView) -> None:
        super().bind(view)
        self._heaps: Dict[object, _LoadHeap] = {}
        self._heap_of: List[_LoadHeap] = []

    def _group(self, platform: str) -> object:
        return None  # one heap for every worker

    def _synced_heaps(self) -> Dict[object, _LoadHeap]:
        view = self.view
        if len(self._heap_of) != len(view.loads):
            groups: Dict[object, List[int]] = {}
            for wid, platform in enumerate(view.platforms):
                groups.setdefault(self._group(platform), []).append(wid)
            self._heaps = {
                key: _LoadHeap(view, members) for key, members in groups.items()
            }
            self._heap_of = [
                self._heaps[self._group(platform)] for platform in view.platforms
            ]
        return self._heaps

    def on_load_change(self, worker_id: int) -> None:
        if worker_id < len(self._heap_of):
            self._heap_of[worker_id].push(worker_id)

    on_alive_change = on_load_change

    def select(self, job, skip=()) -> int:
        for heap in self._synced_heaps().values():
            best = heap.top(skip)
            if best is not None:
                return best[1]
        raise ValueError("no alive workers available")


class EnergyAwarePolicy(LeastLoadedPolicy):
    """Prefer the cheap platform; spill to the expensive one under load.

    The hybrid cluster's default: every job goes to the least-loaded
    worker of the preferred platform (the ~5.7 J/function SBCs) unless
    *all* of them already hold at least ``spill_threshold`` outstanding
    jobs — queue pressure — *and* some other platform actually has a
    shorter queue, in which case it spills to the least-loaded worker of
    any other platform (the rack server is hot anyway, so marginal VM
    work is nearly free in energy but saves queueing delay).  The second
    condition keeps a saturating burst from dumping everything on the
    VMs: once their queues are as deep as the SBCs', spilling buys
    nothing.

    Deterministic (no RNG): ties break toward the lowest worker id.  It
    keeps one heap per platform, so on a homogeneous cluster it is
    exactly :class:`LeastLoadedPolicy`.
    """

    name = "energy-aware"

    def __init__(self, spill_threshold: int = 2, preferred: str = ARM):
        if spill_threshold < 1:
            raise ValueError("spill_threshold must be >= 1")
        self.spill_threshold = spill_threshold
        self.preferred = preferred

    def _group(self, platform: str) -> object:
        return platform

    def preferred_platform(self, now: float) -> str:
        """The platform to fill first at decision time ``now``."""
        return self.preferred

    def select(self, job, skip=()) -> int:
        heaps = self._synced_heaps()
        preferred = self.preferred_platform(self.view.now)
        best_pref = None
        best_other = None
        for platform, heap in heaps.items():
            top = heap.top(skip)
            if top is None:
                continue
            if platform == preferred:
                best_pref = top
            elif best_other is None or top < best_other:
                best_other = top
        spill = best_pref is None or (
            best_other is not None
            and best_pref[0] >= self.spill_threshold
            and best_other[0] < best_pref[0]
        )
        choice = best_other if spill else best_pref
        if choice is None:
            raise ValueError("no alive workers available")
        return choice[1]


class CarbonAwarePolicy(EnergyAwarePolicy):
    """Energy-aware routing whose *preferred* platform follows carbon.

    Each platform carries a :class:`~repro.energy.controlplane.
    CarbonSignal` (gCO2/kWh or $/kWh — any cost-per-joule curve) and a
    joules-per-function weight; at every assignment the policy prefers
    the platform with the cheapest cost × joules product at the view's
    decision time, then applies :class:`EnergyAwarePolicy`'s spill
    rule, so the latency guardrail (spill when the preferred queues
    back up) is unchanged.  With no signals it is exactly energy-aware.

    Signals are pre-sampled and the clock is read, never advanced —
    the policy stays deterministic and RNG-free.
    """

    name = "carbon-aware"

    def __init__(
        self,
        signals=None,
        joules_weights=None,
        spill_threshold: int = 2,
        preferred: str = ARM,
    ):
        super().__init__(spill_threshold=spill_threshold, preferred=preferred)
        self.signals = dict(signals) if signals else {}
        self.joules_weights = dict(joules_weights) if joules_weights else {}

    def preferred_platform(self, now: float) -> str:
        """The cheapest platform at ``now``: iteration runs over sorted
        platform names and a candidate must beat the incumbent by more
        than 1e-12, so ties go to the alphabetically-first platform."""
        best = None
        best_cost = None
        for platform in sorted(self.signals):
            cost = self.signals[platform].cost_at(now) * self.joules_weights.get(
                platform, 1.0
            )
            if best is None or cost < best_cost - 1e-12:
                best, best_cost = platform, cost
        return best if best is not None else self.preferred


_POLICIES = {
    RandomSamplingPolicy.name: RandomSamplingPolicy,
    RoundRobinPolicy.name: RoundRobinPolicy,
    LeastLoadedPolicy.name: LeastLoadedPolicy,
    PackingPolicy.name: PackingPolicy,
    EnergyAwarePolicy.name: EnergyAwarePolicy,
    CarbonAwarePolicy.name: CarbonAwarePolicy,
}


def make_policy(
    name: str,
    rng: Optional[random.Random] = None,
    spill_threshold: int = 2,
    signals=None,
    joules_weights=None,
) -> AssignmentPolicy:
    """Build a policy by name.

    ``rng`` applies to random-sampling, ``spill_threshold`` to the
    energy- and carbon-aware policies, ``signals`` and
    ``joules_weights`` to carbon-aware only.
    """
    cls = _POLICIES.get(name)
    if cls is None:
        raise KeyError(f"unknown policy {name!r}; known: {sorted(_POLICIES)}")
    if cls is RandomSamplingPolicy:
        return cls(rng)
    if cls is CarbonAwarePolicy:
        return cls(signals, joules_weights, spill_threshold=spill_threshold)
    if cls is EnergyAwarePolicy:
        return cls(spill_threshold=spill_threshold)
    return cls()


__all__ = [
    "AssignmentPolicy",
    "CarbonAwarePolicy",
    "EnergyAwarePolicy",
    "HEAP_SLACK",
    "LeastLoadedPolicy",
    "PackingPolicy",
    "RandomSamplingPolicy",
    "RoundRobinPolicy",
    "make_policy",
]
