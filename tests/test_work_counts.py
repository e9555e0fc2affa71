"""Deterministic work counts: kernel events scheduled per invocation.

Wall-clock jitters; the number of events the kernel schedules does not.
These pins are exact on purpose.  A change that moves them changed the
simulator's algorithm — for instance, a gate that silently turns phase
fusion on or off — and must re-pin them deliberately.

The count is the growth of ``Environment._sequence`` (one per scheduled
event, whichever factory made it) over a replay.
"""

from __future__ import annotations

from repro.cluster.microfaas import MicroFaaSCluster
from repro.cluster.replay import replay_trace
from repro.core.policies import RecoveryPolicy
from repro.core.scheduler import LeastLoadedPolicy
from repro.experiments.megatrace import WORKER_JOBS_PER_S
from repro.reliability.chaos import ChaosEngine, ChaosPlan, ChaosProfile
from repro.shard.runtime import ClusterSpec
from repro.sim.rng import RandomStreams
from repro.workloads.traces import poisson_trace

WORKERS = 16
INVOCATIONS = 800
SEED = 1


def _scheduled_and_delivered(chaos: bool):
    """A small megatrace-shaped replay (Poisson arrivals at 0.85 of
    capacity, least-loaded, streaming telemetry with eviction)."""
    rate = WORKERS * WORKER_JOBS_PER_S * 0.85
    trace = poisson_trace(
        rate, INVOCATIONS / rate, streams=RandomStreams(SEED), columnar=True
    )
    cluster = MicroFaaSCluster(
        worker_count=WORKERS,
        seed=SEED,
        policy=LeastLoadedPolicy(),
        telemetry_exact=False,
        blueprint=ClusterSpec(
            kind="microfaas", worker_count=WORKERS
        ).blueprint(),
    )
    cluster.orchestrator.evict_finished = True
    if chaos:
        plan = ChaosPlan.sample(
            ChaosProfile(scale=1.0),
            worker_count=WORKERS,
            horizon_s=trace.duration_s,
            streams=RandomStreams(SEED).spawn("chaos"),
            switch_count=len(cluster.switches),
        )
        ChaosEngine(cluster).apply(plan)
    before = cluster.env._sequence
    result = replay_trace(cluster, trace)
    assert result.jobs_completed == len(trace)
    return cluster.env._sequence - before, result.jobs_completed


def test_fused_path_event_count_is_pinned():
    # One completion event per job, plus the arrival's timeout and the
    # queue's put and get events: ~4.0 per delivered invocation.  The
    # per-phase path adds five phase timeouts (~9.0; 7358 on this run).
    assert _scheduled_and_delivered(chaos=False) == (3273, 817)


def test_per_phase_path_event_count_is_pinned():
    # Chaos attaches an actor, so every job runs phase by phase.
    assert _scheduled_and_delivered(chaos=True) == (8299, 817)


def test_recovery_path_event_count_and_counters_are_pinned():
    # The resilience workload's shape at half its length: 0.4 of
    # capacity under chaos, with recovery and the energy ledger on.
    # The supervisor's ticks, retries and hedges are all scheduled
    # events, so a change to the tick schedule or retry order moves
    # these numbers.
    invocations = 3000
    rate = WORKERS * WORKER_JOBS_PER_S * 0.4
    trace = poisson_trace(
        rate, invocations / rate, streams=RandomStreams(SEED), columnar=True
    )
    cluster = MicroFaaSCluster(
        worker_count=WORKERS,
        seed=SEED,
        policy=LeastLoadedPolicy(),
        recovery=RecoveryPolicy(),
    )
    cluster.enable_energy_ledger()
    plan = ChaosPlan.sample(
        ChaosProfile(scale=1.0),
        worker_count=WORKERS,
        horizon_s=trace.duration_s,
        streams=RandomStreams(SEED).spawn("chaos"),
        switch_count=len(cluster.switches),
    )
    ChaosEngine(cluster).apply(plan)
    before = cluster.env._sequence
    result = replay_trace(cluster, trace)
    op = cluster.orchestrator
    assert result.jobs_completed == len(trace) == 2961
    assert cluster.env._sequence - before == 35273
    assert (
        op.resubmissions, op.timeout_retries, op.hedges, op.jobs_lost
    ) == (285, 0, 2, 0)
