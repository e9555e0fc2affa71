"""Fused invocation windows against the per-phase path.

A worker with nothing attached that could act inside a job's window
runs the job as one completion event (see ``SbcWorker._fusable``).
Attaching any actor to the environment forces the per-phase path, so
each test drives two identically seeded clusters — one bare, one with a
no-op actor attached — through the same arrivals, stops both at the
same random instants (most of them inside some job's window), and
compares everything a reader can see, exactly.
"""

from __future__ import annotations

import random

import pytest

from repro.cluster.hybrid import HybridCluster
from repro.cluster.microfaas import MicroFaaSCluster
from repro.core.lifecycle import RunToCompletionPolicy
from repro.core.scheduler import LeastLoadedPolicy, RoundRobinPolicy
from repro.core.warmpool import WarmPool
from repro.hardware.power import PowerState
from repro.obs.trace import TraceConfig
from repro.reliability.chaos import ChaosEngine
from repro.reliability.faults import FaultInjector
from repro.sim.rng import RandomStreams
from repro.workloads.traces import poisson_trace


class _Bystander:
    """An attached actor that never acts: it only forces the per-phase
    path, without touching anything either path reads."""


def _start_arrivals(cluster, trace) -> None:
    env = cluster.env
    orchestrator = cluster.orchestrator

    def submitter():
        for time_s, function in trace.iter_pairs():
            if time_s > env.now:
                yield env.timeout_at(time_s)
            orchestrator.submit_batch([function])

    env.process(submitter(), name="test-submitter")


def _boards(cluster):
    return cluster.sbc_pool.sbcs if isinstance(cluster, HybridCluster) else cluster.sbcs


def _snapshot(cluster):
    now = cluster.env.now
    boards = []
    for sbc in _boards(cluster):
        boards.append((
            sbc.state,
            sbc.watts,
            sbc.is_powered,
            sbc.clean,
            sbc.boot_count,
            sbc.jobs_completed,
            tuple(sbc.psm.time_in_state(state) for state in PowerState),
            sbc.trace.energy_joules(0.0, now),
            sbc.trace.power_at(now),
            tuple(sbc.trace.change_points),
        ))
    telemetry = cluster.orchestrator.telemetry
    return {
        "now": now,
        "boards": boards,
        "energy": cluster.energy_joules(0.0, now),
        "records": list(telemetry.records),
        "count": telemetry.count,
    }


def _in_window(cluster) -> int:
    return sum(1 for sbc in _boards(cluster) if sbc.in_window)


def _compare(make_cluster, rate_per_s: float, seed: int, stops: int = 40):
    trace = poisson_trace(rate_per_s, 60.0, streams=RandomStreams(seed))
    fused = make_cluster()
    phased = make_cluster()
    phased.env.attach_actor(_Bystander())
    for cluster in (fused, phased):
        _start_arrivals(cluster, trace)
    rng = random.Random(seed)
    instants = sorted(rng.uniform(0.0, 70.0) for _ in range(stops))
    inside = 0
    for instant in instants:
        fused.env.run(until=instant)
        phased.env.run(until=instant)
        inside += _in_window(fused)
        assert _in_window(phased) == 0
        assert _snapshot(fused) == _snapshot(phased)
    for cluster in (fused, phased):
        cluster.env.run()
    assert _snapshot(fused) == _snapshot(phased)
    assert fused.orchestrator.telemetry.count == len(trace)
    # The stops really landed inside open windows, and fusion really
    # scheduled fewer events.
    assert inside > 0
    assert fused.env._sequence < phased.env._sequence


@pytest.mark.parametrize("jitter_sigma", [0.0, 0.06])
@pytest.mark.parametrize(
    "lifecycle",
    [
        RunToCompletionPolicy.paper_default(),
        RunToCompletionPolicy.warm_workers(),
        RunToCompletionPolicy(idle_grace_s=0.75),
    ],
    ids=["paper-default", "warm-workers", "idle-grace"],
)
def test_fused_matches_per_phase_on_microfaas(jitter_sigma, lifecycle):
    def make():
        return MicroFaaSCluster(
            worker_count=6,
            seed=11,
            jitter_sigma=jitter_sigma,
            worker_policy=lifecycle,
        )

    _compare(make, rate_per_s=2.5, seed=11)


@pytest.mark.parametrize("jitter_sigma", [0.0, 0.06])
def test_fused_matches_per_phase_on_hybrid(jitter_sigma):
    def make():
        return HybridCluster(
            sbc_count=5, vm_count=3, seed=5, jitter_sigma=jitter_sigma
        )

    _compare(make, rate_per_s=4.0, seed=5)


def test_saturated_burst_matches_per_phase():
    """Everything lands at t=0: lockstep boards tie at every boundary."""

    def run(force_per_phase):
        cluster = MicroFaaSCluster(worker_count=4, seed=3, jitter_sigma=0.0)
        if force_per_phase:
            cluster.env.attach_actor(_Bystander())
        result = cluster.run_saturated(invocations_per_function=3)
        return result, _snapshot(cluster)

    fused_result, fused = run(False)
    phased_result, phased = run(True)
    assert fused == phased
    assert fused_result.energy_joules == phased_result.energy_joules
    assert fused_result.throughput_per_min == phased_result.throughput_per_min


def test_completion_ties_fire_in_per_phase_order():
    """Two boards with different histories finish at the same float
    instant; their completions (and so the telemetry records) must come
    in the per-phase order, which follows the result phases' starts."""

    def run(force_per_phase):
        cluster = MicroFaaSCluster(
            worker_count=3, seed=5, jitter_sigma=0.0,
            worker_policy=RunToCompletionPolicy.warm_workers(),
            policy=RoundRobinPolicy(),
        )
        if force_per_phase:
            cluster.env.attach_actor(_Bystander())
        cluster.run_paper_arrivals(jobs_per_second=4, total_jobs=60)
        return cluster.orchestrator.telemetry.records

    fused, phased = run(False), run(True)
    completions = [record.t_completed for record in phased]
    assert len(set(completions)) < len(completions)  # a tie exists
    assert fused == phased


def test_traced_jobs_take_the_per_phase_path():
    cluster = MicroFaaSCluster(
        worker_count=2, seed=1, trace=TraceConfig(sample_rate=1.0)
    )
    cluster.orchestrator.submit_batch(["FloatOps", "FloatOps"])
    cluster.env.run(until=0.5)
    assert _in_window(cluster) == 0


@pytest.mark.parametrize(
    "attach",
    [
        ChaosEngine,
        FaultInjector,
        lambda cluster: WarmPool(cluster, 0),
        lambda cluster: cluster.meter.start(),
        lambda cluster: cluster.set_power_cap(1.5),
        lambda cluster: cluster.transfers.enable_chaos(),
    ],
    ids=["chaos", "fault-injector", "warm-pool", "meter", "power-cap",
         "transfer-chaos"],
)
def test_board_actors_force_the_per_phase_path(attach):
    cluster = MicroFaaSCluster(worker_count=2, seed=1)
    attach(cluster)
    cluster.orchestrator.submit_batch(["FloatOps", "FloatOps"])
    cluster.env.run(until=0.5)
    assert _in_window(cluster) == 0


def test_a_bare_cluster_fuses_and_a_stopped_meter_lets_it_fuse_again():
    cluster = MicroFaaSCluster(
        worker_count=2, seed=1, policy=LeastLoadedPolicy()
    )
    cluster.meter.start()
    cluster.meter.stop()
    assert cluster.env.actors == ()
    cluster.orchestrator.submit_batch(["FloatOps", "FloatOps"])
    cluster.env.run(until=0.5)
    assert _in_window(cluster) == 2


def test_acting_on_a_board_inside_a_window_fails_loudly():
    cluster = MicroFaaSCluster(worker_count=1, seed=1)
    cluster.orchestrator.submit_batch(["FloatOps"])
    cluster.env.run(until=0.5)
    sbc = cluster.sbcs[0]
    assert sbc.in_window
    with pytest.raises(RuntimeError, match="attach the actor"):
        sbc.power_off()
    with pytest.raises(RuntimeError, match="attach the actor"):
        cluster.set_power_cap(1.5)
    cluster.env.run()
    assert not sbc.in_window
    assert cluster.orchestrator.telemetry.count == 1
