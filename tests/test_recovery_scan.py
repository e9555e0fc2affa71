"""The recovery supervisor's indexes agree with the full job history.

The supervisor scans only the orchestrator's open-job index, and
assignment bars only the circuit breaker's tripped set, so both must
stay exactly equal to what a walk over every job (every worker) would
find.  A sampler process checks that once per supervisor tick, across
runs that reach every path which opens or resolves a job: chaos with
deadline give-ups, timeout retries and hedges; budget shedding; and a
sharded run that migrates jobs between shards.
"""

from repro.cluster.microfaas import MicroFaaSCluster
from repro.cluster.replay import replay_trace
from repro.core.policies import BreakerState, BudgetPolicy, RecoveryPolicy
from repro.core.scheduler import LeastLoadedPolicy
from repro.experiments.megatrace import WORKER_JOBS_PER_S
from repro.reliability.chaos import ChaosEngine, ChaosPlan, ChaosProfile
from repro.shard import ClusterSpec, ShardedCluster
from repro.sim.rng import RandomStreams
from repro.workloads.traces import poisson_trace

TICK_S = RecoveryPolicy().tick_s


class Sampler:
    """Checks one orchestrator's indexes every ``TICK_S`` of sim time."""

    def __init__(self, orchestrator):
        self.op = orchestrator
        self.samples = 0
        self.max_open = 0
        self.max_tripped = 0
        orchestrator.env.process(self._run(), name="index-sampler")

    def _run(self):
        while True:
            yield self.op.env.timeout(TICK_S)
            self.check()

    def check(self):
        op = self.op
        expected = [
            jid
            for jid, job in op.jobs.items()
            if jid not in op._done and not job.is_finished
        ]
        assert list(op._open) == expected
        assert len(op._open) <= op.pending
        # Per-job recovery bookkeeping is retired with the job.
        assert set(op._attempt_count) <= set(op._open)
        assert set(op._attempt_started) <= set(op._open)
        assert op._hedged <= set(op._open)
        tracker = op.health
        if tracker is not None:
            assert set(tracker._tripped) == {
                wid
                for wid, health in tracker._workers.items()
                if health.state is not BreakerState.CLOSED
            }
            self.max_tripped = max(self.max_tripped, len(tracker._tripped))
        self.samples += 1
        self.max_open = max(self.max_open, len(op._open))


def _chaos_cluster(recovery, workers=8, util=0.6, invocations=300, seed=1):
    rate = workers * WORKER_JOBS_PER_S * util
    trace = poisson_trace(
        rate, invocations / rate, streams=RandomStreams(seed), columnar=True
    )
    cluster = MicroFaaSCluster(
        worker_count=workers,
        seed=seed,
        policy=LeastLoadedPolicy(),
        recovery=recovery,
    )
    plan = ChaosPlan.sample(
        ChaosProfile(scale=1.0),
        worker_count=workers,
        horizon_s=trace.duration_s,
        streams=RandomStreams(seed).spawn("chaos"),
        switch_count=len(cluster.switches),
    )
    ChaosEngine(cluster).apply(plan)
    return cluster, trace


def test_indexes_track_history_under_chaos_give_ups_retries_and_hedges():
    recovery = RecoveryPolicy(
        job_deadline_s=10.0,
        attempt_timeout_s=6.0,
        hedge_after_s=2.0,
        circuit_failure_threshold=1,
        quarantine_s=5.0,
    )
    cluster, trace = _chaos_cluster(recovery)
    cluster.enable_energy_ledger()
    sampler = Sampler(cluster.orchestrator)
    result = replay_trace(cluster, trace)
    sampler.check()
    op = cluster.orchestrator
    # Every path that opens, retries or resolves a job ran.
    assert op.jobs_lost > 0
    assert op.timeout_retries > 0
    assert op.hedges > 0
    assert op.resubmissions > 0
    assert result.jobs_completed + op.jobs_lost == len(trace)
    assert sampler.samples > 0 and sampler.max_open > 0
    assert sampler.max_tripped > 0
    # Drained: nothing open, no per-job recovery state left behind.
    assert not op._open
    assert not op._attempt_count and not op._attempt_started
    assert not op._hedged


def test_indexes_track_history_with_budget_shedding():
    cluster = MicroFaaSCluster(worker_count=4, seed=9, recovery=RecoveryPolicy())
    cluster.enable_tenant_budgets(
        BudgetPolicy(window_s=20.0, default_budget_j=5.0, action="shed")
    )
    op = cluster.orchestrator
    op.tenant_namer = lambda job_id, function: f"tenant-{job_id % 2}"
    sampler = Sampler(op)
    trace = poisson_trace(1.0, 60.0, streams=RandomStreams(9))
    result = replay_trace(cluster, trace)
    sampler.check()
    assert op.jobs_shed > 0
    assert result.jobs_completed + op.jobs_shed == len(trace)
    assert sampler.samples > 0 and sampler.max_open > 0
    assert not op._open and not op._attempt_count


def test_indexes_track_history_across_shard_migrations():
    plan = ChaosPlan.sample(
        ChaosProfile(
            scale=1.0, switch_outage_per_hour=0.0, backend_fault_per_hour=0.0
        ),
        10,
        40.0,
        streams=RandomStreams(99),
    )
    spec = ClusterSpec(
        kind="microfaas",
        worker_count=10,
        seed=21,
        chaos_plan=plan,
        chaos_detection_delay_s=1.0,
        chaos_max_power_cycles=3,
    )
    with ShardedCluster(spec, 2, executor="inline") as sharded:
        samplers = [
            Sampler(runtime.cluster.orchestrator)
            for runtime in sharded.executor.runtimes
        ]
        sharded.run_saturated(invocations_per_function=4)
        migrations = sharded.stats.migrations
        for sampler in samplers:
            sampler.check()
    assert migrations > 0
    assert all(sampler.samples > 0 for sampler in samplers)
    assert all(not sampler.op._open for sampler in samplers)
