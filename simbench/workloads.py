"""The benchmark's workloads: seeded inputs, one replay, checked outputs.

Each workload turns a seed into inputs (an arrival trace, a burst, a
chaos plan) and a ready cluster in :meth:`Workload.prepare` — the
benchmark's set-up, timed as ``setup_s`` — and then replays them once
per :meth:`Prepared.replay`, the timed region.  :meth:`Prepared.outcome`
reads the simulated results after the timer has stopped and checks them.

Everything an outcome reports in ``values`` is simulated, so for a fixed
seed it repeats bit for bit: the run compares every replay against the
first, and the traced replay against the untraced ones.

Why each workload exists, and which layers it stresses, is written up in
``README.md`` beside this file.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from time import perf_counter
from typing import Dict, List, Tuple

from repro import paper
from repro.cluster import ConventionalCluster, MicroFaaSCluster, replay_trace
from repro.core.policies import RecoveryPolicy
from repro.core.scheduler import LeastLoadedPolicy
from repro.core.telemetry import percentiles
from repro.experiments import headline
from repro.experiments.megatrace import WORKER_JOBS_PER_S
from repro.obs.trace import TraceConfig
from repro.reliability.chaos import ChaosEngine, ChaosPlan, ChaosProfile
from repro.shard.runtime import ClusterSpec
from repro.sim.rng import RandomStreams
from repro.workloads.base import ALL_FUNCTION_NAMES
from repro.workloads.traces import FunctionMix, poisson_trace

#: Set-up phases every workload reports (0 where a workload has none).
SETUP_PHASES = ("trace_gen_s", "blueprint_s", "cluster_build_s", "chaos_plan_s")

#: The exact-float headline pin: MicroFaaS throughput at seed 1 with 30
#: invocations per function, as the repository's own tests pin it.
HEADLINE_PIN_FPM = 198.91024488371775


@dataclass
class Check:
    name: str
    ok: bool
    detail: str = ""


@dataclass
class Outcome:
    """The simulated results of one replay."""

    submitted: int
    delivered: int
    #: Simulated metrics and program counters; bit-identical per seed.
    values: Dict[str, float]
    checks: List[Check] = field(default_factory=list)
    notes: List[str] = field(default_factory=list)

    @property
    def failed_share(self) -> float:
        return (self.submitted - self.delivered) / self.submitted


class _Phases:
    """Wall time of each set-up phase, lapped in order."""

    def __init__(self):
        self.seconds = {phase: 0.0 for phase in SETUP_PHASES}
        self._mark = perf_counter()

    def lap(self, phase: str) -> None:
        now = perf_counter()
        self.seconds[phase] += now - self._mark
        self._mark = now


class JobTally:
    """``on_job_done`` subscriber: resolutions and the Fig. 3 split.

    Subscribing is part of the public orchestrator API and draws no
    random numbers, so it leaves the simulation unchanged.
    """

    def __init__(self, orchestrator):
        self.delivered = 0
        self.undelivered = 0
        self.queue_wait_s = 0.0
        self.boot_s = 0.0
        self.working_s = 0.0
        self.overhead_s = 0.0
        #: Latency of each delivered job from its due time (its
        #: submission, which retry and hedge clones keep).  Kept exact,
        #: even where the program's telemetry streams: sketch quantiles
        #: snap to bucket values and would read the same on every seed.
        self.latencies: List[float] = []
        orchestrator.on_job_done(self)

    def __call__(self, job, record) -> None:
        if record is None:
            self.undelivered += 1
            return
        self.delivered += 1
        self.queue_wait_s += record.queue_wait_s
        self.boot_s += record.boot_s
        self.working_s += record.working_s
        self.overhead_s += record.overhead_s
        self.latencies.append(record.t_completed - job.t_submit)

    def model_values(self) -> Dict[str, float]:
        count = self.delivered
        return {
            "model.queue_wait_mean_s": self.queue_wait_s / count,
            "model.boot_mean_s": self.boot_s / count,
            "model.working_mean_s": self.working_s / count,
            "model.overhead_mean_s": self.overhead_s / count,
        }


def _conservation(label: str, cluster, tally: JobTally, submitted: int) -> Check:
    """Every submitted job ended delivered, lost or shed — exactly once."""
    orchestrator = cluster.orchestrator
    lost = orchestrator.jobs_lost
    shed = orchestrator.jobs_shed
    ok = (
        orchestrator.pending == 0
        and tally.delivered + tally.undelivered == submitted
        and orchestrator.telemetry.count == tally.delivered
        and lost + shed <= tally.undelivered
    )
    return Check(
        f"{label} job conservation",
        ok,
        f"submitted {submitted} = delivered {tally.delivered} + lost {lost}"
        f" + shed {shed} + other {tally.undelivered - lost - shed};"
        f" pending {orchestrator.pending}",
    )


def _cluster_values(result, cluster, tally: JobTally) -> Dict[str, float]:
    """Simulated end-to-end metrics and counters of one cluster."""
    orchestrator = cluster.orchestrator
    telemetry = orchestrator.telemetry
    p50, p99 = percentiles(tally.latencies, [50, 99])
    values = {
        "sim_throughput_per_min": result.throughput_per_min,
        "sim_j_per_function": result.joules_per_function,
        "sim_latency_p50_s": p50,
        "sim_latency_p99_s": p99,
        "core.orchestrator.jobs_retained": float(len(orchestrator.jobs)),
        "core.telemetry.records_retained": float(len(telemetry.records)),
        "core.orchestrator.resubmissions": float(orchestrator.resubmissions),
        "core.orchestrator.timeout_retries": float(orchestrator.timeout_retries),
        "core.orchestrator.hedges": float(orchestrator.hedges),
    }
    values.update(tally.model_values())
    attempts = (
        tally.delivered
        + orchestrator.resubmissions
        + orchestrator.timeout_retries
        + orchestrator.hedges
    )
    values["core.recovery.useful_attempt_ratio"] = tally.delivered / attempts
    return values


def _latency_note(tally: JobTally, label: str = "") -> str:
    prefix = f"{label} " if label else ""
    return (
        f"{prefix}latency: exact, from each job's due time, "
        f"{len(tally.latencies)} samples"
    )


class Prepared:
    """A ready cluster and its inputs; :meth:`replay` is timed."""

    def __init__(self, phases: _Phases):
        self.setup_phases = dict(phases.seconds)

    def replay(self) -> None:
        raise NotImplementedError

    def outcome(self) -> Outcome:
        raise NotImplementedError


class Workload:
    name = ""
    why = ""

    def prepare(self, seed: int) -> Prepared:
        raise NotImplementedError

    def final_checks(self) -> List[Check]:
        """Checks run once per benchmark run, outside the timed loop."""
        return []


# -- megatrace ------------------------------------------------------------------------


class _TraceReplay(Prepared):
    def __init__(self, phases, cluster, trace, tally, engine=None, ledger=None):
        super().__init__(phases)
        self.cluster = cluster
        self.trace = trace
        self.tally = tally
        self.engine = engine
        self.ledger = ledger
        self.result = None

    def replay(self) -> None:
        self.result = replay_trace(self.cluster, self.trace)

    def outcome(self) -> Outcome:
        submitted = len(self.trace)
        values = _cluster_values(self.result, self.cluster, self.tally)
        checks = [_conservation("microfaas", self.cluster, self.tally, submitted)]
        if self.engine is not None:
            values["reliability.faults_injected"] = float(self.engine.injected)
        if self.ledger is not None:
            report = self.ledger.reconcile(end=self.result.duration_s)
            residual = abs(report.residual_joules)
            values["energy.ledger.residual_j"] = residual
            relative = residual / report.metered_joules
            checks.append(
                Check(
                    "ledger reconciles to metered joules (1e-12 relative)",
                    relative <= 1e-12,
                    f"residual {residual:.3e} J of {report.metered_joules:.6g} J"
                    f" ({relative:.2e} relative)",
                )
            )
        return Outcome(
            submitted=submitted,
            delivered=self.tally.delivered,
            values=values,
            checks=checks,
            notes=[_latency_note(self.tally)],
        )


class Megatrace(Workload):
    """Open-loop Poisson arrivals on the bounded-memory fast path."""

    name = "megatrace"
    why = (
        "open-loop Poisson arrivals at 0.85 of capacity on 128 workers, "
        "streaming telemetry and eviction: the per-invocation hot path"
    )
    invocations = 10_000
    workers = 128
    utilization = 0.85

    def prepare(self, seed: int) -> Prepared:
        phases = _Phases()
        rate = self.workers * WORKER_JOBS_PER_S * self.utilization
        trace = poisson_trace(
            rate,
            self.invocations / rate,
            streams=RandomStreams(seed),
            columnar=True,
        )
        phases.lap("trace_gen_s")
        blueprint = ClusterSpec(
            kind="microfaas", worker_count=self.workers
        ).blueprint()
        phases.lap("blueprint_s")
        cluster = MicroFaaSCluster(
            worker_count=self.workers,
            seed=seed,
            policy=LeastLoadedPolicy(),
            telemetry_exact=False,
            blueprint=blueprint,
        )
        cluster.orchestrator.evict_finished = True
        tally = JobTally(cluster.orchestrator)
        phases.lap("cluster_build_s")
        return _TraceReplay(phases, cluster, trace, tally)


# -- scale ----------------------------------------------------------------------------


class _SaturatedReplay(Prepared):
    """Every job submitted at t=0 on each cluster, run until the last
    lands.  Simulated metrics describe the first cluster."""

    def __init__(self, phases, clusters: List[Tuple[str, object, JobTally]],
                 functions, per_function: int = 1):
        super().__init__(phases)
        self.clusters = clusters
        self.functions = tuple(functions)
        self.per_function = per_function
        self.results: List[object] = []

    def replay(self) -> None:
        self.results = [
            cluster.run_saturated(
                functions=self.functions,
                invocations_per_function=self.per_function,
            )
            for _, cluster, _ in self.clusters
        ]

    def outcome(self) -> Outcome:
        submitted = len(self.functions) * self.per_function
        label, cluster, tally = self.clusters[0]
        return Outcome(
            submitted=submitted * len(self.clusters),
            delivered=sum(tally.delivered for _, _, tally in self.clusters),
            values=_cluster_values(self.results[0], cluster, tally),
            checks=[
                _conservation(name, each, each_tally, submitted)
                for name, each, each_tally in self.clusters
            ],
            notes=[_latency_note(tally, label)],
        )


class Scale(Workload):
    """A saturated burst on a cluster of thousands of workers."""

    name = "scale"
    why = (
        "a saturated burst of 5 jobs per worker on 2,000 workers: the "
        "scheduler's per-submission scan over every queue dominates"
    )
    workers = 2_000
    jobs_per_worker = 5

    def prepare(self, seed: int) -> Prepared:
        phases = _Phases()
        functions = FunctionMix.uniform().sample_batch(
            RandomStreams(seed), self.workers * self.jobs_per_worker
        )
        phases.lap("trace_gen_s")
        blueprint = ClusterSpec(
            kind="microfaas", worker_count=self.workers
        ).blueprint()
        phases.lap("blueprint_s")
        cluster = MicroFaaSCluster(
            worker_count=self.workers,
            seed=seed,
            policy=LeastLoadedPolicy(),
            telemetry_exact=False,
            blueprint=blueprint,
        )
        tally = JobTally(cluster.orchestrator)
        phases.lap("cluster_build_s")
        return _SaturatedReplay(phases, [("microfaas", cluster, tally)], functions)


# -- resilience -----------------------------------------------------------------------


class Resilience(Workload):
    """Chaos, recovery, the energy ledger and sampled tracing together."""

    name = "resilience"
    why = (
        "open-loop arrivals at 0.4 of capacity on 16 workers under chaos, "
        "with recovery, the energy ledger and sampled obs tracing on"
    )
    invocations = 6_000
    workers = 16
    #: Chaos takes boards out for good (a boot failure needing more power
    #: cycles than the OP's budget), a quarter of them on average and a
    #: seed-dependent number.  At 0.7 of nominal capacity the survivors
    #: are overloaded on some seeds and the latency tail runs away
    #: (p99 16-133 s over seeds 1-10); at 0.4 it stays within 10-11 s.
    utilization = 0.4

    def prepare(self, seed: int) -> Prepared:
        phases = _Phases()
        rate = self.workers * WORKER_JOBS_PER_S * self.utilization
        trace = poisson_trace(
            rate,
            self.invocations / rate,
            streams=RandomStreams(seed),
            columnar=True,
        )
        phases.lap("trace_gen_s")
        cluster = MicroFaaSCluster(
            worker_count=self.workers,
            seed=seed,
            policy=LeastLoadedPolicy(),
            recovery=RecoveryPolicy(),
            trace=TraceConfig(sample_rate=0.05, max_traces=256, boot_stages=False),
        )
        ledger = cluster.enable_energy_ledger()
        tally = JobTally(cluster.orchestrator)
        phases.lap("cluster_build_s")
        plan = ChaosPlan.sample(
            ChaosProfile(scale=1.0),
            worker_count=self.workers,
            horizon_s=trace.duration_s,
            streams=RandomStreams(seed).spawn("chaos"),
            switch_count=len(cluster.switches),
        )
        engine = ChaosEngine(cluster)
        engine.apply(plan)
        phases.lap("chaos_plan_s")
        return _TraceReplay(
            phases, cluster, trace, tally, engine=engine, ledger=ledger
        )


# -- paper ----------------------------------------------------------------------------


def paper_error_pct(
    mf_fpm: float, cv_fpm: float, mf_jpf: float, cv_jpf: float
) -> float:
    """Largest relative error (%) of the four headline values against
    the paper's (the model was calibrated on these same numbers)."""
    pairs = (
        (mf_fpm, paper.MICROFAAS_FUNC_PER_MIN),
        (cv_fpm, paper.CONVENTIONAL_FUNC_PER_MIN),
        (mf_jpf, paper.MICROFAAS_J_PER_FUNC),
        (cv_jpf, paper.CONVENTIONAL_J_PER_FUNC),
    )
    return max(abs(ours - theirs) / theirs for ours, theirs in pairs) * 100.0


class _PaperReplay(_SaturatedReplay):
    def outcome(self) -> Outcome:
        outcome = super().outcome()
        mf_result, cv_result = self.results
        # The end-to-end sim_* metrics describe the system under study
        # (MicroFaaS); the baseline enters through paper_error_pct.
        outcome.values["conventional.sim_throughput_per_min"] = cv_result.throughput_per_min
        outcome.values["conventional.sim_j_per_function"] = cv_result.joules_per_function
        outcome.values["paper_error_pct"] = paper_error_pct(
            mf_result.throughput_per_min,
            cv_result.throughput_per_min,
            mf_result.joules_per_function,
            cv_result.joules_per_function,
        )
        outcome.notes.append(
            "paper_error_pct: the model was calibrated on these same "
            "paper values, so this is a fit, not a held-out validation"
        )
        return outcome


class Paper(Workload):
    """The Sec. V headline comparison: 10 SBCs against 6 microVMs."""

    name = "paper"
    why = (
        "the 10-SBC vs 6-VM headline run saturated at 200 invocations per "
        "function: the only workload on the VM path, with paper error"
    )
    per_function = 200

    def prepare(self, seed: int) -> Prepared:
        phases = _Phases()
        mf = MicroFaaSCluster(worker_count=10, seed=seed, policy=LeastLoadedPolicy())
        cv = ConventionalCluster(vm_count=6, seed=seed, policy=LeastLoadedPolicy())
        clusters = [
            ("microfaas", mf, JobTally(mf.orchestrator)),
            ("conventional", cv, JobTally(cv.orchestrator)),
        ]
        phases.lap("cluster_build_s")
        return _PaperReplay(phases, clusters, ALL_FUNCTION_NAMES, self.per_function)

    def final_checks(self) -> List[Check]:
        # Uncached: the result cache must never answer for the program.
        result = headline.run(invocations_per_function=30, seed=1, cache=False)
        mf, cv = result.microfaas, result.conventional
        ok = (
            mf.throughput_per_min == HEADLINE_PIN_FPM
            and round(cv.throughput_per_min, 1) == 210.6
            and round(mf.joules_per_function, 2) == 5.69
            and round(cv.joules_per_function, 2) == 31.98
        )
        return [
            Check(
                "headline pin (seed 1, 30 per function)",
                ok,
                f"{mf.throughput_per_min!r} / {cv.throughput_per_min:.1f} func/min,"
                f" {mf.joules_per_function:.2f} / {cv.joules_per_function:.2f} J",
            )
        ]


WORKLOADS: Dict[str, Workload] = {
    workload.name: workload
    for workload in (Megatrace(), Scale(), Resilience(), Paper())
}
