"""Tests for per-tenant energy budgets: policy, controller, orchestrator gate."""

import pytest

from repro.cluster import MicroFaaSCluster, replay_trace
from repro.core.job import JobStatus
from repro.core.policies import BudgetPolicy, TenantBudgetController
from repro.sim.rng import RandomStreams
from repro.workloads.traces import poisson_trace


class FakeLedger:
    def __init__(self):
        self.tenant_joules = {}


class FakeJob:
    def __init__(self, tenant):
        self.tenant = tenant


# -- policy ---------------------------------------------------------------------------


def test_budget_policy_validation():
    with pytest.raises(ValueError):
        BudgetPolicy(window_s=0.0)
    with pytest.raises(ValueError):
        BudgetPolicy(action="brownout")
    with pytest.raises(ValueError):
        BudgetPolicy(budgets_j={"acme": -1.0})
    with pytest.raises(ValueError):
        BudgetPolicy(default_budget_j=0.0)


def test_budget_policy_budget_for_falls_back_to_default():
    policy = BudgetPolicy(budgets_j={"acme": 50.0}, default_budget_j=10.0)
    assert policy.budget_for("acme") == 50.0
    assert policy.budget_for("other") == 10.0
    assert BudgetPolicy().budget_for("anyone") is None  # unlimited


# -- controller -----------------------------------------------------------------------


def make_controller(action="delay", budget=10.0, window_s=60.0, downclock=None):
    ledger = FakeLedger()
    clock = {"now": 0.0}
    controller = TenantBudgetController(
        BudgetPolicy(window_s=window_s, default_budget_j=budget, action=action),
        ledger,
        clock=lambda: clock["now"],
        downclock=downclock,
    )
    return controller, ledger, clock


def test_controller_window_use_resets_at_boundary():
    controller, ledger, _ = make_controller()
    assert controller.window_use_j("acme", 0.0) == 0.0  # rolls window 0
    ledger.tenant_joules["acme"] = 7.0
    assert controller.window_use_j("acme", 5.0) == pytest.approx(7.0)
    # Crossing the boundary snapshots the running total: fresh window,
    # fresh allowance.
    ledger.tenant_joules["acme"] = 9.0
    assert controller.window_use_j("acme", 61.0) == pytest.approx(0.0)
    ledger.tenant_joules["acme"] = 12.5
    assert controller.window_use_j("acme", 62.0) == pytest.approx(3.5)


def test_controller_next_window_is_a_pure_clock_function():
    controller, _, _ = make_controller(window_s=60.0)
    assert controller.next_window_in_s(0.0) == pytest.approx(60.0)
    assert controller.next_window_in_s(59.0) == pytest.approx(1.0)
    assert controller.next_window_in_s(61.5) == pytest.approx(58.5)


def test_controller_delay_verdict_waits_for_the_boundary():
    controller, ledger, _ = make_controller(action="delay", budget=10.0)
    assert controller.admit(FakeJob("acme"), 5.0) == ("admit", 0.0)
    ledger.tenant_joules["acme"] = 10.0  # exactly at budget => exhausted
    verdict, delay = controller.admit(FakeJob("acme"), 12.0)
    assert verdict == "delay"
    assert delay == pytest.approx(48.0)
    assert controller.jobs_delayed == 1
    # Untenanted and unlimited-budget jobs sail through regardless.
    assert controller.admit(FakeJob(None), 12.0) == ("admit", 0.0)


def test_controller_shed_verdict():
    controller, ledger, _ = make_controller(action="shed", budget=5.0)
    assert controller.admit(FakeJob("acme"), 0.0) == ("admit", 0.0)
    ledger.tenant_joules["acme"] = 6.0
    assert controller.admit(FakeJob("acme"), 1.0) == ("shed", 0.0)
    assert controller.jobs_shed == 1


def test_controller_downclock_fires_once_per_window():
    fired = []
    controller, ledger, _ = make_controller(
        action="downclock", budget=5.0, downclock=fired.append
    )
    assert controller.admit(FakeJob("acme"), 0.0) == ("admit", 0.0)
    ledger.tenant_joules["acme"] = 6.0
    # Exhausted, but downclock admits — the hook fires exactly once.
    assert controller.admit(FakeJob("acme"), 1.0) == ("admit", 0.0)
    assert controller.admit(FakeJob("acme"), 2.0) == ("admit", 0.0)
    assert fired == ["acme"]
    assert controller.downclocks == 1
    # Next window: a fresh allowance, and the hook re-arms.
    controller.admit(FakeJob("acme"), 61.0)  # rolls; use resets to zero
    ledger.tenant_joules["acme"] = 20.0  # burns through the new window
    controller.admit(FakeJob("acme"), 62.0)
    assert fired == ["acme", "acme"]


# -- orchestrator integration ---------------------------------------------------------


def _tenanted_cluster(policy, seed=9, downclock=None):
    cluster = MicroFaaSCluster(worker_count=4, seed=seed)
    cluster.enable_tenant_budgets(policy, downclock=downclock)
    cluster.orchestrator.tenant_namer = (
        lambda job_id, function: f"tenant-{job_id % 2}"
    )
    return cluster


def test_tenant_namer_hook_labels_jobs():
    cluster = MicroFaaSCluster(worker_count=2)
    cluster.orchestrator.tenant_namer = lambda job_id, function: f"t{job_id}"
    job = cluster.orchestrator.make_job("FloatOps")
    assert job.tenant == f"t{job.job_id}"


def test_budget_delay_throttles_but_delivers():
    policy = BudgetPolicy(window_s=20.0, default_budget_j=5.0, action="delay")
    cluster = _tenanted_cluster(policy)
    trace = poisson_trace(1.0, 60.0, streams=RandomStreams(9))
    result = replay_trace(cluster, trace)
    controller = cluster.orchestrator.budgets
    assert controller.jobs_delayed > 0
    # Delayed is not lost: every submission still completes.
    assert result.jobs_completed == len(trace)
    report = cluster.orchestrator.ledger.reconcile(end=result.duration_s)
    assert report.ok(1e-9), report


def test_budget_shed_fails_jobs_with_a_named_reason():
    policy = BudgetPolicy(window_s=20.0, default_budget_j=5.0, action="shed")
    cluster = _tenanted_cluster(policy)
    trace = poisson_trace(1.0, 60.0, streams=RandomStreams(9))
    result = replay_trace(cluster, trace)
    orchestrator = cluster.orchestrator
    assert orchestrator.jobs_shed > 0
    shed = [
        job
        for job in orchestrator.jobs.values()
        if job.failure == "energy budget exhausted"
    ]
    assert len(shed) == orchestrator.jobs_shed
    assert all(job.status is JobStatus.FAILED for job in shed)
    # Shed + delivered covers every submission; nothing vanished.
    assert result.jobs_completed + orchestrator.jobs_shed == len(trace)


def test_budget_downclock_caps_the_cluster():
    policy = BudgetPolicy(
        window_s=20.0, default_budget_j=5.0, action="downclock"
    )
    capped = []

    def downclock(tenant):
        capped.append(tenant)

    cluster = _tenanted_cluster(policy, downclock=downclock)
    trace = poisson_trace(1.0, 60.0, streams=RandomStreams(9))
    result = replay_trace(cluster, trace)
    assert cluster.orchestrator.budgets.downclocks == len(capped) > 0
    # Down-clocking admits everything: no delays, no sheds, no losses.
    assert result.jobs_completed == len(trace)
    assert cluster.orchestrator.jobs_shed == 0
    assert cluster.orchestrator.budgets.jobs_delayed == 0


def test_generous_budget_is_bit_identical_to_no_budget():
    def run(with_budgets):
        cluster = MicroFaaSCluster(worker_count=4, seed=21)
        if with_budgets:
            cluster.enable_tenant_budgets(
                BudgetPolicy(window_s=60.0, default_budget_j=1e9)
            )
            cluster.orchestrator.tenant_namer = (
                lambda job_id, function: "tenant-0"
            )
        trace = poisson_trace(0.8, 40.0, streams=RandomStreams(21))
        return replay_trace(cluster, trace)

    bare = run(False)
    budgeted = run(True)
    assert bare.jobs_completed == budgeted.jobs_completed
    assert bare.duration_s == budgeted.duration_s
    assert bare.energy_joules == budgeted.energy_joules
    assert sorted(bare.telemetry.end_to_end_latencies_s()) == sorted(
        budgeted.telemetry.end_to_end_latencies_s()
    )


def test_multi_tenant_ledger_with_generous_budgets_changes_nothing():
    """A ledger splitting jobs over three tenants, each under a generous
    budget, leaves the run exactly as a cluster that never had one."""

    def run(metered):
        trace = poisson_trace(0.8, 60.0, streams=RandomStreams(17))
        cluster = MicroFaaSCluster(worker_count=6, seed=17)
        if metered:
            cluster.enable_tenant_budgets(
                BudgetPolicy(window_s=60.0, default_budget_j=1e9)
            )
            cluster.orchestrator.tenant_namer = (
                lambda job_id, function: f"tenant-{job_id % 3}"
            )
        return replay_trace(cluster, trace), cluster.orchestrator.ledger

    (bare, _), (metered, ledger) = run(False), run(True)
    assert sorted(ledger.tenant_joules) == ["tenant-0", "tenant-1", "tenant-2"]
    assert bare.jobs_completed == metered.jobs_completed
    assert bare.duration_s == metered.duration_s
    assert bare.energy_joules == metered.energy_joules
    assert sorted(bare.telemetry.end_to_end_latencies_s()) == sorted(
        metered.telemetry.end_to_end_latencies_s()
    )
