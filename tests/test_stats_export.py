"""Tests for replication statistics and CSV export."""

import csv
import os

import pytest

from repro.cli import main
from repro.experiments import fig1_boot, megatrace, table2_tco
from repro.experiments.study import export_all, registry
from repro.experiments.stats import (
    Estimate,
    estimate,
    headline_replication,
    replicate,
)


# -- estimates -------------------------------------------------------------------


def test_estimate_of_constant_samples_has_zero_width():
    result = estimate([5.0, 5.0, 5.0, 5.0])
    assert result.mean == 5.0
    assert result.half_width == 0.0
    assert result.contains(5.0)
    assert not result.contains(5.1)


def test_estimate_interval_widens_with_variance():
    tight = estimate([10.0, 10.1, 9.9, 10.0])
    loose = estimate([5.0, 15.0, 2.0, 18.0])
    assert loose.half_width > 10 * tight.half_width


def test_estimate_validation():
    with pytest.raises(ValueError):
        estimate([1.0])
    with pytest.raises(ValueError):
        estimate([1.0, 2.0], confidence=1.5)


def test_estimate_matches_known_t_interval():
    """n=4, s=1, mean=0: 95 % half-width = t(3) * 1/2 = 1.591."""
    samples = [-1.0, 1.0, -1.0, 1.0]  # mean 0, sample std 2/sqrt(3)
    result = estimate(samples)
    import math

    expected = 3.182 * (math.sqrt(4 / 3) / 2)
    assert result.half_width == pytest.approx(expected, rel=0.01)


def test_replicate_aggregates_metrics():
    def run(seed):
        return {"a": float(seed), "b": 2.0 * seed}

    estimates = replicate(run, seeds=(1, 2, 3))
    assert estimates["a"].mean == pytest.approx(2.0)
    assert estimates["b"].mean == pytest.approx(4.0)


def test_replicate_validation():
    with pytest.raises(ValueError):
        replicate(lambda s: {"a": 1.0}, seeds=(1,))

    def inconsistent(seed):
        return {"a": 1.0} if seed == 1 else {"b": 1.0}

    with pytest.raises(ValueError):
        replicate(inconsistent, seeds=(1, 2))


def test_headline_replication_brackets_paper_numbers():
    """Across seeds, the published values sit inside (or within a few
    percent of) the replication intervals."""
    estimates = headline_replication(
        seeds=(1, 2, 3), invocations_per_function=20
    )
    assert estimates["microfaas_jpf"].mean == pytest.approx(5.7, rel=0.03)
    assert estimates["conventional_jpf"].mean == pytest.approx(32.0, rel=0.04)
    assert estimates["ratio"].mean == pytest.approx(5.6, rel=0.05)
    assert estimates["microfaas_fpm"].mean == pytest.approx(200.6, rel=0.04)


# -- export ----------------------------------------------------------------------


def read_csv(path):
    with open(path) as handle:
        return list(csv.reader(handle))


def export(name, result, directory):
    """Write study ``name``'s tables for ``result``; return the paths."""
    return [
        table.write(str(directory))
        for table in registry()[name].tables(result)
    ]


def test_export_fig1(tmp_path):
    [path] = export("fig1", fig1_boot.run(), tmp_path)
    rows = read_csv(path)
    assert rows[0][0] == "change"
    assert len(rows) == 11  # header + baseline + 9 changes
    assert float(rows[-1][2]) == pytest.approx(1.51)


def test_export_table2(tmp_path):
    [path] = export("table2", table2_tco.run(), tmp_path)
    rows = read_csv(path)
    assert len(rows) == 5
    totals = {(r[0], r[1]): int(r[5]) for r in rows[1:]}
    assert totals[("ideal", "conventional")] == 124_701


def test_export_megatrace(tmp_path):
    [path] = export("megatrace", megatrace.run(invocations=500), tmp_path)
    rows = read_csv(path)
    assert rows[0][0] == "invocations"
    assert len(rows) == 2
    record = dict(zip(rows[0], rows[1]))
    assert int(record["records_retained"]) == 0
    assert float(record["peak_rss_mib"]) > 0


def test_export_all_writes_every_artifact(tmp_path, capsys):
    target = os.path.join(str(tmp_path), "artifacts")
    paths = export_all(target, invocations_per_function=4)
    assert len(paths) == 14
    for path in paths:
        assert os.path.exists(path)
        if path.endswith(".csv"):
            assert len(read_csv(path)) >= 2  # header + data
    names = {os.path.basename(p) for p in paths}
    assert names == {
        "fig1_boot.csv", "fig3_runtime.csv", "fig4_vmsweep.csv",
        "fig5_power.csv", "table2_tco.csv", "headline.csv",
        "fault_study.csv", "hybrid_study.csv", "federation_study.csv",
        "scale_study.csv", "sdk_study.csv", "energy_study.csv",
        "energy_study_tenants.csv", "headline_trace.json",
    }
    from repro.obs.export import validate_chrome_trace_file

    trace = os.path.join(target, "headline_trace.json")
    assert validate_chrome_trace_file(trace) == []
    for name, headers in CSV_HEADERS.items():
        assert read_csv(os.path.join(target, name))[0] == headers
    # export_all(dir, n) writes what `python -m repro <study>
    # --invocations n --export-dir` writes.
    cli_dir = os.path.join(str(tmp_path), "cli")
    assert main(
        ["fault-study", "--invocations", "4", "--export-dir", cli_dir]
    ) == 0
    assert read_csv(os.path.join(cli_dir, "fault_study.csv")) == read_csv(
        os.path.join(target, "fault_study.csv")
    )


#: Every CSV ``export_all`` writes, with its header row.
CSV_HEADERS = {
    "fig1_boot.csv": [
        "change", "name", "arm_real_s", "arm_cpu_s", "x86_real_s",
        "x86_cpu_s",
    ],
    "fig3_runtime.csv": [
        "function", "mf_working_s", "mf_overhead_s", "conv_working_s",
        "conv_overhead_s", "mf_over_conv",
    ],
    "fig4_vmsweep.csv": [
        "vms", "func_per_min", "joules_per_function", "average_watts",
        "microfaas_reference_jpf",
    ],
    "fig5_power.csv": ["active_workers", "sbc_cluster_watts", "vm_host_watts"],
    "table2_tco.csv": [
        "scenario", "deployment", "compute_usd", "network_usd", "energy_usd",
        "total_usd",
    ],
    "headline.csv": [
        "platform", "workers", "func_per_min", "joules_per_function",
        "average_watts",
    ],
    "fault_study.csv": [
        "fault_rate_scale", "faults_injected", "jobs_submitted",
        "jobs_delivered", "jobs_lost", "goodput_per_min", "p99_latency_s",
        "mean_recovery_s", "resubmissions", "timeout_retries", "hedges",
        "duplicates_suppressed", "boards_abandoned", "joules_per_function",
        "energy_overhead",
    ],
    "federation_study.csv": [
        "users", "region_count", "outage_rate_scale", "region", "workers",
        "jobs_in", "jobs_delivered", "jobs_lost", "goodput_per_min",
        "worst_p99_s", "outages", "mean_recovery_s", "cross_region_jobs",
        "cross_region_bytes", "energy_joules", "joules_per_function",
    ],
    "hybrid_study.csv": [
        "sbc_count", "vm_count", "workers", "jobs", "duration_s",
        "func_per_min", "predicted_func_per_min", "energy_joules",
        "joules_per_function", "arm_jobs", "x86_jobs", "arm_energy_joules",
        "x86_energy_joules", "arm_p99_latency_s", "x86_p99_latency_s",
    ],
    "scale_study.csv": [
        "workers", "switches", "func_per_min", "free_op_func_per_min",
        "scaling_efficiency", "op_utilization", "op_link_utilization",
    ],
    "sdk_study.csv": [
        "backend", "users", "fanout", "calls", "succeeded", "errors",
        "jobs_completed", "duration_s", "func_per_min", "energy_joules",
        "joules_per_function", "client_p50_s", "client_p99_s",
        "reduce_latency_s", "duplicates_suppressed", "batches_flushed",
    ],
    "energy_study.csv": [
        "cap_watts", "budget_scale", "jobs", "duration_s", "func_per_min",
        "energy_joules", "joules_per_function", "p99_latency_s",
        "energy_saved_j", "p99_paid_s", "jobs_delayed", "jobs_shed",
        "reconciliation_residual_j", "idle_overhead_j", "wasted_j",
    ],
    "energy_study_tenants.csv": [
        "cap_watts", "budget_scale", "tenant", "attributed_joules",
    ],
}
