"""Metric names, units and directions, and how each is computed.

``END_TO_END`` and ``PER_LAYER`` are the benchmark's metric vocabulary;
``BENCHMARK.json`` at the repository root lists the same names, units
and directions (a test keeps the two in step).  Later changes claim
gains by these names.

End-to-end metrics come from untraced replays.  Timings are taken in
reference seconds, host time with the host's drifting speed taken out
(see ``hostspeed.py``), and are medians over the replays of one run;
simulated metrics repeat exactly for a seed.  Per-layer metrics come from one traced replay: counts are
per delivered invocation and repeat exactly, and a layer's self time is
reported as a share of the traced replay's wall time.
"""

from __future__ import annotations

import re
from statistics import median
from typing import Dict, List, Sequence, Tuple

#: (name, unit, better, bound): bound is the share of the parent's
#: median by which a metric may worsen before a change is rejected.
END_TO_END: Tuple[Tuple[str, str, str, float], ...] = (
    ("invocations_per_ref_s", "1/s", "higher", 0.2),
    ("setup_s", "s", "lower", 0.25),
    ("peak_rss_mib", "MiB", "lower", 0.1),
    ("delivered_share", "ratio", "higher", 0.01),
    ("sim_throughput_per_min", "func/min", "higher", 0.2),
    ("sim_j_per_function", "J", "lower", 0.1),
    ("sim_latency_p50_s", "s", "lower", 0.1),
    ("sim_latency_p99_s", "s", "lower", 0.2),
)

#: Process families whose resumptions the traced run reports.
PROCESS_FAMILIES = (
    "sbc-worker",
    "vm-worker",
    "_supervise",
    "_launch_later",
    "trace-submitter",
    "power-meter",
    "chaos",
)

#: Layers whose self time the traced run reports as a share.
SELF_SHARE_LAYERS = (
    "core.orchestrator",
    "core.telemetry",
    "hardware.power",
    "net",
    "energy.ledger",
    "obs",
)

#: Simulated values the traced run copies through from the replay.
SIMULATED_LAYER_VALUES = (
    ("core.orchestrator.jobs_retained", "count", "lower"),
    ("core.telemetry.records_retained", "count", "lower"),
    ("energy.ledger.residual_j", "J", "lower"),
    ("reliability.faults_injected", "count", "lower"),
    ("core.recovery.useful_attempt_ratio", "ratio", "higher"),
    ("model.queue_wait_mean_s", "s", "lower"),
    ("model.boot_mean_s", "s", "lower"),
    ("model.working_mean_s", "s", "lower"),
    ("model.overhead_mean_s", "s", "lower"),
)

#: Per-invocation call counts: (metric, span names counted).
CALL_COUNTS: Tuple[Tuple[str, Tuple[str, ...]], ...] = (
    ("sim.timeouts_per_inv", ("sim:timeout",)),
    ("sim.processes_per_inv", ("sim:process",)),
    ("core.scheduler.select_per_inv", ("core.scheduler:select",)),
    ("core.queue.push_per_inv", ("core.queue:push",)),
    ("core.queue.pop_per_inv", ("core.queue:pop",)),
    ("core.telemetry.record_per_inv", ("core.telemetry:record",)),
    ("hardware.power.appends_per_inv", ("hardware.power:record",)),
    ("hardware.power.state_changes_per_inv", ("hardware.power:set_state",)),
    ("net.transfers_per_inv", ("net:transfer",)),
    ("energy.ledger.bills_per_inv", ("energy.ledger:bill_attempt",)),
)

#: Per-invocation call counts summed over a whole layer.
LAYER_CALL_COUNTS = (
    ("core.orchestrator.calls_per_inv", "core.orchestrator"),
    ("hardware.sbc.transitions_per_inv", "hardware.sbc"),
    ("obs.calls_per_inv", "obs"),
)


def _per_layer_specs() -> Tuple[Tuple[str, str, str], ...]:
    specs: List[Tuple[str, str, str]] = [
        (name, "count/inv", "lower") for name, _ in CALL_COUNTS
    ]
    specs += [(name, "count/inv", "lower") for name, _ in LAYER_CALL_COUNTS]
    specs.append(("sim.loop_self_share", "ratio", "lower"))
    specs += [(f"{layer}.self_share", "ratio", "lower") for layer in SELF_SHARE_LAYERS]
    for family in PROCESS_FAMILIES:
        specs.append((f"proc.{family}.resumes_per_inv", "count/inv", "lower"))
        specs.append((f"proc.{family}.self_share", "ratio", "lower"))
    specs.append(("core.scheduler.select_us_per_call", "us", "lower"))
    specs += list(SIMULATED_LAYER_VALUES)
    specs += [
        ("setup.trace_gen_s", "s", "lower"),
        ("setup.blueprint_s", "s", "lower"),
        ("setup.cluster_build_s", "s", "lower"),
        ("setup.chaos_plan_s", "s", "lower"),
        ("trace.overhead_x", "x", "lower"),
    ]
    return tuple(specs)


#: (name, unit, better) of every per-layer metric.
PER_LAYER: Tuple[Tuple[str, str, str], ...] = _per_layer_specs()

NAME_PATTERN = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.\-]{0,63}$")
UNIT_PATTERN = re.compile(r"^[A-Za-z0-9_/%.\-]{1,16}$")

UNITS: Dict[str, str] = {name: unit for name, unit, *_ in END_TO_END + PER_LAYER}


def end_to_end(replays: Sequence[dict], peak_rss_mib: float) -> Dict[str, float]:
    """End-to-end metrics of one run's untraced replays.

    Each replay is a dict with ``delivered``, ``replay_ref_s`` (its
    replay time in reference seconds, see ``hostspeed.py``),
    ``setup_s`` (its set-up time, likewise) and its ``outcome``;
    simulated metrics are read from the first outcome (the run has
    checked that all are identical).  Timings are medians over the
    run's replays.
    """
    outcome = replays[0]["outcome"]
    values = outcome.values
    return {
        "invocations_per_ref_s": median(
            r["delivered"] / r["replay_ref_s"] for r in replays
        ),
        "setup_s": median(r["setup_s"] for r in replays),
        "peak_rss_mib": peak_rss_mib,
        "delivered_share": 1.0 - outcome.failed_share,
        "sim_throughput_per_min": values["sim_throughput_per_min"],
        "sim_j_per_function": values["sim_j_per_function"],
        "sim_latency_p50_s": values["sim_latency_p50_s"],
        "sim_latency_p99_s": values["sim_latency_p99_s"],
    }


def per_layer(
    totals: Dict[str, Tuple[int, float, float]],
    outcome,
    traced_s: float,
    untraced_s: float,
    setup_phases: Dict[str, float],
) -> Dict[str, float]:
    """Per-layer metrics of one traced replay.

    ``totals`` maps span name to (calls, inclusive s, self s);
    ``setup_phases`` holds median set-up phase times of the untraced
    replays; ``untraced_s`` is their median replay time.
    """
    invocations = outcome.delivered

    def calls(*names: str) -> int:
        return sum(totals.get(name, (0, 0.0, 0.0))[0] for name in names)

    def layer_spans(layer: str) -> List[str]:
        return [name for name in totals if name.split(":", 1)[0] == layer]

    def self_share(layer: str) -> float:
        return sum(totals[name][2] for name in layer_spans(layer)) / traced_s

    metrics: Dict[str, float] = {}
    for metric, names in CALL_COUNTS:
        metrics[metric] = calls(*names) / invocations
    for metric, layer in LAYER_CALL_COUNTS:
        metrics[metric] = calls(*layer_spans(layer)) / invocations
    metrics["sim.loop_self_share"] = totals.get("sim:run", (0, 0.0, 0.0))[2] / traced_s
    for layer in SELF_SHARE_LAYERS:
        metrics[f"{layer}.self_share"] = self_share(layer)
    for family in PROCESS_FAMILIES:
        layer = f"proc.{family}"
        metrics[f"{layer}.resumes_per_inv"] = calls(layer) / invocations
        metrics[f"{layer}.self_share"] = self_share(layer)
    select_calls, select_s, _ = totals.get("core.scheduler:select", (0, 0.0, 0.0))
    metrics["core.scheduler.select_us_per_call"] = (
        select_s / select_calls * 1e6 if select_calls else 0.0
    )
    for name, _, _ in SIMULATED_LAYER_VALUES:
        metrics[name] = outcome.values.get(name, 0.0)
    for phase, seconds in setup_phases.items():
        metrics[f"setup.{phase}"] = seconds
    metrics["trace.overhead_x"] = traced_s / untraced_s
    return {name: metrics[name] for name, _, _ in PER_LAYER}
