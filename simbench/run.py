"""Simulator benchmark: one command per workload and seed.

    python3 simbench/run.py --workload megatrace --seed 1 --seconds 25 --trace 0

Run from the root of a source checkout.  With ``--trace 0`` the command
sets up and replays the workload again and again for ``--seconds``
seconds and prints every end-to-end metric; with ``--trace 1`` it then
replays once more with every layer wrapped (see ``layers.py``) and
prints the per-layer metrics instead.  Either way it checks the
simulated outputs (see ``workloads.py``) and ends with one JSON line::

    {"correct": true, "attempted": N, "failed": 0, "metrics": {...}}

``attempted`` counts simulated jobs submitted over every replay of the
run and ``failed`` those not delivered; a run that raises or fails a
check reports every job as failed and ``delivered_share`` 0, and exits
with code 1.  Without the simulator's sources beside this directory the
command exits with code 2 and prints no result.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import sys
import traceback
from pathlib import Path
from statistics import median
from time import perf_counter, process_time, sleep

import metrics
from hostspeed import INTERVAL_S, HostSpeed

HERE = Path(__file__).resolve().parent
SOURCE = HERE.parent / "src"

#: A run replays at least this many times, however long each replay is.
MIN_REPLAYS = 3


def _peak_rss_mib() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _timed_replay(workload, seed: int) -> dict:
    gc.collect()
    setup_at = perf_counter()
    prepared = workload.prepare(seed)
    replay_at = perf_counter()
    cpu0 = process_time()
    prepared.replay()
    cpu_s = process_time() - cpu0
    end_at = perf_counter()
    outcome = prepared.outcome()
    return {
        "setup_at": (setup_at, replay_at),
        "replay_at": (replay_at, end_at),
        "setup_phases": prepared.setup_phases,
        "cpu_s": cpu_s,
        "wall_s": end_at - replay_at,
        "delivered": outcome.delivered,
        "outcome": outcome,
    }


def _traced_replay(workload, seed: int, spans_path: Path) -> dict:
    # Imported here: it loads numpy, which must wait until main() has
    # pinned the math libraries to one thread.
    from layers import LayerTracer

    gc.collect()
    tracer = LayerTracer()
    with tracer:
        # Installed before set-up, so the worker processes the cluster
        # starts are wrapped too; set-up spans are then dropped.
        prepared = workload.prepare(seed)
        tracer.recorder.reset()
        wall0 = perf_counter()
        prepared.replay()
        wall_s = perf_counter() - wall0
    outcome = prepared.outcome()
    spans_path.parent.mkdir(parents=True, exist_ok=True)
    tracer.recorder.save(spans_path)
    return {
        "wall_s": wall_s,
        "totals": tracer.recorder.totals(),
        "spans": len(tracer.recorder),
        "outcome": outcome,
    }


class Run:
    """One benchmark run: replays, checks and the resulting metrics."""

    def __init__(self, workload, seed: int, seconds: float, traced: bool,
                 spans_dir: Path = HERE / "out"):
        self.workload = workload
        self.spans_dir = spans_dir
        self.seed = seed
        self.seconds = seconds
        self.traced = traced
        self.replays: list = []
        self.traced_replay = None
        self.checks: list = []
        self.notes: list = []
        self.probes = 0
        self.error = None

    def execute(self) -> None:
        try:
            self._execute()
        except Exception:  # the run is the boundary: report, don't crash
            self.error = traceback.format_exc()

    def _execute(self) -> None:
        from workloads import Check

        workload, seed = self.workload, self.seed
        # Untimed warm-up set-up: imports and process-wide caches fill
        # before anything is timed.
        workload.prepare(seed)
        deadline = perf_counter() + self.seconds
        # Stop before a set-up and replay that would end past the
        # deadline (judged by the last one), so a run stays within
        # --seconds whatever the workload's replay length.
        last = 0.0
        with HostSpeed() as host:
            while len(self.replays) < MIN_REPLAYS or perf_counter() + last <= deadline:
                start = perf_counter()
                self.replays.append(_timed_replay(workload, seed))
                last = perf_counter() - start
            # One more probe interval, so the last replay has a probe after it.
            sleep(2 * INTERVAL_S)
        for replay in self.replays:
            replay["setup_s"] = host.reference_s(*replay["setup_at"])
            replay["replay_ref_s"] = host.reference_s(*replay["replay_at"])
        self.probes = host.probes
        self.checks.append(
            Check(
                "host-speed probes returned the expected result",
                host.wrong_results == 0 and host.probes > 0,
                f"{host.probes} probes, {host.wrong_results} wrong",
            )
        )
        first = self.replays[0]["outcome"]
        self.checks.extend(first.checks)
        self.notes.extend(first.notes)
        identical = all(r["outcome"].values == first.values for r in self.replays)
        self.checks.append(
            Check(
                "simulated values identical across replays",
                identical,
                f"{len(self.replays)} replays at seed {seed}",
            )
        )
        if self.traced:
            spans_path = self.spans_dir / f"spans-{workload.name}-seed{seed}.npz"
            self.traced_replay = _traced_replay(workload, seed, spans_path)
            traced = self.traced_replay["outcome"]
            self.checks.extend(traced.checks)
            self.checks.append(
                Check(
                    "traced replay changes nothing simulated",
                    traced.values == first.values,
                    f"{self.traced_replay['spans']} spans written to {spans_path}",
                )
            )
        self.checks.extend(workload.final_checks())

    @property
    def correct(self) -> bool:
        return self.error is None and bool(self.checks) and all(
            check.ok for check in self.checks
        )

    def _all_outcomes(self) -> list:
        outcomes = [r["outcome"] for r in self.replays]
        if self.traced_replay is not None:
            outcomes.append(self.traced_replay["outcome"])
        return outcomes

    def result(self) -> dict:
        outcomes = self._all_outcomes()
        attempted = sum(o.submitted for o in outcomes) or 1
        failed = sum(o.submitted - o.delivered for o in outcomes)
        if not self.correct:
            failed = attempted
        if self.traced:
            names = [name for name, _, _ in metrics.PER_LAYER]
        else:
            names = [name for name, _, _, _ in metrics.END_TO_END]
        values = self._metric_values()
        return {
            "correct": self.correct,
            "attempted": attempted,
            "failed": failed,
            "metrics": {
                name: {"value": values.get(name, 0.0), "unit": metrics.UNITS[name]}
                for name in names
            },
        }

    def _metric_values(self) -> dict:
        if not self.correct or not self.replays:
            return {"delivered_share": 0.0}
        if not self.traced:
            return metrics.end_to_end(self.replays, _peak_rss_mib())
        phases = {
            phase: median(r["setup_phases"][phase] for r in self.replays)
            for phase in self.replays[0]["setup_phases"]
        }
        return metrics.per_layer(
            self.traced_replay["totals"],
            self.traced_replay["outcome"],
            self.traced_replay["wall_s"],
            median(r["wall_s"] for r in self.replays),
            phases,
        )

    def report(self, result: dict) -> str:
        """Human-readable account of the run and its ``result()``."""
        lines = [
            f"simbench: workload {self.workload.name}, seed {self.seed}, "
            f"{len(self.replays)} untraced replays"
            + (", 1 traced replay" if self.traced_replay else ""),
            f"  why: {self.workload.why}",
        ]
        if self.error is not None:
            lines.append("error:")
            lines.extend("  " + line for line in self.error.rstrip().splitlines())
        for check in self.checks:
            status = "ok  " if check.ok else "FAIL"
            lines.append(f"  [{status}] {check.name}: {check.detail}")
        for note in self.notes:
            lines.append(f"  note: {note}")
        values = result["metrics"]
        if self.replays:
            first = self.replays[0]["outcome"]
            # Reported here rather than in the JSON, whose metrics must
            # never read 0 (failed_share does on a clean run) and must
            # exist on every workload (paper_error_pct does not).
            lines.append(f"  failed_share: {first.failed_share!r} ratio")
            # Host rates as measured, before the host's speed is taken
            # out: what this host delivered during this run.
            delivered = sum(r["delivered"] for r in self.replays)
            cpu_s = sum(r["cpu_s"] for r in self.replays)
            wall_s = sum(r["wall_s"] for r in self.replays)
            lines.append(f"  invocations_per_cpu_s: {delivered / cpu_s!r} 1/s (host)")
            lines.append(f"  invocations_per_wall_s: {delivered / wall_s!r} 1/s (host)")
            lines.append(
                f"  host speed: {sum(r['replay_ref_s'] for r in self.replays) / wall_s:.3f}"
                f" of the reference host, from {self.probes} probes"
            )
            if "paper_error_pct" in first.values:
                lines.append(
                    f"  paper_error_pct: {first.values['paper_error_pct']!r} %"
                    " (largest error of 200.6/211.7 func/min, 5.7/32.0 J)"
                )
        directions = {n: b for n, _, b, *_ in metrics.END_TO_END + metrics.PER_LAYER}
        width = max(len(name) for name in values)
        for name, entry in values.items():
            lines.append(
                f"  {name:<{width}}  {entry['value']:>14.6g} {entry['unit']:<9}"
                f" ({directions[name]} is better)"
            )
        if self.traced_replay is not None:
            lines.extend(self._self_time_table())
        return "\n".join(lines)

    def _self_time_table(self) -> list:
        totals = self.traced_replay["totals"]
        wall = self.traced_replay["wall_s"]
        lines = ["  self time of the traced replay by span:"]
        accounted = 0.0
        for name, (calls, _, self_s) in sorted(
            totals.items(), key=lambda item: -item[1][2]
        ):
            accounted += self_s
            lines.append(
                f"    {name:<36} {calls:>10} calls {self_s / wall:8.2%}"
            )
        lines.append(f"    {'(outside every span)':<36} {'':>16} {1 - accounted / wall:8.2%}")
        return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SOURCE / "repro" / "__init__.py").is_file():
        print(
            f"simbench: no simulator sources at {SOURCE}; run from a source checkout",
            file=sys.stderr,
        )
        return 2
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    # One thread per run, so runs do not contend for the host's cores.
    for variable in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ.setdefault(variable, "1")
    sys.path.insert(0, str(SOURCE))
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(
            f"unknown workload {args.workload!r}; choose from {', '.join(WORKLOADS)}"
        )
    run = Run(WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace))
    run.execute()
    result = run.result()
    print(run.report(result))
    print(json.dumps(result), flush=True)
    return 0 if run.correct else 1


if __name__ == "__main__":
    sys.exit(main())
