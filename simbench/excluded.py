"""Reproducers for the two configurations kept out of ``resilience``.

    python3 simbench/excluded.py backend-wedge [--seed 1]
    python3 simbench/excluded.py warmpool-crash [--seeds 40]

Each configuration joins the ``resilience`` workload once its defect is
fixed; until then these reproducers show the defect instead of letting
the benchmark hang or fail on it.  See ``README.md`` for the analysis.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.cluster import MicroFaaSCluster, replay_trace  # noqa: E402
from repro.core.policies import RecoveryPolicy  # noqa: E402
from repro.core.scheduler import LeastLoadedPolicy  # noqa: E402
from repro.core.warmpool import WarmPool  # noqa: E402
from repro.experiments.megatrace import WORKER_JOBS_PER_S  # noqa: E402
from repro.reliability.chaos import ChaosEngine, ChaosPlan, ChaosProfile  # noqa: E402
from repro.services.backend import BackendCapacityModel  # noqa: E402
from repro.sim.rng import RandomStreams  # noqa: E402
from repro.workloads.traces import poisson_trace  # noqa: E402


def backend_wedge(seed: int = 1, invocations: int = 2_000, grace_s: float = 3_600.0):
    """The ``resilience`` configuration plus a backend capacity model.

    A crash interrupt that lands while a worker waits for a backend slot
    leaks that slot once it is granted (``BackendFleet.serve`` yields the
    request outside its ``try``), so backends wedge and jobs never
    finish.  ``replay_trace`` would never return; this submits the same
    trace and runs for a bounded ``grace_s`` past its end instead.
    Returns (submitted, still pending).
    """
    workers = 16
    rate = workers * WORKER_JOBS_PER_S * 0.7
    trace = poisson_trace(
        rate, invocations / rate, streams=RandomStreams(seed), columnar=True
    )
    cluster = MicroFaaSCluster(
        worker_count=workers,
        seed=seed,
        policy=LeastLoadedPolicy(),
        recovery=RecoveryPolicy(),
        backend=BackendCapacityModel(),
    )
    ChaosEngine(cluster).apply(
        ChaosPlan.sample(
            ChaosProfile(scale=1.0),
            worker_count=workers,
            horizon_s=trace.duration_s,
            streams=RandomStreams(seed).spawn("chaos"),
            switch_count=len(cluster.switches),
        )
    )
    env = cluster.env
    orchestrator = cluster.orchestrator

    def submitter():
        for time_s, function in trace.iter_pairs():
            if time_s > env.now:
                yield env.timeout(time_s - env.now)
            orchestrator.submit_batch([function])

    env.process(submitter(), name="trace-submitter")
    env.run(until=trace.duration_s + grace_s)
    return len(trace), orchestrator.pending


def warmpool_crash(seed: int) -> str:
    """Warm-pool autoscaling under chaos (the ROADMAP's reproducer).

    Returns "ok" or the error the run raised.
    """
    cluster = MicroFaaSCluster(worker_count=8, seed=seed, recovery=RecoveryPolicy())
    pool = WarmPool(cluster, size=0)
    cluster.env.process(pool.autoscale(interval_s=5.0))
    ChaosEngine(cluster).apply(
        ChaosPlan.sample(
            ChaosProfile(scale=1.0),
            worker_count=8,
            horizon_s=200.0,
            streams=cluster.streams.spawn("chaos"),
            switch_count=len(cluster.switches),
        )
    )
    try:
        replay_trace(cluster, poisson_trace(2.0, 60.0, streams=RandomStreams(seed)))
    except RuntimeError as error:
        return f"{type(error).__name__}: {error}"
    return "ok"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    sub = parser.add_subparsers(dest="which", required=True)
    wedge = sub.add_parser("backend-wedge")
    wedge.add_argument("--seed", type=int, default=1)
    crash = sub.add_parser("warmpool-crash")
    crash.add_argument("--seeds", type=int, default=40)
    args = parser.parse_args(argv)
    if args.which == "backend-wedge":
        submitted, pending = backend_wedge(args.seed)
        print(f"seed {args.seed}: {submitted} jobs submitted, {pending} never finish")
        return 1 if pending else 0
    failures = 0
    for seed in range(args.seeds):
        verdict = warmpool_crash(seed)
        failures += verdict != "ok"
        print(f"seed {seed}: {verdict}")
    print(f"{failures} of {args.seeds} seeds crash")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
