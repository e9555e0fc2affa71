"""Tests of the simulator benchmark itself.

    python3 -m pytest simbench/tests -q

Workloads run here at a fraction of their benchmark size, so the suite
takes seconds; the properties tested do not depend on size.
"""

from __future__ import annotations

import json
import shutil
import signal
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(BENCH))

import metrics  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from hostspeed import PROBE_REFERENCE_S, HostSpeed  # noqa: E402
from layers import LayerTracer, TracedGenerator, process_family  # noqa: E402
from repro.sim.kernel import Environment, Interrupt  # noqa: E402


def small(name: str):
    """A workload instance cut down to test size."""
    workload = type(workloads.WORKLOADS[name])()
    if name == "megatrace":
        workload.invocations, workload.workers = 600, 16
    elif name == "scale":
        workload.workers = 60
    elif name == "resilience":
        workload.invocations, workload.workers = 600, 6
    else:
        workload.per_function = 4
    return workload


def traced_run(workload, seed, tmp_path):
    bench_run = run.Run(workload, seed, seconds=0.01, traced=True, spans_dir=tmp_path)
    bench_run.execute()
    return bench_run


# -- the process proxy ------------------------------------------------------------------


def test_traced_generator_forwards_send_throw_and_return():
    env = Environment()
    tracer = LayerTracer()
    seen = []

    def body():
        try:
            yield env.timeout(5.0)
        except Interrupt as interrupt:
            seen.append(("interrupted", interrupt.cause, env.now))
        value = yield env.timeout(1.0, value="resumed")
        seen.append(value)
        return "done"

    def chaos(victim):
        yield env.timeout(2.0)
        victim.interrupt("board fault")

    with tracer:
        victim = env.process(body(), name="sbc-worker-7")
        env.process(chaos(victim), name="chaos-0-worker-crash")
        assert env.run(until=victim) == "done"
    assert isinstance(victim._generator, TracedGenerator)
    assert seen == [("interrupted", "board fault", 2.0), "resumed"]
    totals = tracer.recorder.totals()
    assert totals["proc.sbc-worker"][0] == 3  # start, interrupt, resume
    assert totals["proc.chaos"][0] == 2
    assert totals["sim:process"][0] == 2


def test_traced_generator_keeps_no_reference_to_yielded_events():
    """The kernel recycles a timeout only when it holds the last
    reference; a proxy that kept one would starve the pool."""

    def pool_after_run(traced: bool) -> int:
        env = Environment()

        def ticker():
            for _ in range(50):
                yield env.timeout(1.0)

        tracer = LayerTracer()
        if traced:
            tracer.install()
        try:
            env.process(ticker())
            env.run()
        finally:
            tracer.uninstall()
        return len(env._timeout_pool)

    assert pool_after_run(traced=True) == pool_after_run(traced=False) > 0


def test_uninstall_restores_every_wrapped_method():
    from repro.core.orchestrator import Orchestrator

    originals = (Environment.process, Environment.timeout, Orchestrator.complete)
    with LayerTracer():
        assert Environment.process is not originals[0]
    assert (Environment.process, Environment.timeout, Orchestrator.complete) == originals


def test_process_family():
    assert process_family("sbc-worker-12") == "sbc-worker"
    assert process_family("vm-worker-0") == "vm-worker"
    assert process_family("chaos-41-link-down") == "chaos"
    assert process_family("_supervise") == "_supervise"


def test_proxy_under_chaos_crash_changes_nothing(tmp_path):
    workload = small("resilience")
    bench_run = traced_run(workload, 3, tmp_path)
    assert bench_run.correct, bench_run.report()
    traced = bench_run.traced_replay
    assert traced["outcome"].values["reliability.faults_injected"] > 0
    assert traced["outcome"].values["core.orchestrator.resubmissions"] > 0
    assert traced["totals"]["proc.chaos"][0] > 0
    assert traced["outcome"].values == bench_run.replays[0]["outcome"].values


# -- traced runs ------------------------------------------------------------------------


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_traced_replay_matches_untraced(name, tmp_path):
    bench_run = traced_run(small(name), 2, tmp_path)
    assert bench_run.correct, bench_run.report()
    result = bench_run.result()
    assert set(result["metrics"]) == {n for n, _, _ in metrics.PER_LAYER}
    assert (tmp_path / f"spans-{name}-seed2.npz").is_file()


def test_per_layer_counts_repeat_exactly(tmp_path):
    def counts():
        bench_run = traced_run(small("resilience"), 5, tmp_path)
        assert bench_run.correct, bench_run.report()
        layer = bench_run.result()["metrics"]
        return {
            name: entry["value"]
            for name, entry in layer.items()
            if entry["unit"] in ("count/inv", "count", "J", "ratio")
            and not name.endswith("self_share")
        }

    first, second = counts(), counts()
    assert first == second
    assert first["proc._supervise.resumes_per_inv"] > 0


def test_layer_split_matches_workload_purpose(tmp_path):
    def shares(name):
        bench_run = traced_run(small(name), 1, tmp_path)
        assert bench_run.correct, bench_run.report()
        return {k: v["value"] for k, v in bench_run.result()["metrics"].items()}

    paper = shares("paper")
    megatrace = shares("megatrace")
    assert paper["proc.vm-worker.resumes_per_inv"] > 0
    assert megatrace["proc.vm-worker.resumes_per_inv"] == 0
    assert megatrace["proc._supervise.resumes_per_inv"] == 0
    assert megatrace["energy.ledger.bills_per_inv"] == 0
    assert megatrace["proc.sbc-worker.resumes_per_inv"] > 0


# -- host speed -------------------------------------------------------------------------


def _busy(seconds: float) -> None:
    end = perf_counter() + seconds
    while perf_counter() < end:
        pass


def test_host_speed_restores_the_alarm_handler_and_timer():
    previous = signal.getsignal(signal.SIGALRM)
    with HostSpeed() as host:
        _busy(0.05)
    assert host.probes > 0 and host.wrong_results == 0
    assert signal.getsignal(signal.SIGALRM) is previous
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)


def test_reference_time_leaves_out_probes_and_scales_by_their_speed():
    host = HostSpeed()
    # Probes at 1, 2 and 3 s: the first two at the reference speed, the
    # third at half of it.
    host._starts = [1.0, 2.0, 3.0]
    host._ends = [1.0 + PROBE_REFERENCE_S, 2.0 + PROBE_REFERENCE_S,
                  3.0 + 2 * PROBE_REFERENCE_S]
    busy = 1.0 - PROBE_REFERENCE_S
    assert host.reference_s(0.5, 1.5) == pytest.approx(busy)
    assert host.reference_s(2.0 + PROBE_REFERENCE_S, 3.0) == pytest.approx(0.75 * busy)
    # Past the last probe the last probe's speed holds.
    assert host.reference_s(3.5, 4.5) == pytest.approx(0.5)


def test_reference_time_is_additive():
    with HostSpeed() as host:
        start = perf_counter()
        _busy(0.03)
        middle = perf_counter()
        _busy(0.03)
        end = perf_counter()
        _busy(0.01)
    whole = host.reference_s(start, end)
    assert whole > 0
    assert host.reference_s(start, middle) + host.reference_s(middle, end) == (
        pytest.approx(whole, rel=1e-9)
    )


# -- metric names and BENCHMARK.json ----------------------------------------------------


def test_metric_name_grammar():
    names = [n for n, *_ in metrics.END_TO_END] + [n for n, *_ in metrics.PER_LAYER]
    assert len(names) == len(set(names))
    for name in names:
        assert metrics.NAME_PATTERN.match(name), name
    for _, unit, *_ in metrics.END_TO_END + metrics.PER_LAYER:
        assert metrics.UNIT_PATTERN.match(unit), unit
    assert not metrics.NAME_PATTERN.match("_private")
    assert not metrics.NAME_PATTERN.match("has space")
    assert not metrics.NAME_PATTERN.match("x" * 65)


def test_benchmark_json_matches_the_code():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert spec["command"] == ["python3", "simbench/run.py"]
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert [
        (m["name"], m["unit"], m["better"], m["bound"]) for m in spec["end_to_end"]
    ] == list(metrics.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == list(
        metrics.PER_LAYER
    )
    assert all(0 < m["bound"] <= 0.25 for m in spec["end_to_end"])
    setup = [m for m in spec["end_to_end"] if m["name"] == "setup_s"]
    assert setup and setup[0]["bound"] == max(m["bound"] for m in spec["end_to_end"])


# -- failures ---------------------------------------------------------------------------


class _FailingCheck(workloads.Workload):
    name = "failing"

    def __init__(self):
        self.inner = small("megatrace")

    def prepare(self, seed):
        return self.inner.prepare(seed)

    def final_checks(self):
        return [workloads.Check("deliberately failing", False)]


class _Raising(workloads.Workload):
    name = "raising"

    def prepare(self, seed):
        raise RuntimeError("set-up broke")


@pytest.mark.parametrize("workload", [_FailingCheck(), _Raising()])
def test_failed_run_reports_every_job_failed(workload):
    bench_run = run.Run(workload, 1, seconds=0.01, traced=False)
    bench_run.execute()
    result = bench_run.result()
    assert result["correct"] is False
    assert result["attempted"] >= 1
    assert result["failed"] == result["attempted"]
    assert result["metrics"]["delivered_share"]["value"] == 0.0


def test_without_sources_exits_nonzero_and_prints_no_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "simbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    done = subprocess.run(
        [sys.executable, "simbench/run.py", "--workload", "megatrace", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
