"""The client SDK: drive clusters the way a FaaS user would.

Every other example submits work server-side (batches handed to the
orchestrator, arrival processes). `repro.client` is the programming
model on top: a Lithops-style `FunctionExecutor` whose futures,
`map`/`map_reduce`, wait modes, and client-side retries work unchanged
over any cluster — or a whole federation. Four steps:

1. `call_async`/`map` on the hybrid cluster: accept calls, wait, read
   results; the batching invoker lands a whole fan-out as one
   `submit_batch` call.
2. Futures as inputs: chain a reduce on a fan-out with `map_reduce`;
   the reduce invokes the instant the last map resolves, with every
   map output billed into its input transfer.
3. Wait modes: `ANY_COMPLETED` streams results out of a fan-out as
   they land.
4. A federation backend with client retries: calls route through the
   fault-tolerant gateway; a per-call timeout relaunches stragglers
   under deterministic backoff, idempotency keys keep delivered work
   counted exactly once.

Run:  python examples/sdk.py
"""

from repro.client import ANY_COMPLETED, FunctionExecutor, RetryPolicy
from repro.cluster import HybridCluster, MicroFaaSCluster
from repro.federation import FederatedCluster, RegionSpec


def map_basics() -> None:
    print("=== 1. call_async / map on the hybrid cluster ===")
    cluster = HybridCluster(sbc_count=6, vm_count=3, seed=1)
    ex = FunctionExecutor(cluster)

    one = ex.call_async("CascSHA")
    fan = ex.map("MatMul", 20)
    done, not_done = ex.wait()  # flushes one batch, runs the simulation
    assert not not_done
    record = one.result()
    print(
        f"  {len(done)} calls resolved; CascSHA worked "
        f"{record.working_s:.2f} s on worker {record.worker_id}"
    )
    print(
        f"  map latencies: first {min(f.latency_s for f in fan):.1f} s, "
        f"last {max(f.latency_s for f in fan):.1f} s "
        f"({ex.invoker.batches_flushed} batch flushed)"
    )
    print()


def chaining() -> None:
    print("=== 2. map_reduce: futures as inputs ===")
    cluster = HybridCluster(sbc_count=6, vm_count=3, seed=2)
    ex = FunctionExecutor(cluster)
    reduce_future = ex.map_reduce(
        ["MatMul", "AES128", "FloatOps", "RegExMatch"], "CascSHA"
    )
    ex.wait()
    maps = reduce_future.parents
    print(
        f"  last map resolved at t={max(f.t_done for f in maps):.1f} s "
        f"-> reduce invoked at t={reduce_future.t_invoked:.1f} s"
    )
    extra = sum(f.output_bytes for f in maps)
    print(
        f"  {extra} intermediate bytes billed into the reduce input; "
        f"reduce latency {reduce_future.latency_s:.1f} s"
    )
    print()


def streaming_wait() -> None:
    print("=== 3. wait(ANY_COMPLETED): stream a fan-out ===")
    cluster = MicroFaaSCluster(worker_count=10, seed=3)
    ex = FunctionExecutor(cluster)
    pending = ex.map("FloatOps", 8)
    waves = 0
    while pending:
        done, pending = ex.wait(pending, return_when=ANY_COMPLETED)
        waves += 1
        print(
            f"  t={cluster.env.now:5.1f} s  +{len(done)} resolved, "
            f"{len(pending)} pending"
        )
    print(f"  drained in {waves} waves")
    print()


def federation_with_retries() -> None:
    print("=== 4. A federation backend with client-side retries ===")
    fed = FederatedCluster(
        [
            RegionSpec("eu-north", "eu", worker_count=6, seed=11),
            RegionSpec("us-east", "us", worker_count=6, seed=12),
        ]
    )
    ex = FunctionExecutor(
        fed,
        retries=RetryPolicy(max_retries=2, call_timeout_s=30.0),
    )
    futures = [
        ex.call_async("MatMul", geo="eu" if i % 2 == 0 else "us")
        for i in range(12)
    ]
    done, not_done = ex.wait()
    assert not not_done
    stats = ex.stats
    retried = sum(1 for f in futures if f.client_retries)
    print(
        f"  {stats.succeeded} delivered through the gateway, "
        f"{retried} calls retried client-side, "
        f"{stats.duplicates_suppressed} duplicate deliveries suppressed"
    )
    print(f"  every call resolved exactly once: {stats.resolved} results")


if __name__ == "__main__":
    map_basics()
    chaining()
    streaming_wait()
    federation_with_retries()
