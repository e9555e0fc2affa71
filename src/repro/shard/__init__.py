"""Sharded parallel simulation: conservative-lookahead multi-process runs.

``repro.shard`` splits one simulation across N OS processes while
producing results bit-identical to the serial run: the coordinator
runs the assignment policy on its own integer load view at
globally-known decision boundaries, and shards simulate worker
execution in parallel between them.  Start from
:class:`~repro.shard.coordinator.ShardedCluster`.
"""

from repro.shard.coordinator import ShardedCluster, ShardedRunStats
from repro.shard.executors import InlineExecutor, ProcessExecutor
from repro.shard.partition import PoolShape, ShardPlan, plan_shards
from repro.shard.runtime import ClusterSpec, ShardRuntime, ShardSpec

__all__ = [
    "ClusterSpec",
    "InlineExecutor",
    "PoolShape",
    "ProcessExecutor",
    "ShardPlan",
    "ShardRuntime",
    "ShardSpec",
    "ShardedCluster",
    "ShardedRunStats",
    "plan_shards",
]
