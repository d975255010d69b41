"""Sharded parallel execution of skyline queries.

Classic divide-and-conquer skyline decomposition on top of the library's
kernel layer: partition an encoded frame into shards once
(:mod:`repro.parallel.partition`), compute per-shard local skylines — in
process or on a persistent :mod:`multiprocessing` worker pool with
process-local shard state — and merge the local skylines with a sort-merge
over the monotone SFS key (see :mod:`repro.parallel.executor`).
"""

from repro.parallel.executor import ShardedExecutor, ShardedQueryResult
from repro.parallel.partition import PARTITIONERS, Shard, partition_frame

__all__ = [
    "PARTITIONERS",
    "Shard",
    "ShardedExecutor",
    "ShardedQueryResult",
    "partition_frame",
]
