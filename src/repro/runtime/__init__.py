"""The parallel runtime: warm worker pools and the work-stealing chunk
scheduler every ``jobs > 1`` engine runs on.

See :mod:`repro.runtime.pool` for the pool itself and
:mod:`repro.runtime.scheduler` for chunk construction.
"""

from repro.runtime.pool import (DEFAULT_JOB_CACHE, DEFAULT_NETLIST_CACHE,
                                PoolClosedError, WorkerPool,
                                WorkerTaskError, content_key, get_pool,
                                pool_stats, shutdown_pools)
from repro.runtime.scheduler import (MONSTER_RATIO, build_chunks,
                                     cone_representative,
                                     default_chunk_size)

__all__ = [
    "DEFAULT_JOB_CACHE",
    "DEFAULT_NETLIST_CACHE",
    "MONSTER_RATIO",
    "PoolClosedError",
    "WorkerPool",
    "WorkerTaskError",
    "build_chunks",
    "cone_representative",
    "content_key",
    "default_chunk_size",
    "get_pool",
    "pool_stats",
    "shutdown_pools",
]
