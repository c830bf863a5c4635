"""Persistent parallel runtime: warm worker pools and the work-stealing
chunk scheduler behind the ``pool=persistent`` knob.

See :mod:`repro.runtime.pool` for the pool itself and
:mod:`repro.runtime.scheduler` for chunk construction.
"""

from repro.runtime.pool import (DEFAULT_JOB_CACHE, DEFAULT_NETLIST_CACHE,
                                POOL_MODES, PoolClosedError, WorkerPool,
                                WorkerTaskError, content_key, get_pool,
                                pool_stats, resolve_pool_mode,
                                shutdown_pools)
from repro.runtime.scheduler import (MONSTER_RATIO, build_chunks,
                                     default_chunk_size)

__all__ = [
    "DEFAULT_JOB_CACHE",
    "DEFAULT_NETLIST_CACHE",
    "MONSTER_RATIO",
    "POOL_MODES",
    "PoolClosedError",
    "WorkerPool",
    "WorkerTaskError",
    "build_chunks",
    "content_key",
    "default_chunk_size",
    "get_pool",
    "pool_stats",
    "resolve_pool_mode",
    "shutdown_pools",
]
