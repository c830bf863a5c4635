"""Persistent content-addressed artifact storage.

The in-memory :class:`~repro.pipeline.cache.ArtifactCache` dies with the
process; this package is the durable tier underneath it.  A
:class:`LocalDirStore` persists pass results on disk under the same
``(netlist signature, config key, pass name)`` tuple, with atomic
write-then-rename publication, integrity hashing on read, schema/version
stamping, cross-process single-flight locking and a size/age retention
policy — so a repeated design hits warm artifacts across processes and
machines::

    from repro.api import RunOptions, Session

    options = RunOptions(store="~/.cache/repro-artifacts")
    session = Session(options=options)
    session.analyze("date13")      # cold: computes and persists
    # ... any later process ...
    session = Session(options=options)
    session.analyze("date13")      # warm: every pass replays from disk

The :class:`ArtifactStore` protocol keeps the backend pluggable
(:data:`STORE_BACKENDS` / :func:`register_store_backend`); ``repro cache
ls|gc|prune`` is the command-line face.
"""

from repro.store.base import (STORE_BACKENDS, ArtifactStore, PruneResult,
                              StoreEntry, StoreError, StoreKey,
                              register_store_backend, resolve_store)
from repro.store.local import STORE_SCHEMA, LocalDirStore, store_key_digest

__all__ = [
    "ArtifactStore",
    "LocalDirStore",
    "PruneResult",
    "StoreEntry",
    "StoreError",
    "StoreKey",
    "STORE_BACKENDS",
    "STORE_SCHEMA",
    "register_store_backend",
    "resolve_store",
    "store_key_digest",
]
