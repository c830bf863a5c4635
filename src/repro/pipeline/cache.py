"""Per-step result caching keyed on netlist signature + run configuration.

Serving many scenario variants of the same core means the expensive
artifacts (fault universe, baseline ATPG classification, per-source
analyses) are recomputed over and over.  :class:`ArtifactCache` memoises
each flow step's :class:`~repro.pipeline.base.PassResult` under a key
derived from

* a structural signature of the target netlist (ports, instances,
  connectivity, tied nets — anything circuit manipulation can change),
* the run configuration that influences the step (ATPG effort, the
  Fig. 6 tie knobs, a restricted fault universe), and
* the step name.

A flow run on the same core — or on a clone with the same structure —
therefore replays every step result without touching the ATPG engine.
"""

from __future__ import annotations

import atexit
import hashlib
import queue
import threading
from collections import OrderedDict
from typing import Any, Dict, Iterable, Optional, Tuple

CacheKey = Tuple[str, str, str]  # (netlist signature, config key, step name)


def memory_map_key(memory_map) -> str:
    """A content-based key for a memory map ('' when there is none).

    Built from the address width and the region contents, never from object
    identity: two structurally equal maps must hash the same (so scenario
    variants reuse cached results) and a different map allocated at a
    recycled address must not collide.
    """
    if memory_map is None:
        return ""
    regions = ";".join(
        f"{region.name}:{region.base}:{region.size}"
        for region in sorted(memory_map.regions,
                             key=lambda r: (r.base, r.size, r.name)))
    return f"w{memory_map.address_width}[{regions}]"


def fault_restriction_key(faults: Optional[Iterable] = None) -> str:
    """Digest of an explicitly restricted fault universe ('' = full list)."""
    if faults is None:
        return ""
    hasher = hashlib.sha256()
    # Sort on the serialized form: fault objects of different models are
    # not mutually orderable, but their strings always are.
    for fault in sorted(faults, key=str):
        hasher.update(repr(fault).encode())
        hasher.update(b"\x00")
    return hasher.hexdigest()


class _StoreWriter:
    """The write-behind lane of a store-backed cache.

    Computing threads enqueue ``(key, value, on_done)`` and return to
    their caller immediately; one daemon thread serializes and publishes
    in arrival order, then runs ``on_done`` (which releases the key's
    cross-process single-flight lock, so no other process recomputes a
    value that is still in flight to disk).  :meth:`flush` blocks until
    everything enqueued so far has landed — registered via ``atexit`` so
    a process never exits with warm artifacts stuck in the queue.
    """

    def __init__(self, store) -> None:
        self._store = store
        self._queue: "queue.Queue" = queue.Queue()
        self._thread = threading.Thread(target=self._run, daemon=True,
                                        name="repro-store-writer")
        self._thread.start()
        atexit.register(self.flush)

    def _run(self) -> None:
        while True:
            key, value, on_done = self._queue.get()
            try:
                self._store.put(key, value)
            except Exception:  # noqa: BLE001 — a failed write is a cold entry
                pass
            finally:
                if on_done is not None:
                    on_done()
                self._queue.task_done()

    def submit(self, key: CacheKey, value: Any, on_done=None) -> None:
        self._queue.put((key, value, on_done))

    def flush(self) -> None:
        self._queue.join()


class ArtifactCache:
    """Thread-safe LRU step-result cache with hit/miss accounting.

    One cache may be shared by many flow runs — a
    :class:`repro.api.Session` hands the same instance to every analysis
    and every in-process sweep scenario, so a variant replays artifacts a
    sibling scenario computed moments earlier, and the analysis service
    runs concurrent jobs on threads over one session's cache.  The store
    is guarded by a lock and
    bounded: when ``max_entries`` is set, the least-recently-used entry is
    evicted on insert, so long sweeps cannot grow memory without bound.

    Because each flow run executes every step at most once (and only
    publishes after running), any *hit* observed while sweeping distinct
    scenarios is by construction a replay of an artifact some earlier
    scenario produced — :meth:`repro.api.Session.sweep` snapshots
    :attr:`stats` around the sweep to report exactly that reuse.

    With a durable ``store`` (:mod:`repro.store`) attached, the cache
    becomes the hot tier of a two-level hierarchy: misses *read through*
    to the store (a warm artifact from an earlier process replays without
    recomputation and is promoted into memory), and computed values are
    *written behind* by a background thread so callers never wait on
    serialization.  ``get_or_compute`` extends its single-flight guarantee
    across processes via the store's per-key lock.  Store activity shows
    up in :attr:`stats` under ``store_*`` keys; :meth:`clear` only drops
    the in-memory tier.
    """

    def __init__(self, max_entries: Optional[int] = None,
                 store=None) -> None:
        from repro.store import resolve_store

        self._entries: "OrderedDict[CacheKey, Any]" = OrderedDict()
        self._lock = threading.Lock()
        self._inflight: Dict[CacheKey, threading.Event] = {}
        self.max_entries = max_entries
        self.store = resolve_store(store)
        self._writer = (_StoreWriter(self.store)
                        if self.store is not None else None)
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    def get_or_compute(self, key: CacheKey, factory) -> Tuple[Any, bool]:
        """Return ``(value, was_hit)``, computing and storing on a miss.

        Concurrent callers of the same key are *single-flighted*: one
        computes, the rest block and then replay the stored value (counted
        as hits).  That keeps two service jobs on one session from
        duplicating an expensive step when they reach it simultaneously on
        the same netlist.  If the computing caller fails, one waiter takes
        over; the failure propagates to the caller that raised it.

        With a store attached the same discipline extends across
        processes: the computing thread holds the key's store lock, checks
        whether a sibling process already published the artifact (replayed
        as a hit), and otherwise computes and hands the value to the
        write-behind lane — the lock is released only once the artifact is
        durable, so concurrent processes compute each key exactly once.
        """
        while True:
            with self._lock:
                if key in self._entries:
                    self.hits += 1
                    self._entries.move_to_end(key)
                    return self._entries[key], True
                waiter = self._inflight.get(key)
                if waiter is None:
                    self._inflight[key] = threading.Event()
                    self.misses += 1
                    break
            waiter.wait()
        try:
            if self.store is None:
                value, hit = factory(), False
            else:
                value, hit = self._compute_through_store(key, factory)
        except BaseException:
            self._finish(key)
            raise
        self.put(key, value)
        self._finish(key)
        return value, hit

    def _compute_through_store(self, key: CacheKey,
                               factory) -> Tuple[Any, bool]:
        """Read-through / write-behind miss path under the store lock."""
        lock = self.store.lock(key)
        lock.__enter__()
        try:
            stored = self.store.get(key)
            if stored is not None:
                return stored, True
            value = factory()
        except BaseException:
            lock.__exit__(None, None, None)
            raise
        # Publish asynchronously; the cross-process lock travels with the
        # write so sibling processes block until the artifact is durable
        # (then read it) instead of recomputing.
        self._writer.submit(key, value,
                            on_done=lambda: lock.__exit__(None, None, None))
        return value, False

    def _finish(self, key: CacheKey) -> None:
        with self._lock:
            event = self._inflight.pop(key, None)
        if event is not None:
            event.set()

    def put(self, key: CacheKey, value: Any) -> None:
        with self._lock:
            if key in self._entries:
                self._entries.move_to_end(key)
            elif (self.max_entries is not None
                    and len(self._entries) >= self.max_entries):
                self._entries.popitem(last=False)  # least recently used
                self.evictions += 1
            self._entries[key] = value

    def flush(self) -> None:
        """Block until every write-behind publication has landed on disk."""
        if self._writer is not None:
            self._writer.flush()

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()
            self.hits = 0
            self.misses = 0
            self.evictions = 0

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    @property
    def stats(self) -> Dict[str, int]:
        with self._lock:
            stats = {"entries": len(self._entries),
                     "hits": self.hits, "misses": self.misses,
                     "evictions": self.evictions}
        if self.store is not None:
            stats.update({f"store_{name}": count
                          for name, count in self.store.stats.items()})
        return stats
