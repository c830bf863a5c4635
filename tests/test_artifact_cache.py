"""ArtifactCache behaviour: LRU bounding, locking, single-flight."""

from __future__ import annotations

import threading

import pytest

from repro.pipeline.cache import ArtifactCache


def key(n: int):
    return (f"sig{n}", "cfg", "pass")


def must_hit():
    raise AssertionError("expected a cache hit")


class TestLruBound:
    def test_unbounded_by_default(self):
        cache = ArtifactCache()
        for n in range(100):
            cache.put(key(n), n)
        assert len(cache) == 100

    def test_eviction_drops_least_recently_used(self):
        cache = ArtifactCache(max_entries=2)
        cache.put(key(1), "a")
        cache.put(key(2), "b")
        # A hit refreshes key 1's recency.
        assert cache.get_or_compute(key(1), must_hit) == ("a", True)
        cache.put(key(3), "c")            # evicts key 2, not key 1
        assert cache.get_or_compute(key(1), must_hit) == ("a", True)
        assert cache.get_or_compute(key(3), must_hit) == ("c", True)
        assert len(cache) == 2
        assert cache.stats["evictions"] == 1
        assert cache.get_or_compute(key(2), lambda: "b2") == ("b2", False)

    def test_overwrite_does_not_evict(self):
        cache = ArtifactCache(max_entries=2)
        cache.put(key(1), "a")
        cache.put(key(2), "b")
        cache.put(key(1), "a2")
        assert len(cache) == 2
        assert cache.get_or_compute(key(1), must_hit) == ("a2", True)
        assert cache.stats["evictions"] == 0

    def test_clear_resets_accounting(self):
        cache = ArtifactCache(max_entries=1)
        cache.put(key(1), "a")
        cache.get_or_compute(key(1), must_hit)
        cache.get_or_compute(key(2), lambda: "b")   # a miss that evicts
        assert cache.stats == {"entries": 1, "hits": 1, "misses": 1,
                               "evictions": 1}
        cache.clear()
        assert len(cache) == 0
        assert cache.stats == {"entries": 0, "hits": 0, "misses": 0,
                               "evictions": 0}


class TestThreadSafety:
    def test_concurrent_put_get_under_bound(self):
        cache = ArtifactCache(max_entries=32)
        errors = []

        def worker(seed: int) -> None:
            try:
                for n in range(200):
                    cache.put(key((seed * 7 + n) % 64), n)
                    cache.get_or_compute(key(n % 64), lambda: n)
            except BaseException as exc:  # pragma: no cover - failure path
                errors.append(exc)

        threads = [threading.Thread(target=worker, args=(s,))
                   for s in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert not errors
        assert len(cache) <= 32
        stats = cache.stats
        assert stats["hits"] + stats["misses"] == 8 * 200

    def test_single_flight_coalesces_concurrent_computations(self):
        cache = ArtifactCache()
        calls = []
        gate = threading.Event()

        def factory():
            calls.append(threading.current_thread().name)
            gate.wait(timeout=5)
            return "value"

        results = []

        def run():
            results.append(cache.get_or_compute(key(1), factory))

        threads = [threading.Thread(target=run) for _ in range(4)]
        for thread in threads:
            thread.start()
        while not calls:           # one thread entered the factory
            pass
        gate.set()
        for thread in threads:
            thread.join()

        assert len(calls) == 1     # exactly one computation
        assert {value for value, _ in results} == {"value"}
        assert sorted(hit for _, hit in results) == [False, True, True, True]
        assert cache.stats["hits"] == 3
        assert cache.stats["misses"] == 1

    def test_single_flight_failure_hands_over(self):
        cache = ArtifactCache()
        attempts = []

        def failing():
            attempts.append("fail")
            raise RuntimeError("boom")

        with pytest.raises(RuntimeError, match="boom"):
            cache.get_or_compute(key(1), failing)
        # The key is released: the next caller computes instead of hanging.
        value, hit = cache.get_or_compute(key(1), lambda: "recovered")
        assert (value, hit) == ("recovered", False)
        assert attempts == ["fail"]
