"""The durable artifact store (repro.store) and its tiered-cache wiring.

Covers the store contract in isolation (roundtrip, integrity, version
stamping, retention), the ArtifactCache read-through/write-behind
integration, cross-process single-flight (two racing processes compute a
key exactly once), and the acceptance property of the PR: a fresh
process replays every warm pass from the store without recomputing.
"""

from __future__ import annotations

import json
import multiprocessing
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro.pipeline.cache import ArtifactCache
from repro.store import (LocalDirStore, StoreEntry, resolve_store,
                         store_key_digest)

REPO_SRC = str(Path(__file__).resolve().parent.parent / "src")


def key(n: int = 0, pass_name: str = "pass"):
    return (f"sig{n}", "cfg", pass_name)


@pytest.fixture()
def store(tmp_path) -> LocalDirStore:
    return LocalDirStore(tmp_path / "store")


# --------------------------------------------------------------------- #
# the store contract
# --------------------------------------------------------------------- #
class TestRoundtrip:
    def test_put_get_roundtrip(self, store):
        assert store.put(key(), {"value": [1, 2, 3]})
        assert store.get(key()) == {"value": [1, 2, 3]}
        assert store.stats["hits"] == 1
        assert store.stats["writes"] == 1

    def test_miss_on_absent_key(self, store):
        assert store.get(key(99)) is None
        assert store.stats["misses"] == 1

    def test_unpicklable_value_degrades_to_write_error(self, store):
        assert store.put(key(), lambda: None) is False
        assert store.stats["write_errors"] == 1
        assert store.get(key()) is None

    def test_overwrite_is_idempotent(self, store):
        store.put(key(), "first")
        store.put(key(), "second")
        assert store.get(key()) == "second"
        assert len(store) == 1

    def test_entries_enumerate_keys_and_sizes(self, store):
        store.put(key(1, "fault_list"), list(range(100)))
        store.put(key(2, "baseline"), "small")
        entries = store.entries()
        assert len(entries) == 2
        assert {entry.key for entry in entries} == {key(1, "fault_list"),
                                                    key(2, "baseline")}
        assert all(isinstance(entry, StoreEntry)
                   and entry.size_bytes > 0 for entry in entries)

    def test_digest_is_stable_and_key_sensitive(self):
        assert store_key_digest(key(1)) == store_key_digest(key(1))
        assert store_key_digest(key(1)) != store_key_digest(key(2))
        # Null-joined hashing: shifting a boundary must not collide.
        assert (store_key_digest(("ab", "c", "p"))
                != store_key_digest(("a", "bc", "p")))


class TestIntegrity:
    def _object_file(self, store) -> Path:
        files = [path for path, _ in store._iter_files()]
        assert len(files) == 1
        return files[0]

    def test_truncated_artifact_is_quarantined_and_recomputed(self, store):
        store.put(key(), {"big": "x" * 4096})
        path = self._object_file(store)
        data = path.read_bytes()
        path.write_bytes(data[:len(data) - 100])  # torn write / bit rot

        assert store.get(key()) is None
        assert store.stats["corruptions"] == 1
        assert store.stats["misses"] == 1
        assert not path.exists()
        quarantined = list((store.root / "v1" / "quarantine").iterdir())
        assert len(quarantined) == 1
        # The caller recomputes and re-publishes over the gap.
        store.put(key(), {"big": "y"})
        assert store.get(key()) == {"big": "y"}

    def test_garbage_header_is_quarantined(self, store):
        store.put(key(), "ok")
        path = self._object_file(store)
        path.write_bytes(b"\x00\xff not json\n garbage")
        assert store.get(key()) is None
        assert store.stats["corruptions"] == 1

    def test_version_mismatch_is_stale_not_corrupt(self, store):
        store.put(key(), "ok")
        path = self._object_file(store)
        header, _, payload = path.read_bytes().partition(b"\n")
        doc = json.loads(header)
        doc["version"] = "0.0.0-older"
        path.write_bytes(json.dumps(doc).encode() + b"\n" + payload)

        assert store.get(key()) is None
        assert store.stats["stale"] == 1
        assert store.stats["corruptions"] == 0
        assert not path.exists()  # dropped, not quarantined


class TestRetention:
    def test_prune_by_age(self, store):
        store.put(key(1), "old")
        store.put(key(2), "new")
        old_path = store._object_path(key(1))
        past = time.time() - 1000
        os.utime(old_path, (past, past))

        result = store.prune(max_age_seconds=500)
        assert result.removed_entries == 1
        assert result.kept_entries == 1
        assert store.get(key(1)) is None
        assert store.get(key(2)) == "new"

    def test_prune_by_size_evicts_least_recently_used(self, store):
        for n in range(4):
            store.put(key(n), "x" * 1000)
            path = store._object_path(key(n))
            stamp = time.time() - 100 + n  # key(0) is oldest
            os.utime(path, (stamp, stamp))
        total = sum(entry.size_bytes for entry in store.entries())

        result = store.prune(max_bytes=total - 1)  # must drop exactly one
        assert result.removed_entries == 1
        assert store.get(key(0)) is None
        assert all(store.get(key(n)) is not None for n in (1, 2, 3))

    def test_gc_collects_quarantine_and_stale_tmp(self, store):
        store.put(key(), "x" * 2048)
        path = store._object_path(key())
        data = path.read_bytes()
        path.write_bytes(data[:-50])
        assert store.get(key()) is None  # quarantines

        stale_tmp = store.root / "v1" / "tmp" / "dead-writer"
        stale_tmp.write_bytes(b"partial")
        past = time.time() - 7200
        os.utime(stale_tmp, (past, past))

        result = store.gc()
        assert result.removed_debris == 2  # quarantine corpse + stale tmp
        assert not stale_tmp.exists()

    def test_clear_drops_everything(self, store):
        for n in range(3):
            store.put(key(n), n)
        store.clear()
        assert len(store) == 0


class TestResolveStore:
    def test_none_stays_none(self):
        assert resolve_store(None) is None

    def test_instance_passes_through(self, store):
        assert resolve_store(store) is store

    def test_path_string_builds_local_store(self, tmp_path):
        resolved = resolve_store(str(tmp_path / "s"))
        assert isinstance(resolved, LocalDirStore)
        assert resolved.root == tmp_path / "s"

    def test_backend_prefix_spec(self, tmp_path):
        resolved = resolve_store(f"local:{tmp_path / 's'}")
        assert isinstance(resolved, LocalDirStore)
        assert resolved.root == tmp_path / "s"

    def test_bad_spec_type_raises(self):
        with pytest.raises(TypeError):
            resolve_store(42)


# --------------------------------------------------------------------- #
# tiered ArtifactCache integration
# --------------------------------------------------------------------- #
class TestTieredCache:
    def test_miss_reads_through_and_promotes(self, tmp_path):
        store_dir = str(tmp_path / "store")
        warm = ArtifactCache(store=store_dir)
        value, hit = warm.get_or_compute(key(), lambda: "computed")
        assert (value, hit) == ("computed", False)
        warm.flush()

        # A fresh cache over the same directory replays without computing.
        cold = ArtifactCache(store=store_dir)
        calls = []
        value, hit = cold.get_or_compute(
            key(), lambda: calls.append(1) or "recomputed")
        assert (value, hit) == ("computed", True)
        assert calls == []
        # ... and the value was promoted into the memory tier.
        assert cold.stats["entries"] == 1
        assert cold.stats["store_hits"] == 1

    def test_factory_failure_releases_the_store_lock(self, tmp_path):
        cache = ArtifactCache(store=str(tmp_path / "store"))
        with pytest.raises(RuntimeError):
            cache.get_or_compute(key(), self._boom)
        # The key's lock must be free again: a retry can compute.
        value, hit = cache.get_or_compute(key(), lambda: "second try")
        assert (value, hit) == ("second try", False)

    @staticmethod
    def _boom():
        raise RuntimeError("factory failed")

    def test_stats_surface_store_counters(self, tmp_path):
        cache = ArtifactCache(store=str(tmp_path / "store"))
        cache.get_or_compute(key(), lambda: "v")
        cache.flush()
        stats = cache.stats
        assert stats["store_writes"] == 1
        assert "store_hits" in stats and "store_corruptions" in stats

    def test_storeless_cache_has_no_store_keys(self):
        stats = ArtifactCache().stats
        assert not any(name.startswith("store_") for name in stats)

    def test_corrupted_artifact_recomputes_through(self, tmp_path):
        store_dir = str(tmp_path / "store")
        warm = ArtifactCache(store=store_dir)
        warm.get_or_compute(key(), lambda: {"payload": "x" * 2048})
        warm.flush()

        # Truncate the only artifact on disk.
        store = resolve_store(store_dir)
        path = store._object_path(key())
        data = path.read_bytes()
        path.write_bytes(data[:-64])

        cold = ArtifactCache(store=store_dir)
        value, hit = cold.get_or_compute(key(), lambda: "recomputed")
        assert (value, hit) == ("recomputed", False)
        cold.flush()
        assert cold.stats["store_corruptions"] == 1
        # The recomputed value healed the store for the next process.
        healed = ArtifactCache(store=store_dir)
        assert healed.get_or_compute(key(), lambda: "x") == ("recomputed",
                                                             True)


# --------------------------------------------------------------------- #
# cross-process single-flight
# --------------------------------------------------------------------- #
def _race_worker(store_dir: str, marker_dir: str, out_path: str) -> None:
    from repro.pipeline.cache import ArtifactCache

    def factory():
        marker = Path(marker_dir) / f"computed-{os.getpid()}"
        marker.write_text("1")
        time.sleep(0.3)  # widen the race window
        return "computed-once"

    cache = ArtifactCache(store=store_dir)
    value, hit = cache.get_or_compute(("race-sig", "cfg", "pass"), factory)
    cache.flush()
    Path(out_path).write_text(json.dumps({"value": value, "hit": hit}))


class TestCrossProcessSingleFlight:
    def test_two_processes_compute_once(self, tmp_path):
        store_dir = str(tmp_path / "store")
        marker_dir = tmp_path / "markers"
        marker_dir.mkdir()
        outs = [tmp_path / "out0.json", tmp_path / "out1.json"]

        ctx = multiprocessing.get_context("fork")
        procs = [ctx.Process(target=_race_worker,
                             args=(store_dir, str(marker_dir), str(out)))
                 for out in outs]
        for proc in procs:
            proc.start()
        for proc in procs:
            proc.join(timeout=30)
            assert proc.exitcode == 0

        # Exactly one process ran the factory; both got the value.
        assert len(list(marker_dir.iterdir())) == 1
        results = [json.loads(out.read_text()) for out in outs]
        assert all(r["value"] == "computed-once" for r in results)
        # The loser observed the winner's publication as a store hit.
        assert sorted(r["hit"] for r in results) == [False, True]


# --------------------------------------------------------------------- #
# acceptance: fresh-process warm replay of a real analysis
# --------------------------------------------------------------------- #
_ANALYZE_SNIPPET = """\
import json, sys
from repro.api import RunOptions, Session

store_dir, effort = sys.argv[1], sys.argv[2]
session = Session(options=RunOptions(store=store_dir))
report = session.analyze("tiny", options=RunOptions(effort=effort))
session.cache.flush()
print(json.dumps({"stats": session.cache_stats,
                  "total": report.total_online_untestable}))
"""


def _fresh_process_analyze(store_dir: str, effort: str) -> dict:
    env = dict(os.environ, PYTHONPATH=REPO_SRC)
    proc = subprocess.run(
        [sys.executable, "-c", _ANALYZE_SNIPPET, store_dir, effort],
        capture_output=True, text=True, env=env, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


class TestFreshProcessWarmHits:
    def test_second_process_replays_every_pass(self, tmp_path):
        store_dir = str(tmp_path / "store")

        cold = _fresh_process_analyze(store_dir, "tie")
        assert cold["stats"]["store_hits"] == 0
        passes_run = cold["stats"]["misses"]
        assert passes_run >= 6  # the full tie-effort tiny flow
        assert cold["stats"]["store_writes"] == passes_run

        warm = _fresh_process_analyze(store_dir, "tie")
        # Every pass replays from the store: no recomputation at all.
        assert warm["stats"]["store_hits"] == passes_run
        assert warm["stats"]["store_writes"] == 0
        assert warm["total"] == cold["total"]

        # A different effort still replays the effort-blind passes
        # (fault_list, scan_analysis key only on netlist + fault model).
        other = _fresh_process_analyze(store_dir, "random")
        assert other["stats"]["store_hits"] >= 2
        assert other["stats"]["store_hits"] < passes_run
