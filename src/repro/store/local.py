"""The default durable backend: a content-addressed directory store.

Layout (all under one root, one subtree per on-disk schema version so a
format change never misreads old artifacts)::

    <root>/v1/
        objects/<aa>/<digest>     one artifact per file
        locks/<digest>.lock       cross-process single-flight locks
        quarantine/<digest>.<n>   corrupt files, kept for post-mortem
        tmp/                      staging for atomic publication

Each artifact file is a single JSON header line followed by the pickled
payload.  The header stamps the schema version, the package version that
wrote the artifact, the full key tuple and the payload's SHA-256; reads
verify the hash and quarantine any file that fails (truncation, bit rot,
a torn concurrent writer on a non-POSIX filesystem), counting a
*corruption* and reporting a miss so the caller recomputes.

Publication is write-then-rename: the payload is staged under ``tmp/``
and ``os.replace``d into place, so readers never observe a half-written
artifact and concurrent writers of the same key are idempotent (last
rename wins; both wrote identical content).

:meth:`LocalDirStore.lock` is the cross-process single-flight primitive:
an ``fcntl.flock`` on the key's lock file where available, an
``O_CREAT|O_EXCL`` spin lock elsewhere.
"""

from __future__ import annotations

import contextlib
import errno
import hashlib
import json
import os
import pickle
import threading
import time
from pathlib import Path
from typing import Any, Dict, Iterator, List, Optional, Tuple

from repro._version import __version__
from repro.store.base import (ArtifactStore, PruneResult, StoreEntry,
                              StoreError, StoreKey)

try:  # POSIX — the fast, robust path
    import fcntl
except ImportError:  # pragma: no cover - non-POSIX fallback
    fcntl = None  # type: ignore[assignment]

#: On-disk schema version (directory name component).  Bump on any layout
#: or header change: old trees become invisible rather than misread.
STORE_SCHEMA = 1

#: Stale-debris thresholds for :meth:`LocalDirStore.gc` (seconds).
_TMP_MAX_AGE = 3600.0
_LOCK_MAX_AGE = 86400.0


def store_key_digest(key: StoreKey) -> str:
    """Stable content address of a cache-key tuple."""
    hasher = hashlib.sha256()
    for part in key:
        hasher.update(part.encode("utf-8"))
        hasher.update(b"\x00")
    return hasher.hexdigest()


class LocalDirStore:
    """Content-addressed artifact store on a local (or shared) directory."""

    name = "local"

    def __init__(self, root, *,
                 max_bytes: Optional[int] = None,
                 max_age_seconds: Optional[float] = None) -> None:
        self.root = Path(root).expanduser()
        #: Default retention policy, applied by :meth:`gc` (and available
        #: to :meth:`prune` callers that pass nothing explicit).
        self.max_bytes = max_bytes
        self.max_age_seconds = max_age_seconds
        base = self.root / f"v{STORE_SCHEMA}"
        self._objects = base / "objects"
        self._locks = base / "locks"
        self._quarantine = base / "quarantine"
        self._tmp = base / "tmp"
        for directory in (self._objects, self._locks,
                          self._quarantine, self._tmp):
            directory.mkdir(parents=True, exist_ok=True)
        self._stats_lock = threading.Lock()
        self._counters: Dict[str, int] = {
            "hits": 0, "misses": 0, "writes": 0, "write_errors": 0,
            "corruptions": 0, "stale": 0, "evictions": 0,
        }

    # ------------------------------------------------------------------ #
    # paths & helpers
    # ------------------------------------------------------------------ #
    def _object_path(self, key: StoreKey) -> Path:
        digest = store_key_digest(key)
        return self._objects / digest[:2] / digest

    def _count(self, counter: str, amount: int = 1) -> None:
        with self._stats_lock:
            self._counters[counter] += amount

    @property
    def stats(self) -> Dict[str, int]:
        with self._stats_lock:
            return dict(self._counters)

    def __repr__(self) -> str:
        return f"LocalDirStore({str(self.root)!r})"

    # ------------------------------------------------------------------ #
    # read path
    # ------------------------------------------------------------------ #
    def get(self, key: StoreKey) -> Optional[Any]:
        path = self._object_path(key)
        try:
            with path.open("rb") as handle:
                header_line = handle.readline()
                payload = handle.read()
        except FileNotFoundError:
            self._count("misses")
            return None
        except OSError as exc:
            raise StoreError(f"cannot read artifact {path}: {exc}") from exc

        header = self._parse_header(header_line)
        if header is None:
            self._quarantine_file(path, "unparseable header")
            self._count("misses")
            return None
        if header.get("version") != __version__:
            # Written by a different package version: pickled internals may
            # have changed shape, so treat as stale and drop rather than
            # risk replaying a subtly incompatible artifact.
            self._count("stale")
            self._count("misses")
            with contextlib.suppress(OSError):
                path.unlink()
            return None
        if hashlib.sha256(payload).hexdigest() != header.get("payload_sha256"):
            self._quarantine_file(path, "payload hash mismatch")
            self._count("misses")
            return None
        try:
            value = pickle.loads(payload)
        except Exception:  # noqa: BLE001 — any unpickling failure is corruption
            self._quarantine_file(path, "unpicklable payload")
            self._count("misses")
            return None
        self._count("hits")
        # Touch for LRU recency: prune evicts least-recently-*used* first.
        with contextlib.suppress(OSError):
            os.utime(path)
        return value

    @staticmethod
    def _parse_header(line: bytes) -> Optional[Dict[str, Any]]:
        try:
            header = json.loads(line.decode("utf-8"))
        except (UnicodeDecodeError, ValueError):
            return None
        return header if isinstance(header, dict) else None

    def _quarantine_file(self, path: Path, reason: str) -> None:
        self._count("corruptions")
        target = self._quarantine / f"{path.name}.{os.getpid()}-{time.time_ns()}"
        try:
            os.replace(path, target)
        except OSError:
            with contextlib.suppress(OSError):
                path.unlink()

    # ------------------------------------------------------------------ #
    # write path
    # ------------------------------------------------------------------ #
    def put(self, key: StoreKey, value: Any) -> bool:
        try:
            payload = pickle.dumps(value, protocol=pickle.HIGHEST_PROTOCOL)
        except Exception:  # noqa: BLE001 — unpicklable artifacts just skip
            self._count("write_errors")
            return False
        header = json.dumps({
            "schema": STORE_SCHEMA,
            "version": __version__,
            "key": list(key),
            "payload_sha256": hashlib.sha256(payload).hexdigest(),
            "payload_bytes": len(payload),
            "created": time.time(),
        }, sort_keys=True).encode("utf-8") + b"\n"

        path = self._object_path(key)
        path.parent.mkdir(parents=True, exist_ok=True)
        staging = self._tmp / f"{path.name}.{os.getpid()}-{threading.get_ident()}"
        try:
            with staging.open("wb") as handle:
                handle.write(header)
                handle.write(payload)
                handle.flush()
                os.fsync(handle.fileno())
            os.replace(staging, path)
        except OSError as exc:
            with contextlib.suppress(OSError):
                staging.unlink()
            raise StoreError(f"cannot publish artifact {path}: {exc}") from exc
        self._count("writes")
        return True

    # ------------------------------------------------------------------ #
    # cross-process single-flight
    # ------------------------------------------------------------------ #
    @contextlib.contextmanager
    def lock(self, key: StoreKey) -> Iterator[None]:
        """Hold the exclusive cross-process lock for a key (blocking).

        With ``fcntl`` the lock is crash-safe (the kernel releases it when
        the holder dies); the portable fallback spins on an
        ``O_CREAT|O_EXCL`` sentinel and steals locks older than
        :data:`_LOCK_MAX_AGE`.
        """
        lock_path = self._locks / f"{store_key_digest(key)}.lock"
        if fcntl is not None:
            fd = os.open(lock_path, os.O_CREAT | os.O_RDWR, 0o644)
            try:
                fcntl.flock(fd, fcntl.LOCK_EX)
                yield
            finally:
                with contextlib.suppress(OSError):
                    fcntl.flock(fd, fcntl.LOCK_UN)
                os.close(fd)
            return
        # pragma: no cover — exercised only on platforms without fcntl
        while True:
            try:
                fd = os.open(lock_path, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
                break
            except OSError as exc:
                if exc.errno != errno.EEXIST:
                    raise
                with contextlib.suppress(OSError):
                    if (time.time() - lock_path.stat().st_mtime
                            > _LOCK_MAX_AGE):
                        lock_path.unlink()
                        continue
                time.sleep(0.05)
        try:
            yield
        finally:
            os.close(fd)
            with contextlib.suppress(OSError):
                lock_path.unlink()

    # ------------------------------------------------------------------ #
    # enumeration & retention
    # ------------------------------------------------------------------ #
    def _iter_files(self) -> Iterator[Tuple[Path, os.stat_result]]:
        for shard in sorted(self._objects.iterdir()):
            if not shard.is_dir():
                continue
            for path in sorted(shard.iterdir()):
                try:
                    yield path, path.stat()
                except OSError:
                    continue

    def entries(self) -> List[StoreEntry]:
        result: List[StoreEntry] = []
        for path, stat in self._iter_files():
            try:
                with path.open("rb") as handle:
                    header = self._parse_header(handle.readline())
            except OSError:
                continue
            if header is None or "key" not in header:
                continue
            key = tuple(header["key"])
            if len(key) != 3:
                continue
            result.append(StoreEntry(
                key=key,  # type: ignore[arg-type]
                size_bytes=stat.st_size,
                created=float(header.get("created", stat.st_mtime)),
                last_used=stat.st_mtime,
            ))
        return result

    def __len__(self) -> int:
        return sum(1 for _ in self._iter_files())

    def prune(self, *, max_bytes: Optional[int] = None,
              max_age_seconds: Optional[float] = None) -> PruneResult:
        """Drop artifacts past the age bound, then oldest-used over the
        size bound.  Explicit arguments win over the store's defaults."""
        max_bytes = max_bytes if max_bytes is not None else self.max_bytes
        max_age = (max_age_seconds if max_age_seconds is not None
                   else self.max_age_seconds)
        result = PruneResult()
        now = time.time()
        survivors: List[Tuple[float, Path, int]] = []
        for path, stat in self._iter_files():
            if max_age is not None and now - stat.st_mtime > max_age:
                self._remove(path, stat.st_size, result, "expired")
            else:
                survivors.append((stat.st_mtime, path, stat.st_size))

        if max_bytes is not None:
            survivors.sort()  # least recently used first
            total = sum(size for _, _, size in survivors)
            while survivors and total > max_bytes:
                _, path, size = survivors.pop(0)
                self._remove(path, size, result, "over size budget")
                total -= size

        result.kept_entries = len(survivors)
        result.kept_bytes = sum(size for _, _, size in survivors)
        return result

    def _remove(self, path: Path, size: int, result: PruneResult,
                reason: str) -> None:
        try:
            path.unlink()
        except OSError:
            return
        result.removed_entries += 1
        result.removed_bytes += size
        result.note(reason)
        self._count("evictions")

    def gc(self) -> PruneResult:
        """Collect debris and apply the store's default retention policy.

        Removes stale staging files (a writer died mid-publish), aged-out
        lock files and everything in quarantine, then runs :meth:`prune`
        with the store's configured ``max_bytes`` / ``max_age_seconds``.
        """
        result = self.prune()
        now = time.time()
        for directory, age in ((self._tmp, _TMP_MAX_AGE),
                               (self._locks, _LOCK_MAX_AGE),
                               (self._quarantine, 0.0)):
            for path in sorted(directory.iterdir()):
                try:
                    if now - path.stat().st_mtime >= age:
                        path.unlink()
                        result.removed_debris += 1
                except OSError:
                    continue
        return result

    def clear(self) -> None:
        """Drop every artifact (testing / ``prune --all`` convenience)."""
        for path, _ in self._iter_files():
            with contextlib.suppress(OSError):
                path.unlink()



def resolve_store(spec) -> Optional[ArtifactStore]:
    """Coerce a store spec to a store (``None`` stays ``None``).

    An :class:`ArtifactStore` instance passes through; a string is a
    directory path opened as a :class:`LocalDirStore` (a leading
    ``local:`` is accepted and stripped).
    """
    if spec is None:
        return None
    if isinstance(spec, ArtifactStore):
        return spec
    if not isinstance(spec, str):
        raise TypeError(
            f"store must be an ArtifactStore or a directory path, "
            f"got {type(spec).__name__}")
    return LocalDirStore(spec.removeprefix("local:"))
