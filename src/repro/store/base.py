"""The pluggable artifact-store contract.

An *artifact store* is the durable tier below the in-memory
:class:`~repro.pipeline.cache.ArtifactCache`: it persists pass results
under the same ``(netlist signature, config key, pass name)`` tuple so a
repeated design hits warm artifacts **across processes and machines**,
not just within one session.

The contract is deliberately narrow — five methods:

* :meth:`~ArtifactStore.get` / :meth:`~ArtifactStore.put` move opaque
  Python values (pass results) in and out;
* :meth:`~ArtifactStore.lock` single-flights ``get_or_compute`` across
  *processes* — the in-memory cache already single-flights threads;
* :meth:`~ArtifactStore.entries` enumerates what is stored (``repro
  cache ls``);
* :meth:`~ArtifactStore.prune` applies a size/age retention policy.

:class:`~repro.store.local.LocalDirStore` is the one implementation;
:func:`~repro.store.local.resolve_store` is the one spelling the rest of
the package uses to open it.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import (Any, Dict, Iterator, List, Optional, Protocol, Tuple,
                    runtime_checkable)


#: The cache-key tuple shared with the in-memory tier:
#: (netlist signature, facet-restricted config key, pass name).
StoreKey = Tuple[str, str, str]


class StoreError(RuntimeError):
    """A store operation failed in a way the caller should see.

    Routine faults — a missing entry, a corrupt file (quarantined and
    counted), a value that cannot be serialized — are *not* errors: the
    store degrades to a miss so an analysis never fails because its
    durable tier does.
    """


@dataclass(frozen=True)
class StoreEntry:
    """One persisted artifact, as reported by :meth:`ArtifactStore.entries`."""

    key: StoreKey
    size_bytes: int
    created: float        # unix timestamp of publication
    last_used: float      # unix timestamp of the most recent read hit

    @property
    def signature(self) -> str:
        return self.key[0]

    @property
    def pass_name(self) -> str:
        return self.key[2]


@dataclass
class PruneResult:
    """What a :meth:`ArtifactStore.prune` / ``gc`` call removed and kept."""

    removed_entries: int = 0
    removed_bytes: int = 0
    kept_entries: int = 0
    kept_bytes: int = 0
    #: Non-artifact debris removed (stale temp files, orphan locks,
    #: quarantined corpses) — populated by ``gc``.
    removed_debris: int = 0
    reasons: Dict[str, int] = field(default_factory=dict)

    def note(self, reason: str, count: int = 1) -> None:
        self.reasons[reason] = self.reasons.get(reason, 0) + count


@runtime_checkable
class ArtifactStore(Protocol):
    """Structural protocol every durable artifact backend satisfies."""

    #: Short backend name ("local", later "remote", ...).
    name: str

    def get(self, key: StoreKey) -> Optional[Any]:
        """Return the stored value, or ``None`` on miss/corruption."""
        ...

    def put(self, key: StoreKey, value: Any) -> bool:
        """Persist a value; ``False`` when it cannot be serialized."""
        ...

    @contextmanager
    def lock(self, key: StoreKey) -> Iterator[None]:
        """Hold the cross-process single-flight lock for a key."""
        ...

    def entries(self) -> List[StoreEntry]:
        """Enumerate every stored artifact (deterministic order)."""
        ...

    def prune(self, *, max_bytes: Optional[int] = None,
              max_age_seconds: Optional[float] = None) -> PruneResult:
        """Apply a size/age retention policy; returns what was removed."""
        ...

    @property
    def stats(self) -> Dict[str, int]:
        """Process-local operation counters (hits, misses, writes, ...)."""
        ...
