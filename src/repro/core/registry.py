"""One process-global registry helper behind every pluggable layer.

Two subsystems share the same shape — a module-level mapping from a short
name to an implementation, a ``register_*`` helper, and a ``resolve_*``
lookup whose :class:`ValueError` lists the valid names:

- :mod:`repro.faults.models` (fault models),
- :mod:`repro.atpg.portfolio` (ATPG backends).

:class:`Registry` is the common core.  It is a
:class:`~collections.abc.MutableMapping`, iteration preserves
registration order (the dict contract), and the uniform
``unknown <kind> <spec!r>; expected one of: <names>`` error message means
every layer's typo diagnostics read the same.
"""

from __future__ import annotations

from typing import Dict, Generic, Iterator, MutableMapping, Tuple, TypeVar

T = TypeVar("T")


class Registry(MutableMapping, Generic[T]):
    """An ordered name -> implementation mapping with uniform errors.

    ``kind`` is the human-readable noun used in error messages ("fault
    model", "ATPG backend").
    """

    def __init__(self, kind: str) -> None:
        self.kind = kind
        self._items: Dict[str, T] = {}

    # ------------------------------------------------------------------ #
    # MutableMapping protocol (registration order preserved)
    # ------------------------------------------------------------------ #
    def __getitem__(self, name: str) -> T:
        return self._items[name]

    def __setitem__(self, name: str, value: T) -> None:
        if not name:
            raise ValueError(f"{self.kind} must have a non-empty name")
        self._items[name] = value

    def __delitem__(self, name: str) -> None:
        del self._items[name]

    def __iter__(self) -> Iterator[str]:
        return iter(self._items)

    def __len__(self) -> int:
        return len(self._items)

    def __repr__(self) -> str:
        return (f"Registry({self.kind!r}, "
                f"names=[{', '.join(self._items)}])")

    # ------------------------------------------------------------------ #
    # the shared registry surface
    # ------------------------------------------------------------------ #
    def register(self, name: str, value: T) -> T:
        """Register ``value`` under ``name``; returns the value."""
        self[name] = value
        return value

    def names(self) -> Tuple[str, ...]:
        """Registered names, registration order."""
        return tuple(self._items)

    def resolve(self, name: str) -> T:
        """Look up ``name``; unknown names raise the uniform ValueError."""
        try:
            return self._items[name]
        except KeyError:
            raise ValueError(self.unknown_message(name)) from None

    def unknown_message(self, spec: object) -> str:
        """The uniform unknown-name diagnostic, for custom resolvers."""
        known = ", ".join(self._items)
        return f"unknown {self.kind} {spec!r}; expected one of: {known}"
