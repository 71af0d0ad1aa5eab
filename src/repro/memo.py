"""One memo primitive for every process-global cache.

Every memo table in the package — compiled kernels, whole runs, A/X
measurements, static predictions, program analyses, decoded
instructions, built-in machines, fleet request viability and the
service's in-memory results — is a :class:`Memo`: a bounded LRU that counts its hits and misses and
registers itself at construction.  :func:`clear_all` therefore reaches
every live memo, so one call (``repro.workloads.clear_caches``, also
the at-fork hook) makes a process cold.  Eviction only ever changes
whether a value is recomputed, never the value.

Stdlib only: importing this module must cost nothing.
"""

from __future__ import annotations

import weakref
from collections import OrderedDict
from typing import Any, Generic, TypeVar

__all__ = ["Memo", "clear_all", "registered"]

#: Every live memo.  Weak, so a per-object memo (a service result
#: cache) is dropped from the registry with its owner.
_REGISTRY: "weakref.WeakSet[Memo[Any, Any]]" = weakref.WeakSet()

K = TypeVar("K")
V = TypeVar("V")


class Memo(Generic[K, V]):
    """A bounded LRU memo table, registered for :func:`clear_all`.

    ``get`` counts a hit or a miss (returning None) and marks a hit
    most recent; ``put`` inserts (or refreshes) a key as most recent
    and evicts the least recent entries beyond ``cap``.  ``in`` and
    ``len`` are side-effect free.
    """

    def __init__(self, name: str, cap: int):
        self.name = name
        self.cap = cap
        self.hits = 0
        self.misses = 0
        self._entries: OrderedDict[K, V] = OrderedDict()
        _REGISTRY.add(self)

    def get(self, key: K) -> V | None:
        try:
            value = self._entries[key]
        except KeyError:
            self.misses += 1
            return None
        self._entries.move_to_end(key)
        self.hits += 1
        return value

    def put(self, key: K, value: V) -> None:
        entries = self._entries
        entries[key] = value
        entries.move_to_end(key)
        while len(entries) > self.cap:
            entries.popitem(last=False)

    def clear(self) -> None:
        """Drop every entry and reset the hit/miss counters."""
        self._entries.clear()
        self.hits = 0
        self.misses = 0

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, key: object) -> bool:
        return key in self._entries


def registered() -> list[Memo[Any, Any]]:
    """Every live memo, sorted by name."""
    return sorted(_REGISTRY, key=lambda memo: memo.name)


def clear_all() -> None:
    """Clear every live memo (entries and counters)."""
    for memo in list(_REGISTRY):
        memo.clear()
