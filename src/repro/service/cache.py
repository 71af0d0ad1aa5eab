"""Bounded, content-addressed, restart-surviving result cache.

Keys are the protocol's content digests
(:attr:`repro.service.protocol.Request.key`); values are deterministic
response bodies.  The cache is an LRU bounded by entry count (bodies
are small JSON documents), and optionally **durable**: with a ``path``
every computed body is appended to a CRC-framed
:class:`~repro.resilience.store.DurableLog`, and a restarting server
recovers the log (torn tails truncated, corrupt records quarantined —
the PR-4 semantics) to come back warm.

Persistence is observability-grade resilient: a failing append
(disk full, injected ``service.cache_write`` fault) degrades the cache
to memory-only instead of failing the request — the result was already
computed; losing durability must not lose the response.

The in-memory entries are a registered :class:`repro.memo.Memo`, so
``repro.workloads.clear_caches()`` clears every live cache with the
other memos.  Forked children also drop every live cache's entries and
detach (never close) its log at fork: a child that inherited the
parent's entries would serve "cached" results it never computed, and
an inherited log handle would corrupt the parent's file.
"""

from __future__ import annotations

import os
import weakref

from .. import memo
from ..errors import ExperimentError
from ..resilience import faults as _faults
from ..resilience.store import DurableLog, RecoveryReport

#: Every live cache, so the fork hook can detach their logs.
_LIVE: "weakref.WeakSet[ResultCache]" = weakref.WeakSet()


def _validate_record(record) -> str | None:
    """Semantic validation for recovered cache records."""
    if not isinstance(record, dict):
        return "cache record is not an object"
    if not isinstance(record.get("key"), str) or not record["key"]:
        return "cache record has no key"
    if not isinstance(record.get("body"), dict):
        return "cache record has no body"
    return None


class ResultCache:
    """LRU result cache keyed by request content digests."""

    def __init__(self, max_entries: int = 512,
                 path: str | None = None, fsync: bool = True):
        if max_entries < 1:
            raise ExperimentError(
                f"max_entries must be >= 1, got {max_entries}"
            )
        self.max_entries = max_entries
        self.path = path
        #: why persistence was dropped, or None while healthy
        self.degraded: str | None = None
        self.last_recovery: RecoveryReport | None = None
        self._entries = memo.Memo("service.results", max_entries)
        self._log: DurableLog | None = None
        if path is not None:
            self._log = DurableLog(path, fsync=fsync, checksum=True)
            self._load()
        _LIVE.add(self)

    # -- durability ----------------------------------------------------

    def _load(self) -> None:
        """Recover the durable log; later records win (LRU order)."""
        records, report = self._log.recover(validate=_validate_record)
        self.last_recovery = report
        for record in records:
            self._entries.put(record["key"], record["body"])

    def _persist(self, key: str, kind: str, body: dict) -> None:
        if self._log is None or self.degraded is not None:
            return
        spec = _faults.check("service.cache_write",
                             path=self.path or "")
        try:
            if spec is not None and spec.kind == "io-error":
                raise OSError(
                    f"injected I/O error: cache write to {self.path}"
                )
            self._log.append({"key": key, "kind": kind, "body": body})
        except OSError as exc:
            # Degrade to memory-only: the response is already computed
            # and cached in RAM; only restart-warmth is lost.
            self.degraded = f"{type(exc).__name__}: {exc}"
            self._log.detach()
            self._log = None

    # -- the cache -----------------------------------------------------

    def __len__(self) -> int:
        return len(self._entries)

    @property
    def hits(self) -> int:
        return self._entries.hits

    @property
    def misses(self) -> int:
        return self._entries.misses

    def get(self, key: str) -> dict | None:
        """The cached body for ``key``, or None (counts hit/miss)."""
        return self._entries.get(key)

    def put(self, key: str, kind: str, body: dict) -> None:
        """Insert a computed body (evicts LRU, appends durably)."""
        self._entries.put(key, body)
        self._persist(key, kind, body)

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def stats(self) -> dict:
        return {
            "entries": len(self._entries),
            "max_entries": self.max_entries,
            "hits": self.hits,
            "misses": self.misses,
            "hit_rate": round(self.hit_rate, 4),
            "durable": self._log is not None,
            "degraded": self.degraded,
        }

    def close(self) -> None:
        if self._log is not None:
            self._log.close()


def _reset_caches_in_children() -> None:
    """Fork-time reset: cold entries and a detached (never closed) log
    handle — the parent still owns the file descriptor.  The entries
    are also cleared by ``clear_caches`` at fork, but only once
    :mod:`repro.workloads` is imported, and the service frontend can
    fork its worker pool before that."""
    for cache in list(_LIVE):
        cache._entries.clear()
        if cache._log is not None:
            cache._log.detach()
            cache._log = None


os.register_at_fork(after_in_child=_reset_caches_in_children)
