"""The one TTL cache under the recursive resolver and the resolver front.

The paper's 15 s selection step lives or dies by how TTLs are honoured,
so the expiry and eviction policy exists exactly once:

* **lazy expiry** — an entry whose TTL has passed is dropped when its
  key is next touched (a miss, and an eviction);
* :meth:`TtlCache.sweep` — drops every expired entry at once, for the
  long tail of keys that are never touched again;
* **live size** — entries expired against the latest time seen are not
  counted even before they are removed;
* **capacity bound** — overflow sweeps expired entries first, then
  evicts the live entry closest to expiry, tie-broken on ``repr(key)``
  so the victim order is identical across runs and processes;
* plain **hit / miss / eviction** counts, mirrored into the owner's
  registry counters (no call at all when those are the null registry's).

What a key *is* — a bare qname for the resolver, ``(qname, network,
echoed scope)`` for the front — and whether concurrent misses coalesce
stays with the owner; only the front bounds its capacity.  Entries are the owner's own objects;
the cache only reads their ``expires_at``.
"""

from __future__ import annotations

from typing import Optional

from ..obs.registry import NULL_INSTRUMENT

__all__ = ["TtlCache"]


def _live(instrument):
    """``instrument``, or ``None`` for the null registry's do-nothing one."""
    return None if instrument is NULL_INSTRUMENT else instrument


class TtlCache:
    """A keyed store of entries carrying ``expires_at``; see the module doc.

    ``hits``/``misses``/``evictions`` are the owner's registry counter
    children; under the null registry they are dropped here, once, so a
    lookup makes no metric call.  The plain integer attributes of the
    same names always count.
    """

    __slots__ = (
        "_entries", "_capacity", "_horizon",
        "hits", "misses", "evictions", "_m_hits", "_m_misses", "_m_evictions",
    )

    def __init__(self, capacity: Optional[int], hits, misses, evictions) -> None:
        if capacity is not None and capacity <= 0:
            raise ValueError("cache_capacity must be positive")
        self._entries: dict = {}
        self._capacity = capacity
        # The latest time seen.  Expired entries linger until touched,
        # so size accounting filters against this instead of len().
        self._horizon = float("-inf")
        self.hits = self.misses = self.evictions = 0
        self._m_hits = _live(hits)
        self._m_misses = _live(misses)
        self._m_evictions = _live(evictions)

    def get(self, key, now: float):
        """The live entry under ``key`` at ``now``, else ``None`` (a miss)."""
        if now > self._horizon:
            self._horizon = now
        entry = self._entries.get(key)
        if entry is not None:
            if entry.expires_at > now:
                self.hits += 1
                if self._m_hits is not None:
                    self._m_hits.inc()
                return entry
            del self._entries[key]
            self.evictions += 1
            if self._m_evictions is not None:
                self._m_evictions.inc()
        self.misses += 1
        if self._m_misses is not None:
            self._m_misses.inc()
        return None

    def hit(self, key, now: float):
        """The live entry under ``key`` at ``now``, counted as a hit.

        Anything else returns ``None`` with nothing counted or dropped:
        for an owner that serves hits on a fast path and takes every
        other lookup through :meth:`get`, so each lookup still counts
        exactly once.
        """
        if now > self._horizon:
            self._horizon = now
        entry = self._entries.get(key)
        if entry is None or entry.expires_at <= now:
            return None
        self.hits += 1
        if self._m_hits is not None:
            self._m_hits.inc()
        return entry

    def put(self, key, entry, now: float) -> None:
        """Store ``entry`` (expiring at ``entry.expires_at``), then bound the size."""
        self._entries[key] = entry
        if self._capacity is not None and len(self._entries) > self._capacity:
            self.sweep(now)
            while len(self._entries) > self._capacity:
                victim = min(
                    self._entries.items(),
                    key=lambda item: (item[1].expires_at, repr(item[0])),
                )[0]
                del self._entries[victim]
                self._evicted(1)

    def sweep(self, now: Optional[float] = None) -> int:
        """Drop every entry expired at ``now`` (default: the latest time seen).

        Swept entries count as evictions (their TTL passed), unlike
        :meth:`clear`.  Returns the number removed.
        """
        horizon = self._horizon if now is None else now
        expired = [
            key for key, entry in self._entries.items()
            if entry.expires_at <= horizon
        ]
        for key in expired:
            del self._entries[key]
        if expired:
            self._evicted(len(expired))
        return len(expired)

    def clear(self) -> None:
        """Drop all entries (not counted as evictions)."""
        self._entries.clear()

    @property
    def live_size(self) -> int:
        """Entries that could still be served at the latest time seen."""
        horizon = self._horizon
        return sum(
            1 for entry in self._entries.values() if entry.expires_at > horizon
        )

    def _evicted(self, count: int) -> None:
        self.evictions += count
        if self._m_evictions is not None:
            self._m_evictions.inc(count)
