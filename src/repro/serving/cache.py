"""LRU caches for the online inference fast path.

Two tiers:

* :class:`EncodingCache` — fingerprint → base :class:`EncodedPlan` (the
  env-agnostic feature matrix; the environment block is spliced into the
  batch buffer at request time).  A hit replaces the whole per-node
  encoding loop with a dict lookup plus one block copy.
* :class:`PredictionCache` — (fingerprint, env) → predicted cost.  A hit
  skips the forward pass entirely.  Only populated for explicit
  environment overrides: predictions under per-node *logged* environments
  depend on mutable node annotations the key cannot see.

Both are bounded, insertion-ordered LRU maps with eviction counters, so
cache pressure is observable from :class:`~repro.serving.service.
CostInferenceService` stats.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Generic, Hashable, TypeVar

from repro.core.encoding import EncodedPlan

__all__ = ["LRUCache", "EncodingCache", "PredictionCache"]

V = TypeVar("V")


class LRUCache(Generic[V]):
    """A small insertion-ordered LRU map with hit/miss/eviction counters."""

    def __init__(self, capacity: int) -> None:
        if capacity < 1:
            raise ValueError(f"cache capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        self._store: "OrderedDict[Hashable, V]" = OrderedDict()
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    def __len__(self) -> int:
        return len(self._store)

    def __contains__(self, key: Hashable) -> bool:
        return key in self._store

    def get(self, key: Hashable) -> V | None:
        value = self._store.get(key)
        if value is None:
            self.misses += 1
            return None
        self._store.move_to_end(key)
        self.hits += 1
        return value

    def get_all(self, keys) -> list[V] | None:
        """All-or-nothing lookup: every value when every key is present
        (counted as hits and refreshed as recently used), else ``None``
        with neither counters nor recency touched."""
        store = self._store
        values = []
        for key in keys:
            value = store.get(key)
            if value is None:
                return None
            values.append(value)
        for key in keys:
            store.move_to_end(key)
        self.hits += len(values)
        return values

    def put(self, key: Hashable, value: V) -> None:
        store = self._store
        if key in store:
            store.move_to_end(key)
        store[key] = value
        if len(store) > self.capacity:
            store.popitem(last=False)
            self.evictions += 1

    def invalidate(self, key: Hashable) -> bool:
        """Drop one entry; returns whether it was present."""
        return self._store.pop(key, None) is not None

    def clear(self) -> None:
        self._store.clear()

    def reset_counters(self) -> None:
        self.hits = self.misses = self.evictions = 0


class EncodingCache(LRUCache[EncodedPlan]):
    """fingerprint → base encoding (environment block zeroed)."""

    def __init__(self, capacity: int = 1024) -> None:
        super().__init__(capacity)


class PredictionCache(LRUCache[float]):
    """(fingerprint, env features) → predicted cost."""

    def __init__(self, capacity: int = 4096) -> None:
        super().__init__(capacity)
