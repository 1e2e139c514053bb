"""One thread-safe bounded LRU behind the pipeline's warm caches (generated
schemas, compiled schema sets, the daemon's models and schema-set registry).
It keeps no metrics; each owner counts under its own names."""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Generic, TypeVar

__all__ = ["Lru"]

K = TypeVar("K")
V = TypeVar("V")


class Lru(Generic[K, V]):
    """A locked mapping of at most ``max_entries`` non-None values; past
    the bound the least recently used (by :meth:`get` or :meth:`put`) go."""

    def __init__(self, max_entries: int) -> None:
        if max_entries < 1:
            raise ValueError(f"an LRU needs max_entries >= 1, not {max_entries}")
        self.max_entries = max_entries
        self._entries: OrderedDict[K, V] = OrderedDict()
        self._lock = threading.Lock()

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def get(self, key: K) -> V | None:
        """The value for ``key``, now the most recently used; None if absent."""
        with self._lock:
            value = self._entries.get(key)
            if value is not None:
                self._entries.move_to_end(key)
            return value

    def put(self, key: K, value: V) -> list[V]:
        """Insert (or refresh) ``key``; the evicted values, oldest first."""
        evicted: list[V] = []
        with self._lock:
            self._entries[key] = value
            self._entries.move_to_end(key)
            while len(self._entries) > self.max_entries:
                evicted.append(self._entries.popitem(last=False)[1])
        return evicted

    def keys(self) -> list[K]:
        """The keys, least- to most-recently used."""
        with self._lock:
            return list(self._entries)

    def clear(self) -> None:
        """Drop every entry."""
        with self._lock:
            self._entries.clear()
