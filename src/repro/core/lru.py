"""A size-bounded least-recently-used mapping.

The one LRU of the package: the scenario runner bounds its workload and
result caches with it, and a what-if session memoizes its reports in
one (:mod:`repro.whatif.api`).
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Dict, Hashable, List

__all__ = ["LRUCache"]


class LRUCache:
    """Mapping that evicts its least-recently-used entry past ``capacity``.

    ``get`` refreshes recency; ``put`` inserts or refreshes and evicts
    from the cold end.  Hits, misses and evictions are counted for
    :meth:`stats`.
    """

    def __init__(self, capacity: int):
        if capacity < 1:
            raise ValueError(f"cache capacity must be >= 1, got {capacity}")
        self.capacity = int(capacity)
        self._data: "OrderedDict[Hashable, object]" = OrderedDict()
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    def get(self, key: Hashable):
        """The value stored under ``key``, or ``None``."""
        try:
            value = self._data[key]
        except KeyError:
            self.misses += 1
            return None
        self._data.move_to_end(key)
        self.hits += 1
        return value

    def put(self, key: Hashable, value) -> None:
        self._data[key] = value
        self._data.move_to_end(key)
        if len(self._data) > self.capacity:
            self._data.popitem(last=False)
            self.evictions += 1

    def clear(self) -> None:
        self._data.clear()

    def keys(self) -> List[Hashable]:
        """Keys from least- to most-recently used."""
        return list(self._data.keys())

    def __contains__(self, key: Hashable) -> bool:
        return key in self._data

    def __len__(self) -> int:
        return len(self._data)

    def stats(self) -> Dict[str, int]:
        return {
            "capacity": self.capacity,
            "size": len(self._data),
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
        }
