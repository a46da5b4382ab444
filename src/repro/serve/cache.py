"""Bounded LRU response caches with hit/miss counters.

The census and witness endpoints answer pure functions of (algorithm
fingerprint, root, round budget): the fingerprint — the same digest that
names the on-disk table stores (:func:`repro.core.sharded_tables.cache_key`)
— covers the registry name, the package version and any data-driven
``cache_fingerprint``, so a cached entry can never leak across algorithm
semantics or releases.  Every cache reports ``serve.cache.<name>.hits`` /
``.misses`` counters and a ``serve.cache.<name>.entries`` gauge into the
shared telemetry registry.
"""
from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Any, Hashable, Optional

from ..obs import metrics as _obs

__all__ = ["LruCache"]

_MISSING = object()


class LruCache:
    """A thread-safe bounded mapping with least-recently-used eviction."""

    def __init__(self, name: str, maxsize: int = 1024):
        if maxsize < 1:
            raise ValueError(f"cache {name}: maxsize must be positive, got {maxsize}")
        self.name = name
        self.maxsize = maxsize
        self._data: "OrderedDict[Hashable, Any]" = OrderedDict()
        self._lock = threading.Lock()

    def __len__(self) -> int:
        return len(self._data)

    def get(self, key: Hashable) -> Optional[Any]:
        """The cached value, refreshed to most-recent, or ``None`` on a miss."""
        with self._lock:
            value = self._data.get(key, _MISSING)
            if value is _MISSING:
                _obs.counter(f"serve.cache.{self.name}.misses").inc()
                return None
            self._data.move_to_end(key)
        _obs.counter(f"serve.cache.{self.name}.hits").inc()
        return value

    def put(self, key: Hashable, value: Any) -> Any:
        """Insert (or refresh) an entry, evicting the oldest beyond maxsize."""
        with self._lock:
            self._data[key] = value
            self._data.move_to_end(key)
            while len(self._data) > self.maxsize:
                self._data.popitem(last=False)
                _obs.counter(f"serve.cache.{self.name}.evictions").inc()
            _obs.gauge(f"serve.cache.{self.name}.entries").set(len(self._data))
        return value

    def clear(self) -> None:
        with self._lock:
            self._data.clear()
        _obs.gauge(f"serve.cache.{self.name}.entries").set(0)
