"""RPR009 must stay quiet through inheritance: subclasses of a lock-guarded
base touch its guarded attributes only under the inherited lock, through
the base's locked helper, or where their own ``# guarded-by: none``
annotation overrides the base's."""

import threading
from collections import OrderedDict
from typing import Generic, TypeVar

_V = TypeVar("_V")


class _LRU(Generic[_V]):
    def __init__(self, max_entries: int) -> None:
        self.max_entries = max_entries
        self.hits = 0  # guarded-by: _lock
        self._entries: "OrderedDict[tuple, _V]" = OrderedDict()  # guarded-by: _lock
        self._lock = threading.Lock()

    def _lookup(self, key: tuple, value: _V) -> _V:
        with self._lock:
            self._entries[key] = value
            if len(self._entries) > self.max_entries:
                self._entries.popitem(last=False)
        return value


class WindowCache(_LRU[list]):
    def __init__(self) -> None:
        super().__init__(64)

    def get(self, width: int) -> list:
        return self._lookup((width,), [1.0] * width)

    def forget(self, width: int) -> None:
        with self._lock:
            self._entries.pop((width,), None)
            self.hits = 0


class LocalCache(_LRU[int]):
    """Owned by one thread: its hit counter needs no lock."""

    def __init__(self) -> None:
        super().__init__(8)
        self.hits = 0  # guarded-by: none

    def count(self) -> int:
        self.hits += 1
        return self.hits
