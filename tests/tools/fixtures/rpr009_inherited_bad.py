"""RPR009 must fire through inheritance: a subclass writes its base's
guarded attribute without the base's lock.

``_LRU`` guards ``_entries`` with ``_lock`` by annotation.  ``WindowCache``
inherits both, and its ``get`` stores into ``_entries`` outside the lock,
racing a concurrent eviction in the base's ``_lookup``.  Expected: 1
violation (line flagged below).
"""

import threading
from collections import OrderedDict
from typing import Generic, TypeVar

_V = TypeVar("_V")


class _LRU(Generic[_V]):
    def __init__(self, max_entries: int) -> None:
        self.max_entries = max_entries
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
        window = [1.0] * width
        self._entries[(width,)] = window  # RPR009: store without the base's lock
        return window
