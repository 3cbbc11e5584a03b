"""Bounded identity-keyed memos: one type, one registry.

Several layers memoize per *object* rather than per value: serial rates
and table templates per architecture and stream, run-cache key
fragments per architecture and ``(stream, sync)`` pair, metric layouts
and multiplex schedules per architecture, event columns per counter
sample.  Their keys name objects by ``id`` because the objects are
unhashable (architectures hold dict-valued partition tables) or because
equal values must not share an entry (``-0.0 == 0.0`` renders
differently in a run-cache key).  A :class:`Memo` keeps the objects its
key names (its *pins*) alive with each entry, so no id can be reused
while the entry lives, and holds at most ``cap`` entries, evicting the
least recently used one.  Every memo registers itself by name:
:func:`memos` lists them (the tracer reads their sizes, caps and
evictions as gauges when it snapshots or flushes) and :func:`clear_all`
empties them, which gives a process the answers of a fresh one.

Value-keyed registries (keys that are names or config tuples) are not
memos; ``tests/test_memo_guard.py`` lists them, each with its reason.
"""

from __future__ import annotations

import threading
import weakref
from collections import OrderedDict
from typing import Any, Dict, Hashable, Iterable, Optional, Tuple

_REGISTRY: "weakref.WeakValueDictionary[str, Memo]" = weakref.WeakValueDictionary()


class Memo:
    """At most ``cap`` entries, least recently used evicted first.

    Values must not be ``None`` (:meth:`get` answers ``None`` on a
    miss).  :meth:`get` takes no lock: the lookup and the move to the
    most recent end are each one atomic step, and an entry evicted
    between them is still a valid answer.  Every step that changes the
    entries takes the memo's lock.  Hits and misses are not counted
    here (callers count the ones that matter); evictions are.
    """

    __slots__ = ("name", "cap", "evictions", "_data", "_pins", "_lock", "__weakref__")

    def __init__(self, name: str, cap: int):
        if _REGISTRY.get(name) is not None:
            raise ValueError(f"a memo named {name!r} already exists")
        self.name = name
        self.cap = cap
        self.evictions = 0
        #: key -> value, least recently used first.
        self._data: "OrderedDict[Hashable, Any]" = OrderedDict()
        #: key -> its pins, for entries that have any; written under the lock.
        self._pins: Dict[Hashable, tuple] = {}
        self._lock = threading.Lock()
        _REGISTRY[name] = self

    def __len__(self) -> int:
        return len(self._data)

    def get(self, key: Hashable) -> Any:
        """The value under ``key``, now the most recently used, or ``None``."""
        data = self._data
        value = data.get(key)
        if value is not None:
            try:
                data.move_to_end(key)
            except KeyError:  # evicted meanwhile by another thread
                pass
        return value

    def put(self, key: Hashable, value: Any, pins: tuple = ()) -> Any:
        """Store ``value`` under ``key`` with ``pins``; returns ``value``."""
        self.put_many([(key, value)], pins)
        return value

    def put_many(self, items: Iterable[Tuple[Hashable, Any]], pins: tuple = ()) -> None:
        """Store every ``(key, value)`` of ``items`` as one batch pinning ``pins``.

        Only entries older than the batch are evicted, and a batch larger
        than the cap is kept whole: a caller that reads its batch straight
        back finds every entry.
        """
        batch = dict(items)
        with self._lock:
            data, kept_pins = self._data, self._pins
            # Evict before inserting, so a lock-free reader never sees
            # more than max(cap, batch) entries, and skip the batch's own
            # keys without ever removing one (a reader would miss it).
            excess = len(data) + sum(key not in data for key in batch) - max(self.cap, len(batch))
            while excess > 0:
                try:
                    key = next(iter(data))
                except RuntimeError:  # a get reordered the entries meanwhile
                    continue
                if key in batch:
                    data.move_to_end(key)
                    continue
                del data[key]
                kept_pins.pop(key, None)
                self.evictions += 1
                excess -= 1
            for key, value in batch.items():
                if pins:
                    kept_pins[key] = pins
                data[key] = value
                data.move_to_end(key)

    def pop(self, key: Hashable) -> Optional[Any]:
        """Remove ``key``'s entry; returns its value, or ``None``."""
        with self._lock:
            value = self._data.pop(key, None)
            self._pins.pop(key, None)
        return value

    def clear(self) -> None:
        """Drop every entry (not counted as evictions)."""
        with self._lock:
            self._data.clear()
            self._pins.clear()


def memos() -> Dict[str, Memo]:
    """Every live memo by name, sorted by name."""
    return dict(sorted(_REGISTRY.items()))


def clear_all() -> None:
    """Empty every registered memo, as in a freshly started process."""
    for memo in memos().values():
        memo.clear()
