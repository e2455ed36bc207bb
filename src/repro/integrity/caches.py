"""On-chip metadata caches in the paper's evaluated configuration.

The SGX-style schemes use a 16 KB version-number cache and an 8 KB MAC
cache, both LRU with write-back and write-allocate (Section IV-A). Lines
are 64-byte metadata blocks.
"""

from __future__ import annotations

from typing import Optional, Tuple

from repro.utils.lru import CacheStats, LruCache

VN_CACHE_BYTES = 16 << 10
MAC_CACHE_BYTES = 8 << 10
LINE_BYTES = 64


class MetadataCache:
    """A byte-capacity view over :class:`repro.utils.lru.LruCache`.

    Batch drives (the compiled kernel or its scalar twin, see
    :mod:`repro.protection.metadata_model`) replace the whole contents
    per drive; the new state is kept as flat arrays and folded into the
    ``OrderedDict`` lazily — the dict is only needed when something
    observes it (``raw_lines``, ``access``, ``probe``, ``flush``), not
    between back-to-back drives.
    """

    def __init__(self, capacity_bytes: int, line_bytes: int = LINE_BYTES):
        if capacity_bytes < line_bytes:
            raise ValueError("capacity smaller than one line")
        if line_bytes <= 0:
            raise ValueError("line_bytes must be positive")
        self.line_bytes = line_bytes
        self._cache = LruCache(capacity_bytes // line_bytes)
        #: (tags, dirty) arrays from the latest batch drive, not yet
        #: folded into the OrderedDict (LRU order, least recent first).
        self._pending_state = None

    @property
    def stats(self) -> CacheStats:
        return self._cache.stats

    @property
    def capacity_lines(self) -> int:
        return self._cache.capacity_lines

    def _sync(self) -> None:
        if self._pending_state is not None:
            tags, dirty = self._pending_state
            self._pending_state = None
            lines = self._cache.raw_lines
            lines.clear()
            lines.update(zip(tags.tolist(), (dirty != 0).tolist()))

    def set_state_arrays(self, tags, dirty) -> None:
        """Replace the contents with a batch drive's final state
        (``tags``/``dirty`` parallel arrays in LRU order)."""
        self._pending_state = (tags, dirty)

    def drive_state(self):
        """Current contents for the next batch drive: the pending
        ``(tags, dirty)`` arrays, or the live tag map."""
        if self._pending_state is not None:
            return self._pending_state
        return self._cache.raw_lines

    @property
    def raw_lines(self):
        """Underlying LRU tag map for batch drivers (tags are
        ``line_addr // line_bytes``); see :meth:`LruCache.raw_lines`."""
        self._sync()
        return self._cache.raw_lines

    def note(self, hits: int, misses: int, evictions: int,
             dirty_evictions: int) -> None:
        """Fold a batch driver's counters into the cache statistics."""
        self._cache.stats.note(hits, misses, evictions, dirty_evictions)

    def access(self, line_addr: int, write: bool = False) -> Tuple[bool, Optional[int]]:
        """Access the line containing ``line_addr``.

        Returns ``(hit, writeback_addr)``; a dirty eviction surfaces the
        evicted line's address so the caller can emit the DRAM write.
        """
        self._sync()
        tag = line_addr // self.line_bytes
        hit, writeback = self._cache.access(tag, write=write)
        writeback_addr = None if writeback is None else writeback * self.line_bytes
        return hit, writeback_addr

    def flush(self):
        """Evict all lines; returns addresses of dirty lines."""
        self._sync()
        return [tag * self.line_bytes for tag in self._cache.flush()]
