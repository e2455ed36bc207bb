"""A set-associative-free (fully associative) LRU cache model.

Used to model the on-chip VN cache and MAC cache of SGX-style memory
protection (write-back, write-allocate), as configured in the paper's
evaluation setup: 16 KB VN cache and 8 KB MAC cache with LRU replacement.

The model tracks *behaviour* (hits, misses, dirty evictions), not contents:
a cache line is identified by its tag (for the protection models, the
metadata block address).
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import Hashable, List, Optional, Tuple


@dataclass
class CacheStats:
    """Aggregate access statistics for one :class:`LruCache`.

    ``evictions``/``dirty_evictions`` count *capacity* behaviour only —
    lines pushed out by allocation pressure. End-of-model teardown is
    reported separately (``flushed_lines``/``flush_writebacks``) so a
    cache's eviction rate stays interpretable: a model that never
    overflows the cache shows zero evictions even though its flush
    drains every line.
    """

    hits: int = 0
    misses: int = 0
    evictions: int = 0
    dirty_evictions: int = 0
    flushed_lines: int = 0
    flush_writebacks: int = 0

    @property
    def accesses(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        if self.accesses == 0:
            return 0.0
        return self.hits / self.accesses

    def note(self, hits: int, misses: int, evictions: int,
             dirty_evictions: int) -> None:
        """Record a batch of accesses performed by an external driver
        (the metadata caches' LRU drives)."""
        self.hits += hits
        self.misses += misses
        self.evictions += evictions
        self.dirty_evictions += dirty_evictions

    def reset(self) -> None:
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.dirty_evictions = 0
        self.flushed_lines = 0
        self.flush_writebacks = 0


class LruCache:
    """Fully associative LRU cache with write-back / write-allocate policy.

    Parameters
    ----------
    capacity_lines:
        Number of cache lines. ``capacity_bytes // 64`` for a metadata
        cache; must be positive.
    """

    def __init__(self, capacity_lines: int):
        if capacity_lines <= 0:
            raise ValueError(f"capacity_lines must be positive, got {capacity_lines}")
        self.capacity_lines = capacity_lines
        self._lines: "OrderedDict[Hashable, bool]" = OrderedDict()  # tag -> dirty
        self.stats = CacheStats()

    def __len__(self) -> int:
        return len(self._lines)

    def __contains__(self, tag: Hashable) -> bool:
        return tag in self._lines

    def access(self, tag: Hashable, write: bool = False) -> Tuple[bool, Optional[Hashable]]:
        """Access ``tag``; allocate on miss.

        Returns ``(hit, writeback_tag)`` where ``writeback_tag`` is the tag
        of a dirty line evicted by this access (``None`` if nothing dirty
        was evicted). A write marks the line dirty.
        """
        writeback: Optional[Hashable] = None
        if tag in self._lines:
            hit = True
            self.stats.hits += 1
            self._lines.move_to_end(tag)
            if write:
                self._lines[tag] = True
        else:
            hit = False
            self.stats.misses += 1
            if len(self._lines) >= self.capacity_lines:
                evicted_tag, dirty = self._lines.popitem(last=False)
                self.stats.evictions += 1
                if dirty:
                    self.stats.dirty_evictions += 1
                    writeback = evicted_tag
            self._lines[tag] = write
        return hit, writeback

    @property
    def raw_lines(self) -> "OrderedDict[Hashable, bool]":
        """The tag -> dirty map, in LRU order (least recent first): the
        order of a metadata drive's ``(tags, dirty)`` state, which
        the drive-tier tests compare against."""
        return self._lines

    def probe(self, tag: Hashable) -> bool:
        """Return whether ``tag`` is resident, without touching LRU state."""
        return tag in self._lines

    def flush(self) -> List[Hashable]:
        """Drain everything; return tags of dirty lines (writebacks).

        Teardown is counted in ``flushed_lines``/``flush_writebacks``,
        never in ``evictions``/``dirty_evictions`` — flushing a model's
        residual state is not capacity pressure.
        """
        dirty = [tag for tag, d in self._lines.items() if d]
        self.stats.flushed_lines += len(self._lines)
        self.stats.flush_writebacks += len(dirty)
        self._lines.clear()
        return dirty
