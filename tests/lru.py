"""A fully associative LRU cache, one access at a time: the
independent reference the metadata tables' LRU drives
(:mod:`repro.protection.metadata_model`) are tested against.

Write-back and write-allocate, as the paper's VN and MAC caches are
(Section IV-A). The model tracks *behaviour* (hits, misses, dirty
evictions), not contents: a cache line is identified by its tag (for
the metadata tables, the line address // 64).
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Hashable, List, Optional, Tuple

from repro.protection.metadata_model import CacheStats


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
