"""On-chip metadata caches in the paper's evaluated configuration.

The SGX-style schemes use a 16 KB version-number cache and an 8 KB MAC
cache, both LRU with write-back and write-allocate (Section IV-A). Lines
are 64-byte metadata blocks.
"""

from __future__ import annotations

import numpy as np

from repro.utils.lru import CacheStats

VN_CACHE_BYTES = 16 << 10
MAC_CACHE_BYTES = 8 << 10
LINE_BYTES = 64


class MetadataCache:
    """One metadata cache of ``capacity_bytes`` in 64 B lines.

    Its contents are the LRU drives' state (see
    :mod:`repro.protection.metadata_model`): ``state`` holds the
    ``(tags, dirty)`` arrays the latest drive returned (int64 tags,
    ``line address // LINE_BYTES``, and uint8 dirty flags, least recent
    first), which the next drive starts from; ``stats`` accumulates the
    drives' counters.
    """

    def __init__(self, capacity_bytes: int):
        if capacity_bytes < LINE_BYTES:
            raise ValueError("capacity smaller than one line")
        self.capacity_lines = capacity_bytes // LINE_BYTES
        self.stats = CacheStats()
        self.state = (np.empty(0, np.int64), np.empty(0, np.uint8))

    def flush(self) -> np.ndarray:
        """Evict all lines; returns the addresses of the dirty ones, least
        recent first."""
        tags, dirty = self.state
        dirty = dirty != 0
        self.stats.flushed_lines += len(tags)
        self.stats.flush_writebacks += int(dirty.sum())
        self.state = (np.empty(0, np.int64), np.empty(0, np.uint8))
        return tags[dirty] * LINE_BYTES
