"""Metadata tables' caches (VN cache / MAC cache): configuration, array
state, and 64 B line addressing on the ``LruCache`` reference."""

import numpy as np
import pytest

from repro.protection.layout import LINE_BYTES, MetadataLayout
from repro.protection.metadata_model import (
    MAC_CACHE_BYTES,
    VN_CACHE_BYTES,
    MetadataTable,
)
from tests.lru import LruCache


class TestConfiguration:
    def test_paper_sizes(self):
        assert VN_CACHE_BYTES == 16 << 10
        assert MAC_CACHE_BYTES == 8 << 10

    def test_line_capacity(self):
        layout = MetadataLayout(64)
        assert MetadataTable.vn(layout).capacity_lines == 256
        assert MetadataTable.mac(layout).capacity_lines == 128

    def test_too_small(self):
        with pytest.raises(ValueError):
            MetadataTable(32, 0)

    def test_bad_line_size(self):
        """Lines are 64 B: the line size is not an option."""
        assert MetadataTable(1024, 0).capacity_lines == 1024 // LINE_BYTES
        with pytest.raises(TypeError):
            MetadataTable(1024, 0, line_bytes=32)


def _filled(tags, dirty):
    table = MetadataTable(1024, 0)
    table.state = (np.array(tags, np.int64), np.array(dirty, np.uint8))
    return table


class TestArrayState:
    def test_flush_counts_and_empties(self):
        """``flush`` counts teardown apart from evictions and leaves the
        empty state a new table starts from."""
        table = _filled([5, 3, 9, 1], [1, 0, 1, 0])
        table.flush(0)
        assert table.stats.flushed_lines == 4
        assert table.stats.flush_writebacks == 2
        assert (table.stats.evictions, table.stats.dirty_evictions) == (0, 0)
        for state in (table.state, MetadataTable(1024, 0).state):
            assert [(len(col), col.dtype) for col in state] == \
                [(0, np.int64), (0, np.uint8)]
        assert len(table.flush(0)) == 0
        assert table.stats.flushed_lines == 4


class TestLineAddressing:
    """A line address maps to tag ``address // 64``: the addressing the
    drives use, on the ``LruCache`` reference."""

    def test_same_line_hits(self):
        cache = LruCache(1024 // LINE_BYTES)
        cache.access(0 // LINE_BYTES)
        hit, _ = cache.access(63 // LINE_BYTES)   # same 64 B line
        assert hit

    def test_different_line_misses(self):
        cache = LruCache(1024 // LINE_BYTES)
        cache.access(0 // LINE_BYTES)
        hit, _ = cache.access(64 // LINE_BYTES)
        assert not hit

    def test_writeback_is_address(self):
        cache = LruCache(1)  # one line
        cache.access(0 // LINE_BYTES, write=True)
        _, writeback = cache.access(64 // LINE_BYTES)
        assert writeback * LINE_BYTES == 0

    def test_flush_addresses(self):
        """``flush`` writes the dirty lines back least recent first, at
        the flush cycle, the order ``LruCache.flush`` returns their tags
        in."""
        ref = LruCache(4)
        for addr, write in ((320, True), (64, False), (128, True),
                            (0, True), (64, True), (192, False)):
            ref.access(addr // LINE_BYTES, write=write)
        lines = list(ref.raw_lines.items())
        table = _filled([tag for tag, _ in lines],
                        [dirty for _, dirty in lines])
        want = [tag * LINE_BYTES for tag in ref.flush()]
        assert want == [128, 0, 64]
        out = table.flush(77)
        assert out.addrs.tolist() == want
        assert out.cycles.tolist() == [77] * 3 and out.writes.all()

    def test_streaming_miss_rate(self):
        """A pure streaming pattern misses once per line."""
        cache = LruCache((8 << 10) // LINE_BYTES)
        for addr in range(0, 64 * 4096, 8):
            cache.access(addr // LINE_BYTES)
        stats = cache.stats
        assert stats.misses == 4096
        assert stats.hit_rate == pytest.approx(7 / 8)
