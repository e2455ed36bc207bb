"""Shared metadata-traffic machinery: run compression, metadata tables,
over-fetch."""

from types import SimpleNamespace

import numpy as np

from repro.accel.trace import (
    AccessKind,
    BlockStream,
    Trace,
    TraceRange,
    kind_code,
)
from repro.protection.layout import MetadataLayout
from repro.protection.metadata_model import (
    CacheTrafficResult,
    MetadataTable,
    compress_runs,
    data_sides,
    drive_tables,
)
from tests.streams import sorted_blocks


def _stream(addrs, writes=None):
    trace = Trace([
        TraceRange(i, a, 64, bool(writes[i]) if writes is not None else False,
                   AccessKind.IFMAP, 0)
        for i, a in enumerate(addrs)
    ])
    return sorted_blocks(trace)


def _process(table, stream, out, vn=False):
    """Drive one table over a 64 B-unit stream into ``out``."""
    tables = (None, table) if vn else (table, None)
    result = drive_tables((stream,), 64, tables)[vn]
    table.apply(result, out)


class TestCompressRuns:
    def test_empty(self):
        empty = np.empty(0, np.int64)
        values, writes, cycles = compress_runs(
            empty, np.empty(0, bool), empty)
        assert len(values) == 0

    def test_single_run(self):
        values = np.asarray([5, 5, 5])
        writes = np.asarray([False, True, False])
        cycles = np.asarray([10, 11, 12])
        rv, rw, rc = compress_runs(values, writes, cycles)
        assert list(rv) == [5]
        assert list(rw) == [True]   # OR of the run's writes
        assert list(rc) == [10]     # first access's cycle

    def test_alternating_not_merged(self):
        values = np.asarray([1, 2, 1, 2])
        writes = np.zeros(4, bool)
        cycles = np.arange(4)
        rv, _, _ = compress_runs(values, writes, cycles)
        assert list(rv) == [1, 2, 1, 2]

    def test_runs_preserve_order(self):
        values = np.asarray([3, 3, 7, 7, 3])
        rv, _, rc = compress_runs(values, np.zeros(5, bool), np.arange(5))
        assert list(rv) == [3, 7, 3]
        assert list(rc) == [0, 2, 4]


class TestMacTableModel:
    def test_streaming_one_miss_per_line(self):
        """Sequential 64 B units: one MAC-line fetch per 8 units —
        the 12.5% MGX overhead, via 64 B per 8 x 64 B."""
        table = MetadataTable.mac(MetadataLayout(64))
        stream = _stream([64 * i for i in range(256)])
        out = CacheTrafficResult()
        _process(table, stream, out)
        assert out.misses == 256 // 8

    def test_writes_produce_writebacks_eventually(self):
        table = MetadataTable.mac(MetadataLayout(64), 64)  # single line
        stream = _stream([64 * 8 * i for i in range(4)],
                         writes=[True] * 4)
        out = CacheTrafficResult()
        _process(table, stream, out)
        out.extend_from(table.flush(99))
        writes = int(out.writes.sum())
        assert writes == 4  # every dirtied line written back exactly once

    def test_metadata_addresses_in_mac_table(self):
        layout = MetadataLayout(64)
        table = MetadataTable.mac(layout)
        stream = _stream([0, 64 * 100])
        out = CacheTrafficResult()
        _process(table, stream, out)
        for addr in out.addrs:
            assert addr >= layout.mac_line_addr(0)


class TestVnTreeModel:
    def test_cold_miss_walks_tree(self):
        layout = MetadataLayout(64)
        table = MetadataTable.vn(layout)
        out = CacheTrafficResult()
        _process(table, _stream([0]), out, vn=True)
        # First access: VN line miss + every tree level missed.
        assert out.misses == 1 + layout.tree_levels

    def test_warm_tree_short_walks(self):
        """Later VN misses stop at the first cached ancestor."""
        layout = MetadataLayout(64)
        table = MetadataTable.vn(layout)
        # 64 sequential VN lines (8*64 units) share low tree ancestors.
        stream = _stream([64 * u for u in range(8 * 64)])
        out = CacheTrafficResult()
        _process(table, stream, out, vn=True)
        cold_walk = 1 + layout.tree_levels
        # Far fewer than a cold walk per VN line.
        assert out.misses < 64 * cold_walk / 2

    def test_hits_produce_no_traffic(self):
        table = MetadataTable.vn(MetadataLayout(64))
        out = CacheTrafficResult()
        _process(table, _stream([0]), out, vn=True)
        first = len(out.addrs)
        _process(table, _stream([0]), out, vn=True)
        assert len(out.addrs) == first


def _windows(trace):
    return trace.windows(owner=SimpleNamespace(trace=trace))


def _overfetch(*ranges, unit_bytes=512):
    """A layer's over-fetch side, its windows' pieces joined."""
    trace = Trace(list(ranges))
    return BlockStream.concat([data_sides(window, unit_bytes)[1]
                               for window in _windows(trace)])


class TestOverfetch:
    def test_64b_units_never_overfetch(self):
        trace = Trace([TraceRange(0, 100, 200, False, AccessKind.IFMAP, 0)])
        for window in _windows(trace):
            assert data_sides(window, 64) == (window.blocks,)

    def test_aligned_range_no_overfetch(self):
        side = _overfetch(TraceRange(0, 512, 1024, False, AccessKind.IFMAP, 0))
        assert len(side) == 0

    def test_partial_head_and_tail(self):
        side = _overfetch(TraceRange(0, 256, 512, False, AccessKind.IFMAP, 0))
        # Head [0, 256) then tail [768, 1024), four blocks each.
        assert side.addrs.tolist() == [0, 64, 128, 192, 768, 832, 896, 960]

    def test_overfetch_is_reads(self):
        side = _overfetch(TraceRange(0, 256, 512, True, AccessKind.OFMAP, 0))
        assert len(side) and not side.writes.any()  # RMW fetches
        assert set(side.kinds.tolist()) == {kind_code(AccessKind.METADATA)}

    def test_overfetch_bytes_bounded(self):
        side = _overfetch(TraceRange(0, 300, 100, False, AccessKind.IFMAP, 0))
        assert 0 < side.total_bytes < 2 * 512
