"""Equivalence of the vectorized protection fast paths to the reference
implementations: a layer's data and over-fetch sides, fused MAC+VN
drive, shared MAC traffic replay."""

from types import SimpleNamespace

import numpy as np

from repro.accel.trace import (
    AccessKind,
    BlockStream,
    Trace,
    TraceRange,
    kind_code,
)
from repro import obs
from repro.models.layer import conv
from repro.models.topology import Topology
from repro.protection.layout import LINE_BYTES as LINE, MetadataLayout
from repro.protection.metadata_model import (
    CacheTrafficResult,
    MetadataTable,
    compress_runs,
    data_sides,
    drive_tables,
    layer_windows,
)
from tests.lru import LruCache
from tests.streams import (
    EventLog,
    events,
    mac_line_addrs,
    merge_sides,
    overfetch_ranges,
    sorted_blocks,
    vn_line_addrs,
    vn_line_indices,
)


def _random_trace(seed, n=120):
    rng = np.random.default_rng(seed)
    return Trace([
        TraceRange(int(rng.integers(0, 5_000)),
                   int(rng.integers(0, 1 << 18)),
                   int(rng.integers(1, 3_000)),
                   bool(rng.integers(0, 2)),
                   AccessKind.IFMAP,
                   int(rng.integers(0, 3)),
                   int(rng.integers(0, 200)))
        for _ in range(n)
    ])


def _assert_streams_equal(a: BlockStream, b: BlockStream):
    np.testing.assert_array_equal(a.cycles, b.cycles)
    np.testing.assert_array_equal(a.addrs, b.addrs)
    np.testing.assert_array_equal(a.writes, b.writes)
    np.testing.assert_array_equal(a.layer_ids, b.layer_ids)


def _windows(trace):
    return trace.windows(owner=SimpleNamespace(trace=trace))


def _layer_sides(trace, unit):
    """A layer's data sides under ``unit``, each side's window pieces
    joined."""
    return tuple(BlockStream.concat(pieces) for pieces in zip(
        *(data_sides(window, unit) for window in _windows(trace))))


class TestExpandedDataStream:
    def test_matches_per_range_overfetch(self):
        """The merge of a layer's data and over-fetch sides is the
        stable cycle sort of the ranges' expansion followed by the
        per-range over-fetch reference's."""
        for seed in range(4):
            trace = _random_trace(seed)
            for unit in (64, 512, 4096):
                sides = _layer_sides(trace, unit)
                extras = overfetch_ranges(trace.ranges, unit)
                want = sorted_blocks(Trace(trace.ranges + extras))
                _assert_streams_equal(merge_sides(sides), want)
                assert sum(len(side) for side in sides[1:]) == \
                    sum(r.num_blocks for r in extras)

    def test_memoized_per_unit(self):
        """Within a window, every scheme at one unit reads one
        over-fetch side, and every unit the window's one data side."""
        window, = _windows(_random_trace(0))
        coarse = data_sides(window, 512)
        assert coarse[1] is data_sides(window, 512)[1]
        assert coarse[1] is not data_sides(window, 4096)[1]
        # 64 B units have no over-fetch side at all.
        assert coarse[0] is window.blocks
        assert data_sides(window, 64) == (window.blocks,)


class TestFusedMacVn:
    def _reference(self, layout, stream, mac_bytes, vn_bytes):
        """Event-exact reference: an ``LruCache`` access per line run
        (tag = line address // 64), as the pre-columnar implementation
        drove the caches."""
        mac_cache = LruCache(mac_bytes // LINE)
        vn_cache = LruCache(vn_bytes // LINE)
        mac_out = EventLog()
        vn_out = EventLog()
        lines = mac_line_addrs(layout, stream.addrs).astype(np.uint64)
        rl, rw, rc = compress_runs(lines, stream.writes, stream.cycles)
        for i in range(len(rl)):
            hit, wb = mac_cache.access(int(rl[i]) // LINE,
                                       write=bool(rw[i]))
            if not hit:
                mac_out.extend_miss(int(rc[i]), int(rl[i]))
            if wb is not None:
                mac_out.extend_writeback(int(rc[i]), wb * LINE)
        vlines = vn_line_addrs(layout, stream.addrs).astype(np.uint64)
        rl, rw, rc = compress_runs(vlines, stream.writes, stream.cycles)
        leaves = vn_line_indices(layout, rl.astype(np.int64))
        for i in range(len(rl)):
            addr, cyc, wr = int(rl[i]), int(rc[i]), bool(rw[i])
            hit, wb = vn_cache.access(addr // LINE, write=wr)
            if wb is not None:
                vn_out.extend_writeback(cyc, wb * LINE)
            if hit:
                continue
            vn_out.extend_miss(cyc, addr)
            leaf = int(leaves[i])
            for level in range(1, layout.tree_levels + 1):
                node = layout.tree_node_addr(leaf, level)
                node_hit, node_wb = vn_cache.access(node // LINE, write=wr)
                if node_wb is not None:
                    vn_out.extend_writeback(cyc, node_wb * LINE)
                if node_hit:
                    break
                vn_out.extend_miss(cyc, node)
        return mac_out, vn_out

    def test_matches_reference_drive(self):
        layout = MetadataLayout(64)
        for seed in range(4):
            stream = sorted_blocks(_random_trace(seed, n=80))
            # Small caches force plenty of evictions and writebacks.
            mac_bytes, vn_bytes = 512, 1024
            want_mac, want_vn = self._reference(layout, stream,
                                                mac_bytes, vn_bytes)
            tables = (MetadataTable.mac(layout, mac_bytes),
                      MetadataTable.vn(layout, vn_bytes))
            got_mac = CacheTrafficResult()
            got_vn = CacheTrafficResult()
            for table, result, out in zip(
                    tables, drive_tables((stream,), 64, tables),
                    (got_mac, got_vn)):
                table.apply(result, out)
            for got, want in ((got_mac, want_mac), (got_vn, want_vn)):
                assert events(got) == events(want)

    def test_single_models_match_reference(self):
        layout = MetadataLayout(64)
        stream = sorted_blocks(_random_trace(11, n=80))
        want_mac, want_vn = self._reference(layout, stream, 512, 1024)
        mac = MetadataTable.mac(layout, 512)
        got_mac = CacheTrafficResult()
        mac.apply(drive_tables((stream,), 64, (mac, None))[0], got_mac)
        vn = MetadataTable.vn(layout, 1024)
        got_vn = CacheTrafficResult()
        vn.apply(drive_tables((stream,), 64, (None, vn))[1], got_vn)
        assert events(got_mac) == events(want_mac)
        assert events(got_vn) == events(want_vn)


class TestSharedMacTraffic:
    def test_mgx_replays_sgx_mac_traffic(self):
        """MGX served each window after SGX reads SGX's MAC traffic, and
        its MAC flush, off the window instead of driving its own table;
        its rows equal MGX's on fresh windows of its own."""
        from repro.protection.mgx import MgxScheme
        from repro.protection.sgx import SgxScheme

        shared_run = _small_run()
        sgx, mgx = SgxScheme(64), MgxScheme(64)
        recorder = obs.Recorder()
        previous = obs.install(recorder)
        try:
            replayed, windows = [], 0
            for result in shared_run.layers:
                for window in layer_windows(result):
                    first, *_ = sgx.protect_model(shared_run, window=window)
                    rows = mgx.protect_model(shared_run, window=window)
                    assert rows[0].metadata_sides[0] is \
                        first.metadata_sides[0]
                    replayed.extend(rows)
                    windows += 1
        finally:
            obs.install(previous)
        assert recorder.counters["shared_traffic.replays"] == windows
        mac, vn = mgx._tables
        assert vn is None and mac.stats.accesses == 0

        fresh_run = _small_run()
        alone = MgxScheme(64)
        standalone = [row for result in fresh_run.layers
                      for window in layer_windows(result)
                      for row in alone.protect_model(fresh_run,
                                                     window=window)]
        assert len(replayed) == len(standalone)
        assert replayed[-1].is_flush
        for a, b in zip(replayed, standalone):
            assert [events(side) for side in a.metadata_sides] == \
                [events(side) for side in b.metadata_sides]
            assert a.data_bytes == b.data_bytes


def _small_run():
    from repro.accel.simulator import AcceleratorSim
    from repro.accel.systolic import SystolicArray
    from repro.tiling.tile import SramBudget

    sim = AcceleratorSim(SystolicArray(16, 16), SramBudget.split(64 << 10))
    return sim.run(Topology("t", [conv("c1", 34, 34, 3, 3, 8, 16),
                                  conv("c2", 32, 32, 3, 3, 16, 16)]))


class TestCycleSortedParts:
    """Every side the pipeline hands the DRAM model is cycle-sorted, so
    its issue-order walk never sorts."""

    def test_baseline_serves_the_shared_sorted_stream(self):
        from repro.protection.unprotected import Unprotected

        run = _small_run()
        scheme = Unprotected()
        for result in run.layers:
            for window in layer_windows(result):
                row, = scheme.protect_model(run, window=window)
                assert len(row.data_sides) == 1
                assert row.data_sides[0] is window.blocks
                assert row.metadata_sides == ()
        for result, row in zip(run.layers, scheme.protect_model(run)):
            _assert_streams_equal(row.data_sides[0],
                                  sorted_blocks(result.trace))

    def test_sgx_metadata_merges_mac_and_vn_by_cycle(self):
        """Small caches interleave MAC and VN traffic; the metadata
        sides are MAC then VN, each cycle-sorted, and the DRAM model
        serves them as the stable cycle sort of their concatenation."""
        from repro.dram.simulator import DramSim
        from repro.dram.timing import SERVER_DRAM
        from repro.protection import sgx

        rows = sgx.SgxScheme(64, vn_cache_bytes=512,
                             mac_cache_bytes=512).protect_model(_small_run())
        sim = DramSim(SERVER_DRAM, freq_ghz=1.0)
        both = 0
        for row in rows:
            if row.is_flush:
                assert len(row.metadata_sides) == 1
                continue
            mac, vn = row.metadata_sides
            both += bool(len(mac) and len(vn))
            for side in row.sides:
                assert np.all(np.diff(side.cycles) >= 0)
            assert sim.simulate_fast_batch_parts([row.sides])[0] == \
                sim.simulate_fast(merge_sides(row.sides))
        assert both

    def test_coarse_unit_reuses_the_sorted_blocks(self):
        """A 512 B scheme's data side is the window's shared data
        blocks, the very arrays the baseline reads, and its over-fetch
        side holds only the over-fetch blocks: read-only, metadata
        kind, exactly the per-range reference's blocks."""
        from repro.protection.mgx import MgxScheme
        from repro.protection.sgx import SgxScheme

        run = _small_run()
        schemes = (SgxScheme(512), MgxScheme(512))
        for result in run.layers:
            for window in layer_windows(result):
                rows = [scheme.protect_model(run, window=window)[0]
                        for scheme in schemes]
                assert all(row.data_sides[0] is window.blocks
                           for row in rows)
                assert rows[0].data_sides[1] is rows[1].data_sides[1]
        for scheme in schemes:
            rows = scheme.protect_model(run)
            for result, row in zip(run.layers, rows):
                data, overfetch = row.data_sides
                _assert_streams_equal(data, sorted_blocks(result.trace))
                assert len(overfetch) == row.overfetch_blocks > 0
                assert not overfetch.writes.any()
                assert set(overfetch.kinds.tolist()) == \
                    {kind_code(AccessKind.METADATA)}
                want = sorted_blocks(
                    Trace(overfetch_ranges(result.trace.ranges, 512)))
                _assert_streams_equal(overfetch, want)
