"""Equivalence of the vectorized protection fast paths to the reference
implementations: over-fetch expansion, fused MAC+VN drive, shared MAC
traffic replay."""

import numpy as np

from repro.accel.trace import AccessKind, BlockStream, Trace, TraceRange
from repro.integrity.caches import MetadataCache
from repro.models.layer import conv
from repro.models.topology import Topology
from repro.protection.layout import MetadataLayout
from repro.protection.metadata_model import (
    CacheTrafficResult,
    MacTableModel,
    VnTreeModel,
    expanded_data_stream,
    overfetch_ranges,
    process_mac_vn,
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


class TestExpandedDataStream:
    def test_matches_per_range_overfetch(self):
        for seed in range(4):
            trace = _random_trace(seed)
            for unit in (64, 512, 4096):
                got, got_blocks = expanded_data_stream(trace, unit)
                extras = overfetch_ranges(trace.ranges, unit)
                want = Trace(trace.ranges + extras) \
                    .to_blocks().sorted_by_cycle()
                _assert_streams_equal(got, want)
                assert got_blocks == sum(r.num_blocks for r in extras)

    def test_memoized_per_unit(self):
        trace = _random_trace(0)
        assert expanded_data_stream(trace, 512)[0] is \
            expanded_data_stream(trace, 512)[0]
        # 64 B units degenerate to the shared sorted stream.
        assert expanded_data_stream(trace, 64)[0] is trace.sorted_blocks()


class TestFusedMacVn:
    def _reference(self, layout, stream, mac_bytes, vn_bytes):
        """Event-exact reference: MetadataCache.access drive, as the
        pre-columnar implementation did it."""
        mac_cache = MetadataCache(mac_bytes)
        vn_cache = MetadataCache(vn_bytes)
        mac_out = CacheTrafficResult()
        vn_out = CacheTrafficResult()
        lines = layout.mac_line_addrs_vec(stream.addrs).astype(np.uint64)
        from repro.protection.metadata_model import compress_runs
        rl, rw, rc = compress_runs(lines, stream.writes, stream.cycles)
        for i in range(len(rl)):
            hit, wb = mac_cache.access(int(rl[i]), write=bool(rw[i]))
            if not hit:
                mac_out.extend_miss(int(rc[i]), int(rl[i]))
            if wb is not None:
                mac_out.extend_writeback(int(rc[i]), wb)
        vlines = layout.vn_line_addrs_vec(stream.addrs).astype(np.uint64)
        rl, rw, rc = compress_runs(vlines, stream.writes, stream.cycles)
        leaves = layout.vn_line_indices_vec(rl.astype(np.int64))
        for i in range(len(rl)):
            addr, cyc, wr = int(rl[i]), int(rc[i]), bool(rw[i])
            hit, wb = vn_cache.access(addr, write=wr)
            if wb is not None:
                vn_out.extend_writeback(cyc, wb)
            if hit:
                continue
            vn_out.extend_miss(cyc, addr)
            leaf = int(leaves[i])
            for level in range(1, layout.tree_levels + 1):
                node = layout.tree_node_addr(leaf, level)
                node_hit, node_wb = vn_cache.access(node, write=wr)
                if node_wb is not None:
                    vn_out.extend_writeback(cyc, node_wb)
                if node_hit:
                    break
                vn_out.extend_miss(cyc, node)
        return mac_out, vn_out

    def test_matches_reference_drive(self):
        layout = MetadataLayout(64)
        for seed in range(4):
            stream = _random_trace(seed, n=80).sorted_blocks()
            # Small caches force plenty of evictions and writebacks.
            mac_bytes, vn_bytes = 512, 1024
            want_mac, want_vn = self._reference(layout, stream,
                                                mac_bytes, vn_bytes)
            mac_model = MacTableModel(layout, MetadataCache(mac_bytes))
            vn_model = VnTreeModel(layout, MetadataCache(vn_bytes))
            got_mac = CacheTrafficResult()
            got_vn = CacheTrafficResult()
            process_mac_vn(mac_model, vn_model, stream, got_mac, got_vn)
            for got, want in ((got_mac, want_mac), (got_vn, want_vn)):
                assert list(got.stream_cycles) == list(want.stream_cycles)
                assert list(got.stream_addrs) == list(want.stream_addrs)
                assert list(got.stream_writes) == list(want.stream_writes)
                assert got.misses == want.misses

    def test_single_models_match_reference(self):
        layout = MetadataLayout(64)
        stream = _random_trace(11, n=80).sorted_blocks()
        want_mac, want_vn = self._reference(layout, stream, 512, 1024)
        mac_model = MacTableModel(layout, MetadataCache(512))
        got_mac = CacheTrafficResult()
        mac_model.process(stream, got_mac)
        vn_model = VnTreeModel(layout, MetadataCache(1024))
        got_vn = CacheTrafficResult()
        vn_model.process(stream, got_vn)
        assert list(got_mac.stream_addrs) == list(want_mac.stream_addrs)
        assert list(got_vn.stream_addrs) == list(want_vn.stream_addrs)


class TestSharedMacTraffic:
    def test_mgx_replays_sgx_mac_traffic(self):
        """MGX after SGX (shared memo) equals MGX run standalone."""
        from repro.accel.simulator import AcceleratorSim
        from repro.accel.systolic import SystolicArray
        from repro.protection.mgx import MgxScheme
        from repro.protection.sgx import SgxScheme
        from repro.tiling.tile import SramBudget

        sim = AcceleratorSim(SystolicArray(16, 16), SramBudget.split(64 << 10))
        topo = Topology("t", [conv("c1", 34, 34, 3, 3, 8, 16),
                              conv("c2", 32, 32, 3, 3, 16, 16)])

        shared_run = sim.run(topo)
        SgxScheme(64).protect_model(shared_run)       # populates the memo
        replayed = MgxScheme(64).protect_model(shared_run)

        fresh_run = sim.run(topo)
        standalone = MgxScheme(64).protect_model(fresh_run)

        assert len(replayed) == len(standalone)
        for a, b in zip(replayed, standalone):
            _assert_streams_equal(a.metadata_stream, b.metadata_stream)
            assert a.data_bytes == b.data_bytes


def _small_run():
    from repro.accel.simulator import AcceleratorSim
    from repro.accel.systolic import SystolicArray
    from repro.tiling.tile import SramBudget

    sim = AcceleratorSim(SystolicArray(16, 16), SramBudget.split(64 << 10))
    return sim.run(Topology("t", [conv("c1", 34, 34, 3, 3, 8, 16),
                                  conv("c2", 32, 32, 3, 3, 16, 16)]))


class TestCycleSortedParts:
    """Every (data, metadata) part the pipeline hands the DRAM model is
    cycle-sorted, so its issue-order walk never sorts."""

    def test_baseline_serves_the_shared_sorted_stream(self):
        from repro.protection.unprotected import Unprotected

        run = _small_run()
        for result, row in zip(run.layers, Unprotected().protect_model(run)):
            assert row.data_stream is result.trace.sorted_blocks()

    def test_sgx_metadata_merges_mac_and_vn_by_cycle(self, monkeypatch):
        """Small caches interleave MAC and VN traffic; the metadata
        stream holds exactly MAC followed by VN, reordered by cycle."""
        from repro.protection import sgx
        from repro.protection.metadata_model import concat_to_stream

        calls = []

        def spy(results, layer_id):
            stream = concat_to_stream(results, layer_id)
            calls.append(([np.frombuffer(r.stream_cycles, np.int64).copy()
                           for r in results],
                          [np.frombuffer(r.stream_addrs, np.int64).copy()
                           for r in results],
                          [np.frombuffer(r.stream_writes, np.int8).copy()
                           for r in results],
                          stream))
            return stream

        monkeypatch.setattr(sgx, "concat_to_stream", spy)
        sgx.SgxScheme(64, vn_cache_bytes=512,
                      mac_cache_bytes=512).protect_model(_small_run())
        assert any(all(len(c) for c in cycles) for cycles, *_ in calls)
        for cycles, addrs, writes, stream in calls:
            assert np.all(np.diff(stream.cycles) >= 0)
            want = sorted(zip(np.concatenate(cycles).tolist(),
                              np.concatenate(addrs).tolist(),
                              np.concatenate(writes).astype(bool).tolist()))
            got = sorted(zip(stream.cycles.tolist(),
                             stream.addrs.astype(np.int64).tolist(),
                             stream.writes.tolist()))
            assert got == want
