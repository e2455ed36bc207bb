"""DRAM trace representation: ranges, block expansion, streams."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.accel.trace import (
    BLOCK_BYTES,
    AccessKind,
    BlockStream,
    Trace,
    TraceRange,
)
from tests.streams import sorted_by_cycle, to_blocks


def _range(cycle=0, addr=0, nbytes=64, write=False, layer_id=0, duration=0):
    return TraceRange(cycle, addr, nbytes, write,
                      AccessKind.IFMAP, layer_id, duration)


class TestTraceRange:
    def test_block_count_aligned(self):
        assert _range(addr=0, nbytes=128).num_blocks == 2

    def test_block_count_straddling(self):
        # [60, 70) touches blocks 0 and 1.
        assert _range(addr=60, nbytes=10).num_blocks == 2

    def test_single_byte(self):
        assert _range(addr=63, nbytes=1).num_blocks == 1

    def test_validation(self):
        with pytest.raises(ValueError):
            _range(nbytes=0)
        with pytest.raises(ValueError):
            _range(addr=-1)
        with pytest.raises(ValueError):
            _range(cycle=-1)


class TestTraceAggregation:
    def test_byte_accounting(self):
        trace = Trace([_range(nbytes=100), _range(nbytes=50, write=True)])
        assert trace.read_bytes == 100
        assert trace.write_bytes == 50
        assert trace.total_bytes == 150

    def test_filter_by_kind(self):
        trace = Trace([
            TraceRange(0, 0, 64, False, AccessKind.WEIGHT, 0),
            TraceRange(0, 64, 64, False, AccessKind.IFMAP, 0),
        ])
        assert len(trace.filter(AccessKind.WEIGHT)) == 1

    def test_for_layer(self):
        trace = Trace([_range(layer_id=0), _range(layer_id=1)])
        assert len(trace.for_layer(1)) == 1

    def test_bytes_by_kind(self):
        trace = Trace([
            TraceRange(0, 0, 64, False, AccessKind.WEIGHT, 0),
            TraceRange(0, 64, 128, False, AccessKind.WEIGHT, 0),
        ])
        assert trace.bytes_by_kind()[AccessKind.WEIGHT] == 192

    def test_end_cycle(self):
        trace = Trace([_range(cycle=10, duration=5), _range(cycle=3)])
        assert trace.end_cycle() == 15

    def test_empty(self):
        trace = Trace()
        assert trace.total_bytes == 0
        assert trace.end_cycle() == 0
        assert len(to_blocks(trace)) == 0


class TestBlockExpansion:
    def test_counts(self):
        trace = Trace([_range(addr=0, nbytes=256)])
        stream = to_blocks(trace)
        assert len(stream) == 4
        assert stream.total_bytes == 256

    def test_addresses_aligned(self):
        trace = Trace([_range(addr=100, nbytes=100)])
        stream = to_blocks(trace)
        assert all(a % BLOCK_BYTES == 0 for a in stream.addrs)

    def test_cycles_spread_over_duration(self):
        trace = Trace([_range(addr=0, nbytes=64 * 10, cycle=100, duration=50)])
        stream = to_blocks(trace)
        assert stream.cycles.min() == 100
        assert stream.cycles.max() < 150
        assert len(np.unique(stream.cycles)) > 1

    def test_write_flags_propagate(self):
        trace = Trace([_range(write=True, nbytes=128)])
        stream = to_blocks(trace)
        assert stream.writes.all()
        assert stream.write_blocks == 2
        assert stream.read_blocks == 0

    @given(st.integers(0, 10**6), st.integers(1, 10**4))
    @settings(max_examples=50)
    def test_expansion_covers_range(self, addr, nbytes):
        trace = Trace([_range(addr=addr, nbytes=nbytes)])
        stream = to_blocks(trace)
        assert len(stream) == trace.ranges[0].num_blocks
        assert int(stream.addrs.min()) <= addr
        assert int(stream.addrs.max()) + BLOCK_BYTES >= addr + nbytes


class TestBlockStream:
    def test_parallel_validation(self):
        with pytest.raises(ValueError):
            BlockStream(np.zeros(2, np.int64), np.zeros(1, np.uint64),
                        np.zeros(2, bool), np.zeros(2, np.int32))

    def test_sort(self):
        stream = BlockStream(
            np.asarray([5, 1, 3], np.int64),
            np.asarray([0, 64, 128], np.uint64),
            np.zeros(3, bool), np.zeros(3, np.int32))
        ordered = sorted_by_cycle(stream)
        assert list(ordered.cycles) == [1, 3, 5]
        assert list(ordered.addrs) == [64, 128, 0]

    def test_concat(self):
        a = to_blocks(Trace([_range(nbytes=64)]))
        b = to_blocks(Trace([_range(addr=64, nbytes=64)]))
        merged = BlockStream.concat([a, b])
        assert len(merged) == 2

    def test_concat_empty(self):
        assert len(BlockStream.concat([])) == 0
