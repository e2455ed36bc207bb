"""Columnar trace core: RangeBuffer-backed Trace and vectorized expansion."""

import numpy as np
import pytest

from repro.accel.trace import (
    BLOCK_BYTES,
    AccessKind,
    BlockStream,
    Trace,
    TraceRange,
    expand_ranges,
)


def _range(cycle=0, addr=0, nbytes=64, write=False, layer_id=0, duration=0,
           kind=AccessKind.IFMAP):
    return TraceRange(cycle, addr, nbytes, write, kind, layer_id, duration)


def _reference_blocks(ranges):
    """The pre-columnar per-range expansion loop, kept as the oracle."""
    cycle_parts, addr_parts, write_parts, layer_parts = [], [], [], []
    for r in ranges:
        count = r.num_blocks
        first = r.addr - r.addr % BLOCK_BYTES
        addr_parts.append(first + BLOCK_BYTES * np.arange(count, dtype=np.uint64))
        if r.duration > 0 and count > 1:
            offsets = (np.arange(count, dtype=np.int64) * r.duration) // count
        else:
            offsets = np.zeros(count, dtype=np.int64)
        cycle_parts.append(r.cycle + offsets)
        write_parts.append(np.full(count, r.write, dtype=bool))
        layer_parts.append(np.full(count, r.layer_id, dtype=np.int32))
    return BlockStream(
        np.concatenate(cycle_parts),
        np.concatenate(addr_parts).astype(np.uint64),
        np.concatenate(write_parts),
        np.concatenate(layer_parts),
    )


def _random_ranges(rng, n=200):
    return [
        _range(cycle=int(rng.integers(0, 10_000)),
               addr=int(rng.integers(0, 1 << 20)),
               nbytes=int(rng.integers(1, 5_000)),
               write=bool(rng.integers(0, 2)),
               layer_id=int(rng.integers(0, 4)),
               duration=int(rng.integers(0, 500)))
        for _ in range(n)
    ]


class TestEmitApi:
    def test_emit_matches_add(self):
        a, b = Trace(), Trace()
        a.add(_range(cycle=3, addr=100, nbytes=200, write=True, duration=7))
        b.emit(3, 100, 200, write=True, kind=AccessKind.IFMAP, layer_id=0,
               duration=7)
        assert a.ranges == b.ranges

    def test_emit_validates(self):
        trace = Trace()
        with pytest.raises(ValueError):
            trace.emit(0, -1, 64, write=False, kind=AccessKind.IFMAP,
                       layer_id=0)
        with pytest.raises(ValueError):
            trace.emit(0, 0, 0, write=False, kind=AccessKind.IFMAP,
                       layer_id=0)
        with pytest.raises(ValueError):
            trace.emit(-1, 0, 64, write=False, kind=AccessKind.IFMAP,
                       layer_id=0)
        assert len(trace) == 0

    def test_ranges_materialize_roundtrip(self):
        ranges = [_range(cycle=1, addr=64), _range(cycle=2, addr=1000,
                                                   nbytes=17, write=True,
                                                   kind=AccessKind.OFMAP)]
        assert Trace(ranges).ranges == ranges


class TestColumnarAggregation:
    def test_byte_accounting_matches_reference(self):
        rng = np.random.default_rng(0)
        ranges = _random_ranges(rng)
        trace = Trace(ranges)
        assert trace.read_bytes == sum(r.nbytes for r in ranges if not r.write)
        assert trace.write_bytes == sum(r.nbytes for r in ranges if r.write)

    def test_filter_and_for_layer(self):
        trace = Trace([
            _range(addr=0, kind=AccessKind.WEIGHT, layer_id=0),
            _range(addr=64, kind=AccessKind.IFMAP, layer_id=1, write=True),
            _range(addr=128, kind=AccessKind.WEIGHT, layer_id=1),
        ])
        weights = trace.filter(AccessKind.WEIGHT)
        assert len(weights) == 2
        assert weights.bytes_by_kind() == {AccessKind.WEIGHT: 128}
        layer1 = trace.for_layer(1)
        assert len(layer1) == 2
        assert layer1.write_bytes == 64

    def test_concat(self):
        a = Trace([_range(addr=0)])
        b = Trace([_range(addr=64, write=True)])
        merged = Trace.concat([a, b])
        assert len(merged) == 2
        assert merged.read_bytes == 64
        assert merged.write_bytes == 64
        assert merged.ranges == a.ranges + b.ranges


class TestVectorizedExpansion:
    def test_matches_reference_loop(self):
        rng = np.random.default_rng(7)
        for seed in range(5):
            ranges = _random_ranges(np.random.default_rng(seed))
            got = Trace(ranges).to_blocks()
            want = _reference_blocks(ranges)
            np.testing.assert_array_equal(got.cycles, want.cycles)
            np.testing.assert_array_equal(got.addrs, want.addrs)
            np.testing.assert_array_equal(got.writes, want.writes)
            np.testing.assert_array_equal(got.layer_ids, want.layer_ids)
        del rng

    def test_expand_ranges_empty(self):
        empty = np.empty(0, dtype=np.int64)
        stream = expand_ranges(empty, empty, empty,
                               np.empty(0, bool), empty, empty)
        assert len(stream) == 0


class TestMemoization:
    def test_to_blocks_cached(self):
        trace = Trace([_range(addr=0, nbytes=256)])
        assert trace.to_blocks() is trace.to_blocks()

    def test_mutation_invalidates(self):
        trace = Trace([_range(addr=0, nbytes=256)])
        first = trace.to_blocks()
        trace.add(_range(addr=4096))
        second = trace.to_blocks()
        assert second is not first
        assert len(second) == len(first) + 1

    def test_memo_keys_independent(self):
        trace = Trace([_range(addr=0)])
        a = trace.memo("a", lambda: object())
        b = trace.memo("b", lambda: object())
        assert a is not b
        assert trace.memo("a", lambda: object()) is a
