"""Columnar trace core: RangeBuffer-backed Trace and vectorized expansion."""

import numpy as np
import pytest

from repro.accel.trace import (
    BLOCK_BYTES,
    AccessKind,
    BlockStream,
    Trace,
    TraceRange,
    kind_code,
)
from tests.streams import expand_ranges, to_blocks


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
            got = to_blocks(Trace(ranges))
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
    def test_mutation_invalidates(self):
        """Nothing is cached on a trace: an expansion after an append
        holds the new range."""
        trace = Trace([_range(addr=0, nbytes=256)])
        first = to_blocks(trace)
        trace.add(_range(addr=4096))
        second = to_blocks(trace)
        assert len(second) == len(first) + 1
        np.testing.assert_array_equal(second.addrs[:len(first)], first.addrs)


class TestGrowableColumns:
    def test_mixed_appends_across_growths(self):
        """``emit``, ``emit_batch`` and ``add`` interleaved over several
        capacity growths leave the same rows, per-range view and byte
        totals as a list-built reference; a snapshot taken earlier keeps
        its rows; scalar appends grow the columns geometrically."""
        rng = np.random.default_rng(11)
        kinds = list(AccessKind)
        trace = Trace()
        reference = []
        capacities = set()
        snapshot = None
        for step in range(60):
            mode = step % 3
            n = int(rng.integers(1, 300))
            cycles = rng.integers(0, 10_000, n)
            addrs = rng.integers(0, 1 << 30, n)
            nbytes = rng.integers(1, 4096, n)
            writes = rng.integers(0, 2, n).astype(bool)
            codes = rng.integers(0, len(kinds), n).astype(np.int8)
            durations = rng.integers(0, 100, n)
            layer_id = step % 4
            rows = [TraceRange(int(c), int(a), int(b), bool(w),
                               kinds[int(k)], layer_id, int(d))
                    for c, a, b, w, k, d in zip(cycles, addrs, nbytes,
                                                writes, codes, durations)]
            if mode == 0:
                trace.emit_batch(cycles, addrs, nbytes, writes=writes,
                                 kind_codes=codes, layer_id=layer_id,
                                 durations=durations)
            elif mode == 1:
                for r in rows:
                    trace.emit(r.cycle, r.addr, r.nbytes, write=r.write,
                               kind=r.kind, layer_id=r.layer_id,
                               duration=r.duration)
                    capacities.add(len(trace.buf._cols[0]))
            else:
                trace.extend(rows)
            reference.extend(rows)
            capacities.add(len(trace.buf._cols[0]))
            if step == 20:
                snapshot = [col.copy() for col in trace.buf.arrays()]
                held = trace.buf.arrays()
        assert len(capacities) >= 4
        assert len(capacities) < 20
        assert len(trace) == len(reference)
        assert trace.ranges == reference
        cols = trace.buf.arrays()
        want = (
            [r.cycle for r in reference], [r.addr for r in reference],
            [r.nbytes for r in reference], [r.write for r in reference],
            [kind_code(r.kind) for r in reference],
            [r.layer_id for r in reference],
            [r.duration for r in reference])
        for got, expected in zip(cols, want):
            assert got.tolist() == expected
        assert cols[3].dtype == bool
        for got, kept in zip(held, snapshot):
            np.testing.assert_array_equal(got, kept)
        assert trace.read_bytes == sum(r.nbytes for r in reference
                                       if not r.write)
        assert trace.write_bytes == sum(r.nbytes for r in reference
                                        if r.write)
        by_kind = {}
        for r in reference:
            by_kind[r.kind] = by_kind.get(r.kind, 0) + r.nbytes
        assert trace.bytes_by_kind() == by_kind

    def test_bulk_append_to_an_empty_buffer_allocates_exactly(self):
        trace = Trace()
        trace.emit_batch(np.arange(5000), np.arange(5000) * 64,
                         np.full(5000, 64), writes=np.zeros(5000, bool),
                         kind_codes=np.zeros(5000, np.int8), layer_id=0,
                         durations=np.zeros(5000, np.int64))
        assert len(trace.buf._cols[0]) == 5000
