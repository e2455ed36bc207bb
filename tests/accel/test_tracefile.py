"""Trace file import/export."""

import io

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.accel.trace import BlockStream
from repro.accel.tracefile import (
    read_ramulator,
    read_scalesim,
    write_ramulator,
    write_scalesim,
)
from tests.streams import model_trace, sorted_blocks, to_blocks


def _stream(n=10, seed=3):
    rng = np.random.default_rng(seed)
    return BlockStream(
        np.sort(rng.integers(0, 1000, n)).astype(np.int64),
        (rng.integers(0, 1 << 20, n) * 64).astype(np.uint64),
        rng.integers(0, 2, n).astype(bool),
        np.zeros(n, np.int32),
    )


class TestScalesimFormat:
    def test_roundtrip(self):
        stream = _stream()
        sink = io.StringIO()
        assert write_scalesim(stream, sink) == len(stream)
        parsed = read_scalesim(sink.getvalue())
        assert list(parsed.cycles) == list(stream.cycles)
        assert list(parsed.addrs) == list(stream.addrs)
        assert list(parsed.writes) == list(stream.writes)

    def test_comments_and_blanks_skipped(self):
        text = "# header\n\n10,640,R\n20,128,W\n"
        parsed = read_scalesim(text)
        assert len(parsed) == 2
        assert parsed.writes[1]

    def test_malformed_rejected(self):
        with pytest.raises(ValueError):
            read_scalesim("10,640\n")
        with pytest.raises(ValueError):
            read_scalesim("10,640,X\n")

    @given(st.integers(1, 60))
    @settings(max_examples=15, deadline=None)
    def test_roundtrip_property(self, n):
        stream = _stream(n, seed=n)
        sink = io.StringIO()
        write_scalesim(stream, sink)
        parsed = read_scalesim(sink.getvalue())
        assert parsed.total_bytes == stream.total_bytes
        assert parsed.write_blocks == stream.write_blocks


class TestRamulatorFormat:
    def test_roundtrip_addresses(self):
        stream = _stream()
        sink = io.StringIO()
        assert write_ramulator(stream, sink) == len(stream)
        parsed = read_ramulator(sink.getvalue())
        assert list(parsed.addrs) == list(stream.addrs)
        assert list(parsed.writes) == list(stream.writes)
        assert (parsed.cycles == 0).all()  # cycles dropped by design

    def test_hex_and_decimal_accepted(self):
        parsed = read_ramulator("0x40 R\n128 W\n")
        assert list(parsed.addrs) == [0x40, 128]

    def test_malformed_rejected(self):
        with pytest.raises(ValueError):
            read_ramulator("0x40\n")
        with pytest.raises(ValueError):
            read_ramulator("0x40 Q\n")


class TestEndToEnd:
    def test_exported_trace_simulates_identically(self, test_npu):
        """A trace exported and re-imported yields the same DRAM result."""
        from repro.dram.simulator import DramSim
        from repro.models.layer import conv
        from repro.models.topology import Topology
        from repro.core.pipeline import Pipeline

        pipeline = Pipeline(test_npu)
        run = pipeline.simulate_model(
            Topology("t", [conv("c", 18, 18, 3, 3, 4, 8)]))
        stream = sorted_blocks(run.layers[0].trace)

        sink = io.StringIO()
        write_scalesim(stream, sink)
        parsed = read_scalesim(sink.getvalue())

        sim = DramSim(test_npu.dram_config(), test_npu.freq_ghz)
        original = sim.simulate_fast(stream)
        reloaded = sim.simulate_fast(parsed)
        assert original.busy_cycles == reloaded.busy_cycles
        assert original.row_misses == reloaded.row_misses


def _kinded_stream(n=12, seed=7):
    from repro.accel.trace import AccessKind
    rng = np.random.default_rng(seed)
    kinds = rng.integers(0, len(AccessKind), n).astype(np.int8)
    stream = _stream(n, seed)
    return BlockStream(stream.cycles, stream.addrs, stream.writes,
                       stream.layer_ids, kinds)


class TestKindPreservingRoundtrip:
    """The lossy-roundtrip fix: per-block kinds survive export/import."""

    def test_scalesim_roundtrips_kinds(self):
        stream = _kinded_stream()
        sink = io.StringIO()
        assert write_scalesim(stream, sink) == len(stream)
        parsed = read_scalesim(sink.getvalue())
        assert parsed.kinds is not None
        assert list(parsed.kinds) == list(stream.kinds)
        assert parsed.bytes_by_kind() == stream.bytes_by_kind()

    def test_scalesim_fourth_field_is_the_kind_name(self):
        from repro.accel.trace import AccessKind, kind_code
        stream = BlockStream(
            np.array([1, 2], np.int64), np.array([0, 64], np.uint64),
            np.array([False, True]), np.zeros(2, np.int32),
            np.array([kind_code(AccessKind.KVCACHE),
                      kind_code(AccessKind.OFMAP)], np.int8))
        sink = io.StringIO()
        write_scalesim(stream, sink)
        lines = sink.getvalue().splitlines()
        assert lines[0] == "1,0,R,kvcache"
        assert lines[1] == "2,64,W,ofmap"

    def test_plain_scalesim_files_still_load_without_kinds(self):
        parsed = read_scalesim("10,640,R\n20,128,W\n")
        assert parsed.kinds is None
        assert parsed.bytes_by_kind() == {}

    def test_kindless_stream_writes_three_fields(self):
        stream = _stream(4)
        sink = io.StringIO()
        write_scalesim(stream, sink)
        assert all(line.count(",") == 2
                   for line in sink.getvalue().splitlines())

    def test_mixed_arity_rejected(self):
        with pytest.raises(ValueError):
            read_scalesim("10,640,R,ifmap\n20,128,W\n")
        with pytest.raises(ValueError):
            read_scalesim("10,640,R\n20,128,W,ifmap\n")

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            read_scalesim("10,640,R,sprocket\n")

    def test_ramulator_roundtrips_kinds_via_header_comment(self):
        stream = _kinded_stream()
        sink = io.StringIO()
        assert write_ramulator(stream, sink) == len(stream)
        text = sink.getvalue()
        assert text.startswith("#repro-kinds:")
        # Data lines stay plain Ramulator format (tool compatibility).
        for line in text.splitlines()[1:]:
            assert len(line.split()) == 2
        parsed = read_ramulator(text)
        assert list(parsed.kinds) == list(stream.kinds)

    def test_ramulator_without_header_is_documented_lossy(self):
        parsed = read_ramulator("0x40 R\n0x80 W\n")
        assert parsed.kinds is None

    def test_ramulator_header_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            read_ramulator("#repro-kinds: ifmap*3\n0x40 R\n")

    def test_ramulator_bad_header_item_rejected(self):
        with pytest.raises(ValueError):
            read_ramulator("#repro-kinds: ifmap*x\n0x40 R\n")

    def test_pipeline_stream_roundtrip_preserves_kv_accounting(self):
        """A real simulator stream keeps its per-kind byte split through
        a scalesim export/import (the docstring's lossless promise)."""
        from repro.accel.simulator import AcceleratorSim
        from repro.accel.systolic import SystolicArray
        from repro.accel.trace import AccessKind
        from repro.models.zoo import get_workload
        from repro.tiling.tile import SramBudget

        sim = AcceleratorSim(SystolicArray(16, 16), SramBudget.split(96 << 10))
        run = sim.run(get_workload("gpt2@s64").subset(6))
        stream = to_blocks(model_trace(run))
        assert AccessKind.KVCACHE in stream.bytes_by_kind()
        sink = io.StringIO()
        write_scalesim(stream, sink)
        parsed = read_scalesim(sink.getvalue())
        assert parsed.bytes_by_kind() == stream.bytes_by_kind()
