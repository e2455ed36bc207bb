"""Chunked RangeBuffer: residency accounting, spill tier, peak budget."""

import gc

import numpy as np
import pytest

import repro.accel.trace
from repro.accel.trace import (
    CHUNK_ROWS,
    SPILL_DIR_ENV,
    AccessKind,
    Trace,
    peak_trace_bytes,
    reset_peak_trace_bytes,
    resident_trace_bytes,
    spilled_trace_bytes,
)
from repro import obs
from repro.core.config import npu_config
from repro.core.metrics import compare_schemes
from repro.core.pipeline import Pipeline
from repro.models.zoo import get_workload
from repro.protection import SCHEME_NAMES

#: Pinned peak for one full gpt2@s4096 sweep cell (every scheme) under
#: the chunked trace core with layer-major cells: measured ~28 MiB (it
#: was ~134 MiB while every layer's expansion stayed memoized until the
#: cell ended); the pin leaves headroom for numpy/platform jitter but
#: catches a reintroduced whole-model memo or whole-trace copy (each
#: would add tens of MiB).
GPT2_S4096_CELL_BUDGET = 48 << 20


def _bulk_columns(n, seed=0):
    rng = np.random.default_rng(seed)
    return dict(
        cycles=rng.integers(0, 10_000, n),
        addrs=rng.integers(0, 1 << 30, n),
        nbytes=rng.integers(1, 4096, n),
        writes=rng.integers(0, 2, n).astype(bool),
        kind_codes=rng.integers(0, 5, n).astype(np.int8),
        durations=rng.integers(0, 100, n),
    )


def _emit_bulk(trace, cols, layer_id=0):
    trace.emit_batch(cols["cycles"], cols["addrs"], cols["nbytes"],
                     writes=cols["writes"], kind_codes=cols["kind_codes"],
                     layer_id=layer_id, durations=cols["durations"])


class TestResidencyAccounting:
    def test_alloc_and_free_balance(self):
        before = resident_trace_bytes()
        trace = Trace()
        trace.emit(0, 0, 64, write=False, kind=AccessKind.IFMAP, layer_id=0)
        assert resident_trace_bytes() > before
        del trace
        gc.collect()
        assert resident_trace_bytes() == before

    def test_memoized_expansion_is_charged(self):
        trace = Trace()
        _emit_bulk(trace, _bulk_columns(10_000))
        columns_only = resident_trace_bytes()
        stream = trace.to_blocks()
        assert resident_trace_bytes() >= columns_only + stream.cycles.nbytes
        before = resident_trace_bytes()
        del trace, stream
        gc.collect()
        assert resident_trace_bytes() < before

    def test_released_memos_leave_the_tally(self):
        trace = Trace()
        _emit_bulk(trace, _bulk_columns(10_000))
        columns_only = resident_trace_bytes()
        trace.to_blocks()
        assert resident_trace_bytes() > columns_only
        trace.release_memos()
        assert resident_trace_bytes() == columns_only

    def test_peak_reset_scopes_the_watermark(self):
        trace = Trace()
        _emit_bulk(trace, _bulk_columns(5_000))
        del trace
        gc.collect()
        assert reset_peak_trace_bytes() == resident_trace_bytes()
        assert peak_trace_bytes() == resident_trace_bytes()

    def test_peak_gauge_published(self):
        recorder = obs.Recorder()
        previous = obs.install(recorder)
        try:
            reset_peak_trace_bytes()
            trace = Trace()
            _emit_bulk(trace, _bulk_columns(50_000))
            assert recorder.gauges["trace.peak_resident_bytes"] \
                == peak_trace_bytes()
        finally:
            obs.install(previous)


class TestSpillTier:
    def test_sealed_chunks_spill_and_roundtrip(self, tmp_path, monkeypatch):
        monkeypatch.setenv(SPILL_DIR_ENV, str(tmp_path))
        n = 3 * CHUNK_ROWS + 17
        cols = _bulk_columns(n, seed=3)
        spilled_before = spilled_trace_bytes()
        trace = Trace()
        _emit_bulk(trace, cols, layer_id=5)
        assert spilled_trace_bytes() > spilled_before
        # Spill files are unlinked immediately: nothing litters the dir.
        assert list(tmp_path.iterdir()) == []
        cycles, addrs, nbytes, writes, kinds, layer_ids, durations = \
            trace.buf.arrays()
        np.testing.assert_array_equal(cycles, cols["cycles"])
        np.testing.assert_array_equal(addrs, cols["addrs"])
        np.testing.assert_array_equal(nbytes, cols["nbytes"])
        np.testing.assert_array_equal(writes, cols["writes"])
        np.testing.assert_array_equal(kinds, cols["kind_codes"])
        assert (layer_ids == 5).all()
        np.testing.assert_array_equal(durations, cols["durations"])

    def test_spilled_chunks_leave_residency(self, tmp_path, monkeypatch):
        n = 4 * CHUNK_ROWS
        cols = _bulk_columns(n, seed=4)

        resident = Trace()
        _emit_bulk(resident, cols)
        resident_cost = resident_trace_bytes()
        del resident
        gc.collect()

        monkeypatch.setenv(SPILL_DIR_ENV, str(tmp_path))
        spilled = Trace()
        _emit_bulk(spilled, cols)
        spilled_cost = resident_trace_bytes()
        # All full chunks live in the mmap tier; only the (empty-ish)
        # active chunk stays resident.
        assert spilled_cost < resident_cost / 2
        # The spilled trace still serves identical data.
        assert spilled.read_bytes == int(
            cols["nbytes"][~cols["writes"]].sum())

    def test_identical_blocks_with_and_without_spill(self, tmp_path,
                                                     monkeypatch):
        cols = _bulk_columns(2 * CHUNK_ROWS + 9, seed=5)
        plain = Trace()
        _emit_bulk(plain, cols)
        want = plain.to_blocks()
        monkeypatch.setenv(SPILL_DIR_ENV, str(tmp_path))
        spilly = Trace()
        _emit_bulk(spilly, cols)
        got = spilly.to_blocks()
        np.testing.assert_array_equal(got.cycles, want.cycles)
        np.testing.assert_array_equal(got.addrs, want.addrs)
        np.testing.assert_array_equal(got.writes, want.writes)
        np.testing.assert_array_equal(got.kinds, want.kinds)


class TestPeakMemoryRegression:
    @pytest.mark.slow
    def test_gpt2_s4096_cell_stays_under_budget(self, tmp_path, monkeypatch):
        """The long-sequence cell the tentpole targets: every scheme on
        gpt2@s4096 must fit the pinned trace-residency budget, with the
        spill tier active."""
        monkeypatch.setenv(SPILL_DIR_ENV, str(tmp_path))
        recorder = obs.Recorder()
        previous = obs.install(recorder)
        try:
            gc.collect()
            reset_peak_trace_bytes()
            pipeline = Pipeline(npu_config("server"))
            result = compare_schemes(pipeline, get_workload("gpt2@s4096"),
                                     SCHEME_NAMES)
            assert len(result.runs) == len(SCHEME_NAMES)
            peak = recorder.gauges["trace.peak_resident_bytes"]
            assert peak == peak_trace_bytes()
            assert peak < GPT2_S4096_CELL_BUDGET
        finally:
            obs.install(previous)
        del result, pipeline
        gc.collect()
