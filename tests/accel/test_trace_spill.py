"""Chunked RangeBuffer: residency accounting and the peak budget."""

import gc

import numpy as np
import pytest

from repro.accel.trace import (
    AccessKind,
    Trace,
    peak_trace_bytes,
    reset_peak_trace_bytes,
    resident_trace_bytes,
)
from repro import obs
from repro.core.config import npu_config
from repro.core.metrics import compare_schemes
from repro.core.pipeline import Pipeline
from repro.models.zoo import get_workload
from repro.protection import SCHEME_NAMES

#: Pinned peak for one full gpt2@s4096 sweep cell (every scheme): the
#: range columns alone, measured 3.0 MiB since the pipeline memoizes no
#: block stream on a trace (it was ~28 MiB while each layer's expansion
#: was memoized, ~134 MiB while every layer's stayed alive until the
#: cell ended).  The pin leaves headroom for a chunk more of columns but
#: catches any memoized expansion or whole-trace copy.
GPT2_S4096_CELL_BUDGET = 8 << 20


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


class TestPeakMemoryRegression:
    @pytest.mark.slow
    def test_gpt2_s4096_cell_stays_under_budget(self):
        """The long-sequence cell: every scheme on gpt2@s4096 must fit
        the pinned trace-residency budget."""
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
