"""End-to-end pipeline on a scaled-down NPU."""

import pytest

from repro.core.pipeline import Pipeline
from repro.models.layer import conv, gemm
from repro.models.topology import Topology
from repro.protection import make_scheme


@pytest.fixture
def topology():
    return Topology("pipe", [
        conv("c1", 34, 34, 3, 3, 8, 16),
        conv("c2", 32, 32, 3, 3, 16, 16),
        gemm("fc", 1, 16 * 30 * 30, 10),
    ])


@pytest.fixture
def pipeline(test_npu):
    return Pipeline(test_npu)


class TestBaselineRun:
    def test_runs_all_layers(self, pipeline, topology):
        run = pipeline.run(topology, make_scheme("baseline"))
        assert len(run.layers) == len(topology)
        assert run.total_cycles > 0

    def test_layer_time_is_max_of_resources(self, pipeline, topology):
        run = pipeline.run(topology, make_scheme("baseline"))
        for timing in run.layers:
            assert timing.total_cycles == max(
                timing.compute_cycles, timing.dram_cycles,
                timing.crypto_cycles)
            assert timing.bottleneck in ("compute", "memory", "crypto")

    def test_no_metadata(self, pipeline, topology):
        run = pipeline.run(topology, make_scheme("baseline"))
        assert run.metadata_bytes == 0

    def test_time_conversion(self, pipeline, topology):
        run = pipeline.run(topology, make_scheme("baseline"))
        assert run.total_time_ms == pytest.approx(
            run.total_cycles / (pipeline.npu.freq_ghz * 1e6))


class TestProtectedRuns:
    def test_scheme_adds_time(self, pipeline, topology):
        baseline = pipeline.run(topology, make_scheme("baseline"))
        sgx = pipeline.run(topology, make_scheme("sgx-64b"))
        assert sgx.total_cycles >= baseline.total_cycles
        assert sgx.metadata_bytes > 0

    def test_model_run_reuse(self, pipeline, topology):
        model_run = pipeline.simulate_model(topology)
        a = pipeline.run(topology, make_scheme("seda"), model_run=model_run)
        b = pipeline.run(topology, make_scheme("seda"), model_run=model_run)
        assert a.total_cycles == b.total_cycles

    def test_bottleneck_histogram(self, pipeline, topology):
        run = pipeline.run(topology, make_scheme("baseline"))
        histogram = run.bottleneck_histogram()
        assert sum(histogram.values()) == len(run.layers)


class TestBottleneckTieBreak:
    def _timing(self, compute, dram, crypto):
        from repro.core.pipeline import LayerTiming
        return LayerTiming(layer_id=0, layer_name="t",
                           compute_cycles=compute, dram_cycles=dram,
                           crypto_cycles=crypto, data_bytes=0,
                           metadata_bytes=0, row_hit_rate=0.0)

    def test_compute_wins_exact_tie_with_dram(self):
        assert self._timing(100.0, 100.0, 0.0).bottleneck == "compute"

    def test_memory_wins_tie_with_crypto(self):
        assert self._timing(10.0, 100.0, 100.0).bottleneck == "memory"

    def test_three_way_tie_is_compute(self):
        assert self._timing(100.0, 100.0, 100.0).bottleneck == "compute"


class _EmptyStreamScheme:
    """A degenerate scheme: real layers that emit no DRAM traffic at
    all.  Before ``LayerProtection.is_flush`` the pipeline classified
    these by their empty data streams and mislabelled them as
    ``(flush:N)`` rows with zero compute."""

    name = "empty-stream"

    def protect_model(self, run, window=None):
        from repro.protection.base import LayerProtection
        if window is not None:
            return [LayerProtection(layer_id=window.layer.layer_id)]
        return [LayerProtection(layer_id=layer.layer_id)
                for layer in run.layers]

    def crypto_engine(self):
        return None


class TestFlushAccounting:
    def test_sgx_flush_layer_present(self, pipeline, topology):
        """Dirty metadata evictions at end-of-model become a tail entry."""
        run = pipeline.run(topology, make_scheme("sgx-64b"))
        assert len(run.layers) >= len(topology)

    def test_flush_tail_is_explicit(self, pipeline, topology):
        run = pipeline.run(topology, make_scheme("sgx-64b"))
        for timing in run.layers[len(topology):]:
            assert timing.layer_name.startswith("(flush:")
            assert timing.compute_cycles == 0.0

    def test_real_layer_with_empty_streams_keeps_identity(self, pipeline,
                                                          topology):
        """A real layer whose streams happen to be empty is not a flush:
        it keeps its name and its compute cycles."""
        run = pipeline.run(topology, _EmptyStreamScheme())
        assert [t.layer_name for t in run.layers] == \
            [layer.name for layer in topology]
        for timing in run.layers:
            assert timing.compute_cycles > 0.0
            assert not timing.layer_name.startswith("(flush:")
