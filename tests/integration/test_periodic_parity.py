"""The periodic shortcut against the every-window walk.

A batched layer whose gate holds (``periodic_skip``) expands and walks
only its image windows 0, 1 and 2 and the traffic after its last image;
images 3..N-1 repeat window 2's increments and move the DRAM open rows
on by their per-image row strides. These tests switch the shortcut off
(``PERIODIC_SHORTCUT``), which walks every window, and check that no
record moves: zoo cells, a seeded sample of batches, windows cut inside
window 2 and inside the tail, the layers whose last image spills past
its cycles, SeDA's end-of-layer MAC write, and a layout the gate must
refuse.
"""

from types import SimpleNamespace

import numpy as np
import pytest

from repro import obs
from repro.accel import trace as trace_module
from repro.accel.layout import ACT_A_BASE, ACT_B_BASE
from repro.accel.simulator import LayerResult, ModelRun
from repro.accel.trace import AccessKind, ExpandCursor, Trace, TraceRange
from repro.core import pipeline as pipeline_module
from repro.core.config import npu_config
from repro.core.metrics import compare_schemes
from repro.core.pipeline import Pipeline
from repro.models.layer import conv, gemm
from repro.models.topology import Topology
from repro.models.zoo import WORKLOADS, format_workload_spec, get_workload
from repro.protection import SCHEME_NAMES, make_scheme
from repro.protection import metadata_model
from repro.protection.metadata_model import layer_windows, periodic_skip
from repro.runner.records import comparison_to_dict
from repro.utils import native


@pytest.fixture(params=["kernel", "numpy"])
def tier(request, monkeypatch):
    if request.param == "kernel":
        if not native.available():
            pytest.skip("no native kernel in this environment")
    else:
        monkeypatch.setattr(native, "_load", lambda: None)
    return request.param


def _record(npu, topology, shortcut, monkeypatch, pipeline=None):
    monkeypatch.setattr(metadata_model, "PERIODIC_SHORTCUT", shortcut)
    pipeline = pipeline or Pipeline(npu_config(npu))
    return comparison_to_dict(compare_schemes(pipeline, topology,
                                              SCHEME_NAMES))


def _parity(npu, spec, monkeypatch, pipeline=None):
    """The cell's record with and without the shortcut, and the obs
    counters of the run with it (how many layers each way of the gate
    took)."""
    recorder = obs.Recorder()
    previous = obs.install(recorder)
    try:
        got = _record(npu, get_workload(spec), True, monkeypatch, pipeline)
    finally:
        obs.install(previous)
    want = _record(npu, get_workload(spec), False, monkeypatch, pipeline)
    return got, want, recorder.counters


class TestZooCells:
    """Every zoo cell, on the tier this environment runs (CI runs the
    file again with ``REPRO_NO_NATIVE_KERNEL=1``)."""

    @pytest.mark.slow
    @pytest.mark.parametrize("npu", ["server", "edge"])
    @pytest.mark.parametrize("batch", [5, 16])
    def test_records_equal_the_every_window_walk(self, npu, batch,
                                                 monkeypatch):
        for workload in WORKLOADS:
            spec = f"{workload}@b{batch}"
            got, want, counters = _parity(npu, spec, monkeypatch)
            assert got == want, spec
            assert counters.get("periodic.skipped", 0) > 0, spec


class TestSampledCells:
    def test_seeded_sample_of_batches(self, tier, monkeypatch):
        rng = np.random.default_rng(25)
        bases = [("lenet", None), ("resnet18", None), ("dlrm", None),
                 ("mobilenet", None), ("gpt2", 256), ("yolo_tiny", None)]
        for _ in range(4):
            name, seq = bases[int(rng.integers(len(bases)))]
            npu = ["server", "edge"][int(rng.integers(2))]
            spec = format_workload_spec(name, int(rng.integers(4, 65)), seq)
            got, want, _ = _parity(npu, spec, monkeypatch)
            assert got == want, (npu, spec)


def _spill_topology(batch):
    """A conv, then a K-tiled GEMM whose last partial-sum store issues
    at the end of its image's cycles, so every image spills into the
    next image's window and the last image into the tail."""
    return Topology("spill", [
        conv("c1", 18, 18, 3, 3, 8, 16, batch=batch),
        gemm("ff", 256, 2048, 128, batch=batch),
    ])


def _tail_blocks(result):
    """Data blocks of a layer issued at or after its last image ends."""
    cycles, addrs, nbytes, _, _, _, durations = result.trace.buf.arrays()
    _, counts = trace_module.block_spans(addrs, nbytes)
    end = result.start_cycle + result.compute_cycles
    return sum(int((c + np.arange(n) * d // n >= end).sum())
               for c, n, d in zip(cycles.tolist(), counts.tolist(),
                                  durations.tolist()))


#: Image stride of :func:`_spread_run`: one row-set of the server DRAM.
_SLAB = 128 << 10


def _spread_run(batch, image_cycles=1000):
    """A one-layer model run over hand-made ranges: per image, 24 ifmap
    reads through its cycles, then 17 ofmap stores of 60 cycles each,
    the last reaching 40 cycles into the next image's."""
    ranges = []
    for image in range(batch):
        begin = image * image_cycles
        ranges += [TraceRange(begin + 40 * t, ACT_A_BASE + image * _SLAB
                              + 4096 * t, 4096, False, AccessKind.IFMAP, 0,
                              40) for t in range(24)]
        ranges += [TraceRange(begin + 60 * t + 20, ACT_B_BASE
                              + image * _SLAB + 2048 * t, 2048, True,
                              AccessKind.OFMAP, 0, 60) for t in range(17)]
    layer = SimpleNamespace(name="l0", batch=batch,
                            ifmap_bytes_per_image=24 * 4096,
                            ofmap_bytes_per_image=17 * 2048, kv=False)
    result = LayerResult(layer=layer, layer_id=0, plan=None,
                         compute_cycles=batch * image_cycles, start_cycle=0,
                         trace=Trace(ranges))
    address_map = SimpleNamespace(
        image_stride=lambda nbytes: _SLAB if nbytes > 0 else 0,
        kv_image_stride=0)
    return ModelRun(topology=None, array=None, budget=None,
                    address_map=address_map, layers=[result], batch=batch)


_TOPOLOGY = SimpleNamespace(name="tiny", batch=1, seq=None)
_CACHE_SCHEMES = ["baseline", "sgx-64b", "mgx-64b", "sgx-512b", "mgx-512b"]


def _cache_records(run_factory, shortcut, window_blocks, monkeypatch):
    """Every cache scheme's records over one shared model run, served
    window by window across the schemes as a sweep cell does."""
    monkeypatch.setattr(metadata_model, "PERIODIC_SHORTCUT", shortcut)
    monkeypatch.setattr(trace_module, "WINDOW_BLOCKS", window_blocks)
    run = run_factory()
    pipeline = Pipeline(npu_config("server"))
    schemes = [make_scheme(name) for name in _CACHE_SCHEMES]
    rows = {name: [] for name in _CACHE_SCHEMES}
    for layer in run.layers:
        for window in pipeline.layer_windows(run, layer):
            for name, scheme in zip(_CACHE_SCHEMES, schemes):
                rows[name] += pipeline.run(_TOPOLOGY, scheme, model_run=run,
                                           window=window).layers
    return rows


class TestCutCases:
    def test_spill_layer_has_a_tail(self):
        run = Pipeline(npu_config("edge")).simulate_model(_spill_topology(5))
        assert run.layers[1].plan.is_k_tiled
        assert _tail_blocks(run.layers[1]) > 0

    @pytest.mark.parametrize("batch", [4, 7])
    def test_tiny_windows_inside_window_2(self, tier, batch, monkeypatch):
        """200-block windows cut window 2 of the spill layer many
        times; its tail (one issue cycle) is one window. The records
        equal the every-window walk with one window per segment."""
        pipeline = Pipeline(npu_config("edge"))
        topology = _spill_topology(batch)
        monkeypatch.setattr(trace_module, "WINDOW_BLOCKS", 200)
        monkeypatch.setattr(metadata_model, "PERIODIC_SHORTCUT", True)
        run = pipeline.simulate_model(topology)
        windows = list(pipeline.layer_windows(run, run.layers[1]))
        assert [w.segment for w in windows].count(2) > 3
        assert sum(len(w.blocks) for w in windows if w.segment == 4) > 0
        assert [w.skip is not None for w in windows].count(True) == 1
        got = _record("edge", topology, True, monkeypatch, pipeline)
        monkeypatch.setattr(trace_module, "WINDOW_BLOCKS", 1 << 62)
        assert got == _record("edge", topology, False, monkeypatch, pipeline)

    @pytest.mark.parametrize("batch", [4, 9])
    def test_tiny_windows_inside_a_spread_tail(self, tier, batch,
                                               monkeypatch):
        """A hand-made layer whose every image ends with an ofmap store
        spread over 60 cycles, 40 of them in the next image's: 5-block
        windows cut window 2 and the tail many times over."""
        run = lambda: _spread_run(batch)  # noqa: E731
        monkeypatch.setattr(trace_module, "WINDOW_BLOCKS", 5)
        monkeypatch.setattr(metadata_model, "PERIODIC_SHORTCUT", True)
        pipeline = Pipeline(npu_config("server"))
        model_run = run()
        windows = list(pipeline.layer_windows(model_run,
                                              model_run.layers[0]))
        segments = [w.segment for w in windows]
        assert segments.count(2) > 3 and segments.count(4) > 3
        assert [w.skip is not None for w in windows].count(True) == 1
        got = _cache_records(run, True, 5, monkeypatch)
        assert got == _cache_records(run, False, 1 << 62, monkeypatch)

    @pytest.mark.parametrize("npu,spec", [
        ("edge", "deepspeech2@b5"), ("edge", "transformer_fwd@b6")])
    def test_zoo_layers_spilling_past_the_last_image(self, tier, npu, spec,
                                                     monkeypatch):
        got, want, counters = _parity(npu, spec, monkeypatch)
        assert got == want
        assert counters.get("periodic.walked", 0) == 0

    def test_seda_end_write_after_an_empty_tail(self, monkeypatch):
        """A layer without a spill ends inside its last image, which is
        skipped: SeDA's end-of-layer MAC write moves to the empty tail
        window, at the last block's cycle, and adds one request."""
        pipeline = Pipeline(npu_config("server"))
        run = pipeline.simulate_model(get_workload("lenet@b8"))
        layer = run.layers[0]
        assert _tail_blocks(layer) == 0
        monkeypatch.setattr(metadata_model, "PERIODIC_SHORTCUT", False)
        want = [w.last_cycle for w in layer_windows(layer)
                if w.last_cycle is not None]
        monkeypatch.setattr(metadata_model, "PERIODIC_SHORTCUT", True)
        windows = list(pipeline.layer_windows(run, layer))
        tail = windows[-1]
        assert len(tail.blocks) == 0
        assert [w.last_cycle for w in windows
                if w.last_cycle is not None] == want == [tail.last_cycle]
        got, expect, _ = _parity("server", "lenet@b8", monkeypatch)
        assert got == expect


class TestGate:
    def test_raw_packed_alexnet_walks_every_window(self, monkeypatch):
        """Raw packing (``image_align=1``) leaves alexnet's image strides
        off the DRAM row-set: those layers fall back, counted, and the
        records still equal the every-window walk."""
        pipeline = Pipeline(npu_config("server"), image_align=1)
        got, want, counters = _parity("server", "alexnet@b4", monkeypatch,
                                      pipeline)
        assert got == want
        assert counters.get("periodic.walked", 0) > 0

    def test_unbatched_and_b3_layers_are_not_gated(self):
        pipeline = Pipeline(npu_config("server"))
        for spec in ("lenet", "lenet@b3"):
            run = pipeline.simulate_model(get_workload(spec))
            assert all(periodic_skip(layer, run.address_map,
                                     pipeline.dram.config) is None
                       for layer in run.layers)

    def test_open_row_advance_equals_the_observed_one(self, monkeypatch):
        """The region-stride advance of a skip equals, per bank, the
        open-row change window 2 made (E2 - E1) times the images it
        stands for."""
        seen = []
        totals_rows = {}
        begin, repeat = (pipeline_module._LayerTotals.begin,
                         pipeline_module._LayerTotals.repeat)

        def on_begin(totals, segment):
            if segment == 2 and totals.segment != 2:
                totals_rows[id(totals)] = totals.walk.open_rows().copy()
            begin(totals, segment)

        def on_repeat(totals, skip):
            before = totals.walk.open_rows().copy()
            repeat(totals, skip)
            seen.append((totals_rows[id(totals)], before,
                         totals.walk.open_rows().copy(), skip.times))

        monkeypatch.setattr(pipeline_module._LayerTotals, "begin", on_begin)
        monkeypatch.setattr(pipeline_module._LayerTotals, "repeat",
                            on_repeat)
        for npu, spec in (("server", "resnet18@b9"),
                          ("edge", "gpt2@b5@s256"), ("server", "alexnet@b6")):
            compare_schemes(Pipeline(npu_config(npu)), get_workload(spec),
                            SCHEME_NAMES)
        assert len(seen) > 50
        moved = 0
        for e1, e2, after, times in seen:
            assert np.array_equal(after - e2, times * (e2 - e1))
            moved += int((after != e2).sum())
        assert moved > 0


class TestCost:
    @pytest.mark.slow
    def test_b64_expands_no_more_blocks_than_b4(self, monkeypatch):
        """Full simulation of server ``fasterrcnn@b64`` expands images
        0-2 and the tail of each layer, as ``@b4`` does: never more
        blocks, whatever the batch."""
        take = ExpandCursor.take
        expanded = []

        def counted(cursor, stop, cap):
            out = take(cursor, stop, cap)
            expanded[-1] += len(out)
            return out

        monkeypatch.setattr(ExpandCursor, "take", counted)
        for spec in ("fasterrcnn@b4", "fasterrcnn@b64"):
            expanded.append(0)
            topology = get_workload(spec)
            recorder = obs.Recorder()
            previous = obs.install(recorder)
            try:
                compare_schemes(Pipeline(npu_config("server")), topology,
                                SCHEME_NAMES)
            finally:
                obs.install(previous)
            assert recorder.counters.get("periodic.skipped") == \
                len(topology)
        b4, b64 = expanded
        assert 0 < b64 <= b4
