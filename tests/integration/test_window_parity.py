"""Windowed serving against the whole-layer oracle.

A sweep cell expands, protects and serves each layer in cycle windows
of at most ``WINDOW_BLOCKS`` blocks (``Trace.windows``): the expansion
cursor, the metadata caches with their open line run, and the DRAM
open-row registers carry from one window to the next. These tests cut
the windows far smaller than production does and check that nothing a
record holds moves: every cell's records equal the cell served with a
single window per layer (one per image segment of a batched layer), the
whole-layer oracle, on both tiers. The cut cases the carries exist for
each get a test of their own.
"""

from types import SimpleNamespace

import numpy as np
import pytest

from repro.accel import trace as trace_module
from repro.accel.simulator import LayerResult, ModelRun
from repro.accel.trace import (
    AccessKind,
    BlockStream,
    Trace,
    TraceRange,
)
from repro.core.config import npu_config
from repro.core.metrics import compare_schemes
from repro.core.pipeline import Pipeline
from repro.dram.simulator import DramSim
from repro.dram.timing import SERVER_DRAM
from repro.models.layer import conv
from repro.models.topology import Topology
from repro.models.zoo import get_workload
from repro.protection import SCHEME_NAMES, make_scheme
from repro.protection.metadata_model import data_sides, layer_windows
from repro.runner.records import comparison_to_dict
from repro.utils import native
from tests.dram import oracle
from tests.streams import merge_sides, overfetch_side, sorted_blocks

#: Window size of the whole-layer oracle: no layer reaches it.
WHOLE = 1 << 62


@pytest.fixture(params=["kernel", "numpy"])
def tier(request, monkeypatch):
    if request.param == "kernel":
        if not native.available():
            pytest.skip("no native kernel in this environment")
    else:
        monkeypatch.setattr(native, "_load", lambda: None)
    return request.param


def _cell(npu, workload, window_blocks, monkeypatch):
    monkeypatch.setattr(trace_module, "WINDOW_BLOCKS", window_blocks)
    result = compare_schemes(Pipeline(npu_config(npu)),
                             get_workload(workload), SCHEME_NAMES)
    return comparison_to_dict(result)


def _windows_per_layer(npu, workload, window_blocks, monkeypatch):
    monkeypatch.setattr(trace_module, "WINDOW_BLOCKS", window_blocks)
    run = Pipeline(npu_config(npu)).simulate_model(get_workload(workload))
    return [len(list(layer_windows(layer))) for layer in run.layers]


class TestZooCells:
    """Records of zoo cells served in small windows equal the oracle's.
    The windows cut every layer of these cells many times over."""

    @pytest.mark.parametrize("npu", ["server", "edge"])
    @pytest.mark.parametrize("workload,window_blocks", [
        ("resnet18", 4096), ("gpt2@s512", 4096), ("alexnet@b3", 4096),
        ("lenet", 64), ("lenet@b3", 5)])
    def test_records_equal_the_whole_layer_oracle(
            self, tier, npu, workload, window_blocks, monkeypatch):
        cuts = _windows_per_layer(npu, workload, window_blocks, monkeypatch)
        assert max(cuts) > 3
        got = _cell(npu, workload, window_blocks, monkeypatch)
        assert got == _cell(npu, workload, WHOLE, monkeypatch)


def _tiny_run(ranges, batch=1, image_cycles=0):
    """A one-layer model run over hand-made ranges, for the schemes
    that need no tiling plan (baseline, SGX and MGX)."""
    layer = SimpleNamespace(name="l0", batch=batch)
    result = LayerResult(layer=layer, layer_id=0, plan=None,
                         compute_cycles=batch * image_cycles,
                         start_cycle=0, trace=Trace(ranges))
    return ModelRun(topology=None, array=None, budget=None,
                    address_map=None, layers=[result])


_TOPOLOGY = SimpleNamespace(name="tiny", batch=1, seq=None)
_CACHE_SCHEMES = ["baseline", "sgx-64b", "mgx-64b", "sgx-512b", "mgx-512b"]


def _records(run_factory, window_blocks, monkeypatch):
    """Every cache scheme's records over one shared model run, served
    window by window across the schemes as a sweep cell does."""
    monkeypatch.setattr(trace_module, "WINDOW_BLOCKS", window_blocks)
    run = run_factory()
    pipeline = Pipeline(npu_config("server"))
    schemes = [make_scheme(name) for name in _CACHE_SCHEMES]
    rows = {name: [] for name in _CACHE_SCHEMES}
    for layer in run.layers:
        for window in layer_windows(layer):
            for name, scheme in zip(_CACHE_SCHEMES, schemes):
                rows[name] += pipeline.run(_TOPOLOGY, scheme, model_run=run,
                                           window=window).layers
    return rows


class TestCutCases:
    def test_line_run_straddling_a_b1_cut(self, tier, monkeypatch):
        """Blocks 0-7 share a metadata line, 8-15 the next; five-block
        windows cut both runs, and a write (blocks 6 and 12) joins each
        run a window after its read-only access, dirtying the lines
        that access touched."""
        ranges = [TraceRange(i, 64 * i, 64, i in (6, 12), AccessKind.IFMAP,
                             0) for i in range(16)]
        run = lambda: _tiny_run(ranges)  # noqa: E731
        monkeypatch.setattr(trace_module, "WINDOW_BLOCKS", 5)
        windows = list(layer_windows(run().layers[0]))
        assert [len(w.blocks) for w in windows] == [5, 5, 5, 1]
        assert _records(run, 5, monkeypatch) == \
            _records(run, WHOLE, monkeypatch)

    def test_equal_cycle_ties_across_all_four_sides_at_a_cut(self):
        """Four sides whose every cycle ties, cut at one of those
        cycles: the walk resumed from the first window's open rows
        counts exactly as one walk (and as the oracle)."""
        rng = np.random.default_rng(5)
        sides = []
        for _ in range(4):
            n = int(rng.integers(20, 120))
            rows = rng.integers(0, 2, n).astype(np.uint64) << np.uint64(20)
            cycles = np.sort(rng.integers(0, 8, n))
            sides.append(BlockStream(cycles, rows, np.zeros(n, bool),
                                     np.zeros(n, np.int32)))
        sim = DramSim(SERVER_DRAM, freq_ghz=1.0)
        whole = sim.simulate_fast_batch_parts([sides])[0]
        for cut in range(1, 8):
            state = sim.walk_state()
            for lo, hi in ((0, cut), (cut, 8)):
                sim.simulate_fast_batch_parts([[
                    BlockStream(*(getattr(side, name)[
                        (side.cycles >= lo) & (side.cycles < hi)]
                        for name in ("cycles", "addrs", "writes",
                                     "layer_ids")))
                    for side in sides]], [state])
            assert sim.finish(state) == whole
        want = oracle.simulate(SERVER_DRAM, 1.0, merge_sides(sides))
        assert (whole.requests, whole.row_misses) == (want.requests,
                                                      want.row_misses)

    def test_cut_inside_a_512b_overfetch_run(self, tier, monkeypatch):
        """Ranges with long over-fetch heads and tails issued across
        many cycles: small windows cut the over-fetch runs, whose
        pieces join to the whole side, and the records stay exact."""
        ranges = [TraceRange(40 * i, 4096 * i + 64, 200, i % 2 == 0,
                             AccessKind.IFMAP, 0, 90) for i in range(12)]
        monkeypatch.setattr(trace_module, "WINDOW_BLOCKS", 3)
        layer = _tiny_run(ranges).layers[0]
        pieces = [data_sides(w, 512)[1] for w in layer_windows(layer)]
        assert sum(len(piece) > 0 for piece in pieces) > 3
        joined = BlockStream.concat(pieces)
        want = overfetch_side(layer.trace, 512)
        assert joined.cycles.tolist() == want.cycles.tolist()
        assert joined.addrs.tolist() == want.addrs.tolist()
        run = lambda: _tiny_run(ranges)  # noqa: E731
        assert _records(run, 3, monkeypatch) == \
            _records(run, WHOLE, monkeypatch)

    def test_image_cuts_at_b3(self, tier, monkeypatch):
        """A b3 layer is cut where images 1 and 2 start, also with
        windows that hold the whole layer; image 2 replays image 1's
        increment window by window."""
        ranges = [TraceRange(image * 100 + 7 * i, (image << 16) + 64 * i,
                             64, i % 3 == 0, AccessKind.IFMAP, 0, 5)
                  for image in range(3) for i in range(12)]
        run = lambda: _tiny_run(ranges, batch=3, image_cycles=100)  # noqa
        whole = list(layer_windows(run().layers[0]))
        assert [w.segment for w in whole] == [0, 1, 2]
        assert [w.lo for w in whole] == [None, 100, 200]
        assert _records(run, 4, monkeypatch) == \
            _records(run, WHOLE, monkeypatch)

    def test_layer_smaller_than_one_window(self, monkeypatch):
        """A layer below ``WINDOW_BLOCKS`` is one window holding its
        whole expansion."""
        monkeypatch.setattr(trace_module, "WINDOW_BLOCKS", 1 << 17)
        run = Pipeline(npu_config("edge")).simulate_model(Topology(
            "t", [conv("c1", 18, 18, 3, 3, 8, 16)]))
        layer = run.layers[0]
        window, = layer_windows(layer)
        assert window.lo is None and window.hi is None and window.last
        assert window.first_block and window.last_cycle is not None
        want = sorted_blocks(layer.trace)
        assert window.blocks.cycles.tolist() == want.cycles.tolist()
        assert window.blocks.addrs.tolist() == want.addrs.tolist()

    def test_empty_window(self, tier, monkeypatch):
        """A b3 layer with no data issued in image 1: its segment is one
        empty window, which still carries the layer's state across."""
        ranges = [TraceRange(cycle, 64 * i, 64, i % 4 == 1,
                             AccessKind.IFMAP, 0, 3)
                  for i, cycle in enumerate([0, 5, 9, 30, 210, 250, 280])]
        run = lambda: _tiny_run(ranges, batch=3, image_cycles=100)  # noqa
        monkeypatch.setattr(trace_module, "WINDOW_BLOCKS", 2)
        windows = list(layer_windows(run().layers[0]))
        empty = [w for w in windows if not len(w.blocks)]
        assert [w.segment for w in empty] == [1]
        assert _records(run, 2, monkeypatch) == \
            _records(run, WHOLE, monkeypatch)
