"""The DRAM walk's key column: block streams walked as packed keys.

The native walk reads a block stream through its packed DRAM key
column (``native.dram_keys``: row above global bank, plus the side's
per-channel request counts), computed the first time the stream is
walked under a mapping and kept on it, and any other side (metadata
traffic) through its addresses. These tests pin the key kernel to its
numpy twin ``AddressMapping.keys``, the walk over packed sides to
``DramSim._walk_numpy`` and the event-driven oracle, and the sharing
itself: a cell decomposes each window's data blocks once, for every
scheme.
"""

import numpy as np
import pytest

from repro import obs
from repro.accel import trace as trace_module
from repro.core import pipeline as pipeline_module
from repro.core.config import npu_config
from repro.core.metrics import compare_schemes
from repro.core.pipeline import Pipeline
from repro.dram.mapping import AddressMapping
from repro.dram.simulator import DramSim
from repro.dram.timing import EDGE_DRAM, SERVER_DRAM, DramConfig
from repro.models.zoo import get_workload
from repro.protection import SCHEME_NAMES
from repro.protection.metadata_model import CacheTrafficResult
from repro.utils import native
from tests.dram import oracle
from tests.streams import stream_from_lists

#: A mapping with other shifts than the server's and the edge's (which
#: share theirs): eight channels of eight banks.
WIDE_DRAM = DramConfig(total_bandwidth_gbps=20.0, channels=8,
                       banks_per_channel=8)


@pytest.fixture(autouse=True)
def _needs_kernel():
    if not native.available():
        pytest.skip("no native kernel in this environment")


def _counted(fn, *args):
    recorder = obs.Recorder()
    previous = obs.install(recorder)
    try:
        return fn(*args), dict(recorder.counters)
    finally:
        obs.install(previous)


def _blocks(rng, n, sort=True, cycles=None):
    if cycles is None:
        cycles = rng.integers(0, 3_000, n)
        cycles = np.sort(cycles) if sort else cycles
    return stream_from_lists(
        cycles, rng.integers(0, 1 << 22, n).astype(np.uint64) * 64,
        rng.integers(0, 2, n).astype(bool), layer_id=0)


def _metadata(cycles, addrs):
    """A metadata side, walked through its addresses."""
    out = CacheTrafficResult()
    n = len(cycles)
    out.extend_arrays(np.asarray(cycles, np.int64),
                      np.asarray(addrs, np.int64), np.zeros(n, bool))
    return out


def _oracle(config, sides):
    """The oracle over the sides' concatenation (it serves blocks in a
    stable cycle order, the walk's ``(cycle, side)`` merge)."""
    cycles = np.concatenate([np.asarray(s.cycles, np.int64) for s in sides])
    addrs = np.concatenate([np.asarray(s.addrs).astype(np.uint64)
                            for s in sides])
    return oracle.simulate(config, 1.0, stream_from_lists(
        cycles, addrs, np.zeros(len(cycles), bool), layer_id=0))


def _serve_both_tiers(config, sides, monkeypatch):
    """The native walk's result and counters, then the numpy twin's
    result on the same sides."""
    sim = DramSim(config, freq_ghz=1.0)
    (got,), counters = _counted(sim.simulate_fast_batch_parts, [sides])
    with monkeypatch.context() as patch:
        patch.setattr(native, "_load", lambda: None)
        (want,) = sim.simulate_fast_batch_parts([sides])
    return got, want, counters


class TestDramKeys:
    """``native.dram_keys`` against its numpy twin."""

    @pytest.mark.parametrize("config", [SERVER_DRAM, WIDE_DRAM],
                             ids=["server", "wide"])
    def test_kernel_matches_numpy_twin(self, config):
        rng = np.random.default_rng(5)
        # Block addresses across the whole uint64 range: rows that
        # come out negative as int64 round-trip through the packing.
        addrs = rng.integers(0, 1 << 57, 4_000, dtype=np.uint64) \
            * np.uint64(64)
        cycles = np.sort(rng.integers(0, 1 << 40, len(addrs)))
        sim = DramSim(config, freq_ghz=1.0)
        (keys, requests, ascending), counters = _counted(
            native.dram_keys, addrs, cycles, sim._shifts)
        assert counters == {"native.dram_keys.kernel": 1}
        mapping = AddressMapping(config)
        np.testing.assert_array_equal(keys, mapping.keys(addrs))
        channels, _, rows = mapping.decompose(addrs)
        np.testing.assert_array_equal(
            keys >> int(np.log2(config.channels * config.banks_per_channel)),
            rows)
        np.testing.assert_array_equal(
            requests, np.bincount(channels, minlength=config.channels))
        assert ascending

    def test_descending_cycles_are_reported(self):
        rng = np.random.default_rng(9)
        addrs = rng.integers(0, 1 << 22, 50).astype(np.uint64) * 64
        cycles = np.sort(rng.integers(0, 100, 50))
        cycles[30], cycles[31] = cycles[31] + 1, cycles[30]
        shifts = DramSim(SERVER_DRAM, 1.0)._shifts
        assert not native.dram_keys(addrs, cycles, shifts)[2]
        assert native.dram_keys(addrs[:0], cycles[:0], shifts)[2]

    def test_twin_rejects_a_non_power_of_two_mapping(self):
        config = DramConfig(total_bandwidth_gbps=20.0, channels=3)
        with pytest.raises(ValueError, match="power-of-two"):
            AddressMapping(config).keys(np.zeros(1, np.uint64))


class TestPackedWalk:
    """Walks over packed data sides (and metadata sides by address)
    against the numpy twin and the oracle."""

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_equal_cycles_across_the_data_metadata_boundary(
            self, seed, monkeypatch):
        rng = np.random.default_rng(seed)
        data = _blocks(rng, 800, cycles=np.sort(rng.integers(0, 60, 800)))
        # Metadata events on the data's own cycles, on rows of the banks
        # the data uses: the data-first tie order decides the conflicts.
        picks = np.sort(rng.choice(800, 120, replace=False))
        meta = _metadata(data.cycles[picks],
                         data.addrs[picks].astype(np.int64) + (1 << 24))
        sides = (data, meta)
        got, want, counters = _serve_both_tiers(SERVER_DRAM, sides,
                                                monkeypatch)
        assert counters["native.dram_keys.kernel"] == 1
        assert "dram.unsorted_side" not in counters
        assert got == want
        ref = _oracle(SERVER_DRAM, sides)
        assert got.per_channel_requests == ref.per_channel_requests
        assert got.per_channel_row_misses == ref.per_channel_row_misses

    def test_an_empty_data_side(self, monkeypatch):
        rng = np.random.default_rng(4)
        empty = _blocks(rng, 0)
        overfetch = _blocks(rng, 300)
        meta = _metadata(np.sort(rng.integers(0, 3_000, 40)),
                         rng.integers(0, 1 << 22, 40) * 64)
        sides = (empty, overfetch, meta)
        got, want, counters = _serve_both_tiers(SERVER_DRAM, sides,
                                                monkeypatch)
        # Only the non-empty block stream is keyed.
        assert counters["native.dram_keys.kernel"] == 1
        assert got == want
        assert got.row_misses == _oracle(SERVER_DRAM, sides[1:]).row_misses

    def test_a_descending_data_side_is_sorted_and_walked_again(
            self, monkeypatch):
        rng = np.random.default_rng(6)
        data = _blocks(rng, 500, sort=False)
        meta = _metadata(np.sort(rng.integers(0, 3_000, 80)),
                         rng.integers(0, 1 << 22, 80) * 64)
        sides = (data, meta)
        got, want, counters = _serve_both_tiers(SERVER_DRAM, sides,
                                                monkeypatch)
        assert counters["dram.unsorted_side"] == 1
        assert counters["native.dram_walk.kernel"] == 2
        assert got == want
        ref = _oracle(SERVER_DRAM, sides)
        assert (got.requests, got.row_misses) == (ref.requests,
                                                  ref.row_misses)

    def test_one_stream_under_several_mappings(self, monkeypatch):
        """The key column is kept per mapping: the server and edge
        mappings share shifts and so one column, a wider mapping
        computes its own, and every walk matches its twin."""
        rng = np.random.default_rng(8)
        data = _blocks(rng, 600)
        calls = []
        for config in (SERVER_DRAM, EDGE_DRAM, WIDE_DRAM, SERVER_DRAM):
            got, want, counters = _serve_both_tiers(config, (data,),
                                                    monkeypatch)
            calls.append(counters.get("native.dram_keys.kernel", 0))
            assert got == want
            ref = _oracle(config, (data,))
            assert got.per_channel_row_misses == ref.per_channel_row_misses
        assert calls == [1, 0, 1, 1]


def _keyed_cell(monkeypatch, scheme_names):
    """Run server resnet18 in windows of 2^12 blocks (which cut most
    layers several times) under ``scheme_names``; return the address
    arrays the key kernel decomposed, the cell's windows, the DRAM
    entries served and the obs counters."""
    monkeypatch.setattr(trace_module, "WINDOW_BLOCKS", 1 << 12)
    keyed = []
    real_keys = native.dram_keys

    def spy_keys(addrs, cycles, shifts):
        keyed.append(addrs)
        return real_keys(addrs, cycles, shifts)

    windows, entries = [], []
    real_run = Pipeline.run
    real_serve = DramSim.simulate_fast_batch_parts

    def spy_run(self, topology, scheme, model_run=None, collect=None,
                window=None):
        if window is not None and not any(w is window for w in windows):
            windows.append(window)
        return real_run(self, topology, scheme, model_run, collect, window)

    def spy_serve(self, part_lists, states=None):
        entries.extend(part_lists)
        return real_serve(self, part_lists, states)

    monkeypatch.setattr(native, "dram_keys", spy_keys)
    monkeypatch.setattr(pipeline_module.Pipeline, "run", spy_run)
    monkeypatch.setattr(DramSim, "simulate_fast_batch_parts", spy_serve)
    pipe = Pipeline(npu_config("server"))
    _, counters = _counted(compare_schemes, pipe,
                           get_workload("resnet18"), scheme_names)
    return keyed, windows, entries, counters


class TestOneDecompositionPerWindow:
    def test_server_resnet18_keys_each_data_window_once(self, monkeypatch):
        """Over a whole cell, the key kernel runs once per window's data
        blocks however many schemes walk them, while ``dram_walk``
        still runs once per (window, scheme) entry."""
        keyed, windows, entries, counters = _keyed_cell(monkeypatch,
                                                        SCHEME_NAMES)
        data = [w.blocks.addrs for w in windows if len(w.blocks)]
        assert len(data) > 2 * len(get_workload("resnet18").layers)
        keyed_data = [a for a in keyed if any(a is d for d in data)]
        assert len(keyed_data) == len(data)
        assert all(sum(a is d for a in keyed) == 1 for d in data)
        assert counters["native.dram_keys.kernel"] == len(keyed)
        assert counters["native.dram_walk.kernel"] == len(entries)
        assert len(entries) >= len(windows) * (len(SCHEME_NAMES) + 1)

    def test_seda_cell_keys_only_its_data_windows(self, monkeypatch):
        """SeDA's layer-MAC side is metadata, walked by address: a SeDA
        cell keys its data windows and nothing else."""
        keyed, windows, entries, counters = _keyed_cell(monkeypatch,
                                                        ["seda"])
        data = [w.blocks.addrs for w in windows if len(w.blocks)]
        assert len(keyed) == len(data)
        assert all(any(a is d for d in data) for a in keyed)
        assert counters["native.dram_keys.kernel"] == len(data)
        assert counters["native.dram_walk.kernel"] == len(entries)
