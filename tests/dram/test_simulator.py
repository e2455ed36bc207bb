"""DRAM timing: the per-layer counter against the event-driven oracle."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.accel.trace import BlockStream
from repro.dram.simulator import DramSim
from repro.dram.timing import DramConfig, SERVER_DRAM
from repro.utils import native
from tests.dram import oracle
from tests.streams import stream_from_lists


def _stream(addrs, cycles=None, writes=None):
    n = len(addrs)
    return stream_from_lists(
        np.zeros(n, np.int64) if cycles is None else cycles, addrs,
        np.zeros(n, bool) if writes is None else writes, layer_id=0)


def _random_stream(rng, n, sort_cycles=False):
    cycles = rng.integers(0, 4_000, n)
    return _stream(rng.integers(0, 1 << 22, n).astype(np.uint64) * 64,
                   cycles=np.sort(cycles) if sort_cycles else cycles,
                   writes=rng.integers(0, 2, n).astype(bool))


def _assert_matches_oracle(got, stream):
    """Integer counts exact, busy time to float tolerance (the oracle
    rounds the overlap discount in a different order)."""
    ref = oracle.simulate(SERVER_DRAM, 1.0, stream)
    assert got.requests == ref.requests
    assert got.row_hits == ref.row_hits
    assert got.row_misses == ref.row_misses
    assert got.per_channel_requests == ref.per_channel_requests
    assert got.per_channel_row_misses == ref.per_channel_row_misses
    assert got.busy_cycles == pytest.approx(ref.busy_cycles, rel=1e-9)


@pytest.fixture
def sim():
    return DramSim(SERVER_DRAM, freq_ghz=1.0)


@pytest.fixture(params=["native", "numpy"])
def tier(request, monkeypatch):
    """Run a test on the native kernels, then with them patched off."""
    if request.param == "native" and not native.available():
        pytest.skip("no native kernel in this environment")
    if request.param == "numpy":
        monkeypatch.setattr(native, "_load", lambda: None)
    return request.param


class TestEmptyAndTrivial:
    def test_empty_stream(self, sim):
        result = oracle.simulate(SERVER_DRAM, 1.0, _stream([]))
        assert result.requests == 0
        assert result.busy_cycles == 0.0
        fast = sim.simulate_fast(_stream([]))
        assert fast.requests == 0
        assert fast.busy_cycles == 0.0

    def test_single_request(self, sim):
        result = oracle.simulate(SERVER_DRAM, 1.0, _stream([0]))
        assert result.requests == 1
        assert result.row_misses == 1  # cold row buffer
        assert result.completion_cycle > 0
        _assert_matches_oracle(sim.simulate_fast(_stream([0])), _stream([0]))


class TestRowBufferBehaviour:
    def test_sequential_mostly_hits(self, sim):
        addrs = np.arange(4096, dtype=np.uint64) * 64
        result = sim.simulate_fast(_stream(addrs))
        assert result.row_hit_rate > 0.9

    def test_random_mostly_misses(self, sim):
        rng = np.random.default_rng(7)
        addrs = rng.integers(0, 1 << 22, 4096).astype(np.uint64) * 64
        result = sim.simulate_fast(_stream(addrs))
        assert result.row_hit_rate < 0.2

    def test_interleaved_streams_thrash(self, sim):
        """Alternating far-apart regions in the same banks adds misses."""
        a = np.arange(1024, dtype=np.uint64) * 64
        b = a + (1 << 30)
        interleaved = np.empty(2048, dtype=np.uint64)
        interleaved[0::2] = a
        interleaved[1::2] = b
        seq = sim.simulate_fast(_stream(np.concatenate([a, b])))
        mix = sim.simulate_fast(_stream(interleaved))
        assert mix.row_misses > seq.row_misses

    def test_repeated_same_block_hits(self, sim):
        addrs = np.zeros(100, dtype=np.uint64)
        result = sim.simulate_fast(_stream(addrs))
        assert result.row_misses == 1


class TestFastVsReference:
    """The counter against the event-driven oracle."""

    @given(st.lists(st.integers(0, 1 << 20), min_size=1, max_size=300))
    @settings(max_examples=30, deadline=None)
    def test_miss_counts_agree(self, blocks):
        sim = DramSim(SERVER_DRAM, freq_ghz=1.0)
        stream = _stream(np.asarray(blocks, dtype=np.uint64) * 64)
        ref = oracle.simulate(SERVER_DRAM, 1.0, stream)
        fast = sim.simulate_fast(stream)
        assert ref.row_misses == fast.row_misses
        assert ref.row_hits == fast.row_hits

    @given(st.lists(st.integers(0, 1 << 16), min_size=1, max_size=300))
    @settings(max_examples=30, deadline=None)
    def test_busy_times_agree(self, blocks):
        """Both account identical per-channel busy time."""
        sim = DramSim(SERVER_DRAM, freq_ghz=1.0)
        stream = _stream(np.asarray(blocks, dtype=np.uint64) * 64)
        ref = oracle.simulate(SERVER_DRAM, 1.0, stream)
        fast = sim.simulate_fast(stream)
        assert ref.busy_cycles == pytest.approx(fast.busy_cycles, rel=1e-9)

    def test_completion_bounds_busy(self):
        addrs = np.arange(2000, dtype=np.uint64) * 64
        ref = oracle.simulate(SERVER_DRAM, 1.0, _stream(addrs))
        assert ref.completion_cycle >= ref.busy_cycles

    def test_randomized_mixed_traffic_agreement(self, sim):
        """Random addresses, cycles and writes: the counter matches the
        oracle's hit/miss classification exactly and its busy
        accounting to float tolerance."""
        rng = np.random.default_rng(1234)
        for _ in range(10):
            n = int(rng.integers(1, 2000))
            addrs = rng.integers(0, 1 << 26, n).astype(np.uint64) * 64
            cycles = rng.integers(0, 10_000, n)
            writes = rng.integers(0, 2, n).astype(bool)
            stream = _stream(addrs, cycles=cycles, writes=writes)
            _assert_matches_oracle(sim.simulate_fast(stream), stream)

    @pytest.mark.parametrize("seed", [5, 17, 41])
    def test_randomized_pairs_agree(self, seed, tier):
        """(data, metadata) entries, including an empty side, match the
        oracle on the concatenated stream."""
        rng = np.random.default_rng(seed)
        sizes = [(int(rng.integers(1, 1500)), int(rng.integers(1, 500)))
                 for _ in range(6)] + [(700, 0), (0, 300), (0, 0)]
        part_lists = [(_random_stream(rng, n, sort_cycles=True),
                       _random_stream(rng, m)) for n, m in sizes]
        sim = DramSim(SERVER_DRAM, freq_ghz=1.0)
        got = sim.simulate_fast_batch_parts(part_lists)
        assert len(got) == len(part_lists)
        for parts, result in zip(part_lists, got):
            _assert_matches_oracle(result, BlockStream.concat(parts))

    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    def test_k_sides_agree(self, k, tier):
        """Entries of k cycle-sorted sides (data, over-fetch, MAC, VN)
        drawn from a few cycles, so every cycle ties across all sides,
        match the oracle on the sides' concatenation; an empty side
        anywhere changes nothing."""
        rng = np.random.default_rng(k)
        sim = DramSim(SERVER_DRAM, freq_ghz=1.0)
        part_lists = []
        for _ in range(5):
            part_lists.append([_stream(
                rng.integers(0, 1 << 16, n).astype(np.uint64) * 64,
                cycles=np.sort(rng.integers(0, 12, n)))
                for n in rng.integers(1, 400, k)])
        part_lists.append([_stream([])] + part_lists[0][1:])
        got = sim.simulate_fast_batch_parts(part_lists)
        for parts, result in zip(part_lists, got):
            _assert_matches_oracle(result, BlockStream.concat(parts))

    def test_equal_cycles_keep_stream_order(self, tier):
        """Long runs of same-cycle accesses to one bank on both sides:
        only the stream's own order within a cycle (data first, then
        metadata, each in position order) gives the oracle's conflict
        count."""
        sim = DramSim(SERVER_DRAM, freq_ghz=1.0)
        rng = np.random.default_rng(3)
        rows = SERVER_DRAM.blocks_per_row * SERVER_DRAM.banks_per_channel

        def bank0(n, row_ids):
            row = rng.choice(row_ids, n)
            col = rng.integers(0, SERVER_DRAM.blocks_per_row, n)
            addrs = (row * rows + col) * SERVER_DRAM.channels * 64
            return _stream(addrs, cycles=np.sort(rng.integers(0, 40, n)))

        data, meta = bank0(1000, [0, 1]), bank0(500, [1, 2])
        got = sim.simulate_fast_batch_parts([(data, meta)])[0]
        _assert_matches_oracle(got, BlockStream.concat([data, meta]))

    def test_non_power_of_two_mapping(self):
        """Three channels and six banks leave the shift-based kernel out;
        the numpy twin serves the entry and matches the oracle."""
        cfg = DramConfig(total_bandwidth_gbps=20.0, channels=3,
                         banks_per_channel=6)
        sim = DramSim(cfg, freq_ghz=1.0)
        rng = np.random.default_rng(23)
        parts = (_random_stream(rng, 900, sort_cycles=True),
                 _random_stream(rng, 300, sort_cycles=True))
        got = sim.simulate_fast_batch_parts([parts])[0]
        ref = oracle.simulate(cfg, 1.0, BlockStream.concat(parts))
        assert got.per_channel_requests == ref.per_channel_requests
        assert got.per_channel_row_misses == ref.per_channel_row_misses
        assert got.busy_cycles == pytest.approx(ref.busy_cycles, rel=1e-9)


class TestBatchedFastModel:
    def test_batch_matches_per_stream(self, sim):
        rng = np.random.default_rng(7)
        streams = [_random_stream(rng, int(rng.integers(0, 1500)))
                   for _ in range(8)]
        batch = sim.simulate_fast_batch_parts([(s,) for s in streams])
        for stream, got in zip(streams, batch):
            _assert_matches_oracle(got, stream)

    def test_batch_parts_match_concatenation(self, sim):
        rng = np.random.default_rng(9)
        part_lists, combined = [], []
        for _ in range(5):
            parts = [_random_stream(rng, int(rng.integers(0, 800)))
                     for _ in range(2)]
            part_lists.append(parts)
            combined.append(BlockStream.concat(parts))
        got = sim.simulate_fast_batch_parts(part_lists)
        for g, stream in zip(got, combined):
            assert g == sim.simulate_fast(stream)

    def test_batch_empty_streams(self, sim):
        results = sim.simulate_fast_batch_parts(
            [(_stream([]),), (_stream([0, 64]),)])
        assert results[0].requests == 0
        assert results[1].requests == 2

    def test_more_than_four_parts_rejected(self, sim):
        parts = [_stream([64 * i]) for i in range(5)]
        with pytest.raises(ValueError, match="at most 4 sides"):
            sim.simulate_fast_batch_parts([parts])


class TestLargeCycles:
    """The walk compares cycles and never packs them into a sort key,
    so no issue cycle is too large to serve."""

    @pytest.mark.parametrize("last", [2 ** 41, 2 ** 62])
    def test_large_cycles_serve(self, tier, last):
        sim = DramSim(SERVER_DRAM, freq_ghz=1.0)
        data = _stream([0, 64, 1 << 20], cycles=[0, last - 1, last])
        meta = _stream([1 << 30, 128], cycles=[last - 1, last])
        got = sim.simulate_fast_batch_parts([(data, meta)])[0]
        _assert_matches_oracle(got, BlockStream.concat([data, meta]))


class TestNativeBatchTiers:
    """The native issue-order walk must match its numpy twin bit for
    bit, on cycle-sorted sides (the production shape) and on unsorted
    ones (the kernel reports the descent and the side is sorted)."""

    def _part_lists(self, seed):
        rng = np.random.default_rng(seed)
        part_lists = []
        for _ in range(6):
            # A cycle-sorted data part plus an unsorted metadata part,
            # which makes the kernel sort that side and walk again.
            parts = [_random_stream(rng, int(rng.integers(1, 1200)),
                                    sort_cycles=True)]
            m = int(rng.integers(0, 400))
            if m:
                parts.append(_random_stream(rng, m))
            part_lists.append(parts)
        return part_lists

    @pytest.mark.parametrize("seed", [3, 11, 29])
    def test_native_matches_numpy(self, seed, monkeypatch):
        if not native.available():
            pytest.skip("no native kernel in this environment")
        sim = DramSim(SERVER_DRAM, freq_ghz=1.0)
        got = sim.simulate_fast_batch_parts(self._part_lists(seed))
        monkeypatch.setattr(native, "_load", lambda: None)
        want = sim.simulate_fast_batch_parts(self._part_lists(seed))
        for g, w in zip(got, want):
            assert g == w

    def test_native_matches_reference_model(self):
        """End to end against the oracle: the active tier classifies
        hits/misses exactly."""
        sim = DramSim(SERVER_DRAM, freq_ghz=1.0)
        part_lists = self._part_lists(17)
        batch = sim.simulate_fast_batch_parts(part_lists)
        for parts, got in zip(part_lists, batch):
            _assert_matches_oracle(got, BlockStream.concat(parts))


class TestBandwidthScaling:
    def test_busy_scales_with_bandwidth(self):
        addrs = np.arange(4096, dtype=np.uint64) * 64
        fast_cfg = DramConfig(total_bandwidth_gbps=40.0)
        slow_cfg = DramConfig(total_bandwidth_gbps=10.0)
        fast = DramSim(fast_cfg, 1.0).simulate_fast(_stream(addrs))
        slow = DramSim(slow_cfg, 1.0).simulate_fast(_stream(addrs))
        assert slow.busy_cycles > 3.5 * fast.busy_cycles

    def test_frequency_scaling(self):
        addrs = np.arange(1024, dtype=np.uint64) * 64
        base = DramSim(SERVER_DRAM, 1.0).simulate_fast(_stream(addrs))
        double = DramSim(SERVER_DRAM, 2.0).simulate_fast(_stream(addrs))
        # Same wall-clock service = twice the cycles at twice the clock.
        assert double.busy_cycles == pytest.approx(2 * base.busy_cycles)

    def test_ideal_bandwidth_bound(self, sim):
        """Busy time never beats the pure-bandwidth lower bound."""
        addrs = np.arange(8192, dtype=np.uint64) * 64
        result = sim.simulate_fast(_stream(addrs))
        ideal = 8192 * 64 / 20.0  # ns at 20 GB/s == cycles at 1 GHz
        assert result.busy_cycles >= ideal / SERVER_DRAM.channels * 0.99

    def test_invalid_frequency(self):
        with pytest.raises(ValueError):
            DramSim(SERVER_DRAM, 0)
