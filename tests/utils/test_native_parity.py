"""Tier parity of the native kernel entry points.

Every public kernel in :mod:`repro.utils.native` must keep a registered
pure-Python/numpy fallback (the ``FALLBACKS`` manifest) and match it
exactly.  The broad equivalence suites live next to the models
(``tests/protection/test_drive_tiers.py``, ``tests/dram``); this file
pins the manifest itself and drives ``dram_walk`` (over one to four
sides; ``dram_keys`` and packed sides are in ``tests/dram/
test_key_column.py``) and ``expand_merge`` (whole, and taken piece by piece through
its cursor) head-to-head against their numpy twins.
"""

import importlib

import numpy as np
import pytest

from repro.accel.trace import (
    AccessKind,
    BlockStream,
    ExpandCursor,
    Trace,
    kind_code,
)
from repro.dram.simulator import DramSim
from repro.dram.timing import SERVER_DRAM
from repro import obs
from repro.protection.metadata_model import overfetch_columns
from repro.utils import native
from tests.dram import oracle
from tests.streams import expand_sorted as _reference
from tests.streams import stream_from_lists


def _stream(addrs, cycles=None, writes=None):
    n = len(addrs)
    return stream_from_lists(
        np.zeros(n, np.int64) if cycles is None else cycles, addrs,
        np.zeros(n, bool) if writes is None else writes, layer_id=0)


class TestFallbacksManifest:
    def test_every_entry_point_is_registered(self):
        for entry in ("fused_drive", "dram_walk", "dram_keys",
                      "expand_cursor", "expand_merge"):
            assert entry in native.FALLBACKS
            assert callable(getattr(native, entry))

    def test_every_fallback_resolves(self):
        for entry, targets in native.FALLBACKS.items():
            assert targets, f"{entry} has no fallback tier"
            for target in targets:
                module_name, qualname = target.split(":")
                obj = importlib.import_module(module_name)
                for part in qualname.split("."):
                    obj = getattr(obj, part)
                assert callable(obj), f"{entry} fallback {target}"

    def test_manifest_has_no_stale_entries(self):
        for entry in native.FALLBACKS:
            assert callable(getattr(native, entry, None)), \
                f"FALLBACKS registers missing kernel {entry!r}"


class TestDramWalkParity:
    """``dram_walk`` against ``DramSim._walk_numpy`` on the entry shapes
    the merge has edge cases for."""

    @staticmethod
    def _random(rng, n, sort_cycles=True):
        cycles = rng.integers(0, 4_000, n)
        return _stream(rng.integers(0, 1 << 22, n).astype(np.uint64) * 64,
                       cycles=np.sort(cycles) if sort_cycles else cycles,
                       writes=rng.integers(0, 2, n).astype(bool))

    def _entries(self, seed):
        rng = np.random.default_rng(seed)
        # Equal cycles across the data/metadata boundary, on one bank
        # with rows that differ: the data-first tie order decides the
        # conflict count.
        tie_data = _stream([0, 1 << 20, 0], cycles=[5, 5, 9])
        tie_meta = _stream([1 << 21, 1 << 20, 0], cycles=[5, 9, 9])
        return [
            (tie_data, tie_meta),
            (self._random(rng, 700), self._random(rng, 250)),
            (self._random(rng, 0), self._random(rng, 300)),
            (self._random(rng, 500), self._random(rng, 0)),
            (self._random(rng, 600, sort_cycles=False),
             self._random(rng, 200)),
            (self._random(rng, 400),
             self._random(rng, 150, sort_cycles=False)),
        ]

    @pytest.mark.parametrize("seed", [2, 13])
    def test_kernel_matches_numpy_twin(self, seed, monkeypatch):
        if not native.available():
            pytest.skip("no native kernel in this environment")
        sim = DramSim(SERVER_DRAM, freq_ghz=1.0)
        recorder = obs.Recorder()
        previous = obs.install(recorder)
        try:
            got = sim.simulate_fast_batch_parts(self._entries(seed))
        finally:
            obs.install(previous)
        # Only the two entries with an unsorted side take the
        # sort-and-retry path.
        assert recorder.counters["dram.unsorted_side"] == 2
        monkeypatch.setattr(native, "_load", lambda: None)
        want = sim.simulate_fast_batch_parts(self._entries(seed))
        for g, w in zip(got, want):
            assert g == w
        oracle_result = oracle.simulate(
            SERVER_DRAM, 1.0, BlockStream.concat(self._entries(seed)[0]))
        assert got[0].row_misses == oracle_result.row_misses


class TestDramWalkSides:
    """``dram_walk`` over k = 1 to 4 sides (data, over-fetch, MAC, VN)
    against ``DramSim._walk_numpy`` and the oracle on the sides'
    concatenation."""

    @staticmethod
    def _sides(seed, k, descending=None):
        """k sides on few cycles and one bank's two rows, so every cycle
        ties across all sides and the tie order decides the conflicts;
        side ``descending`` has its cycles reversed."""
        rng = np.random.default_rng(seed)
        sides = []
        for s in range(k):
            n = int(rng.integers(20, 200))
            rows = rng.integers(0, 2, n).astype(np.uint64)
            cycles = np.sort(rng.integers(0, 8, n))
            if s == descending:
                cycles = cycles[::-1].copy()
            sides.append(_stream(rows << np.uint64(20), cycles=cycles))
        return sides

    @staticmethod
    def _serve(sides):
        sim = DramSim(SERVER_DRAM, freq_ghz=1.0)
        got, counters = _counted(sim.simulate_fast_batch_parts, [sides])
        return got[0], counters

    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    def test_equal_cycles_across_all_sides(self, k, monkeypatch):
        if not native.available():
            pytest.skip("no native kernel in this environment")
        sides = self._sides(k, k)
        got, counters = self._serve(sides)
        assert counters["native.dram_walk.kernel"] == 1
        assert "dram.unsorted_side" not in counters
        monkeypatch.setattr(native, "_load", lambda: None)
        assert self._serve(sides)[0] == got
        want = oracle.simulate(SERVER_DRAM, 1.0, BlockStream.concat(sides))
        assert (got.requests, got.row_misses) == (want.requests,
                                                  want.row_misses)

    @pytest.mark.parametrize("k,descending",
                             [(k, s) for k in (1, 2, 3, 4) for s in range(k)])
    def test_a_descending_side_at_each_index(self, k, descending,
                                             monkeypatch):
        if not native.available():
            pytest.skip("no native kernel in this environment")
        sides = self._sides(10 + k, k, descending)
        got, counters = self._serve(sides)
        assert counters["dram.unsorted_side"] == 1
        monkeypatch.setattr(native, "_load", lambda: None)
        assert self._serve(sides)[0] == got
        want = oracle.simulate(SERVER_DRAM, 1.0, BlockStream.concat(sides))
        assert (got.requests, got.row_misses) == (want.requests,
                                                  want.row_misses)

    def test_more_than_four_sides_rejected(self):
        if not native.available():
            pytest.skip("no native kernel in this environment")
        column = np.zeros(1, np.int64)
        side = (native.address(column), native.address(column), 1, 0, 0)
        regs = native.walk_registers(4, 8)
        with pytest.raises(ValueError, match="at most 4 sides"):
            native.dram_walk([side] * 5, (6, 2, 5, 3), native.address(regs))


_STREAM_COLUMNS = ("cycles", "addrs", "writes", "layer_ids", "kinds")


def _assert_same_stream(got, want):
    for name in _STREAM_COLUMNS:
        g, w = getattr(got, name), getattr(want, name)
        assert g.dtype == w.dtype, name
        np.testing.assert_array_equal(g, w, err_msg=name)


def _ranges(cycles, addrs, nbytes, durations):
    """Range columns in ``RangeBuffer.arrays`` order, with writes,
    kinds and layer ids varying per range."""
    n = len(addrs)
    return (np.asarray(cycles, np.int64), np.asarray(addrs, np.int64),
            np.asarray(nbytes, np.int64), np.arange(n) % 2 == 1,
            (np.arange(n) % 5).astype(np.int8),
            (np.arange(n) % 3).astype(np.int64),
            np.asarray(durations, np.int64))


def _random_ranges(seed, n):
    rng = np.random.default_rng(seed)
    return _ranges(rng.integers(0, 400, n), rng.integers(0, 1 << 24, n),
                   rng.integers(1, 5_000, n),
                   rng.integers(0, 300, n) * (rng.random(n) < 0.7))


_NO_STOP = np.iinfo(np.int64).max


def expand_sorted(columns):
    """The whole expansion, taken through one cursor call."""
    cursor = ExpandCursor(columns)
    return cursor.take(_NO_STOP, cursor.total)


def _pieces(columns, rng):
    """The expansion taken in random pieces: random cycle bounds and
    caps, each piece checked against the cursor's peek."""
    cursor = ExpandCursor(columns)
    pieces = []
    while cursor.peek() is not None:
        head = cursor.peek()
        piece = cursor.take(head + int(rng.integers(1, 40)),
                            int(rng.integers(1, 50)))
        assert len(piece) and int(piece.cycles[0]) == head
        pieces.append(piece)
    assert cursor.emitted == cursor.total
    return BlockStream.concat(pieces) if pieces else expand_sorted(columns)


def _counted(fn, *args):
    recorder = obs.Recorder()
    previous = obs.install(recorder)
    try:
        return fn(*args), recorder.counters
    finally:
        obs.install(previous)


class TestExpandMergeParity:
    """``expand_merge`` (through ``expand_sorted``) against the stable
    cycle sort of the range-order expansion."""

    @pytest.fixture(autouse=True)
    def _needs_kernel(self):
        if not native.available():
            pytest.skip("no native kernel in this environment")

    CASES = {
        "empty": _ranges([], [], [], []),
        "single_block": _ranges([5, 3, 5, 0, 3], [0, 64, 130, 4096, 8191],
                                [64, 1, 60, 64, 1], [0, 9, 100, 0, 4]),
        "zero_duration": _ranges([10, 0, 10, 5], [0, 1 << 16, 100, 999],
                                 [4096, 640, 3000, 64], [0, 0, 0, 0]),
        "equal_cycles": _ranges([7, 7, 7, 7], [1 << 20, 0, 64, 1 << 12],
                                [640, 300, 64, 2048], [40, 40, 0, 100]),
        "descending_starts": _ranges([900, 600, 300, 0],
                                     [0, 1 << 14, 1 << 15, 1 << 16],
                                     [6400, 6400, 640, 64_000],
                                     [1000, 1000, 10, 5000]),
        "random_a": _random_ranges(3, 60),
        "random_b": _random_ranges(29, 300),
    }

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_kernel_matches_numpy_twin(self, case):
        columns = self.CASES[case]
        got, counters = _counted(expand_sorted, columns)
        assert counters["native.expand_merge.kernel"] == 1
        _assert_same_stream(got, _reference(columns))

    @pytest.mark.parametrize("case", sorted(CASES))
    @pytest.mark.parametrize("tier", ["kernel", "numpy"])
    def test_pieces_concatenate_to_the_whole(self, case, tier, monkeypatch):
        """The cursor carries the merge from call to call: pieces cut at
        any cycle bound and cap concatenate to the whole expansion, on
        either tier."""
        if tier == "numpy":
            monkeypatch.setattr(native, "_load", lambda: None)
        columns = self.CASES[case]
        rng = np.random.default_rng(len(case))
        _assert_same_stream(_pieces(columns, rng), _reference(columns))

    @pytest.mark.parametrize("unit_bytes", [512, 4096])
    def test_overfetch_candidates(self, unit_bytes, monkeypatch):
        rng = np.random.default_rng(unit_bytes)
        n = 200
        cycles = rng.integers(0, 2_000, n)
        addrs = rng.integers(0, 1 << 22, n)
        nbytes = rng.integers(1, 3_000, n)
        writes = rng.integers(0, 2, n).astype(bool)
        durations = rng.integers(0, 500, n)

        def layer():
            trace = Trace()
            trace.emit_batch(cycles, addrs, nbytes, writes=writes,
                             kind_codes=np.full(
                                 n, kind_code(AccessKind.IFMAP), np.int8),
                             layer_id=2, durations=durations)
            return trace

        def overfetch_side(trace, unit):
            return expand_sorted(overfetch_columns(trace, unit))

        got, counters = _counted(overfetch_side, layer(), unit_bytes)
        assert counters["native.expand_merge.kernel"] == 1
        assert len(got) > 0
        assert bool((got.kinds == kind_code(AccessKind.METADATA)).all())
        _assert_same_stream(got, _reference(overfetch_columns(layer(),
                                                         unit_bytes)))
        monkeypatch.setattr(native, "_load", lambda: None)
        _assert_same_stream(got, overfetch_side(layer(), unit_bytes))

    @pytest.mark.parametrize("columns", [
        # count * duration = 2 * (2**61 + 1) is past 2**62.
        _ranges([0, 3], [0, 640], [128, 64], [(1 << 61) + 1, 0]),
        _ranges([(1 << 62) + 1, 3], [0, 640], [128, 64], [5, 0]),
    ], ids=["count_x_duration", "start_cycle"])
    def test_overflowing_range_takes_the_twin(self, columns):
        got, counters = _counted(expand_sorted, columns)
        assert counters["native.expand_merge.overflow"] == 1
        assert "native.expand_merge.kernel" not in counters
        _assert_same_stream(got, _reference(columns))
