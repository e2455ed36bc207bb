"""Tier parity of the native kernel entry points.

Every public kernel in :mod:`repro.utils.native` must keep a registered
pure-Python/numpy fallback (the ``FALLBACKS`` manifest) and match it
exactly.  The broad equivalence suites live next to the models
(``tests/protection/test_reuse_engine.py``, ``tests/dram``); this file
pins the manifest itself and drives ``dram_walk`` head-to-head against
its numpy twin.
"""

import importlib

import numpy as np
import pytest

from repro.accel.trace import BlockStream
from repro.dram.simulator import DramSim
from repro.dram.timing import SERVER_DRAM
from repro import obs
from repro.utils import native
from tests.dram import oracle


def _stream(addrs, cycles=None, writes=None):
    n = len(addrs)
    return BlockStream(
        np.asarray(cycles if cycles is not None else np.zeros(n), np.int64),
        np.asarray(addrs, np.uint64),
        np.asarray(writes if writes is not None else np.zeros(n, bool), bool),
        np.zeros(n, np.int32),
    )


class TestFallbacksManifest:
    def test_every_entry_point_is_registered(self):
        for entry in ("fused_drive", "dram_walk"):
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
