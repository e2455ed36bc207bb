"""Tier parity of the native kernel entry points.

Every public kernel in :mod:`repro.utils.native` must keep a registered
pure-Python/numpy fallback (the ``FALLBACKS`` manifest) and match it
exactly.  The broad equivalence suites live next to the models
(``tests/protection/test_reuse_engine.py``, ``tests/dram``); this file
pins the manifest itself and drives ``insertion_scan`` head-to-head
against its numpy twin.
"""

import importlib

import numpy as np
import pytest

from repro.accel.trace import BlockStream
from repro.dram.simulator import DramSim
from repro.dram.timing import SERVER_DRAM
from repro.utils import native


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
        for entry in ("fused_drive", "insertion_scan", "geom_counts"):
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


class TestInsertionScanParity:
    def _part_lists(self, seed):
        rng = np.random.default_rng(seed)
        part_lists = []
        for _ in range(5):
            n = int(rng.integers(1, 900))
            m = int(rng.integers(1, 300))
            data = _stream(
                rng.integers(0, 1 << 22, n).astype(np.uint64) * 64,
                cycles=np.sort(rng.integers(0, 4_000, n)),
                writes=rng.integers(0, 2, n).astype(bool))
            meta = _stream(
                rng.integers(0, 1 << 22, m).astype(np.uint64) * 64,
                cycles=rng.integers(0, 4_000, m),
                writes=rng.integers(0, 2, m).astype(bool))
            part_lists.append([data, meta])
        return part_lists

    @pytest.mark.parametrize("seed", [2, 13])
    def test_kernel_matches_numpy_scan(self, seed, monkeypatch):
        if not native.available():
            pytest.skip("no native kernel in this environment")
        sim = DramSim(SERVER_DRAM, freq_ghz=1.0)
        got = sim.simulate_fast_batch_parts(self._part_lists(seed))
        monkeypatch.setattr(native, "insertion_scan",
                            lambda *a, **k: False)
        want = sim.simulate_fast_batch_parts(self._part_lists(seed))
        for g, w in zip(got, want):
            assert g == w
