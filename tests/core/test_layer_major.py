"""Layer-major sweep cells: the evaluation order never changes a record.

``compare_schemes`` runs a cell window by window: every scheme protects
a window and has DRAM serve it, then the window's block streams and
shared MAC traffic are freed before the next window is expanded.
Schemes that share a MAC table replay whichever of them reached a
window first, so a record must not depend on the scheme order, and must
equal a standalone whole-model ``Pipeline.run`` on a fresh model run.
"""

import weakref

import numpy as np
import pytest

from repro import obs
from repro.core.config import npu_config
from repro.core.metrics import compare_schemes
from repro.core.pipeline import Pipeline
from repro.models.zoo import get_workload
from repro.protection import SCHEME_NAMES, make_scheme
from repro.protection.base import LayerProtection, ProtectionScheme
from repro.protection.metadata_model import CacheTrafficResult, layer_windows
from repro.runner.records import scheme_run_to_dict

#: A CNN, a batched cell (images 0 and 1 go through the metadata
#: caches, image 1's traffic repeats for the rest) and the KV-cache
#: decode path.
SPECS = ("resnet18", "mobilenet@b4", "gpt2@s128")


def _records(comparison):
    runs = dict(comparison.runs, baseline=comparison.baseline)
    return {name: scheme_run_to_dict(run) for name, run in runs.items()}


@pytest.mark.parametrize("spec", SPECS)
def test_scheme_order_never_changes_a_record(spec):
    pipeline = Pipeline(npu_config("edge"))
    topology = get_workload(spec)
    default = _records(compare_schemes(pipeline, topology, SCHEME_NAMES))
    # Reversed, the mgx-* schemes reach each window first and drive the
    # shared MAC tables that sgx-* then replays.
    reverse = _records(compare_schemes(pipeline, topology,
                                       SCHEME_NAMES[::-1]))
    assert reverse == default
    for name in ["baseline"] + SCHEME_NAMES:
        # Without a model_run, every standalone run simulates afresh.
        standalone = pipeline.run(topology, make_scheme(name))
        assert scheme_run_to_dict(standalone) == default[name], name


def _assert_sides_equal(a, b):
    assert len(a) == len(b)
    for got, want in zip(a, b):
        for column in ("cycles", "addrs", "writes"):
            np.testing.assert_array_equal(getattr(got, column),
                                          getattr(want, column))


def test_layer_windows_concatenate_to_the_whole_model():
    pipeline = Pipeline(npu_config("edge"))
    topology = get_workload("resnet18")
    whole = make_scheme("sgx-512b").protect_model(
        pipeline.simulate_model(topology))
    run = pipeline.simulate_model(topology)
    scheme = make_scheme("sgx-512b")
    windowed = []
    for result in run.layers:
        rows = [row for window in layer_windows(result)
                for row in scheme.protect_model(run, window=window)]
        windowed.append(LayerProtection.join(
            [row for row in rows if not row.is_flush]))
        windowed.extend(row for row in rows if row.is_flush)
    assert len(windowed) == len(whole) == len(topology) + 1  # + flush
    for got, want in zip(windowed, whole):
        assert (got.layer_id, got.is_flush, got.crypto_bytes,
                got.overfetch_blocks) == (want.layer_id, want.is_flush,
                                          want.crypto_bytes,
                                          want.overfetch_blocks)
        _assert_sides_equal(got.data_sides, want.data_sides)
        _assert_sides_equal(got.metadata_sides, want.metadata_sides)


def test_shared_mac_traffic_lives_one_window(monkeypatch):
    """A cell's schemes share each window's MAC traffic through the
    window: MGX reads SGX's on every window it protects (64 B and 512 B
    tables), and once ``compare_schemes`` has moved past a window, the
    traffic kept on it is gone. (Image 1's traffic stays with its layer
    by design: the later images repeat it, so those windows are not
    watched.)"""
    pipeline = Pipeline(npu_config("edge"))
    topology = get_workload("mobilenet@b4")
    watched = {}    # (layer, window) -> weak references to its traffic
    protect = ProtectionScheme.protect_window

    def spy(self, window):
        here = (window.layer.layer_id, window.index)
        for seen, refs in watched.items():
            assert seen == here or all(ref() is None for ref in refs), seen
        row = protect(self, window)
        if window.segment != 1:
            watched[here] = [weakref.ref(side.cycles)
                             for side in window.shared.values()
                             if isinstance(side, CacheTrafficResult)]
        return row

    monkeypatch.setattr(ProtectionScheme, "protect_window", spy)
    recorder = obs.Recorder()
    previous = obs.install(recorder)
    try:
        result = compare_schemes(pipeline, topology, SCHEME_NAMES)
    finally:
        obs.install(previous)
    model_run = result.baseline.model_run
    # The windows the schemes protect: not the one standing for the
    # skipped images.
    windows = sum(window.skip is None for layer in model_run.layers
                  for window in pipeline.layer_windows(model_run, layer))
    assert windows >= 3 * len(topology)        # image cuts at b4
    assert recorder.counters["shared_traffic.replays"] == 2 * windows
    assert len(watched) >= 2 * len(topology)
    assert all(len(refs) >= 2 for refs in watched.values())
    assert all(ref() is None for refs in watched.values() for ref in refs)
