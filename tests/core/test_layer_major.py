"""Layer-major sweep cells: the evaluation order never changes a record.

``compare_schemes`` runs a cell layer by layer: every scheme protects a
layer and has DRAM serve it, then the layer's block streams and shared
MAC traffic are freed before the next layer is expanded. Schemes that share a MAC table
replay whichever of them reached a layer first, so a record must not
depend on the scheme order, and must equal a standalone whole-model
``Pipeline.run`` on a fresh model run.
"""

import numpy as np
import pytest

from repro import obs
from repro.core.config import npu_config
from repro.core.metrics import compare_schemes
from repro.core.pipeline import Pipeline
from repro.models.zoo import get_workload
from repro.protection import SCHEME_NAMES, make_scheme
from repro.protection.metadata_model import SharedTrafficModel
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
    # Reversed, the mgx-* schemes reach each layer first and drive the
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
    windowed = [row for index in range(len(run.layers))
                for row in scheme.protect_model(run, range(index, index + 1))]
    assert len(windowed) == len(whole) == len(topology) + 1  # + flush
    for got, want in zip(windowed, whole):
        assert (got.layer_id, got.is_flush, got.crypto_bytes,
                got.overfetch_blocks) == (want.layer_id, want.is_flush,
                                          want.crypto_bytes,
                                          want.overfetch_blocks)
        _assert_sides_equal(got.data_sides, want.data_sides)
        _assert_sides_equal(got.metadata_sides, want.metadata_sides)


def test_shared_mac_traffic_lives_one_layer(monkeypatch):
    """A layer-major cell drops a window's shared MAC traffic with its
    streams: while a scheme stores a window's MAC traffic, the memo
    holds that window's alone, and the finished cell keeps only the
    flush entries. Whole-model runs over one shared model run still
    replay it, and every record equals theirs."""
    pipeline = Pipeline(npu_config("edge"))
    topology = get_workload("mobilenet@b4")
    held = []
    store = SharedTrafficModel.store

    def spy(self, window, out):
        store(self, window, out)
        held.append({key[2:] for key in self.memo if key[1] == "layer"})

    monkeypatch.setattr(SharedTrafficModel, "store", spy)
    result = compare_schemes(pipeline, topology, SCHEME_NAMES)
    model_run = result.baseline.model_run
    # The windows the schemes protect: not the one standing for the
    # skipped images.
    windows = sum(window.skip is None for layer in model_run.layers
                  for window in pipeline.layer_windows(model_run, layer))
    assert windows >= 3 * len(topology)        # image cuts at b4
    assert len(held) == 2 * windows            # 64 B and 512 B tables
    assert all(len(layers) == 1 for layers in held)
    memo = result.baseline.model_run.scheme_memo
    assert memo and all(key[1] == "flush" for key in memo)

    recorder = obs.Recorder()
    previous = obs.install(recorder)
    try:
        run = pipeline.simulate_model(topology)
        whole = {name: scheme_run_to_dict(pipeline.run(
            topology, make_scheme(name), model_run=run))
            for name in SCHEME_NAMES}
    finally:
        obs.install(previous)
    assert recorder.counters["shared_traffic.replays"] == 2 * windows
    records = _records(result)
    assert all(whole[name] == records[name] for name in SCHEME_NAMES)
