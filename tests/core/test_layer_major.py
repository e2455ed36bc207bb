"""Layer-major sweep cells: the evaluation order never changes a record.

``compare_schemes`` runs a cell layer by layer: every scheme protects a
layer and has DRAM serve it, then the layer's block streams are freed
before the next layer is expanded. Schemes that share a MAC table
replay whichever of them reached a layer first, so a record must not
depend on the scheme order, and must equal a standalone whole-model
``Pipeline.run`` on a fresh model run.
"""

import numpy as np
import pytest

from repro.core.config import npu_config
from repro.core.metrics import compare_schemes
from repro.core.pipeline import Pipeline
from repro.models.zoo import get_workload
from repro.protection import SCHEME_NAMES, make_scheme
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


def _assert_streams_equal(a, b):
    for column in ("cycles", "addrs", "writes", "layer_ids"):
        np.testing.assert_array_equal(getattr(a, column), getattr(b, column))


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
        _assert_streams_equal(got.data_stream, want.data_stream)
        _assert_streams_equal(got.metadata_stream, want.metadata_stream)


def test_a_finished_cell_holds_no_layer_stream():
    pipeline = Pipeline(npu_config("edge"))
    result = compare_schemes(pipeline, get_workload("resnet18"),
                             SCHEME_NAMES)
    run = result.baseline.model_run
    assert all(layer.trace._memo == {} and layer.trace._memo_owned == 0
               for layer in run.layers)
