"""Transformer & KV-cache overhead grid — the paper's argument replayed
on a 2020s workload family.

The (transformer workload x scheme) grid on both NPUs, with the decode
scenario at several context lengths. The CNN-era figures (5/6) show
protection overhead on compute-heavy convolutions; this grid shows the
regime the paper's schemes were never evaluated in: low-arithmetic-
intensity GEMM streams where every layer is memory- or crypto-bound and
metadata overhead lands on KV-cache traffic.
"""

from typing import Dict

import pytest

from benchmarks.conftest import dump_results
from repro.core.config import npu_config
from repro.core.metrics import ComparisonResult, compare_schemes
from repro.core.pipeline import Pipeline
from repro.models.zoo import TRANSFORMER_WORKLOADS, get_workload
from repro.protection import SCHEME_NAMES

#: Decode contexts for the KV-scaling series (kept short enough for CI).
_GPT2_CONTEXTS = (64, 128, 256)

_GRID_SPECS = ["vit_b16", "bert_base"] + [
    f"gpt2@s{ctx}" for ctx in _GPT2_CONTEXTS
]


@pytest.fixture(scope="module")
def transformer_grid() -> Dict[str, Dict[str, ComparisonResult]]:
    grid: Dict[str, Dict[str, ComparisonResult]] = {}
    for npu_name in ("server", "edge"):
        pipeline = Pipeline(npu_config(npu_name))
        grid[npu_name] = {
            spec: compare_schemes(pipeline, get_workload(spec), SCHEME_NAMES)
            for spec in _GRID_SPECS
        }
    return grid


def _print_grid(title, cells, metric):
    print(f"\n=== {title} ===")
    header = " ".join(f"{spec:>12s}" for spec in _GRID_SPECS)
    print(f"{'scheme':10s} {header}")
    rows = {}
    for scheme in SCHEME_NAMES:
        values = [metric(cells[spec], scheme) for spec in _GRID_SPECS]
        rows[scheme] = values
        print(f"{scheme:10s} " + " ".join(f"{v:12.3f}" for v in values))
    return rows


def test_transformer_traffic_grid(benchmark, transformer_grid):
    benchmark.pedantic(
        lambda: compare_schemes(Pipeline(npu_config("edge")),
                                get_workload("gpt2@s64"), ["seda"]),
        rounds=1, iterations=1)
    payload = {}
    for npu_name, cells in transformer_grid.items():
        rows = _print_grid(f"transformer traffic ({npu_name})", cells,
                           lambda c, s: c.traffic(s))
        payload[npu_name] = {"workloads": _GRID_SPECS, **rows}
        # The ordering that holds on CNNs holds here too, and SeDA's
        # near-zero metadata story survives the KV regime.
        for spec in _GRID_SPECS:
            cell = cells[spec]
            assert cell.traffic("sgx-64b") >= cell.traffic("mgx-64b"), spec
            assert cell.traffic("seda") < cell.traffic("sgx-64b"), spec
            assert cell.traffic("seda") < 1.02, spec
    dump_results("transformer_traffic", payload)


def test_decode_is_never_compute_bound(transformer_grid):
    """The whole point of the scenario: autoregressive decode flips the
    bottleneck histogram to memory/crypto on both NPUs."""
    for npu_name, cells in transformer_grid.items():
        for ctx in _GPT2_CONTEXTS:
            cell = cells[f"gpt2@s{ctx}"]
            for name, run in cell.runs.items():
                histogram = run.bottleneck_histogram()
                assert histogram.get("compute", 0) == 0, \
                    (npu_name, ctx, name, histogram)


def test_transformers_flip_where_the_cnn_does_not(transformer_grid):
    """Contrast case: on the edge NPU ResNet-18 keeps compute-bound
    layers, while every layer of every transformer workload is memory-
    bound — the histogram flip is a property of the workload family, not
    of the accelerator configuration."""
    resnet = compare_schemes(Pipeline(npu_config("edge")),
                             get_workload("resnet18"), ["seda"])
    assert resnet.baseline.bottleneck_histogram().get("compute", 0) > 0
    for spec in _GRID_SPECS:
        histogram = transformer_grid["edge"][spec] \
            .baseline.bottleneck_histogram()
        assert histogram.get("compute", 0) == 0, (spec, histogram)


def test_sgx_metadata_grows_with_context(transformer_grid):
    """SGX metadata on the decode scenario scales with the KV cache:
    more context, more protected blocks, more MAC/VN traffic."""
    for npu_name, cells in transformer_grid.items():
        series = [cells[f"gpt2@s{ctx}"].runs["sgx-64b"].metadata_bytes
                  for ctx in _GPT2_CONTEXTS]
        assert series == sorted(series), (npu_name, series)
        assert series[-1] > series[0]


def test_decode_slowdown_worse_than_cnn_average(transformer_grid):
    """Memory-bound decode amplifies protection slowdown relative to a
    compute-heavy CNN on the same NPU (the motivation for opening the
    scenario): SGX-64B hurts a GPT-2 step at long context at least as
    much as it hurts ResNet-18."""
    pipeline = Pipeline(npu_config("edge"))
    resnet = compare_schemes(pipeline, get_workload("resnet18"), ["sgx-64b"])
    gpt2 = transformer_grid["edge"]["gpt2@s256"]
    assert gpt2.slowdown_pct("sgx-64b") >= resnet.slowdown_pct("sgx-64b") * 0.9


def test_kv_traffic_is_first_class_in_the_trace(transformer_grid):
    """The baseline cell's model run carries KVCACHE bytes equal to the
    topology's KV footprint — protection overhead on that stream is
    measured from the trace, not estimated."""
    from repro.accel.trace import AccessKind

    cell = transformer_grid["edge"]["gpt2@s128"]
    run = cell.baseline.model_run
    topo = get_workload("gpt2@s128")
    assert sum(r.trace.bytes_by_kind().get(AccessKind.KVCACHE, 0)
               for r in run.layers) == topo.total_kv_bytes


def test_grid_covers_all_transformer_workloads():
    assert {spec.split("@")[0] for spec in _GRID_SPECS} == \
        set(TRANSFORMER_WORKLOADS)
