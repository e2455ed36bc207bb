"""Microbenchmarks for the columnar stream core's hot paths.

Covers the three pipeline stages the columnar refactor vectorized:
block expansion (``Trace.windows``), protection-scheme traffic
generation (``protect_model``), and DRAM service (``simulate_fast``),
plus the end-to-end sweep cell. Each session's medians land in the git-ignored
``benchmarks/results/BENCH_streams.last.json`` (see ``conftest.py``).
"""

import pytest

from repro.accel.trace import BlockStream
from repro.core.config import npu_config
from repro.core.pipeline import Pipeline
from repro.dram.simulator import DramSim
from repro.dram.timing import SERVER_DRAM
from repro.models.zoo import WORKLOADS, get_workload
from repro.protection import SCHEME_NAMES, make_scheme
from repro.runner.service import EvalService
from repro.tiling import plan_tiling, search_optblk_model
from repro.tiling.optblk import DEFAULT_CANDIDATES


@pytest.fixture(scope="module")
def model_run():
    pipeline = Pipeline(npu_config("server"))
    return pipeline.simulate_model(get_workload("resnet18"))


@pytest.fixture(scope="module")
def block_stream(model_run):
    return BlockStream.concat(window.blocks
                              for window in model_run.trace.windows())


def test_to_blocks(benchmark, model_run, perf_record):
    """The cycle-sorted expansion every scheme consumes, window by
    window (the key keeps its historical name)."""
    trace = model_run.trace

    def expand():
        return sum(len(window.blocks) for window in trace.windows())

    blocks = benchmark(expand)
    assert blocks > 100_000
    perf_record("to_blocks", benchmark)


def test_protect_model_sgx64(benchmark, model_run, perf_record):
    def protect():
        model_run.scheme_memo.clear()
        return make_scheme("sgx-64b").protect_model(model_run)

    protections = benchmark(protect)
    assert sum(p.metadata_bytes for p in protections) > 0
    perf_record("protect_model_sgx64", benchmark)


def test_protect_model_sgx64_gpt2_s512(benchmark, perf_record):
    """Sequence-scaling case: the metadata drives over a transformer
    decode step grow with ``seq x batch`` — exactly the axis production
    sweeps grow on."""
    pipeline = Pipeline(npu_config("server"))
    gpt2_run = pipeline.simulate_model(get_workload("gpt2@s512"))

    def protect():
        gpt2_run.scheme_memo.clear()
        return make_scheme("sgx-64b").protect_model(gpt2_run)

    protections = benchmark(protect)
    assert sum(p.metadata_bytes for p in protections) > 0
    perf_record("protect_model_sgx64_gpt2_s512", benchmark)


def test_trace_build_resnet18_b16(benchmark, perf_record):
    """Batched trace construction: the tile walks plus the columnar
    batch replication (arange-built columns, no per-tile Python loop)."""
    sim = Pipeline(npu_config("server")).accelerator
    topology = get_workload("resnet18@b16")

    run = benchmark(sim.run, topology)
    assert run.trace.total_bytes > 0
    perf_record("trace_build_resnet18_b16", benchmark)


def test_protect_model_seda(benchmark, model_run, perf_record):
    protections = benchmark(
        lambda: make_scheme("seda").protect_model(model_run))
    assert all(p.overfetch_blocks == 0 for p in protections)
    perf_record("protect_model_seda", benchmark)


def test_dram_simulate_fast(benchmark, block_stream, perf_record):
    sim = DramSim(SERVER_DRAM, freq_ghz=1.0)
    result = benchmark(sim.simulate_fast, block_stream)
    assert result.requests == len(block_stream)
    perf_record("dram_simulate_fast", benchmark)


def test_e2e_scheme_sweep_cell(benchmark, perf_record):
    """The fig6 path: every scheme on one (NPU, workload) cell."""
    npu = npu_config("server")
    topology = get_workload("resnet18")

    def cell():
        pipeline = Pipeline(npu)
        run = pipeline.simulate_model(topology)
        return [pipeline.run(topology, make_scheme(name), model_run=run)
                for name in ["baseline"] + SCHEME_NAMES]

    runs = benchmark(cell)
    assert len(runs) == 1 + len(SCHEME_NAMES)
    perf_record("e2e_cell_server_resnet18", benchmark)


def test_protect_model_sgx64_gpt2_s4096(benchmark, perf_record):
    """Long-sequence stress: the s4096 decode step's metadata drives
    are the heaviest single protect_model call in the zoo."""
    pipeline = Pipeline(npu_config("server"))
    gpt2_run = pipeline.simulate_model(get_workload("gpt2@s4096"))

    def protect():
        gpt2_run.scheme_memo.clear()
        return make_scheme("sgx-64b").protect_model(gpt2_run)

    protections = benchmark(protect)
    assert sum(p.metadata_bytes for p in protections) > 0
    perf_record("protect_model_sgx64_gpt2_s4096", benchmark)


def test_e2e_cell_gpt2_s4096(benchmark, perf_record):
    """Full sweep cell on the long-sequence transformer — the case the
    chunked trace core keeps inside the pinned residency budget."""
    npu = npu_config("server")
    topology = get_workload("gpt2@s4096")

    def cell():
        pipeline = Pipeline(npu)
        run = pipeline.simulate_model(topology)
        return [pipeline.run(topology, make_scheme(name), model_run=run)
                for name in ["baseline"] + SCHEME_NAMES]

    runs = benchmark.pedantic(cell, rounds=3, iterations=1)
    assert len(runs) == 1 + len(SCHEME_NAMES)
    perf_record("e2e_cell_gpt2_s4096", benchmark)


def test_optblk_search_zoo(benchmark, perf_record):
    """Vectorized optBlk search across every zoo workload's layers in
    one numpy pass (the scalar per-layer loop is the 'before')."""
    budget = npu_config("server").sram_budget()
    pairs = [(layer, plan_tiling(layer, budget))
             for name in WORKLOADS
             for layer in get_workload(name).layers]

    choices = benchmark(search_optblk_model, pairs)
    assert len(choices) == len(pairs)
    assert all(c.block_bytes in DEFAULT_CANDIDATES for c in choices)
    perf_record("optblk_search_zoo", benchmark)


def test_sweep_zoo_b16_wall(benchmark, perf_record):
    """Wall clock of a full-zoo batch-16 sweep: every @b16 cell fully
    simulated, each batched layer expanding and walking images 0-2 and
    its tail and repeating image 2 for the rest (the periodic shortcut)
    — the zoo-sweep-in-seconds hot path. Nothing is derived."""
    specs = [f"{name}@b16" for name in WORKLOADS]

    def sweep():
        service = EvalService()
        results = service.sweep("server", workloads=specs)
        assert service.derived_hits == 0
        assert service.derived_fallbacks == 0
        return results

    results = benchmark.pedantic(sweep, rounds=1, iterations=1)
    assert len(results) == len(specs)
    perf_record("sweep_zoo_b16_wall", benchmark)
