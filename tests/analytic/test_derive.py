"""The analytic plane's correctness contract.

The derived ``@bN`` record must be *bit-identical* to the record a full
simulation of the target batch produces — not approximately equal: the
store holds both kinds of record interchangeably, so any drift would
make results depend on which path computed them. The randomized gate
below samples (workload, batch) cells across CNNs and transformers and
checks exact record equality against full simulation through the
periodic shortcut, the default path; the fallback tests pin the cases
the derivation must refuse (halo straddle under raw packing, exotic
DRAM geometry) and the service counters that make refusal observable.
Derivation is opt-in (``derive=True``), so every service test here asks
for it explicitly.
"""

import dataclasses

import numpy as np
import pytest

from repro import obs
from repro.analytic import MIN_DERIVE_BATCH, derivable, derive_cell
from repro.core.config import npu_config
from repro.core.metrics import compare_schemes
from repro.core.pipeline import Pipeline
from repro.models.zoo import format_workload_spec, get_workload
from repro.protection import SCHEME_NAMES
from repro.runner.records import comparison_to_dict
from repro.runner.service import EvalService
from repro.runner.store import ResultStore, fingerprint


def _simulated_record(pipeline, spec):
    return comparison_to_dict(
        compare_schemes(pipeline, get_workload(spec), SCHEME_NAMES))


def _shortcut_record(pipeline, spec):
    """The full simulation of ``spec``, which must take the periodic
    shortcut on every layer."""
    recorder = obs.Recorder()
    previous = obs.install(recorder)
    try:
        record = _simulated_record(pipeline, spec)
    finally:
        obs.install(previous)
    assert recorder.counters.get("periodic.skipped", 0) > 0, spec
    assert recorder.counters.get("periodic.walked", 0) == 0, spec
    return record


class TestEquivalenceGate:
    """Derived records == shortcut-simulated records, bit for bit."""

    #: CNNs and transformers, covering halo convs (resnet18), pure
    #: gemm stacks (dlrm), KV-cache attention (gpt2) and patchified
    #: attention (vit). Short gpt2 sequence keeps the cell fast; the
    #: default-sequence cell is covered by the perf benchmarks.
    SAMPLED_BASES = ("lenet", "resnet18", "dlrm", "gpt2@s128", "vit_b16")

    @pytest.mark.slow
    def test_derived_matches_simulated(self):
        rng = np.random.default_rng(0xDAC2025)
        pipeline = Pipeline(npu_config("server"))
        for base in self.SAMPLED_BASES:
            batch = int(rng.integers(MIN_DERIVE_BATCH, 8))
            spec = f"{base}@b{batch}"
            derived = derive_cell(pipeline, spec, SCHEME_NAMES)
            assert derived is not None, f"{spec} unexpectedly fell back"
            record, b1_record = derived
            assert record == _shortcut_record(pipeline, spec), spec
            # The probes' batch-1 sibling is a real b1 record too.
            base_name, _, seq = base.partition("@s")
            b1_spec = format_workload_spec(
                base_name, 1, int(seq) if seq else None)
            assert b1_record == _simulated_record(pipeline, b1_spec), spec

    def test_below_min_batch_refuses(self):
        pipeline = Pipeline(npu_config("server"))
        spec = f"lenet@b{MIN_DERIVE_BATCH - 1}"
        assert derive_cell(pipeline, spec, SCHEME_NAMES) is None


class TestHaloStraddleFallback:
    """Raw packing (image_align=1) of an unaligned halo conv breaks the
    phase-preservation precondition: ``derivable()`` must say so and
    ``derive_cell`` must refuse."""

    def test_derivable_false_for_raw_packed_alexnet(self):
        pipeline = Pipeline(npu_config("server"), image_align=1)
        run = pipeline.simulate_model(get_workload("alexnet"))
        assert derivable(run, pipeline.dram.config) is False

    def test_derive_cell_falls_back(self):
        pipeline = Pipeline(npu_config("server"), image_align=1)
        assert derive_cell(pipeline, "alexnet@b4", SCHEME_NAMES) is None

    def test_aligned_alexnet_is_derivable(self):
        """The same workload under default slab alignment derives —
        the gate is about packing, not about alexnet."""
        pipeline = Pipeline(npu_config("server"))
        run = pipeline.simulate_model(get_workload("alexnet"))
        assert derivable(run, pipeline.dram.config) is True


def _wide_dram_npu():
    """8 DRAM channels double the row-set past the 128 KiB slab
    alignment, so image strides no longer preserve phase."""
    return dataclasses.replace(npu_config("server"), name="server-8ch",
                               dram_channels=8)


class TestServiceCounters:
    def test_derived_hit_counts_and_persists_b1_sibling(self, tmp_path):
        store = ResultStore(tmp_path)
        service = EvalService(store=store)
        result = service.compare("server", "lenet@b8", derive=True)
        assert service.derived_hits == 1
        assert service.derived_fallbacks == 0
        assert len(result.runs) == len(SCHEME_NAMES)
        npu = npu_config("server")
        key_b8 = fingerprint(npu, "lenet@b8", tuple(SCHEME_NAMES))
        key_b1 = fingerprint(npu, "lenet", tuple(SCHEME_NAMES))
        assert store.contains(key_b8)
        assert store.contains(key_b1)
        assert store.get(key_b8)["derived_from"] == key_b1
        assert "derived_from" not in store.get(key_b1)
        # Transient bookkeeping keys never reach the store.
        assert "_siblings" not in store.get(key_b8)

    def test_b1_sibling_makes_b1_cell_a_disk_hit(self, tmp_path):
        store = ResultStore(tmp_path)
        EvalService(store=store).compare("server", "lenet@b8", derive=True)
        fresh = EvalService(store=store)
        fresh.compare("server", "lenet")
        assert fresh.derived_hits == 0  # served from disk, not computed

    def test_fallback_counts(self, tmp_path):
        service = EvalService(store=ResultStore(tmp_path))
        service.compare(_wide_dram_npu(), "lenet@b8", derive=True)
        assert service.derived_hits == 0
        assert service.derived_fallbacks == 1

    def test_sweep_subset_derives_every_cell(self):
        service = EvalService()
        results = service.sweep("server", workloads=["lenet@b8", "dlrm@b8"],
                                derive=True)
        assert len(results) == 2
        assert service.derived_hits == 2
        assert service.derived_fallbacks == 0

    def test_no_derive_flag_simulates(self):
        service = EvalService()
        service.compare("server", "lenet@b8", derive=False)
        assert service.derived_hits == 0
        assert service.derived_fallbacks == 0

    def test_cells_are_simulated_by_default(self):
        service = EvalService()
        service.sweep("server", workloads=["lenet@b8", "dlrm@b8"])
        assert service.derived_hits == 0
        assert service.derived_fallbacks == 0

    def test_derived_equals_simulated_through_service(self):
        """End to end through the service: the derived cell and a
        forced-simulation cell of the same spec serialize identically."""
        derived = EvalService().compare("server", "dlrm@b6", derive=True)
        simulated = EvalService().compare("server", "dlrm@b6", derive=False)
        assert comparison_to_dict(derived) == comparison_to_dict(simulated)
