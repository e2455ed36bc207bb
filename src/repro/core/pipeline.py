"""End-to-end evaluation pipeline (paper Section IV-A, last paragraph).

The flow mirrors the paper's methodology exactly:

1. the DNN simulator (:mod:`repro.accel`) produces per-layer compute
   cycles and the DRAM access trace;
2. the memory-protection scheme (:mod:`repro.protection`) transforms the
   trace, adding security metadata and over-fetch;
3. the DRAM simulator (:mod:`repro.dram`) services the total trace and
   yields memory busy time.

Per layer, execution time is ``max(compute, dram, crypto)`` — compute
and DRAM transfers overlap through double buffering, and OTP generation
overlaps with communication (an AES-CTR property the paper leans on);
whichever resource saturates becomes the layer's critical path.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro import obs
from repro.accel.simulator import AcceleratorSim, ModelRun
from repro.core.config import NpuConfig
from repro.dram.simulator import DramResult, DramSim
from repro.models.topology import Topology
from repro.protection.base import ProtectionScheme


@dataclass(frozen=True)
class CollectedRow:
    """The integer quantities of one timing row that the analytic
    ``@bN`` derivation extrapolates from. It keeps counts, never the
    row's block streams, so collecting rows pins no stream in memory."""

    layer_id: int
    is_flush: bool
    data_bytes: int
    metadata_bytes: int
    crypto_bytes: int
    dram: DramResult


@dataclass
class LayerTiming:
    """Per-layer timing and traffic under one protection scheme."""

    layer_id: int
    layer_name: str
    compute_cycles: float
    dram_cycles: float
    crypto_cycles: float
    data_bytes: int
    metadata_bytes: int
    row_hit_rate: float

    @property
    def total_cycles(self) -> float:
        return max(self.compute_cycles, self.dram_cycles, self.crypto_cycles)

    @property
    def bottleneck(self) -> str:
        """The saturated resource; ties resolve deterministically in
        favour of compute, then memory (a layer whose compute exactly
        covers its DRAM time is compute-bound, not memory-bound)."""
        value = self.total_cycles
        if value == self.compute_cycles:
            return "compute"
        if value == self.dram_cycles:
            return "memory"
        return "crypto"

    @property
    def total_bytes(self) -> int:
        return self.data_bytes + self.metadata_bytes


@dataclass
class SchemeRun:
    """Whole-model outcome for one (NPU, workload, scheme) triple.

    All cycle and byte totals cover the whole batch; ``batch`` carries
    the model's batch size and ``seq`` the sequence length of a
    transformer workload (``None`` otherwise), so per-image metrics and
    the cell's identity stay derivable after the trace (``model_run``)
    has been dropped for serialization.
    """

    npu: NpuConfig
    workload: str
    scheme_name: str
    layers: List[LayerTiming]
    model_run: Optional[ModelRun] = field(repr=False, default=None)
    batch: int = 1
    seq: Optional[int] = None

    @property
    def total_cycles(self) -> float:
        return sum(t.total_cycles for t in self.layers)

    @property
    def total_time_ms(self) -> float:
        return self.total_cycles / (self.npu.freq_ghz * 1e6)

    @property
    def time_per_image_ms(self) -> float:
        return self.total_time_ms / self.batch

    @property
    def data_bytes(self) -> int:
        return sum(t.data_bytes for t in self.layers)

    @property
    def metadata_bytes(self) -> int:
        return sum(t.metadata_bytes for t in self.layers)

    @property
    def total_bytes(self) -> int:
        return self.data_bytes + self.metadata_bytes

    @property
    def compute_cycles(self) -> float:
        return sum(t.compute_cycles for t in self.layers)

    def bottleneck_histogram(self) -> Dict[str, int]:
        histogram: Dict[str, int] = {}
        for t in self.layers:
            histogram[t.bottleneck] = histogram.get(t.bottleneck, 0) + 1
        return histogram


class Pipeline:
    """Accelerator -> protection -> DRAM evaluation pipeline for one NPU."""

    def __init__(self, npu: NpuConfig, image_align: Optional[int] = None):
        self.npu = npu
        self.accelerator = AcceleratorSim(npu.systolic_array(),
                                          npu.sram_budget(),
                                          image_align=image_align)
        self.dram = DramSim(npu.dram_config(), npu.freq_ghz)

    def simulate_model(self, topology: Topology) -> ModelRun:
        """Stage 1 only — reusable across schemes."""
        with obs.span("accel", workload=topology.name, npu=self.npu.name):
            return self.accelerator.run(topology)

    def run(self, topology: Topology, scheme: ProtectionScheme,
            model_run: Optional[ModelRun] = None,
            collect: Optional[List[CollectedRow]] = None,
            layers: Optional[range] = None) -> SchemeRun:
        """Full pipeline for one workload under one protection scheme.

        ``layers`` restricts the run to a window of consecutive layer
        indices (see :meth:`ProtectionScheme.protect_model`) and the
        result holds that window's timing rows only; windows run in
        layer order concatenate to the whole-model run exactly.
        ``collect``, when given, receives one :class:`CollectedRow` per
        timing row.
        """
        run = model_run if model_run is not None else self.simulate_model(topology)
        # Each layer's expanded block stream (and over-fetch side) is
        # memoized on its trace, so when ``model_run`` is shared across
        # schemes (the sweep path) the expansion happens once, not once
        # per scheme.
        with obs.span("protect", scheme=scheme.name, workload=topology.name):
            protections = scheme.protect_model(run, layers)
        engine = scheme.crypto_engine()

        # Each layer is served on a cold memory system, its data,
        # over-fetch and metadata sides as one virtually concatenated
        # stream.
        with obs.span("dram", scheme=scheme.name, workload=topology.name,
                      layers=len(protections)):
            dram_results = self.dram.simulate_fast_batch_parts(
                [p.sides for p in protections])

        if collect is not None:
            collect.extend(
                CollectedRow(p.layer_id, p.is_flush, p.data_bytes,
                             p.metadata_bytes, p.crypto_bytes, dram)
                for p, dram in zip(protections, dram_results))

        timings: List[LayerTiming] = []
        with obs.span("crypto", scheme=scheme.name, workload=topology.name):
            for protection, dram_result in zip(protections, dram_results):
                layer_id = protection.layer_id
                # A flush record is explicit (``is_flush``): a real
                # layer whose data stream happens to be empty keeps its
                # name and its compute cycles instead of degenerating
                # into a zero-compute ``(flush:N)`` row.
                if not protection.is_flush and layer_id < len(run.layers):
                    compute = float(run.layers[layer_id].compute_cycles)
                    name = run.layers[layer_id].layer.name
                else:
                    compute = 0.0
                    name = f"(flush:{layer_id})"

                crypto = 0.0
                if engine is not None and protection.crypto_bytes:
                    # Throughput-limited OTP generation; the pipeline
                    # latency (engine fill) is hidden under
                    # communication.
                    crypto = protection.crypto_bytes / engine.bytes_per_cycle

                timings.append(LayerTiming(
                    layer_id=layer_id,
                    layer_name=name,
                    compute_cycles=compute,
                    dram_cycles=dram_result.busy_cycles,
                    crypto_cycles=crypto,
                    data_bytes=protection.data_bytes,
                    metadata_bytes=protection.metadata_bytes,
                    row_hit_rate=dram_result.row_hit_rate,
                ))
        return SchemeRun(npu=self.npu, workload=topology.name,
                         scheme_name=scheme.name, layers=timings,
                         model_run=run, batch=topology.batch,
                         seq=topology.seq)
