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
from typing import Dict, Iterable, Iterator, List, Optional, Tuple

from repro import obs
from repro.accel.simulator import AcceleratorSim, LayerResult, ModelRun
from repro.accel.trace import TraceWindow
from repro.core.config import NpuConfig
from repro.dram.simulator import DramResult, DramSim, WalkState
from repro.models.topology import Topology
from repro.protection.base import LayerProtection, ProtectionScheme
from repro.protection.metadata_model import (
    PeriodicSkip,
    layer_windows,
    periodic_skip,
)


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


class _LayerTotals:
    """One scheme's sums over a layer's windows so far: the DRAM walk's
    state and the protection rows' byte counts, and the counts at the
    start of the window segment being served (``mark``)."""

    __slots__ = ("walk", "data_bytes", "metadata_bytes", "crypto_bytes",
                 "segment", "mark")

    def __init__(self, walk: WalkState):
        self.walk = walk
        self.data_bytes = self.metadata_bytes = self.crypto_bytes = 0
        self.segment = 0
        self.mark = self._counts()

    def _counts(self) -> Tuple[List[int], List[int], int, int, int]:
        return (self.walk.requests, self.walk.conflicts, self.data_bytes,
                self.metadata_bytes, self.crypto_bytes)

    def begin(self, segment: int) -> None:
        """Mark the counts where a new segment of windows starts."""
        if segment != self.segment:
            self.segment = segment
            self.mark = self._counts()

    def add(self, protection: LayerProtection) -> None:
        self.data_bytes += protection.data_bytes
        self.metadata_bytes += protection.metadata_bytes
        self.crypto_bytes += protection.crypto_bytes

    def repeat(self, skip: PeriodicSkip) -> None:
        """Serve ``skip.times`` more copies of the segment served last:
        add its increments (requests and row conflicts per channel,
        data, metadata and crypto bytes) that many times and move the
        open rows on (:meth:`WalkState.advance`)."""
        requests, conflicts, data, metadata, crypto = self.mark
        walk, times = self.walk, skip.times
        walk.add([now - then for now, then in zip(walk.requests, requests)],
                 [now - then for now, then in zip(walk.conflicts, conflicts)],
                 times)
        walk.advance(skip.spans, times)
        self.data_bytes += times * (self.data_bytes - data)
        self.metadata_bytes += times * (self.metadata_bytes - metadata)
        self.crypto_bytes += times * (self.crypto_bytes - crypto)


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

    def layer_windows(self, run: ModelRun,
                      result: LayerResult) -> Iterator[TraceWindow]:
        """The cycle windows one layer of ``run`` is served in
        (:func:`~repro.protection.metadata_model.layer_windows`),
        skipping image windows 3..N-1 of a batched layer wherever the
        periodic shortcut's gate holds
        (:func:`~repro.protection.metadata_model.periodic_skip`)."""
        return layer_windows(result, periodic_skip(
            result, run.address_map, self.dram.config))

    def run(self, topology: Topology, scheme: ProtectionScheme,
            model_run: Optional[ModelRun] = None,
            collect: Optional[List[CollectedRow]] = None,
            window: Optional[TraceWindow] = None) -> SchemeRun:
        """Full pipeline for one workload under one protection scheme.

        Each layer is protected and served one cycle window at a time
        (:func:`~repro.protection.metadata_model.layer_windows`), so one
        window's block streams are alive at a time. ``window``
        restricts the run to one window of one layer; the result holds
        the timing rows of the layers that end in the run. Runs over
        the windows in order concatenate to the whole-model run
        exactly: a layer's DRAM walk and byte counts carry from window
        to window in the window's per-layer state, and its row is made
        after its last window. ``collect``, when given, receives one
        :class:`CollectedRow` per timing row.
        """
        run = model_run if model_run is not None else self.simulate_model(topology)
        if window is not None:
            windows: Iterable[TraceWindow] = (window,)
        else:
            windows = (w for result in run.layers
                       for w in self.layer_windows(run, result))
        timings: List[LayerTiming] = []
        for part in windows:
            self._serve(topology, run, scheme, part, collect, timings)
        return SchemeRun(npu=self.npu, workload=topology.name,
                         scheme_name=scheme.name, layers=timings,
                         model_run=run, batch=run.batch,
                         seq=topology.seq)

    def _serve(self, topology: Topology, run: ModelRun,
               scheme: ProtectionScheme, window: TraceWindow,
               collect: Optional[List[CollectedRow]],
               timings: List[LayerTiming]) -> None:
        """Protect and serve one window; append the rows it completes:
        the layer's after its last window, then any flush row. A window
        standing for skipped image windows repeats the segment before
        it instead (:meth:`_LayerTotals.repeat`)."""
        totals = window.state.get(scheme)
        if totals is None:
            totals = window.state[scheme] = \
                _LayerTotals(self.dram.walk_state())
        if window.skip is not None:
            # Skipped image windows: the segment just served, again.
            totals.repeat(window.skip)
            return
        totals.begin(window.segment)
        with obs.span("protect", scheme=scheme.name, workload=topology.name):
            protections = scheme.protect_model(run, window=window)
        # The window's data, over-fetch and metadata sides are served as
        # one virtually concatenated stream, the layer's row from the
        # memory state its earlier windows left; a flush row on a cold
        # memory system.
        rows = [(p, _LayerTotals(self.dram.walk_state()) if p.is_flush
                 else totals) for p in protections]
        with obs.span("dram", scheme=scheme.name, workload=topology.name,
                      layers=len(protections)):
            self.dram.simulate_fast_batch_parts(
                [p.sides for p, _ in rows], [sums.walk for _, sums in rows])
        for protection, sums in rows:
            sums.add(protection)
        finished = [(p, sums) for p, sums in rows
                    if p.is_flush or window.last]
        if not finished:
            return
        engine = scheme.crypto_engine()
        with obs.span("crypto", scheme=scheme.name, workload=topology.name):
            for protection, sums in finished:
                layer_id = protection.layer_id
                dram_result = self.dram.finish(sums.walk)
                if collect is not None:
                    collect.append(CollectedRow(
                        layer_id, protection.is_flush, sums.data_bytes,
                        sums.metadata_bytes, sums.crypto_bytes, dram_result))
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
                if engine is not None and sums.crypto_bytes:
                    # Throughput-limited OTP generation; the pipeline
                    # latency (engine fill) is hidden under
                    # communication.
                    crypto = sums.crypto_bytes / engine.bytes_per_cycle

                timings.append(LayerTiming(
                    layer_id=layer_id,
                    layer_name=name,
                    compute_cycles=compute,
                    dram_cycles=dram_result.busy_cycles,
                    crypto_cycles=crypto,
                    data_bytes=sums.data_bytes,
                    metadata_bytes=sums.metadata_bytes,
                    row_hit_rate=dram_result.row_hit_rate,
                ))
