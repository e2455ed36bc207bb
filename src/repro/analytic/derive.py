"""Probe-calibrated affine derivation of ``@bN`` cell records.

The derivation rests on three facts about this codebase:

1. **Batched traces are strided replicas.** ``_replicate_batch`` emits
   image ``i``'s schedule as image 0's with a per-kind aligned address
   shift and an ``i * image_cycles`` cycle shift. The default slab
   stride quantum (:data:`repro.accel.layout.IMAGE_SLAB_ALIGN`) is one
   full DRAM row-set — ``row_bytes * banks * channels`` — so image
   ``i``'s blocks decompose to the same channel, the same bank and the
   same in-row phase as image 0's; only the row index advances, and by
   the same amount in every bank. Per-bank access sequences therefore
   repeat per image and each consecutive-image boundary contributes an
   identical row-conflict correction, making per-channel request and
   conflict counts **affine in the batch size N**.

2. **Cache-filtered metadata is affine from image 1.** SGX/MGX
   metadata traffic passes through LRU cache models; image 0 runs the
   caches cold, so its traffic is off the affine line. The
   image-periodic metadata model (see
   :mod:`repro.protection.metadata_model`) simulates images 0 and 1 in
   full and replicates image 1's steady-state increment for the rest,
   so every integer is exactly affine from batch 2 onward:
   ``q(N) = q(2) + (N - 2) * Δ``. Schemes declare this via
   ``cache_filtered_metadata``; plain schemes are affine from batch 1
   and get the stronger ``Δ(1→2) == Δ(2→3)`` cross-check.

3. **Every float in a record is a closed form over such integers.**
   DRAM busy time, row-hit rate and crypto cycles are computed from
   integer counts by short float expressions; recomputing those exact
   expressions over extrapolated integers reproduces the simulated
   floats bit for bit.

Rather than trusting the affine argument blindly, the plane *measures*
it: batches 1, 2 and 3 are simulated in full, the integer deltas must
behave exactly as the law predicts, and the assembled records at
batches 2 and 3 must equal the simulated probe records bit for bit.
Only then is the same assembly run at N. Any violation — halo/straddle
footprints under an unaligned layout, a tiling plan that flips family
at some batch, cold-bank rotation in a pathological stream — returns
``None`` and the caller falls back to full simulation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro import obs
from repro.accel.simulator import ModelRun
from repro.core.metrics import ComparisonResult, compare_schemes
from repro.core.pipeline import (
    CollectedRow,
    LayerTiming,
    Pipeline,
    SchemeRun,
)
from repro.dram.timing import DramConfig
from repro.models.topology import Topology
from repro.models.zoo import (
    canonical_workload_name,
    format_workload_spec,
    get_workload,
    parse_workload_spec,
)
from repro.protection import make_scheme
from repro.protection.metadata_model import MAX_PROTECTION_UNIT
from repro.protection.seda import lanes_for_peak
from repro.crypto.engine import CryptoEngineModel, bandwidth_aware_engine
from repro.tiling.tile import TilingPlan, plan_tiling

# The affine integer vectors: one ``Tuple[int, ...]`` per timing row.
# Returns/storage use the concrete list; parameters take the covariant
# ``Sequence`` so narrower vectors (e.g. the per-layer ``(compute,
# bytes)`` pairs of ``_model_ints``) pass through unchanged.
IntRows = List[Tuple[int, ...]]
IntRowsLike = Sequence[Tuple[int, ...]]
# The batch-invariant (layer_id, is_flush) shape of a scheme's rows.
RowIdentity = Tuple[Tuple[int, bool], ...]


def _comparison_to_dict(result: ComparisonResult) -> Dict[str, Any]:
    # Imported lazily: repro.runner's package __init__ pulls in the
    # executor, which imports this module — a module-level import here
    # would close that cycle for whichever side loads first.
    from repro.runner.records import comparison_to_dict
    return comparison_to_dict(result)

#: Below this batch the probes (batches 1+2+3) cost as much as the
#: target cell itself; the executor simulates directly.
MIN_DERIVE_BATCH = 4

#: The simulated calibration points. Batch 2 is the extrapolation
#: anchor (cache-filtered metadata is affine only from image 1);
#: batch 1 exists to cross-check plain schemes and to produce the b1
#: sibling record.
PROBE_BATCHES = (1, 2, 3)

#: Structural plan fields that must be batch-invariant for the image-0
#: schedule (and its residency decisions) to be the template of every
#: probe and of the target batch. Traffic totals scale with batch and
#: are deliberately absent.
_PLAN_STRUCTURE_FIELDS = (
    "tile_out_rows", "num_m_tiles", "tile_filters", "num_n_tiles",
    "tile_k", "num_k_tiles", "n_outer", "ifmap_passes", "weight_passes",
    "ifmap_tile_bytes", "weight_tile_bytes", "ofmap_tile_bytes",
    "halo_bytes_per_boundary",
)


def _plan_signature(plan: TilingPlan) -> Tuple[Any, ...]:
    return tuple(getattr(plan, name) for name in _PLAN_STRUCTURE_FIELDS)


def derivable(model_run: ModelRun, dram_config: DramConfig) -> bool:
    """Static gate: do the b1 run's image strides preserve DRAM phase?

    Every per-image slab stride must be a multiple of one full DRAM
    row-set (``row_bytes * banks_per_channel * channels`` — the period
    after which the address mapping repeats channel, bank and in-row
    phase exactly) and of the largest protection unit, so image ``i``'s
    traffic decomposes to the same channels, banks, row offsets and
    protection units as image 0's, with only a uniform row shift. Under
    the default :data:`~repro.accel.layout.IMAGE_SLAB_ALIGN` slabs this
    holds for every zoo workload on the stock 4-channel geometry; it
    fails for raw packing (``image_align=1``) of halo convs with
    unaligned footprints (e.g. alexnet's 154587-byte ifmap) and for
    exotic geometries whose row-set exceeds the configured alignment.
    """
    amap = model_run.address_map
    row_set = (dram_config.row_bytes * dram_config.banks_per_channel
               * dram_config.channels)
    quantum = math.lcm(row_set, MAX_PROTECTION_UNIT)
    for result in model_run.layers:
        layer = result.layer
        footprints = [layer.ifmap_bytes_per_image, layer.ofmap_bytes_per_image]
        for bytes_per_image in footprints:
            if bytes_per_image <= 0:
                continue
            if amap.image_stride(bytes_per_image) % quantum != 0:
                return False
        if layer.kv and amap.kv_image_stride % quantum != 0:
            return False
    return True


def _cache_filtered(name: str) -> bool:
    return bool(make_scheme(name).cache_filtered_metadata)


# -- integer quantity extraction ---------------------------------------------

def _row_identity(rows: Sequence[CollectedRow]) -> RowIdentity:
    """Batch-invariant shape of one scheme's timing rows."""
    return tuple((row.layer_id, row.is_flush) for row in rows)


def _row_ints(rows: Sequence[CollectedRow]) -> IntRows:
    """The affine integer vector of one scheme's timing rows."""
    out: IntRows = []
    for row in rows:
        out.append((row.data_bytes, row.metadata_bytes, row.crypto_bytes,
                    *row.dram.per_channel_requests,
                    *row.dram.per_channel_row_misses))
    return out


def _model_ints(model_run: ModelRun) -> List[Tuple[int, int]]:
    """Per-layer (compute cycles, trace bytes): the seda peak inputs."""
    return [(r.compute_cycles, r.trace.total_bytes) for r in model_run.layers]


def _extrapolate(anchor: IntRowsLike, delta: IntRowsLike,
                 steps: int) -> IntRows:
    """``q(2 + steps) = q(2) + steps * Δ`` over nested int tuples."""
    return [tuple(a + steps * d for a, d in zip(row_a, row_d))
            for row_a, row_d in zip(anchor, delta)]


def _diff(q2: IntRowsLike, q1: IntRowsLike) -> IntRows:
    return [tuple(a - b for a, b in zip(row2, row1))
            for row2, row1 in zip(q2, q1)]


# -- record assembly ---------------------------------------------------------

def _scheme_engine(name: str, peak: float) -> Optional[CryptoEngineModel]:
    """Crypto engine of scheme ``name`` for a run with peak demand
    ``peak`` — seda's fan-out is run-sized, every other engine is fixed
    by the scheme's construction."""
    if name == "seda":
        return bandwidth_aware_engine(lanes_for_peak(peak))
    return make_scheme(name).crypto_engine()


def _assemble_scheme_run(pipeline: Pipeline, topology: Topology,
                         scheme_name: str, identity: RowIdentity,
                         ints: IntRowsLike,
                         layer_names: Sequence[str],
                         compute_at_n: Sequence[int],
                         peak: float) -> SchemeRun:
    """Rebuild one scheme's :class:`SchemeRun` from extrapolated
    integers, through the exact float expressions ``Pipeline.run`` and
    the fast DRAM model use."""
    dram = pipeline.dram
    channels = dram.config.channels
    overlap = 1.0 / dram.config.banks_per_channel
    engine = _scheme_engine(scheme_name, peak)

    timings: List[LayerTiming] = []
    for (layer_id, is_flush), row in zip(identity, ints):
        data_bytes, metadata_bytes, crypto_bytes = row[:3]
        counts = np.asarray(row[3:3 + channels], dtype=np.int64)
        miss_counts = np.asarray(row[3 + channels:3 + 2 * channels],
                                 dtype=np.int64)
        requests = int(counts.sum())
        misses = int(miss_counts.sum())
        if requests:
            busy = (counts * dram._burst_cyc
                    + miss_counts * dram._miss_cyc * overlap)
            dram_cycles = float(busy.max())
            row_hit_rate = (requests - misses) / requests
        else:
            dram_cycles = 0.0
            row_hit_rate = 0.0

        if not is_flush and layer_id < len(layer_names):
            compute = float(compute_at_n[layer_id])
            name = layer_names[layer_id]
        else:
            compute = 0.0
            name = f"(flush:{layer_id})"

        crypto = 0.0
        if engine is not None and crypto_bytes:
            crypto = crypto_bytes / engine.bytes_per_cycle

        timings.append(LayerTiming(
            layer_id=layer_id,
            layer_name=name,
            compute_cycles=compute,
            dram_cycles=dram_cycles,
            crypto_cycles=crypto,
            data_bytes=data_bytes,
            metadata_bytes=metadata_bytes,
            row_hit_rate=row_hit_rate,
        ))
    return SchemeRun(npu=pipeline.npu, workload=topology.name,
                     scheme_name=scheme_name, layers=timings,
                     model_run=None, batch=topology.batch,
                     seq=topology.seq)


def _assemble_record(pipeline: Pipeline, topology: Topology,
                     scheme_names: Sequence[str],
                     identities: Dict[str, RowIdentity],
                     anchor: Dict[str, IntRows],
                     delta: Dict[str, IntRows],
                     model_anchor: IntRowsLike, model_delta: IntRowsLike,
                     layer_names: Sequence[str],
                     n: int) -> Dict[str, Any]:
    """The full derived cell record at batch ``n``."""
    steps = n - PROBE_BATCHES[1]
    model_n = _extrapolate(model_anchor, model_delta, steps)
    compute_at_n = [row[0] for row in model_n]
    # ModelRun.peak_demand_bytes_per_cycle over the extrapolated layers,
    # through the same int/int float division.
    peak = 0.0
    for compute, trace_bytes in model_n:
        demand = trace_bytes / compute if compute else 0.0
        peak = max(peak, demand)

    def build(name: str) -> SchemeRun:
        ints = _extrapolate(anchor[name], delta[name], steps)
        return _assemble_scheme_run(pipeline, topology, name,
                                    identities[name], ints, layer_names,
                                    compute_at_n, peak)

    result = ComparisonResult(
        npu_name=pipeline.npu.name,
        workload=topology.name,
        runs={name: build(name) for name in scheme_names},
        baseline=build("baseline"),
    )
    return _comparison_to_dict(result)


# -- probes ------------------------------------------------------------------

@dataclass
class _Probe:
    """What derivation keeps of one simulated probe batch: its record
    and the integers the affine law is checked on. The probe's model
    run, with its traces, is dropped before the next batch runs."""

    record: Dict[str, Any]
    rows: Dict[str, List[CollectedRow]]
    model_ints: List[Tuple[int, int]]
    plan_sigs: List[Tuple[Any, ...]]
    topology: Topology
    layer_names: List[str]
    derivable: bool


def _simulate_probe(pipeline: Pipeline, spec: str,
                    scheme_names: Sequence[str]) -> Optional[_Probe]:
    rows: Dict[str, List[CollectedRow]] = {}
    comparison = compare_schemes(pipeline, get_workload(spec), scheme_names,
                                 collect=rows)
    run = comparison.baseline.model_run
    if run is None:
        return None
    return _Probe(record=_comparison_to_dict(comparison), rows=rows,
                  model_ints=_model_ints(run),
                  plan_sigs=[_plan_signature(r.plan) for r in run.layers],
                  topology=run.topology,
                  layer_names=[r.layer.name for r in run.layers],
                  derivable=derivable(run, pipeline.dram.config))


# -- the derivation entry point ----------------------------------------------

def derive_cell(pipeline: Pipeline, workload_spec: str,
                scheme_names: Sequence[str]
                ) -> Optional[Tuple[Dict[str, Any], Dict[str, Any]]]:
    """Derive the ``@bN`` cell record for ``workload_spec`` from probes.

    Returns ``(derived_record, b1_record)`` — the target-batch record
    (unstamped; the caller adds ``derived_from``) plus the batch-1
    sibling record the probes produced along the way — or ``None`` when
    any exactness check fails and the caller must simulate in full.
    """
    base, batch, seq = parse_workload_spec(workload_spec)
    if batch < MIN_DERIVE_BATCH:
        return None
    canonical = canonical_workload_name(base)
    scheme_names = list(scheme_names)
    all_names = ["baseline"] + scheme_names

    with obs.span("analytic.derive", workload=workload_spec,
                  batch=batch):
        # Each probe is reduced to its record and integers as soon as
        # it is simulated, so one probe's traces are alive at a time.
        probes: Dict[int, _Probe] = {}
        for n in PROBE_BATCHES:
            probe = _simulate_probe(
                pipeline, format_workload_spec(canonical, n, seq),
                scheme_names)
            if probe is None:
                return None
            probes[n] = probe

        b1 = probes[PROBE_BATCHES[0]]
        if not b1.derivable:
            return None

        # The image-0 schedule must be the template at every batch: the
        # tiling plans of the probes and of the target batch must agree
        # structurally with batch 1 (plan families can flip with batch —
        # banded weight-resident traffic is affine in N while k-tiled
        # is proportional — and a flip voids the replica property).
        b1_sigs = b1.plan_sigs
        for n in PROBE_BATCHES[1:]:
            if probes[n].plan_sigs != b1_sigs:
                return None
        topology_n = get_workload(
            format_workload_spec(canonical, batch, seq))
        budget = pipeline.accelerator.budget
        sigs_n = [_plan_signature(plan_tiling(layer, budget))
                  for layer in topology_n]
        if sigs_n != b1_sigs:
            return None

        # Integer affine law, anchored at batch 2: extrapolation uses
        # q(2) and Δ(2→3). Plain schemes are affine from batch 1 and
        # must additionally satisfy Δ(1→2) == Δ(2→3) exactly; cache-
        # filtered schemes (SGX/MGX) run image 0 cold, so their batch-1
        # rows are legitimately off the line and only anchor + delta
        # consistency at probes 2/3 is checkable (the bit-identity self
        # check below and the target's plan checks carry the rest).
        identities: Dict[str, RowIdentity] = {}
        anchor: Dict[str, IntRows] = {}
        delta: Dict[str, IntRows] = {}
        for name in all_names:
            rows = [probes[n].rows.get(name, []) for n in PROBE_BATCHES]
            idents = [_row_identity(r) for r in rows]
            if idents[1] != idents[2]:
                return None
            ints = [_row_ints(r) for r in rows]
            d23 = _diff(ints[2], ints[1])
            if not _cache_filtered(name):
                if idents[0] != idents[1]:
                    return None
                if _diff(ints[1], ints[0]) != d23:
                    return None
            identities[name] = idents[1]
            anchor[name] = ints[1]
            delta[name] = d23
        model_ints = [probes[n].model_ints for n in PROBE_BATCHES]
        model_d23 = _diff(model_ints[2], model_ints[1])
        if _diff(model_ints[1], model_ints[0]) != model_d23:
            return None

        # End-to-end self check: assembling the probe batches from
        # (anchor, Δ) must reproduce their simulated records bit for
        # bit — this exercises every float expression the target record
        # will be built from (batch 2 checks the assembly itself, batch
        # 3 checks the delta application on top).
        for n in PROBE_BATCHES[1:]:
            assembled = _assemble_record(
                pipeline, probes[n].topology,
                scheme_names, identities, anchor, delta,
                model_ints[1], model_d23, b1.layer_names, n)
            if assembled != probes[n].record:
                return None

        record = _assemble_record(pipeline, topology_n, scheme_names,
                                  identities, anchor, delta,
                                  model_ints[1], model_d23, b1.layer_names,
                                  batch)
        return record, b1.record
