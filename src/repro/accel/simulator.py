"""Whole-model accelerator simulation: topology -> cycles + DRAM trace.

For each layer the simulator plans tiling under the SRAM budget, walks the
planned loop nest, charges analytical systolic-array cycles per tile, and
emits the DRAM trace the walk produces (ifmap loads with halo re-fetch,
weight streams, ofmap stores). Double buffering is assumed: a tile's
operands stream in while the previous tile computes, so each range is
issued at its tile's start cycle and spread across the tile's compute
window.

Two walks exist, matching the two plan families in
:mod:`repro.tiling.tile`:

- banded: ``for m-band / for filter-group`` (order per ``plan.n_outer``),
  K whole;
- K-tiled: ``for m / for n / for k`` with the partial-sum tile resident,
  used by large GEMM layers.

Both walks emit a single image's schedule; batched layers replicate the
image-0 trace on its columns (per-kind address shifts plus a per-image
cycle shift, dropping resident weight fetches) so batch N costs one walk
plus vectorized copies, not N Python tile loops.

Attention layers with ``kv=True`` stream their K x N operand from the
per-layer KV region as :attr:`AccessKind.KVCACHE` traffic instead of
WEIGHT: KV state is per-sequence data, so it is never resident across a
batch (every image re-streams its own slab) and protection schemes see
it as a distinct traffic class.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Tuple

import numpy as np

from repro import obs
from repro.accel.layout import AddressMap
from repro.accel.systolic import SystolicArray
from repro.accel.trace import AccessKind, Trace, kind_code
from repro.models.layer import Layer, ELEMENT_BYTES
from repro.models.topology import Topology
from repro.tiling.tile import SramBudget, TilingPlan, plan_tiling


@dataclass
class LayerResult:
    """Simulation outcome for one layer."""

    layer: Layer
    layer_id: int
    plan: TilingPlan
    compute_cycles: int
    start_cycle: int
    trace: Trace = field(repr=False, default_factory=Trace)

    @property
    def dram_bytes(self) -> int:
        return self.trace.total_bytes

    @property
    def demand_bytes_per_cycle(self) -> float:
        """Average DRAM demand while this layer computes."""
        if self.compute_cycles == 0:
            return 0.0
        return self.dram_bytes / self.compute_cycles


@dataclass
class ModelRun:
    """Simulation outcome for a whole topology."""

    topology: Topology
    array: SystolicArray
    budget: SramBudget
    address_map: AddressMap
    layers: List[LayerResult]
    #: The topology's batch size (:attr:`Topology.batch`, a scan over
    #: every layer), taken once per run rather than once per window.
    batch: int = 1

    @property
    def compute_cycles(self) -> int:
        return sum(r.compute_cycles for r in self.layers)

    @property
    def dram_bytes(self) -> int:
        return sum(r.dram_bytes for r in self.layers)

    @property
    def peak_demand_bytes_per_cycle(self) -> float:
        return max((r.demand_bytes_per_cycle for r in self.layers), default=0.0)


class AcceleratorSim:
    """SCALE-Sim-style simulator for one accelerator configuration."""

    def __init__(self, array: SystolicArray, budget: SramBudget,
                 image_align: Optional[int] = None):
        self.array = array
        self.budget = budget
        #: Per-image slab alignment forwarded to :class:`AddressMap`;
        #: ``None`` keeps the layout default (DRAM row-set aligned slabs).
        self.image_align = image_align

    def run(self, topology: Topology) -> ModelRun:
        """Simulate ``topology`` end to end."""
        if self.image_align is None:
            address_map = AddressMap(topology)
        else:
            address_map = AddressMap(topology, image_align=self.image_align)
        results: List[LayerResult] = []
        cursor = 0
        for layer_id, layer in enumerate(topology):
            # One span per layer is the sanctioned stage granularity.
            # repro: allow(obs-noop-discipline)
            with obs.span("accel.layer", layer=layer_id,
                          layer_name=layer.name):
                result = self.run_layer(layer, layer_id, address_map, cursor)
            results.append(result)
            cursor += result.compute_cycles
        return ModelRun(topology=topology, array=self.array,
                        budget=self.budget, address_map=address_map,
                        layers=results, batch=topology.batch)

    def run_layer(self, layer: Layer, layer_id: int,
                  address_map: AddressMap, start_cycle: int) -> LayerResult:
        plan = plan_tiling(layer, self.budget)
        trace = Trace()
        if plan.is_k_tiled:
            image_cycles = self._walk_k_tiled(layer, layer_id, plan,
                                              address_map, start_cycle, trace)
        else:
            image_cycles = self._walk_banded(layer, layer_id, plan,
                                             address_map, start_cycle, trace)
        # The walks emit one image's schedule; the rest of the batch is
        # the same schedule shifted, replicated on the trace columns
        # instead of re-running the Python tile loops per image.
        total_cycles = image_cycles * layer.batch
        if layer.batch > 1:
            trace = self._replicate_batch(trace, layer, plan, image_cycles,
                                          address_map)
        return LayerResult(layer=layer, layer_id=layer_id, plan=plan,
                           compute_cycles=total_cycles,
                           start_cycle=start_cycle, trace=trace)

    @staticmethod
    def _replicate_batch(trace: Trace, layer: Layer, plan: TilingPlan,
                         image_cycles: int,
                         address_map: AddressMap) -> Trace:
        """Columnar batch expansion of an image-0 trace.

        Image ``i``'s schedule is image 0's with a per-kind address
        shift (each image reads/writes its own activation slab, weights
        stay put) and an ``i * image_cycles`` issue shift. The per-kind
        shift is the address map's aligned image stride, so every image
        lands on the same block/channel/protection-unit phase. Weights
        that are fully resident on chip (banded schedule, single filter
        group) are fetched by image 0 only; streamed weights re-load
        every image.
        """
        if not len(trace):
            return trace
        cycles, addrs, nbytes, writes, kinds, layer_ids, durations = \
            trace.buf.arrays()
        addr_shift = np.zeros(len(kinds), np.int64)
        addr_shift[kinds == kind_code(AccessKind.IFMAP)] = \
            address_map.image_stride(layer.ifmap_bytes_per_image)
        addr_shift[kinds == kind_code(AccessKind.OFMAP)] = \
            address_map.image_stride(layer.ofmap_bytes_per_image)
        # Each image reads its own KV slab — never resident across images.
        addr_shift[kinds == kind_code(AccessKind.KVCACHE)] = \
            address_map.kv_image_stride
        weight_resident = (not plan.is_k_tiled and plan.num_n_tiles == 1
                           and not layer.kv)
        keep = (kinds != kind_code(AccessKind.WEIGHT)
                if weight_resident else slice(None))
        # Mask once; images 1..N-1 differ only in the cycle/addr shifts.
        kept_cycles, kept_addrs, kept_shift = \
            cycles[keep], addrs[keep], addr_shift[keep]
        kept_fixed = (nbytes[keep], writes[keep], kinds[keep],
                      layer_ids[keep], durations[keep])

        parts = [(cycles, addrs, nbytes, writes, kinds, layer_ids, durations)]
        for image in range(1, layer.batch):
            parts.append((
                kept_cycles + image * image_cycles,
                kept_addrs + image * kept_shift,
                *kept_fixed,
            ))
        return Trace._from_arrays(
            *(np.concatenate(cols) for cols in zip(*parts)))

    # -- banded walk --

    def _walk_banded(self, layer: Layer, layer_id: int, plan: TilingPlan,
                     address_map: AddressMap, start_cycle: int,
                     trace: Trace) -> int:
        """Banded tile schedule, built as whole columns.

        The per-tile quantities (extents, cycles, residency masks,
        cursors) are arange/cumsum arithmetic over the flattened
        ``outer x inner`` grid; the ranges land in the trace through one
        batched append in exactly the order the nested loops emitted
        them (ifmap load, weight load, ofmap store per tile).
        """
        row_bytes = layer.ifmap_w * layer.channels * ELEMENT_BYTES
        weight_per_filter = max(1, layer.weight_bytes // max(1, layer.gemm_n))
        ifmap_base = address_map.ifmap_addr(layer_id)
        weight_base, weight_kind = self._weight_source(layer, layer_id,
                                                       address_map)
        ofmap_base = address_map.ofmap_addr(layer_id)
        out_w = layer.ofmap_w

        outer, inner = ((plan.num_n_tiles, plan.num_m_tiles) if plan.n_outer
                        else (plan.num_m_tiles, plan.num_n_tiles))
        if outer * inner < 16:
            # Tiny grids (whole layers resident): the per-tile loop beats
            # the fixed cost of the column machinery.
            return self._walk_banded_small(layer, layer_id, plan,
                                           address_map, start_cycle, trace)
        outer_idx = np.repeat(np.arange(outer, dtype=np.int64), inner)
        inner_idx = np.tile(np.arange(inner, dtype=np.int64), outer)
        mi, ni = ((inner_idx, outer_idx) if plan.n_outer
                  else (outer_idx, inner_idx))
        rows = np.minimum(plan.tile_out_rows,
                          layer.ofmap_h - mi * plan.tile_out_rows)
        filters = np.minimum(plan.tile_filters,
                             layer.gemm_n - ni * plan.tile_filters)
        tile_cycles = self.array.compute_cycles_vec(
            rows * out_w, layer.gemm_k, filters)
        total_cycles = int(tile_cycles.sum())
        cursor = start_cycle + np.cumsum(tile_cycles) - tile_cycles

        # Residency: an operand whose dimension is not re-streamed is
        # loaded only on its first pass.
        if plan.n_outer:
            load_ifmap = (np.full(len(mi), plan.num_m_tiles > 1, dtype=bool)
                          | (outer_idx == 0))
            load_weight = mi == 0
        else:
            load_ifmap = ni == 0
            load_weight = (np.full(len(mi), plan.num_n_tiles > 1, dtype=bool)
                           | (outer_idx == 0))

        # ifmap band extents (padding synthesized on chip; see
        # _ifmap_tile_extent for the scalar form)
        first = mi * plan.tile_out_rows * layer.stride_h - layer.pad_h
        last = first + rows * layer.stride_h + layer.filt_h - layer.stride_h
        lo = np.maximum(0, first)
        hi = np.minimum(layer.ifmap_h, last)
        if_nbytes = np.maximum(0, hi - lo) * row_bytes
        if_addr = ifmap_base + lo * row_bytes
        emit_if = load_ifmap & (if_nbytes > 0)

        w_offset = ni * plan.tile_filters * weight_per_filter
        w_nbytes = np.minimum(plan.weight_tile_bytes,
                              layer.weight_bytes - w_offset)
        emit_w = load_weight & (w_nbytes > 0)

        of_nbytes = rows * out_w * filters * ELEMENT_BYTES
        emit_of = of_nbytes > 0
        of_addr = (ofmap_base + np.cumsum(np.where(emit_of, of_nbytes, 0))
                   - np.where(emit_of, of_nbytes, 0))

        # Interleave per tile: [ifmap?, weight?, ofmap?]
        counts = emit_if.astype(np.int64) + emit_w + emit_of
        base = np.cumsum(counts) - counts
        total = int(counts.sum())
        ev_cycle = np.empty(total, np.int64)
        ev_addr = np.empty(total, np.int64)
        ev_nbytes = np.empty(total, np.int64)
        ev_write = np.zeros(total, np.int8)
        ev_kind = np.empty(total, np.int8)
        ev_dur = np.empty(total, np.int64)

        def place(slots, sel, addr, nbytes, write, kind):
            ev_cycle[slots] = cursor[sel]
            ev_addr[slots] = addr
            ev_nbytes[slots] = nbytes
            ev_write[slots] = write
            ev_kind[slots] = kind
            ev_dur[slots] = tile_cycles[sel]

        place(base[emit_if], emit_if, if_addr[emit_if],
              if_nbytes[emit_if], 0, kind_code(AccessKind.IFMAP))
        place((base + emit_if)[emit_w], emit_w,
              weight_base + w_offset[emit_w], w_nbytes[emit_w], 0,
              kind_code(weight_kind))
        place((base + emit_if + emit_w)[emit_of], emit_of,
              of_addr[emit_of], of_nbytes[emit_of], 1,
              kind_code(AccessKind.OFMAP))
        trace.emit_batch(ev_cycle, ev_addr, ev_nbytes, writes=ev_write,
                         kind_codes=ev_kind, layer_id=layer_id,
                         durations=ev_dur)
        return total_cycles

    def _walk_banded_small(self, layer: Layer, layer_id: int,
                           plan: TilingPlan, address_map: AddressMap,
                           start_cycle: int, trace: Trace) -> int:
        """Scalar reference walk (small grids); range-identical to the
        batched builder — ``tests/accel/test_simulator.py`` pins it."""
        row_bytes = layer.ifmap_w * layer.channels * ELEMENT_BYTES
        weight_per_filter = max(1, layer.weight_bytes // max(1, layer.gemm_n))
        ifmap_base = address_map.ifmap_addr(layer_id)
        weight_base, weight_kind = self._weight_source(layer, layer_id,
                                                       address_map)
        ofmap_base = address_map.ofmap_addr(layer_id)

        cursor = start_cycle
        total_cycles = 0
        ofmap_cursor = 0
        out_w = layer.ofmap_w

        outer, inner = ((plan.num_n_tiles, plan.num_m_tiles) if plan.n_outer
                        else (plan.num_m_tiles, plan.num_n_tiles))
        for outer_idx in range(outer):
            for inner_idx in range(inner):
                mi, ni = ((inner_idx, outer_idx) if plan.n_outer
                          else (outer_idx, inner_idx))
                rows = min(plan.tile_out_rows,
                           layer.ofmap_h - mi * plan.tile_out_rows)
                filters = min(plan.tile_filters,
                              layer.gemm_n - ni * plan.tile_filters)
                tile_cycles = self.array.compute_cycles(
                    rows * out_w, layer.gemm_k, filters)
                total_cycles += tile_cycles

                # Residency: an operand whose dimension is not re-streamed
                # is loaded only on its first pass.
                if plan.n_outer:
                    load_ifmap = plan.num_m_tiles > 1 or outer_idx == 0
                    load_weight = mi == 0
                else:
                    load_ifmap = ni == 0
                    load_weight = plan.num_n_tiles > 1 or outer_idx == 0

                if load_ifmap:
                    offset, nbytes = self._ifmap_tile_extent(
                        layer, plan, mi, row_bytes)
                    if nbytes:
                        trace.emit(cursor, ifmap_base + offset, nbytes,
                                   write=False, kind=AccessKind.IFMAP,
                                   layer_id=layer_id, duration=tile_cycles)
                if load_weight:
                    offset = ni * plan.tile_filters * weight_per_filter
                    nbytes = min(plan.weight_tile_bytes,
                                 layer.weight_bytes - offset)
                    if nbytes > 0:
                        trace.emit(cursor, weight_base + offset, nbytes,
                                   write=False, kind=weight_kind,
                                   layer_id=layer_id, duration=tile_cycles)

                nbytes = rows * out_w * filters * ELEMENT_BYTES
                if nbytes > 0:
                    trace.emit(cursor, ofmap_base + ofmap_cursor, nbytes,
                               write=True, kind=AccessKind.OFMAP,
                               layer_id=layer_id, duration=tile_cycles)
                    ofmap_cursor += nbytes
                cursor += tile_cycles
        return total_cycles

    # -- K-tiled walk (large GEMMs) --

    def _walk_k_tiled(self, layer: Layer, layer_id: int, plan: TilingPlan,
                      address_map: AddressMap, start_cycle: int,
                      trace: Trace) -> int:
        """K-tiled GEMM schedule, built as whole columns.

        Flattens the ``m x n x k`` nest; each (m, n) group contributes
        ``2 * num_k`` operand loads followed by its partial-sum store,
        in exactly the nested loops' emission order.
        """
        m, k, n = layer.gemm_m, layer.gemm_k, layer.gemm_n
        ifmap_base = address_map.ifmap_addr(layer_id)
        weight_base, weight_kind = self._weight_source(layer, layer_id,
                                                       address_map)
        ofmap_base = address_map.ofmap_addr(layer_id)

        M, N, K = plan.num_m_tiles, plan.num_n_tiles, plan.num_k_tiles
        mi = np.repeat(np.arange(M, dtype=np.int64), N * K)
        ni = np.tile(np.repeat(np.arange(N, dtype=np.int64), K), M)
        ki = np.tile(np.arange(K, dtype=np.int64), M * N)
        tile_m = np.minimum(plan.tile_out_rows, m - mi * plan.tile_out_rows)
        tile_n = np.minimum(plan.tile_filters, n - ni * plan.tile_filters)
        tile_k = np.minimum(plan.tile_k, k - ki * plan.tile_k)
        tile_cycles = self.array.compute_cycles_vec(tile_m, tile_k, tile_n)
        total_cycles = int(tile_cycles.sum())
        cursor = start_cycle + np.cumsum(tile_cycles) - tile_cycles

        # ifmap chunk: rows [mi], K slice [ki] — contiguous per row;
        # modelled as one range at the slice offset.
        if_addr = ifmap_base + (mi * plan.tile_out_rows * k
                                + ki * plan.tile_k * tile_m) * ELEMENT_BYTES
        w_addr = weight_base + (ni * plan.tile_filters * k
                                + ki * plan.tile_k * tile_n) * ELEMENT_BYTES

        # Per (m, n) group: 2 * K operand loads, then the ofmap store.
        groups = M * N
        group = np.arange(M * N * K, dtype=np.int64) // K
        slot = group * (2 * K + 1) + 2 * ki
        total = groups * (2 * K + 1)
        ev_cycle = np.empty(total, np.int64)
        ev_addr = np.empty(total, np.int64)
        ev_nbytes = np.empty(total, np.int64)
        ev_write = np.zeros(total, np.int8)
        ev_kind = np.empty(total, np.int8)
        ev_dur = np.empty(total, np.int64)

        ev_cycle[slot] = cursor
        ev_addr[slot] = if_addr
        ev_nbytes[slot] = tile_m * tile_k * ELEMENT_BYTES
        ev_kind[slot] = kind_code(AccessKind.IFMAP)
        ev_dur[slot] = tile_cycles
        ev_cycle[slot + 1] = cursor
        ev_addr[slot + 1] = w_addr
        ev_nbytes[slot + 1] = tile_k * tile_n * ELEMENT_BYTES
        ev_kind[slot + 1] = kind_code(weight_kind)
        ev_dur[slot + 1] = tile_cycles

        # Partial sums complete: store the (tile_m x tile_n) ofmap tile
        # at the cycle the group's last K tile finishes.
        last = np.arange(groups, dtype=np.int64) * K + (K - 1)
        of_slot = np.arange(groups, dtype=np.int64) * (2 * K + 1) + 2 * K
        of_nbytes = (tile_m[last] * tile_n[last] * ELEMENT_BYTES)
        ev_cycle[of_slot] = cursor[last] + tile_cycles[last]
        ev_addr[of_slot] = (ofmap_base + np.cumsum(of_nbytes) - of_nbytes)
        ev_nbytes[of_slot] = of_nbytes
        ev_write[of_slot] = 1
        ev_kind[of_slot] = kind_code(AccessKind.OFMAP)
        ev_dur[of_slot] = 1
        trace.emit_batch(ev_cycle, ev_addr, ev_nbytes, writes=ev_write,
                         kind_codes=ev_kind, layer_id=layer_id,
                         durations=ev_dur)
        return total_cycles

    @staticmethod
    def _weight_source(layer: Layer, layer_id: int,
                       address_map: AddressMap) -> Tuple[int, AccessKind]:
        """(base address, traffic kind) of the layer's K x N operand."""
        if layer.kv:
            return address_map.kv_addr(layer_id), AccessKind.KVCACHE
        return address_map.weight_addr(layer_id), AccessKind.WEIGHT

    @staticmethod
    def _ifmap_tile_extent(layer: Layer, plan: TilingPlan, mi: int,
                           row_bytes: int) -> Tuple[int, int]:
        """(offset, nbytes) of the stored input band tile ``mi`` reads.

        The band's receptive field starts ``pad_h`` rows above the
        stored tensor and may run past its bottom; only the stored rows
        in between are fetched from DRAM (padding is synthesized on
        chip).
        """
        rows = min(plan.tile_out_rows, layer.ofmap_h - mi * plan.tile_out_rows)
        first = mi * plan.tile_out_rows * layer.stride_h - layer.pad_h
        last = first + rows * layer.stride_h + layer.filt_h - layer.stride_h
        lo = max(0, first)
        hi = min(layer.ifmap_h, last)
        return lo * row_bytes, max(0, hi - lo) * row_bytes
