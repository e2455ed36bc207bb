"""Protection-scheme interface and shared result types."""

from __future__ import annotations

import abc
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro import obs
from repro.accel.simulator import LayerResult, ModelRun
from repro.accel.trace import (
    BLOCK_BYTES,
    BlockStream,
    TraceWindow,
    TrafficSide,
)
from repro.crypto.engine import CryptoEngineModel
from repro.protection.metadata_model import (
    CacheTrafficResult,
    MetadataTable,
    data_sides,
    drive_tables,
    drive_window,
    layer_windows,
)


@dataclass
class LayerProtection:
    """What a scheme adds to one layer's traffic and timing.

    Traffic is held as cycle-sorted sides that are never concatenated:
    the data sides (the window's shared data blocks, then, at a coarse
    unit, its over-fetch blocks) and the metadata sides (MAC and VN
    traffic, or layer MACs). The DRAM model walks their merge keyed
    ``(cycle, side index)`` (:attr:`sides`), the issue order of their
    concatenation stably sorted by cycle. A pipeline row covers one
    cycle window of a layer (:meth:`ProtectionScheme.protect_window`);
    :meth:`join` makes a whole layer's row of its windows' rows.
    """

    layer_id: int
    data_sides: Tuple[BlockStream, ...] = ()
    metadata_sides: Tuple[TrafficSide, ...] = ()
    crypto_bytes: int = 0               # bytes requiring OTP material
    mac_computations: int = 0           # hash-engine invocations
    overfetch_blocks: int = 0           # data blocks fetched only for verification
    aes_invocations: int = 0            # AES core operations (energy model)
    is_flush: bool = False              # end-of-model metadata drain, not a layer

    @property
    def sides(self) -> Tuple[TrafficSide, ...]:
        """Every side in DRAM tie order: data, over-fetch, metadata."""
        return self.data_sides + self.metadata_sides

    @property
    def data_bytes(self) -> int:
        return sum(len(side) for side in self.data_sides) * BLOCK_BYTES

    @property
    def metadata_bytes(self) -> int:
        return sum(len(side) for side in self.metadata_sides) * BLOCK_BYTES

    @property
    def total_bytes(self) -> int:
        return self.data_bytes + self.metadata_bytes

    @staticmethod
    def join(rows: Sequence["LayerProtection"]) -> "LayerProtection":
        """One row of consecutive windows' rows of a layer: each side
        the concatenation of the windows' pieces (cycle-sorted, since
        the windows are), every count summed."""
        if len(rows) == 1:
            return rows[0]
        first = rows[0]

        def joined(sides):
            if isinstance(sides[0], CacheTrafficResult):
                out = CacheTrafficResult()
                for side in sides:
                    out.extend_from(side)
                return out
            return BlockStream.concat(sides)

        return LayerProtection(
            layer_id=first.layer_id,
            data_sides=tuple(joined(sides) for sides in
                             zip(*(row.data_sides for row in rows))),
            metadata_sides=tuple(joined(sides) for sides in
                                 zip(*(row.metadata_sides for row in rows))),
            crypto_bytes=sum(row.crypto_bytes for row in rows),
            mac_computations=sum(row.mac_computations for row in rows),
            overfetch_blocks=sum(row.overfetch_blocks for row in rows),
            aes_invocations=sum(row.aes_invocations for row in rows),
            is_flush=first.is_flush,
        )


def layer_mac_side(window: TraceWindow, line: int) -> CacheTrafficResult:
    """One window's share of a layer-MAC scheme's metadata: the read of
    MAC line ``line`` at the layer's first data block and the write of
    the next line at its last, each in the window holding that block
    (the write in the window after a skipped segment that held it).
    Like a cache's traffic, the DRAM walk reads it by address."""
    events = []
    if window.first_block:
        events.append((int(window.blocks.cycles[0]), line, False))
    if window.last_cycle is not None:
        events.append((window.last_cycle, line + BLOCK_BYTES, True))
    side = CacheTrafficResult()
    if events:
        side.extend_arrays(*(np.array(column) for column in zip(*events)))
    return side


@dataclass(frozen=True)
class SchemeSummary:
    """One row of the paper's Table III."""

    name: str
    encryption_granularity: str
    integrity_granularity: str
    offchip_metadata: str
    tiling_aware: bool
    encryption_scalable: bool


class ProtectionScheme(abc.ABC):
    """A memory-protection mechanism's traffic/timing model.

    Schemes are stateful across the layers of one model run (metadata
    caches persist); :meth:`begin_model` resets them.
    """

    name: str = "abstract"

    #: True when metadata traffic is produced by LRU cache simulation
    #: (image-periodic for batched layers): such traffic is affine in
    #: the batch size only from image 1 onward — the first image runs
    #: cold — so the analytic ``@bN`` derivation anchors these schemes'
    #: rows at batch 2 instead of batch 1.
    cache_filtered_metadata: bool = False

    #: A cache-backed scheme's protection unit and its ``(mac, vn)``
    #: metadata tables (MGX has no VN table), set by
    #: :meth:`_begin_tables` for :meth:`protect_window` and
    #: :meth:`finish_model`.
    unit_bytes: int = 64
    _tables: Tuple[Optional[MetadataTable], Optional[MetadataTable]] = \
        (None, None)
    _last_cycle: int = 0
    _last_layer: int = 0

    @abc.abstractmethod
    def begin_model(self, run: ModelRun) -> None:
        """Reset per-model state and size engines for this run."""

    def protect_window(self, window: TraceWindow) -> LayerProtection:
        """Metadata traffic and crypto cost for one cycle window of a
        layer (:func:`repro.protection.metadata_model.layer_windows`).
        Windows arrive in order, layer by layer; quantities counted
        once per layer go to the layer's first window.

        This body serves SGX and MGX; the other schemes override it.
        SGX-xB and MGX-xB keep identical MAC tables, so the first of
        them to serve a window drives its MAC table and keeps the
        traffic in the window's ``shared`` dict, where the other reads
        it (``shared_traffic.replays``). The VN tree, if any, is driven
        in the same pass. Schemes sharing windows serve them in one
        fixed order, so a table replays every window or none.
        """
        mac, vn = self._tables
        if mac is None:
            raise RuntimeError("begin_model must be called before "
                               "protect_window")
        unit = self.unit_bytes
        sides = data_sides(window, unit)
        key = ("mac", unit, mac.capacity_lines)
        mac_out = window.shared.get(key)
        if mac_out is None:
            mac_out = window.shared[key] = CacheTrafficResult()
            driven = (mac, vn)
        else:
            obs.incr("shared_traffic.replays")
            driven = (None, vn)
        outs = (mac_out, None if vn is None else CacheTrafficResult())

        def drive(sub: Sequence[BlockStream], carry: np.ndarray) -> None:
            for table, result, out in zip(
                    driven, drive_tables(sub, unit, driven, carry), outs):
                if table is not None:
                    table.apply(result, out)

        if driven != (None, None):
            drive_window(drive, (self, "tables"), window, sides,
                         [out for table, out in zip(driven, outs)
                          if table is not None])
        last = [int(side.cycles[-1]) for side in sides if len(side)]
        if last:
            # Sides are cycle-sorted and windows come in cycle order:
            # the flush lands after the latest block served.
            self._last_cycle = max(last)
        self._last_layer = window.layer.layer_id
        blocks = sum(len(side) for side in sides)
        return LayerProtection(
            layer_id=window.layer.layer_id,
            data_sides=sides,
            metadata_sides=tuple(out for out in outs if out is not None),
            crypto_bytes=blocks * BLOCK_BYTES,
            mac_computations=blocks,
            overfetch_blocks=blocks - len(sides[0]),
            aes_invocations=blocks * BLOCK_BYTES // 16,
        )

    def protect_layer(self, result: LayerResult) -> LayerProtection:
        """Metadata traffic and crypto cost for one whole layer: its
        windows' rows joined (:meth:`LayerProtection.join`)."""
        return LayerProtection.join([self.protect_window(window)
                                     for window in layer_windows(result)])

    @abc.abstractmethod
    def summary(self) -> SchemeSummary:
        """Feature row for Table III."""

    def crypto_engine(self) -> Optional[CryptoEngineModel]:
        """The engine organization, when the scheme encrypts (None for
        the unprotected baseline)."""
        return None

    def _begin_tables(self, mac: MetadataTable,
                      vn: Optional[MetadataTable] = None) -> None:
        """Start a model run on fresh metadata tables."""
        self._tables = (mac, vn)
        self._last_cycle = 0
        self._last_layer = 0

    def finish_model(self, shared: Dict[object, object]
                     ) -> Optional[LayerProtection]:
        """The end-of-model flush row of a cache-backed scheme: every
        dirty metadata line written back, MAC table first (``None``
        when nothing is dirty, or for schemes without tables).

        ``shared`` is the model's last window's dict: the first scheme
        to flush a MAC table keeps its writebacks there, and schemes
        that replayed that table's traffic read them."""
        mac, vn = self._tables
        if mac is None:
            return None
        key = ("mac flush", self.unit_bytes, mac.capacity_lines)
        mac_flush = shared.get(key)
        if mac_flush is None:
            mac_flush = shared[key] = mac.flush(self._last_cycle)
        out = CacheTrafficResult()
        out.extend_from(mac_flush)
        if vn is not None:
            out.extend_from(vn.flush(self._last_cycle))
        if not len(out):
            return None
        return LayerProtection(layer_id=self._last_layer,
                               metadata_sides=(out,), is_flush=True)

    def protect_model(self, run: ModelRun,
                      window: Optional[TraceWindow] = None
                      ) -> List[LayerProtection]:
        """Run the whole model through the scheme, or one cycle window
        of one layer.

        Without ``window``, the rows are one per layer
        (:meth:`protect_layer`) and the end-of-model flush row. With
        it, the row is that window's (:meth:`protect_window`): the call
        for the model's first window resets the scheme
        (:meth:`begin_model`) and the call for its last window appends
        the flush row. Scheme state (metadata caches) carries from one
        call to the next, so protecting a model window by window, in
        order, yields exactly the rows of one whole-model call, each
        layer's split into its windows'.
        """
        if window is None:
            self.begin_model(run)
            results = []
            for layer in run.layers:
                # One span per layer is the sanctioned stage granularity.
                # repro: allow(obs-noop-discipline)
                with obs.span("protect.layer", scheme=self.name,
                              layer=layer.layer_id):
                    results.append(self.protect_layer(layer))
            shared: Dict[object, object] = {}
        else:
            if run.layers[0] is window.layer and window.index == 0:
                self.begin_model(run)
            with obs.span("protect.layer", scheme=self.name,
                          layer=window.layer.layer_id, window=window.index):
                results = [self.protect_window(window)]
            if run.layers[-1] is not window.layer or not window.last:
                return results
            shared = window.shared
        tail = self.finish_model(shared)
        if tail is not None:
            results.append(tail)
        return results
