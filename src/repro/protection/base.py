"""Protection-scheme interface and shared result types."""

from __future__ import annotations

import abc
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

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
from repro.protection.metadata_model import CacheTrafficResult, layer_windows


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

    #: Cache-backed traffic models (MAC table, VN tree) registered by
    #: :meth:`_reset_traffic_models`; flushed by the shared
    #: :meth:`finish_model`.
    _traffic_models: Tuple = ()
    _last_cycle: int = 0
    _last_layer: int = 0

    @abc.abstractmethod
    def begin_model(self, run: ModelRun) -> None:
        """Reset per-model state and size engines for this run."""

    @abc.abstractmethod
    def protect_window(self, window: TraceWindow) -> LayerProtection:
        """Metadata traffic and crypto cost for one cycle window of a
        layer (:func:`repro.protection.metadata_model.layer_windows`).
        Windows arrive in order, layer by layer; quantities counted
        once per layer go to the layer's first window."""

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

    # -- shared cache-backed-scheme machinery (SGX/MGX family) --

    def _reset_traffic_models(self, *models: Sequence) -> None:
        """Register the cache-backed models for this run and rewind the
        progress markers used by the end-of-model flush."""
        self._traffic_models = tuple(models)
        self._last_cycle = 0
        self._last_layer = 0

    def _note_sides(self, sides: Sequence[BlockStream],
                    layer_id: int) -> None:
        """Track the latest issue cycle and layer, so residual flush
        traffic lands at the end of the model's timeline (sides are
        cycle-sorted and windows come in cycle order, so the last
        non-empty window's last blocks hold the layer's latest cycle)."""
        last = [int(side.cycles[-1]) for side in sides if len(side)]
        if last:
            self._last_cycle = max(last)
        self._last_layer = layer_id

    def finish_model(self) -> Optional[LayerProtection]:
        """Flush residual state (dirty metadata cache lines).

        Shared across every cache-backed scheme: drains all registered
        traffic models and returns the final metadata-only contribution
        (None when nothing is dirty, or for schemes without caches).
        """
        if not self._traffic_models:
            return None
        out = CacheTrafficResult()
        for model in self._traffic_models:
            model.flush(self._last_cycle, out)
        if not len(out):
            return None
        return LayerProtection(layer_id=self._last_layer,
                               metadata_sides=(out,), is_flush=True)

    def protect_model(self, run: ModelRun,
                      layers: Optional[range] = None,
                      window: Optional[TraceWindow] = None
                      ) -> List[LayerProtection]:
        """Run a window of consecutive layers through the scheme, or one
        cycle window of one layer.

        ``layers`` holds layer indices (default: the whole model) and
        yields one row per layer (:meth:`protect_layer`); ``window``
        instead yields that window's row (:meth:`protect_window`). The
        call that starts layer 0 resets the scheme
        (:meth:`begin_model`); the call that ends the last layer
        appends the end-of-model flush row. Scheme state (metadata
        caches) carries from one call to the next, so protecting a
        model layer by layer, or window by window, yields exactly the
        rows of one whole-model call, split.
        """
        if window is not None:
            first = run.layers[0] is window.layer and window.index == 0
            final = run.layers[-1] is window.layer and window.last
        else:
            span = range(len(run.layers)) if layers is None else layers
            first = span.start == 0
            final = span.stop >= len(run.layers)
        if first:
            self.begin_model(run)
        if window is not None:
            with obs.span("protect.layer", scheme=self.name,
                          layer=window.layer.layer_id, window=window.index):
                results = [self.protect_window(window)]
        else:
            results = []
            for layer in run.layers[span.start:span.stop]:
                # One span per layer is the sanctioned stage granularity.
                # repro: allow(obs-noop-discipline)
                with obs.span("protect.layer", scheme=self.name,
                              layer=layer.layer_id):
                    results.append(self.protect_layer(layer))
        if final:
            tail = self.finish_model()
            if tail is not None:
                results.append(tail)
        return results
