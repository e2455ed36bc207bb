"""Protection-scheme interface and shared result types."""

from __future__ import annotations

import abc
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from repro import obs
from repro.accel.simulator import LayerResult, ModelRun
from repro.accel.trace import (
    BLOCK_BYTES,
    BlockStream,
    TrafficSide,
)
from repro.crypto.engine import CryptoEngineModel
from repro.protection.metadata_model import CacheTrafficResult


@dataclass
class LayerProtection:
    """What a scheme adds to one layer's traffic and timing.

    Traffic is held as cycle-sorted sides that are never concatenated:
    the data sides (the layer's shared sorted block stream, then, at a
    coarse unit, its over-fetch blocks) and the metadata sides (MAC and
    VN traffic, or layer MACs). The DRAM model walks their merge keyed
    ``(cycle, side index)`` (:attr:`sides`), the issue order of their
    concatenation stably sorted by cycle.
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
    def protect_layer(self, result: LayerResult) -> LayerProtection:
        """Metadata traffic and crypto cost for one layer."""

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
        traffic lands at the end of the model's timeline."""
        last = [int(side.cycles.max()) for side in sides if len(side)]
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
                      layers: Optional[range] = None) -> List[LayerProtection]:
        """Run a window of consecutive layers through the scheme.

        ``layers`` holds layer indices (default: the whole model). The
        window that starts at layer 0 resets the scheme
        (:meth:`begin_model`); the window that reaches the last layer
        appends the end-of-model flush row. Scheme state (metadata
        caches) carries from one window to the next, so protecting a
        model layer by layer yields exactly the rows of one whole-model
        call.
        """
        window = range(len(run.layers)) if layers is None else layers
        if window.start == 0:
            self.begin_model(run)
        results = []
        for layer in run.layers[window.start:window.stop]:
            # One span per layer is the sanctioned stage granularity.
            # repro: allow(obs-noop-discipline)
            with obs.span("protect.layer", scheme=self.name,
                          layer=layer.layer_id):
                results.append(self.protect_layer(layer))
        if window.stop >= len(run.layers):
            tail = self.finish_model()
            if tail is not None:
                results.append(tail)
        return results
