"""SGX-style memory protection (SGX-64B / SGX-512B in the evaluation).

AES-CTR encryption per 16 B segment, an 8 B MAC per protection unit, an
8 B version number per unit, and an arity-8 integrity tree over the VN
lines with its root on chip. VNs and tree nodes go through the 16 KB VN
cache, MACs through the 8 KB MAC cache (LRU, write-back, write-allocate)
— the configuration of the paper's Section IV-A.

Every off-chip data access therefore costs, beyond the data itself:

- a MAC-line access (miss -> 64 B read; dirty eviction -> 64 B write);
- a VN-line access (same), plus a tree walk on a VN miss: ancestors are
  fetched until one is found cached (or the root is reached);
- at 512 B granularity, partially touched units are fetched whole
  (over-fetch) so the unit MAC can be verified or recomputed.
"""

from __future__ import annotations

from typing import Optional

from repro.accel.simulator import ModelRun
from repro.accel.trace import BLOCK_BYTES, TraceWindow
from repro.crypto.engine import CryptoEngineModel, parallel_engines
from repro.integrity.caches import (
    MAC_CACHE_BYTES,
    MetadataCache,
    VN_CACHE_BYTES,
)
from repro.protection.base import (
    LayerProtection,
    ProtectionScheme,
    SchemeSummary,
)
from repro.protection.layout import MetadataLayout
from repro.protection.metadata_model import (
    CacheTrafficResult,
    MacTableModel,
    SharedTrafficModel,
    VnTreeModel,
    data_sides,
    drive_window,
    process_mac_vn,
)

#: Engine count used by conventional parallel-AES designs (Securator uses
#: four AES-128 engines per 64 B block).
DEFAULT_AES_ENGINES = 4


class SgxScheme(ProtectionScheme):
    """SGX-style protection at a configurable unit granularity."""

    cache_filtered_metadata = True

    def __init__(self, unit_bytes: int = 64,
                 vn_cache_bytes: int = VN_CACHE_BYTES,
                 mac_cache_bytes: int = MAC_CACHE_BYTES,
                 aes_engines: int = DEFAULT_AES_ENGINES):
        self.unit_bytes = unit_bytes
        self.layout = MetadataLayout(unit_bytes)
        self._vn_cache_bytes = vn_cache_bytes
        self._mac_cache_bytes = mac_cache_bytes
        self._engines = aes_engines
        self.name = f"sgx-{unit_bytes}b"
        self._mac_model: Optional[SharedTrafficModel] = None
        self._vn_model: Optional[VnTreeModel] = None

    def begin_model(self, run: ModelRun) -> None:
        # The MAC table's traffic is identical for every scheme with the
        # same (unit, cache) config, so it is shared across the cell's
        # schemes through the run-scoped memo (MGX reuses it).
        self._mac_model = SharedTrafficModel(
            MacTableModel(self.layout, MetadataCache(self._mac_cache_bytes)),
            run.scheme_memo, ("mac", self.unit_bytes, self._mac_cache_bytes))
        self._vn_model = VnTreeModel(
            self.layout, MetadataCache(self._vn_cache_bytes))
        self._reset_traffic_models(self._mac_model, self._vn_model)

    def protect_window(self, window: TraceWindow) -> LayerProtection:
        if self._mac_model is None or self._vn_model is None:
            raise RuntimeError("begin_model must be called before protect_layer")
        sides = data_sides(window, self.unit_bytes)
        layer_id = window.layer.layer_id

        vn_out = CacheTrafficResult()
        mac_out = self._mac_model.peek(window)
        if mac_out is None:
            # First scheme through this cell: drive both tables in one
            # fused pass (they share run boundaries) and publish the
            # MAC traffic for MGX to replay. Batched layers go through
            # the image-periodic wrapper: two images of real cache
            # simulation, the steady increment repeated for the rest.
            mac_out = CacheTrafficResult()
            drive_window(
                lambda sub, carry: process_mac_vn(
                    self._mac_model.inner, self._vn_model, sub, mac_out,
                    vn_out, carry),
                (self, "mac+vn"), window, sides, (mac_out, vn_out))
            self._mac_model.store(window, mac_out)
        else:
            drive_window(
                lambda sub, carry: self._vn_model.process(sub, vn_out,
                                                          carry),
                (self, "vn"), window, sides, (vn_out,))

        self._note_sides(sides, layer_id)
        blocks = sum(len(side) for side in sides)
        return LayerProtection(
            layer_id=layer_id,
            data_sides=sides,
            metadata_sides=(mac_out, vn_out),
            crypto_bytes=blocks * BLOCK_BYTES,
            mac_computations=blocks,
            overfetch_blocks=blocks - len(sides[0]),
            aes_invocations=blocks * BLOCK_BYTES // 16,
        )

    def crypto_engine(self) -> CryptoEngineModel:
        return parallel_engines(self._engines)

    def summary(self) -> SchemeSummary:
        return SchemeSummary(
            name=f"SGX-{self.unit_bytes}B",
            encryption_granularity="16B",
            integrity_granularity=f"{self.unit_bytes}B",
            offchip_metadata="MAC,VN,IT",
            tiling_aware=False,
            encryption_scalable=False,
        )
