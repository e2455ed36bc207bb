"""MGX-style memory protection (MGX-64B / MGX-512B in the evaluation).

MGX generates version numbers on-chip from application state (DNN layer
progress), so VNs never touch DRAM and no integrity tree is needed —
freshness comes from the deterministic VN schedule. Per-unit MACs remain
off-chip and are accessed through the MAC cache, which for streaming DNN
traffic means roughly one 64 B MAC-line fetch per eight 64 B units: the
~12.5% traffic overhead the paper reports for MGX-64B.
"""

from __future__ import annotations

from typing import Optional

from repro.accel.simulator import ModelRun
from repro.accel.trace import BLOCK_BYTES, TraceWindow
from repro.crypto.engine import CryptoEngineModel, parallel_engines
from repro.integrity.caches import MAC_CACHE_BYTES, MetadataCache
from repro.protection.base import (
    LayerProtection,
    ProtectionScheme,
    SchemeSummary,
)
from repro.protection.layout import MetadataLayout
from repro.protection.metadata_model import (
    MacTableModel,
    SharedTrafficModel,
    data_sides,
)
from repro.protection.sgx import DEFAULT_AES_ENGINES


class MgxScheme(ProtectionScheme):
    """MGX-style protection: on-chip VNs, off-chip per-unit MACs."""

    cache_filtered_metadata = True

    def __init__(self, unit_bytes: int = 64,
                 mac_cache_bytes: int = MAC_CACHE_BYTES,
                 aes_engines: int = DEFAULT_AES_ENGINES):
        self.unit_bytes = unit_bytes
        self.layout = MetadataLayout(unit_bytes)
        self._mac_cache_bytes = mac_cache_bytes
        self._engines = aes_engines
        self.name = f"mgx-{unit_bytes}b"
        self._mac_model: Optional[SharedTrafficModel] = None

    def begin_model(self, run: ModelRun) -> None:
        # Shares the MAC-table traffic with SGX at the same unit size
        # (same cache config, same stream -> identical traffic).
        self._mac_model = SharedTrafficModel(
            MacTableModel(self.layout, MetadataCache(self._mac_cache_bytes)),
            run.scheme_memo, ("mac", self.unit_bytes, self._mac_cache_bytes))
        self._reset_traffic_models(self._mac_model)

    def protect_window(self, window: TraceWindow) -> LayerProtection:
        if self._mac_model is None:
            raise RuntimeError("begin_model must be called before protect_layer")
        sides = data_sides(window, self.unit_bytes)
        mac_out = self._mac_model.process_window(window, sides)

        self._note_sides(sides, window.layer.layer_id)
        blocks = sum(len(side) for side in sides)
        return LayerProtection(
            layer_id=window.layer.layer_id,
            data_sides=sides,
            metadata_sides=(mac_out,),
            crypto_bytes=blocks * BLOCK_BYTES,
            mac_computations=blocks,
            overfetch_blocks=blocks - len(sides[0]),
            aes_invocations=blocks * BLOCK_BYTES // 16,
        )

    def crypto_engine(self) -> CryptoEngineModel:
        return parallel_engines(self._engines)

    def summary(self) -> SchemeSummary:
        return SchemeSummary(
            name=f"MGX-{self.unit_bytes}B",
            encryption_granularity="16B",
            integrity_granularity=f"{self.unit_bytes}B",
            offchip_metadata="MAC",
            tiling_aware=False,
            encryption_scalable=False,
        )
