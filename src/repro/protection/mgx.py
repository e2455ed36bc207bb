"""MGX-style memory protection (MGX-64B / MGX-512B in the evaluation).

MGX generates version numbers on-chip from application state (DNN layer
progress), so VNs never touch DRAM and no integrity tree is needed —
freshness comes from the deterministic VN schedule. Per-unit MACs remain
off-chip and are accessed through the MAC cache, which for streaming DNN
traffic means roughly one 64 B MAC-line fetch per eight 64 B units: the
~12.5% traffic overhead the paper reports for MGX-64B.
"""

from __future__ import annotations

from repro.accel.simulator import ModelRun
from repro.crypto.engine import CryptoEngineModel, parallel_engines
from repro.protection.base import ProtectionScheme, SchemeSummary
from repro.protection.layout import MetadataLayout
from repro.protection.metadata_model import MAC_CACHE_BYTES, MetadataTable
from repro.protection.sgx import DEFAULT_AES_ENGINES


class MgxScheme(ProtectionScheme):
    """MGX-style protection: on-chip VNs, off-chip per-unit MACs. Its
    windows are served by :meth:`ProtectionScheme.protect_window` over
    the MAC table alone, the same table as SGX's at the unit, whose
    traffic the two share window by window."""

    cache_filtered_metadata = True

    def __init__(self, unit_bytes: int = 64,
                 mac_cache_bytes: int = MAC_CACHE_BYTES,
                 aes_engines: int = DEFAULT_AES_ENGINES):
        self.unit_bytes = unit_bytes
        self.layout = MetadataLayout(unit_bytes)
        self._mac_cache_bytes = mac_cache_bytes
        self._engines = aes_engines
        self.name = f"mgx-{unit_bytes}b"

    def begin_model(self, run: ModelRun) -> None:
        del run
        self._begin_tables(
            MetadataTable.mac(self.layout, self._mac_cache_bytes))

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
