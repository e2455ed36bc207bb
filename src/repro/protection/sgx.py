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

from repro.accel.simulator import ModelRun
from repro.crypto.engine import CryptoEngineModel, parallel_engines
from repro.protection.base import ProtectionScheme, SchemeSummary
from repro.protection.layout import MetadataLayout
from repro.protection.metadata_model import (
    MAC_CACHE_BYTES,
    VN_CACHE_BYTES,
    MetadataTable,
)

#: Engine count used by conventional parallel-AES designs (Securator uses
#: four AES-128 engines per 64 B block).
DEFAULT_AES_ENGINES = 4


class SgxScheme(ProtectionScheme):
    """SGX-style protection at a configurable unit granularity: its
    windows are served by :meth:`ProtectionScheme.protect_window` over a
    MAC table and a VN table with its tree."""

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

    def begin_model(self, run: ModelRun) -> None:
        del run
        self._begin_tables(
            MetadataTable.mac(self.layout, self._mac_cache_bytes),
            MetadataTable.vn(self.layout, self._vn_cache_bytes))

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
