"""Securator-style protection — the paper's closest prior work.

Securator (HPCA 2023) introduced layer-level integrity: per-block MACs
(32 B granularity) are XOR-folded into one MAC per layer, so almost no
MAC traffic reaches DRAM. The paper's critique, which this model
reproduces (Section III-C, Challenge 1 & 2):

- **Not tiling-aware.** Every fetched block is re-hashed, including halo
  re-fetches and multi-pass re-reads, so the hash engine does redundant
  work proportional to the tiling overlap; and producer/consumer tiling
  mismatches can make the layer fold unverifiable (false negatives).
- **RePA-vulnerable as published.** The fold hashes ciphertext without
  location binding, so block permutations pass verification
  (Algorithm 2, attack) — modelled by the ``location_bound`` flag on the
  functional side and surfaced in :meth:`summary`.
- **Parallel AES.** Four AES-128 engines per 64 B block (Fig. 2(c)),
  i.e. T-AES hardware scaling.

Traffic-wise Securator is near-SeDA (one layer MAC per layer); the
differences the benchmarks surface are redundant MAC computations,
hardware cost, and the security gap.
"""

from __future__ import annotations

from typing import Dict

from repro.accel.simulator import ModelRun
from repro.accel.trace import BLOCK_BYTES, TraceWindow
from repro.crypto.engine import CryptoEngineModel, parallel_engines
from repro.protection.base import (
    LayerProtection,
    ProtectionScheme,
    SchemeSummary,
    layer_mac_side,
)
from repro.tiling.overlap import analyze_overlap
from repro.utils.bitops import ceil_div

_LAYER_MAC_BASE = 0x2_F800_0000
SECURATOR_BLOCK_BYTES = 32
SECURATOR_AES_ENGINES = 4


class SecuratorScheme(ProtectionScheme):
    """Layer-level XOR-MAC integrity without tiling awareness."""

    def __init__(self, block_bytes: int = SECURATOR_BLOCK_BYTES,
                 aes_engines: int = SECURATOR_AES_ENGINES):
        if block_bytes <= 0:
            raise ValueError("block_bytes must be positive")
        self.block_bytes = block_bytes
        self._engines = aes_engines
        self.name = "securator"
        self._redundant_macs: Dict[int, int] = {}

    def begin_model(self, run: ModelRun) -> None:
        # Redundant verification work: every re-fetched overlap byte is
        # re-hashed because the block granularity ignores the tiling.
        self._redundant_macs = {}
        for result in run.layers:
            report = analyze_overlap(result.layer, result.plan,
                                     block_bytes=self.block_bytes)
            self._redundant_macs[result.layer_id] = report.redundant_mac_blocks

    def protect_window(self, window: TraceWindow) -> LayerProtection:
        blocks = window.blocks
        layer_id = window.layer.layer_id
        mac_computations = 0
        if window.index == 0:
            # MAC engine work: one hash per fetched 32 B block of the
            # layer, including the redundant overlap re-hashes SeDA's
            # optBlk avoids.
            mac_computations = ceil_div(
                window.layer_blocks * BLOCK_BYTES, self.block_bytes) \
                + self._redundant_macs.get(layer_id, 0)
        return LayerProtection(
            layer_id=layer_id,
            data_sides=(blocks,),
            metadata_sides=(layer_mac_side(
                window, _LAYER_MAC_BASE + layer_id * BLOCK_BYTES),),
            crypto_bytes=blocks.total_bytes,
            mac_computations=mac_computations,
            overfetch_blocks=0,
            aes_invocations=blocks.total_bytes // 16,
        )

    def redundant_mac_computations(self, layer_id: int) -> int:
        return self._redundant_macs.get(layer_id, 0)

    def crypto_engine(self) -> CryptoEngineModel:
        return parallel_engines(self._engines)

    def summary(self) -> SchemeSummary:
        return SchemeSummary(
            name="Securator",
            encryption_granularity="16B",
            integrity_granularity=f"layer ({self.block_bytes}B blocks)",
            offchip_metadata="layer MAC",
            tiling_aware=False,
            encryption_scalable=False,
        )
