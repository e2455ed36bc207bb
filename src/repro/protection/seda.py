"""SeDA: bandwidth-aware encryption + multi-level integrity verification.

Traffic model (paper Section III-C, Table I):

- **No VN traffic** — like MGX, version numbers derive from on-chip DNN
  state (layer/tile progress is deterministic).
- **No per-block MAC traffic** — optBlk MACs are computed on the fly as
  tiles stream through the protection unit and XOR-folded into the layer
  MAC; they are never stored in DRAM.
- **Layer MACs** — one 8 B value per layer. For fairness with the other
  schemes the paper stores them *off-chip*: one 64 B read when a layer's
  ifmap is consumed and one 64 B write when its ofmap is produced.
- **Model MAC** — a single on-chip MAC covers all weights; verification
  completes at the end of inference with zero traffic.
- **No over-fetch** — the optBlk granularity is chosen per layer (the
  SecureLoop-style search in :mod:`repro.tiling.optblk`) to align with
  the tile walk, so no authentication block straddles a tile boundary.

Crypto model: a single pipelined AES engine with B-AES XOR fan-out, its
lane count sized to the accelerator's peak bandwidth demand (that is the
"bandwidth-aware" part — hardware cost grows by XOR lanes, not engines).
"""

from __future__ import annotations

from typing import Dict

from repro.accel.simulator import ModelRun
from repro.accel.trace import BLOCK_BYTES, TraceWindow
from repro.crypto.engine import CryptoEngineModel, bandwidth_aware_engine
from repro.protection.base import (
    LayerProtection,
    ProtectionScheme,
    SchemeSummary,
    layer_mac_side,
)
from repro.protection.layout import MetadataLayout
from repro.tiling.optblk import OptBlockChoice, search_optblk_model
from repro.utils.bitops import ceil_div

#: Where layer MACs live when stored off-chip (one 64 B line per layer).
_LAYER_MAC_BASE = 0x2_F000_0000


def lanes_for_peak(peak_bytes_per_cycle: float) -> int:
    """B-AES lane count sized to a run's peak bandwidth demand.

    Single source of truth for the fan-out rule: :meth:`SedaScheme.
    begin_model` sizes real runs with it, and the analytic ``@bN``
    derivation (:mod:`repro.analytic`) recomputes the engine of a
    batched run it never simulates from the extrapolated peak demand.
    """
    return max(1, ceil_div(int(round(peak_bytes_per_cycle * 16)), 16 * 16))


class SedaScheme(ProtectionScheme):
    """The paper's proposed scheme."""

    def __init__(self, layer_macs_offchip: bool = True,
                 mac_bytes: int = 8):
        self.layer_macs_offchip = layer_macs_offchip
        self.mac_bytes = mac_bytes
        self.name = "seda"
        self.layout = MetadataLayout(64)
        self._lanes = 1
        self._optblk: Dict[int, OptBlockChoice] = {}

    # -- scheme interface --

    def begin_model(self, run: ModelRun) -> None:
        # Size the B-AES fan-out to the peak per-layer bandwidth demand.
        self._lanes = lanes_for_peak(run.peak_demand_bytes_per_cycle)
        choices = search_optblk_model([(r.layer, r.plan)
                                       for r in run.layers])
        self._optblk = dict(zip((r.layer_id for r in run.layers), choices))

    def optblk_choice(self, layer_id: int) -> OptBlockChoice:
        return self._optblk[layer_id]

    def protect_window(self, window: TraceWindow) -> LayerProtection:
        blocks = window.blocks
        layer_id = window.layer.layer_id
        # Line i holds the MAC of the tensor layer i consumes, so the
        # line this layer writes (its ofmap MAC) is exactly the line
        # layer i+1 will read.
        metadata = (layer_mac_side(
            window, _LAYER_MAC_BASE + layer_id * BLOCK_BYTES),) \
            if self.layer_macs_offchip else ()

        choice = self._optblk.get(layer_id)
        if choice is None:
            mac_computations = len(blocks)
        else:
            mac_computations = choice.mac_computations \
                if window.index == 0 else 0
        return LayerProtection(
            layer_id=layer_id,
            data_sides=(blocks,),
            metadata_sides=metadata,
            crypto_bytes=blocks.total_bytes,
            mac_computations=mac_computations,
            overfetch_blocks=0,
            # One base OTP per 64 B protection block; per-segment OTPs
            # come from XOR lanes, not extra AES operations.
            aes_invocations=blocks.total_bytes // 64,
        )

    def crypto_engine(self) -> CryptoEngineModel:
        return bandwidth_aware_engine(self._lanes)

    def summary(self) -> SchemeSummary:
        return SchemeSummary(
            name="SeDA",
            encryption_granularity="bandwidth-aware",
            integrity_granularity="multi-level",
            offchip_metadata="minimal to no cost",
            tiling_aware=True,
            encryption_scalable=True,
        )

    # -- storage accounting --

    def onchip_mac_bytes(self, num_layers: int) -> int:
        """SRAM cost when layer MACs are pinned on-chip instead."""
        return (num_layers + 1) * self.mac_bytes
