"""The unprotected baseline: raw accelerator traffic, no metadata."""

from __future__ import annotations

from repro.accel.simulator import ModelRun
from repro.accel.trace import TraceWindow
from repro.protection.base import (
    LayerProtection,
    ProtectionScheme,
    SchemeSummary,
)


class Unprotected(ProtectionScheme):
    """No confidentiality, no integrity — the normalization baseline."""

    name = "baseline"

    def begin_model(self, run: ModelRun) -> None:  # no state
        del run

    def protect_window(self, window: TraceWindow) -> LayerProtection:
        # The baseline serves the window's data blocks, the arrays every
        # scheme of the cell reads.
        return LayerProtection(layer_id=window.layer.layer_id,
                               data_sides=(window.blocks,))

    def summary(self) -> SchemeSummary:
        return SchemeSummary(
            name="Baseline",
            encryption_granularity="none",
            integrity_granularity="none",
            offchip_metadata="none",
            tiling_aware=False,
            encryption_scalable=False,
        )
