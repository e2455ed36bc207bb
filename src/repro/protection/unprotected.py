"""The unprotected baseline: raw accelerator traffic, no metadata."""

from __future__ import annotations

from repro.accel.simulator import LayerResult, ModelRun
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

    def protect_layer(self, result: LayerResult) -> LayerProtection:
        # Memoized cycle-sorted expansion: the baseline shares the
        # layer's block stream with every scheme evaluated on the same
        # model run.
        return LayerProtection(
            layer_id=result.layer_id,
            data_sides=(result.trace.sorted_blocks(),),
        )

    def summary(self) -> SchemeSummary:
        return SchemeSummary(
            name="Baseline",
            encryption_granularity="none",
            integrity_granularity="none",
            offchip_metadata="none",
            tiling_aware=False,
            encryption_scalable=False,
        )
