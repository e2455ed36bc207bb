"""SecureLoop-style optBlk search."""

import pytest

from repro.core.config import npu_config
from repro.models.layer import conv, gemm
from repro.models.zoo import WORKLOADS, get_workload
from repro.tiling.optblk import (
    BURST_BYTES,
    DEFAULT_CANDIDATES,
    aligned_block_for_tiles,
    search_optblk,
    search_optblk_model,
)
from repro.tiling.tile import SramBudget, plan_tiling


def _plan(layer, budget_bytes=1 << 20):
    return plan_tiling(layer, SramBudget.split(budget_bytes))


class TestSearch:
    def test_returns_candidate(self):
        layer = conv("c", 64, 64, 3, 3, 16, 8)
        choice = search_optblk(layer, _plan(layer, 64 << 10))
        assert choice.block_bytes in DEFAULT_CANDIDATES

    def test_single_tile_prefers_large_blocks(self):
        """With no tiling there are no straddles; fewer MACs win."""
        layer = conv("c", 32, 32, 3, 3, 8, 8)
        choice = search_optblk(layer, _plan(layer))
        assert choice.block_bytes == max(DEFAULT_CANDIDATES)
        assert choice.is_straddle_free

    def test_blocks_cover_tensor(self):
        layer = conv("c", 64, 64, 3, 3, 16, 8)
        choice = search_optblk(layer, _plan(layer, 64 << 10))
        assert choice.blocks_per_layer * choice.block_bytes >= layer.ifmap_bytes

    def test_mac_computations_lower_bound(self):
        layer = conv("c", 64, 64, 3, 3, 16, 8)
        choice = search_optblk(layer, _plan(layer, 64 << 10))
        assert choice.mac_computations >= choice.blocks_per_layer

    def test_empty_candidates(self):
        layer = conv("c", 16, 16, 3, 3, 4, 8)
        with pytest.raises(ValueError):
            search_optblk(layer, _plan(layer), candidates=())

    def test_invalid_candidate(self):
        layer = conv("c", 16, 16, 3, 3, 4, 8)
        with pytest.raises(ValueError):
            search_optblk(layer, _plan(layer), candidates=(0,))

    def test_beats_naive_512(self):
        """The chosen block never does more MAC work than a fixed 512 B
        granularity — that's the point of the search."""
        layer = conv("c", 100, 100, 3, 3, 24, 16)
        plan = _plan(layer, 64 << 10)
        best = search_optblk(layer, plan)
        fixed = search_optblk(layer, plan, candidates=(512,))
        assert best.mac_computations <= fixed.mac_computations


class TestBatchedSearch:
    def test_blocks_cover_batched_tensor(self):
        base = conv("c", 64, 64, 3, 3, 16, 8)
        batched = conv("c", 64, 64, 3, 3, 16, 8, batch=4)
        choice_1 = search_optblk(base, _plan(base, 64 << 10))
        choice_n = search_optblk(batched, _plan(batched, 64 << 10))
        # The authentication blocks span the whole batched ifmap…
        assert choice_n.blocks_per_layer >= 4 * choice_1.blocks_per_layer - 4
        # …and straddle waste scales with the per-image boundaries
        # repeating every image.
        assert choice_n.straddle_blocks == 4 * choice_1.straddle_blocks

    def test_batched_straddle_free_stays_straddle_free(self):
        layer = conv("c", 32, 32, 3, 3, 8, 8, batch=8)
        choice = search_optblk(layer, _plan(layer))
        assert choice.is_straddle_free


class TestVectorizedModelSearch:
    def test_matches_per_layer_search(self):
        """One numpy pass over all layers == the scalar per-layer search."""
        layers = [
            conv("c0", 64, 64, 3, 3, 16, 8),
            conv("c1", 100, 100, 3, 3, 24, 16, batch=4),
            conv("c2", 32, 32, 3, 3, 8, 8),
            gemm("fc", 512, 512, 1000),
        ]
        pairs = [(layer, _plan(layer, 64 << 10)) for layer in layers]
        batch = search_optblk_model(pairs)
        assert batch == [search_optblk(layer, plan) for layer, plan in pairs]

    def test_every_zoo_layer_gets_a_candidate(self):
        """One pass over every zoo workload's layers, planned under the
        server NPU's SRAM budget, picks a candidate unit per layer."""
        budget = npu_config("server").sram_budget()
        pairs = [(layer, plan_tiling(layer, budget))
                 for name in WORKLOADS
                 for layer in get_workload(name).layers]
        choices = search_optblk_model(pairs)
        assert len(choices) == len(pairs)
        assert all(c.block_bytes in DEFAULT_CANDIDATES for c in choices)

    def test_empty_model(self):
        assert search_optblk_model([]) == []

    def test_validates_candidates(self):
        layer = conv("c", 16, 16, 3, 3, 4, 8)
        with pytest.raises(ValueError):
            search_optblk_model([(layer, _plan(layer))], candidates=())
        with pytest.raises(ValueError):
            search_optblk_model([(layer, _plan(layer))], candidates=(0,))


class TestAlignedHelper:
    def test_divisor_found(self):
        assert aligned_block_for_tiles(4096) == 4096
        assert aligned_block_for_tiles(1536) == 512

    def test_non_power_of_two_spans(self):
        # 2560 = 512 * 5: the largest dividing candidate wins.
        assert aligned_block_for_tiles(2560) == 512
        # 1920 = 128 * 15: 256 does not divide, 128 does.
        assert aligned_block_for_tiles(1920) == 128
        # 8064 = 2^7 * 63: dividing candidates stop at 128.
        assert aligned_block_for_tiles(8064) == 128

    def test_burst_aligned_floor_below_candidate_set(self):
        """When no candidate divides, the span's two-adic alignment is
        the answer — not ``min(candidates)``, which may straddle while a
        smaller aligned power of two exists."""
        # 1920 aligns to 128; with only {256, 512} on offer the floor
        # is 128, not the old (straddling) min(candidates) == 256.
        assert aligned_block_for_tiles(1920, candidates=(256, 512)) == 128
        # Alignment above the candidate cap clamps to max(candidates).
        assert aligned_block_for_tiles(4096, candidates=(256, 512)) == 512

    def test_degenerates_to_burst(self):
        # 1000 = 8 * 125: alignment (8) is below one burst — no
        # burst-aligned block can avoid straddling; floor to the burst.
        assert aligned_block_for_tiles(1000) == BURST_BYTES
        assert aligned_block_for_tiles(999) == BURST_BYTES

    def test_validates_inputs(self):
        with pytest.raises(ValueError):
            aligned_block_for_tiles(4096, candidates=())
        with pytest.raises(ValueError):
            aligned_block_for_tiles(0)
        with pytest.raises(ValueError):
            aligned_block_for_tiles(4096, candidates=(0,))
