"""KV-cache traffic class: emission, addressing, batching, accounting."""

import pytest

from repro.accel.layout import AddressMap, KV_BASE, METADATA_BASE
from repro.accel.simulator import AcceleratorSim
from repro.accel.systolic import SystolicArray
from repro.accel.trace import AccessKind
from repro.models.layer import gemm
from repro.models.topology import Topology
from repro.models.zoo import get_workload
from repro.tiling.tile import SramBudget, plan_tiling
from tests.streams import model_trace


def _sim():
    return AcceleratorSim(SystolicArray(16, 16), SramBudget.split(96 << 10))


def _decode_topology(batch=1):
    """One decode-style attention pair: score GEMM (K cache) + context
    GEMM (V cache), both M=1, plus a plain projection."""
    seq, d = 64, 256
    return Topology("decode", [
        gemm("attn", 1, d, seq, kv=True, batch=batch),
        gemm("ctx", 1, seq, d, kv=True, batch=batch),
        gemm("proj", 1, d, d, batch=batch),
    ])


class TestKvEmission:
    def test_kv_layers_emit_kvcache_not_weight(self):
        run = _sim().run(_decode_topology())
        for result in run.layers[:2]:
            kinds = result.trace.bytes_by_kind()
            assert AccessKind.KVCACHE in kinds
            assert AccessKind.WEIGHT not in kinds
            assert kinds[AccessKind.KVCACHE] == result.layer.kv_bytes
        proj_kinds = run.layers[2].trace.bytes_by_kind()
        assert AccessKind.WEIGHT in proj_kinds
        assert AccessKind.KVCACHE not in proj_kinds

    def test_kv_addresses_live_in_the_kv_region(self):
        run = _sim().run(_decode_topology())
        for result in run.layers[:2]:
            for r in result.trace.ranges:
                if r.kind is AccessKind.KVCACHE:
                    assert KV_BASE <= r.addr < METADATA_BASE

    def test_kv_slabs_are_per_layer(self):
        topo = _decode_topology()
        amap = AddressMap(topo)
        assert amap.kv_addr(0) != amap.kv_addr(1)
        with pytest.raises(KeyError):
            amap.kv_addr(2)  # proj has parameters, not KV state
        assert amap.weight_addr(2) >= 0
        with pytest.raises(KeyError):
            amap.weight_addr(0)

    def test_kv_region_reported_when_present(self):
        names = [r.name for r in AddressMap(_decode_topology()).data_regions()]
        assert "kv" in names
        conv_names = [r.name for r in
                      AddressMap(get_workload("lenet")).data_regions()]
        assert "kv" not in conv_names

    def test_kv_carve_only_costs_kv_workloads_activation_space(self):
        """A KV-free model keeps the full pong extent (up to the
        metadata base); only topologies with KV layers give up the
        region above KV_BASE."""
        # Just over the 1 GiB ACT_B..KV_BASE gap: fits without the KV
        # carve (pong extends to the metadata base), not with it.
        big = (1 << 30) + 65536
        huge_act = Topology("huge", [gemm("fc", big // 256, 256, 1)])
        assert huge_act.max_activation_bytes == big
        AddressMap(huge_act)  # no KV layers: must still fit

        huge_act_kv = Topology("huge_kv", [
            gemm("fc", big // 256, 256, 1),
            gemm("attn", 1, 64, 64, kv=True),
        ])
        with pytest.raises(ValueError, match="activations overflow"):
            AddressMap(huge_act_kv)


class TestKvBatching:
    BATCH = 3

    def test_kv_streams_scale_exactly_with_batch(self):
        base = _sim().run(_decode_topology())
        batched = _sim().run(_decode_topology(batch=self.BATCH))
        for one, many in zip(base.layers[:2], batched.layers[:2]):
            kv_one = one.trace.bytes_by_kind()[AccessKind.KVCACHE]
            kv_many = many.trace.bytes_by_kind()[AccessKind.KVCACHE]
            # Never resident across images: every sequence re-streams
            # its own cache, even when one slab would fit in SRAM.
            assert kv_many == self.BATCH * kv_one

    def test_each_image_reads_its_own_slab(self):
        topo = _decode_topology(batch=self.BATCH)
        batched = _sim().run(topo)
        stride = batched.address_map.kv_image_stride
        result = batched.layers[0]
        per_image = result.layer.kv_bytes_per_image
        starts = sorted({r.addr for r in result.trace.ranges
                         if r.kind is AccessKind.KVCACHE})
        base = starts[0]
        # Image i's KV state is image 0's shifted by i whole slab
        # strides; within a slab, a layer touches only its own extent.
        images = {(addr - base) // stride for addr in starts}
        assert images == set(range(self.BATCH))
        for addr in starts:
            assert (addr - base) % stride < per_image

    def test_plan_weight_traffic_matches_kv_trace(self):
        batched = _sim().run(_decode_topology(batch=self.BATCH))
        for result in batched.layers[:2]:
            traced = result.trace.bytes_by_kind()[AccessKind.KVCACHE]
            assert traced == result.plan.weight_traffic


class TestTallSkinnyPlans:
    def test_m1_huge_n_gemm_plans_without_k_slivers(self):
        """A decode step against a vocabulary projection (M=1, K=768,
        N=50257) must fit and keep whole-K tiles available."""
        layer = gemm("lm_head", 1, 768, 50257)
        plan = plan_tiling(layer, SramBudget.split(480 << 10))
        assert plan.tile_out_rows == 1
        # Minimal traffic: the weight matrix streams exactly once.
        assert plan.weight_traffic == layer.weight_bytes
        assert plan.ifmap_traffic <= layer.ifmap_bytes * plan.num_n_tiles

    def test_tall_skinny_trace_agrees_with_plan(self):
        topo = Topology("skinny", [gemm("lm_head", 1, 768, 50257)])
        run = _sim().run(topo)
        result = run.layers[0]
        assert result.trace.total_bytes == pytest.approx(
            result.plan.total_traffic, rel=0.01)


class TestGpt2EndToEndTrace:
    def test_whole_model_kv_accounting(self):
        run = _sim().run(get_workload("gpt2@s64"))
        topo = run.topology
        kinds = model_trace(run).bytes_by_kind()
        assert kinds[AccessKind.KVCACHE] == topo.total_kv_bytes
        # Weights and KV never blur: weight traffic covers exactly the
        # parameter tensors (all streamed once at batch 1).
        assert kinds[AccessKind.WEIGHT] == topo.total_param_bytes
