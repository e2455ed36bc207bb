"""SeDA scheme specifics beyond the cross-scheme tests."""

import pytest

from repro.accel.simulator import AcceleratorSim
from repro.accel.systolic import SystolicArray
from repro.models.layer import conv
from repro.models.topology import Topology
from repro.models.zoo import get_workload
from repro.protection.seda import SedaScheme
from repro.tiling.tile import SramBudget
from tests.streams import merge_sides


@pytest.fixture(scope="module")
def run():
    sim = AcceleratorSim(SystolicArray(16, 16), SramBudget.split(64 << 10))
    return sim.run(Topology("s", [
        conv("c1", 34, 34, 3, 3, 8, 16),
        conv("c2", 32, 32, 3, 3, 16, 16),
    ]))


class TestLaneSizing:
    def test_lanes_scale_with_demand(self, run):
        scheme = SedaScheme()
        scheme.begin_model(run)
        lanes = scheme.crypto_engine().xor_lanes
        expected_min = run.peak_demand_bytes_per_cycle / 16
        assert lanes >= expected_min
        assert lanes <= expected_min + 1.0

    def test_default_engine_before_begin(self):
        # Without begin_model the engine defaults to one lane.
        assert SedaScheme().crypto_engine().xor_lanes == 1


class TestOptBlk:
    def test_choice_missing_layer(self, run):
        scheme = SedaScheme()
        scheme.begin_model(run)
        with pytest.raises(KeyError):
            scheme.optblk_choice(99)

    def test_mac_computations_from_search(self, run):
        scheme = SedaScheme()
        protections = scheme.protect_model(run)
        for protection in protections:
            choice = scheme.optblk_choice(protection.layer_id)
            assert protection.mac_computations == choice.mac_computations


class TestStorageVariants:
    def test_onchip_mac_accounting(self):
        scheme = SedaScheme()
        assert scheme.onchip_mac_bytes(10) == 11 * 8

    def test_layer_mac_chain(self, run):
        """Layer i's ofmap-MAC write line is layer i+1's read line."""
        scheme = SedaScheme(layer_macs_offchip=True)
        protections = scheme.protect_model(run)
        lines = [
            [int(a) for a in merge_sides(p.metadata_sides).addrs]
            for p in protections
        ]
        addrs = {a for pair in lines for a in pair}
        # n+1 distinct lines chain the layers together.
        assert len(addrs) == len(run.layers) + 1
        for producer, consumer in zip(lines, lines[1:]):
            write_line = producer[1]
            read_line = consumer[0]
            assert write_line == read_line

    def test_metadata_timing_brackets_layer(self, run):
        """The layer-MAC read issues at layer start, the write at end."""
        scheme = SedaScheme(layer_macs_offchip=True)
        for protection in scheme.protect_model(run):
            stream = merge_sides(protection.metadata_sides)
            data = merge_sides(protection.data_sides)
            assert stream.cycles[0] == data.cycles.min()
            assert stream.cycles[1] == data.cycles.max()


class TestOnRealWorkload:
    def test_overhead_scales_with_layer_count(self):
        """Metadata is linear in layers, not in data volume."""
        sim = AcceleratorSim(SystolicArray(32, 32), SramBudget.split(480 << 10))
        small = sim.run(get_workload("dlrm"))          # 6 layers
        large = sim.run(get_workload("googlenet"))     # 58 layers
        meta_small = sum(p.metadata_bytes for p in
                         SedaScheme().protect_model(small))
        meta_large = sum(p.metadata_bytes for p in
                         SedaScheme().protect_model(large))
        assert meta_small == 2 * 64 * len(small.layers)
        assert meta_large == 2 * 64 * len(large.layers)
