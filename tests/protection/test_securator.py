"""Securator-style scheme: layer MACs without tiling awareness."""

import pytest

from repro.accel.simulator import AcceleratorSim
from repro.accel.systolic import SystolicArray
from repro.models.layer import conv
from repro.models.topology import Topology
from repro.protection import SedaScheme, SecuratorScheme, make_scheme
from repro.tiling.tile import SramBudget


@pytest.fixture(scope="module")
def tiled_run():
    """A run with real halo overlap so redundancy is visible."""
    sim = AcceleratorSim(SystolicArray(16, 16),
                         SramBudget(16 << 10, 1 << 20, 1 << 20))
    return sim.run(Topology("t", [
        conv("c1", 66, 66, 3, 3, 16, 16),
        conv("c2", 64, 64, 3, 3, 16, 16),
    ]))


class TestTraffic:
    def test_layer_mac_traffic_only(self, tiled_run):
        scheme = SecuratorScheme()
        protections = scheme.protect_model(tiled_run)
        metadata_blocks = sum(len(side) for p in protections
                              for side in p.metadata_sides)
        assert metadata_blocks == 2 * len(tiled_run.layers)

    def test_traffic_near_seda(self, tiled_run):
        securator = sum(p.total_bytes for p in
                        SecuratorScheme().protect_model(tiled_run))
        seda = sum(p.total_bytes for p in
                   SedaScheme().protect_model(tiled_run))
        assert securator == pytest.approx(seda, rel=0.01)


class TestRedundantWork:
    def test_redundant_macs_recorded(self, tiled_run):
        scheme = SecuratorScheme()
        scheme.begin_model(tiled_run)
        redundant = sum(scheme.redundant_mac_computations(r.layer_id)
                        for r in tiled_run.layers)
        assert redundant > 0  # halo re-fetches re-hashed

    def test_more_mac_work_than_seda(self, tiled_run):
        """The paper's critique: Securator re-hashes overlap bytes and
        uses a fixed fine block, so its hash-engine work exceeds SeDA's
        optBlk schedule."""
        securator_macs = sum(
            p.mac_computations
            for p in SecuratorScheme().protect_model(tiled_run))
        seda_macs = sum(
            p.mac_computations for p in SedaScheme().protect_model(tiled_run))
        assert securator_macs > seda_macs

    def test_finer_blocks_more_work(self, tiled_run):
        fine = sum(p.mac_computations for p in
                   SecuratorScheme(block_bytes=32).protect_model(tiled_run))
        coarse = sum(p.mac_computations for p in
                     SecuratorScheme(block_bytes=512).protect_model(tiled_run))
        assert fine > coarse


class TestFeatures:
    def test_factory(self):
        assert make_scheme("securator").name == "securator"

    def test_summary_flags(self):
        summary = SecuratorScheme().summary()
        assert not summary.tiling_aware
        assert not summary.encryption_scalable
        assert summary.offchip_metadata == "layer MAC"

    def test_parallel_engines(self):
        assert SecuratorScheme().crypto_engine().engines == 4

    def test_validation(self):
        with pytest.raises(ValueError):
            SecuratorScheme(block_bytes=0)
