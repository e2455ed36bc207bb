"""Protection schemes: traffic generation and relative ordering."""

import pytest

from repro.accel.simulator import AcceleratorSim
from repro.accel.systolic import SystolicArray
from repro.models.layer import conv
from repro.models.topology import Topology
from repro.models.zoo import get_workload
from repro.protection import (
    MgxScheme,
    SCHEME_NAMES,
    SedaScheme,
    SgxScheme,
    Unprotected,
    make_scheme,
)
from repro.tiling.tile import SramBudget
from tests.streams import to_blocks


@pytest.fixture(scope="module")
def model_run():
    sim = AcceleratorSim(SystolicArray(16, 16), SramBudget.split(64 << 10))
    return sim.run(Topology("t", [
        conv("c1", 34, 34, 3, 3, 8, 16),
        conv("c2", 34, 34, 3, 3, 16, 16),
        conv("c3", 32, 32, 3, 3, 16, 32),
    ]))


def _total_bytes(scheme, run):
    return sum(p.total_bytes for p in scheme.protect_model(run))


def _metadata_bytes(scheme, run):
    return sum(p.metadata_bytes for p in scheme.protect_model(run))


class TestFactory:
    def test_all_names_construct(self):
        for name in SCHEME_NAMES + ["baseline"]:
            scheme = make_scheme(name)
            assert scheme.name == name

    def test_unknown_name(self):
        with pytest.raises(KeyError):
            make_scheme("tdx")

    def test_granularities(self):
        assert make_scheme("sgx-512b").unit_bytes == 512
        assert make_scheme("mgx-64b").unit_bytes == 64


class TestBaseline:
    def test_no_metadata(self, model_run):
        scheme = Unprotected()
        assert _metadata_bytes(scheme, model_run) == 0

    def test_data_preserved(self, model_run):
        scheme = Unprotected()
        total = _total_bytes(scheme, model_run)
        expected = sum(to_blocks(r.trace).total_bytes for r in model_run.layers)
        assert total == expected


class TestSgx:
    def test_requires_begin_model(self, model_run):
        scheme = SgxScheme()
        with pytest.raises(RuntimeError):
            scheme.protect_layer(model_run.layers[0])

    def test_metadata_nonzero(self, model_run):
        assert _metadata_bytes(SgxScheme(64), model_run) > 0

    def test_more_metadata_than_mgx(self, model_run):
        """SGX adds VN + tree traffic on top of MGX's MACs."""
        assert _metadata_bytes(SgxScheme(64), model_run) > \
            _metadata_bytes(MgxScheme(64), model_run)

    def test_coarser_units_less_metadata(self, model_run):
        assert _metadata_bytes(SgxScheme(512), model_run) < \
            _metadata_bytes(SgxScheme(64), model_run)

    def test_state_reset_between_models(self, model_run):
        scheme = SgxScheme(64)
        first = _metadata_bytes(scheme, model_run)
        second = _metadata_bytes(scheme, model_run)
        assert first == second  # begin_model resets caches

    def test_crypto_engine_parallel(self):
        engine = SgxScheme(64).crypto_engine()
        assert engine.engines > 1


class TestMgx:
    def test_streaming_overhead_near_12_5_percent(self, model_run):
        """MGX-64B: one 64 B MAC line per eight 64 B units."""
        scheme = MgxScheme(64)
        protections = scheme.protect_model(model_run)
        data = sum(p.data_bytes for p in protections)
        metadata = sum(p.metadata_bytes for p in protections)
        assert metadata / data == pytest.approx(0.125, rel=0.25)

    def test_requires_begin_model(self, model_run):
        with pytest.raises(RuntimeError):
            MgxScheme().protect_layer(model_run.layers[0])

    def test_512_has_overfetch(self):
        """Coarse units over-fetch at unaligned tile edges."""
        sim = AcceleratorSim(SystolicArray(16, 16), SramBudget.split(32 << 10))
        run = sim.run(Topology("odd", [conv("c", 35, 35, 3, 3, 5, 16)]))
        scheme = MgxScheme(512)
        protections = scheme.protect_model(run)
        assert sum(p.overfetch_blocks for p in protections) > 0


class TestSeda:
    def test_metadata_is_per_layer_constant(self, model_run):
        scheme = SedaScheme(layer_macs_offchip=True)
        protections = scheme.protect_model(model_run)
        metadata_blocks = sum(len(side) for p in protections
                              for side in p.metadata_sides)
        assert metadata_blocks == 2 * len(model_run.layers)

    def test_onchip_variant_zero_traffic(self, model_run):
        scheme = SedaScheme(layer_macs_offchip=False)
        assert _metadata_bytes(scheme, model_run) == 0

    def test_no_overfetch(self, model_run):
        scheme = SedaScheme()
        protections = scheme.protect_model(model_run)
        assert all(p.overfetch_blocks == 0 for p in protections)

    def test_single_engine(self, model_run):
        scheme = SedaScheme()
        scheme.begin_model(model_run)
        engine = scheme.crypto_engine()
        assert engine.engines == 1
        assert engine.xor_lanes >= 1

    def test_lanes_meet_peak_demand(self, model_run):
        scheme = SedaScheme()
        scheme.begin_model(model_run)
        engine = scheme.crypto_engine()
        assert engine.bytes_per_cycle >= model_run.peak_demand_bytes_per_cycle

    def test_optblk_choices_recorded(self, model_run):
        scheme = SedaScheme()
        scheme.begin_model(model_run)
        for result in model_run.layers:
            choice = scheme.optblk_choice(result.layer_id)
            assert choice.block_bytes >= 64


class TestOrdering:
    def test_paper_traffic_ordering(self, model_run):
        """SGX-64B > MGX-64B > SGX-512B > MGX-512B > SeDA > baseline."""
        totals = {
            name: _total_bytes(make_scheme(name), model_run)
            for name in SCHEME_NAMES + ["baseline"]
        }
        assert totals["sgx-64b"] > totals["mgx-64b"]
        assert totals["mgx-64b"] > totals["sgx-512b"]
        assert totals["sgx-512b"] > totals["mgx-512b"]
        assert totals["mgx-512b"] > totals["seda"]
        assert totals["seda"] >= totals["baseline"]
        assert totals["seda"] < 1.01 * totals["baseline"]

    def test_table3_rows(self):
        rows = [make_scheme(n).summary() for n in SCHEME_NAMES]
        names = [r.name for r in rows]
        assert "SeDA" in names
        seda_row = rows[names.index("SeDA")]
        assert seda_row.tiling_aware
        assert seda_row.encryption_scalable
        assert all(not r.tiling_aware for r in rows if r.name != "SeDA")


@pytest.mark.parametrize("workload", ["lenet", "dlrm"])
class TestOnRealWorkloads:
    def test_every_scheme_runs(self, workload):
        sim = AcceleratorSim(SystolicArray(32, 32), SramBudget.split(480 << 10))
        run = sim.run(get_workload(workload))
        for name in SCHEME_NAMES:
            protections = make_scheme(name).protect_model(run)
            assert sum(p.total_bytes for p in protections) > 0
