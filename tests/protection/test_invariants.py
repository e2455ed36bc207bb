"""Property-based invariants across protection schemes.

Random small conv stacks are run through every scheme; the invariants
here are the ones the figures rely on, so they must hold for *any*
workload, not just the zoo.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.accel.layout import METADATA_BASE
from repro.accel.simulator import AcceleratorSim
from repro.accel.systolic import SystolicArray
from repro.models.layer import conv, gemm
from repro.models.topology import Topology
from repro.protection import SCHEME_NAMES, make_scheme
from repro.tiling.tile import SramBudget
from tests.streams import merge_sides


@st.composite
def small_topologies(draw):
    num_layers = draw(st.integers(1, 3))
    layers = []
    hw = draw(st.sampled_from([16, 24, 33]))
    channels = draw(st.integers(1, 8))
    for i in range(num_layers):
        filters = draw(st.integers(1, 16))
        layers.append(conv(f"c{i}", hw + 2, hw + 2, 3, 3, channels, filters))
        channels = filters
    if draw(st.booleans()):
        layers.append(gemm("fc", draw(st.integers(1, 32)),
                           draw(st.integers(8, 256)),
                           draw(st.integers(1, 32))))
    return Topology("prop", layers)


def _run_model(topology):
    sim = AcceleratorSim(SystolicArray(8, 8), SramBudget.split(32 << 10))
    return sim.run(topology)


class TestSchemeInvariants:
    @given(small_topologies())
    @settings(max_examples=15, deadline=None)
    def test_protected_never_below_baseline(self, topology):
        run = _run_model(topology)
        baseline = sum(p.total_bytes for p in
                       make_scheme("baseline").protect_model(run))
        for name in SCHEME_NAMES:
            protected = sum(p.total_bytes for p in
                            make_scheme(name).protect_model(run))
            assert protected >= baseline, name

    @given(small_topologies())
    @settings(max_examples=10, deadline=None)
    def test_sgx_dominates_mgx(self, topology):
        """Adding VN + tree traffic can only increase metadata."""
        run = _run_model(topology)
        for unit in (64, 512):
            sgx = sum(p.metadata_bytes for p in
                      make_scheme(f"sgx-{unit}b").protect_model(run))
            mgx = sum(p.metadata_bytes for p in
                      make_scheme(f"mgx-{unit}b").protect_model(run))
            assert sgx >= mgx

    @given(small_topologies())
    @settings(max_examples=10, deadline=None)
    def test_metadata_lives_in_metadata_region(self, topology):
        run = _run_model(topology)
        for name in SCHEME_NAMES:
            for protection in make_scheme(name).protect_model(run):
                stream = merge_sides(protection.metadata_sides)
                if len(stream):
                    assert int(stream.addrs.min()) >= METADATA_BASE

    @given(small_topologies())
    @settings(max_examples=10, deadline=None)
    def test_determinism(self, topology):
        run = _run_model(topology)
        for name in ("sgx-64b", "seda"):
            first = [p.total_bytes for p in
                     make_scheme(name).protect_model(run)]
            second = [p.total_bytes for p in
                      make_scheme(name).protect_model(run)]
            assert first == second

    @given(small_topologies())
    @settings(max_examples=10, deadline=None)
    def test_writeback_conservation(self, topology):
        """Metadata writes never exceed metadata reads plus dirty state:
        every written line was fetched (write-allocate) first."""
        run = _run_model(topology)
        for name in ("sgx-64b", "mgx-64b"):
            protections = make_scheme(name).protect_model(run)
            reads = sum(int((~side.writes).sum())
                        for p in protections for side in p.metadata_sides)
            writes = sum(int(side.writes.sum())
                         for p in protections for side in p.metadata_sides)
            assert writes <= reads
