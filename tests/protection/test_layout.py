"""Security-metadata address layout."""

import numpy as np
import pytest

from repro.accel.layout import METADATA_BASE, PROTECTED_REGION_BYTES
from repro.protection.layout import MetadataLayout
from tests.streams import mac_line_addrs, vn_line_indices


class TestUnits:
    def test_unit_indexing(self):
        layout = MetadataLayout(64)
        assert layout.unit_of(0) == 0
        assert layout.unit_of(63) == 0
        assert layout.unit_of(64) == 1

    def test_512_unit(self):
        layout = MetadataLayout(512)
        assert layout.unit_of(511) == 0
        assert layout.unit_of(512) == 1

    def test_num_units(self):
        layout = MetadataLayout(64)
        assert layout.num_units == PROTECTED_REGION_BYTES // 64

    def test_invalid_unit(self):
        """Below 64 B, or not a power of two."""
        for unit in (32, 96, 192, 320):
            with pytest.raises(ValueError):
                MetadataLayout(unit)


class TestMacTable:
    def test_eight_units_share_line(self):
        layout = MetadataLayout(64)
        lines = {layout.mac_line_addr(u) for u in range(8)}
        assert len(lines) == 1
        assert layout.mac_line_addr(8) != layout.mac_line_addr(7)

    def test_lines_in_metadata_region(self):
        layout = MetadataLayout(64)
        assert layout.mac_line_addr(0) >= METADATA_BASE

    def test_vectorized_matches_scalar(self):
        layout = MetadataLayout(64)
        addrs = np.arange(100, dtype=np.uint64) * 64
        vec = mac_line_addrs(layout, addrs)
        for addr, line in zip(addrs, vec):
            assert line == layout.mac_line_addr(layout.unit_of(int(addr)))

    def test_table_size_scales_with_granularity(self):
        fine = MetadataLayout(64)
        coarse = MetadataLayout(512)
        assert fine.mac_table_bytes == 8 * coarse.mac_table_bytes


class TestVnAndTree:
    def test_vn_lines_distinct_from_mac_lines(self):
        layout = MetadataLayout(64)
        assert layout.vn_line_addr(0) != layout.mac_line_addr(0)

    def test_tree_levels_positive(self):
        layout = MetadataLayout(64)
        assert layout.tree_levels >= 1

    def test_coarser_units_shallower_tree(self):
        assert MetadataLayout(512).tree_levels <= MetadataLayout(64).tree_levels

    def test_tree_node_addresses_distinct_per_level(self):
        layout = MetadataLayout(64)
        node1 = layout.tree_node_addr(0, 1)
        node2 = layout.tree_node_addr(0, 2)
        assert node1 != node2

    def test_tree_arity_grouping(self):
        layout = MetadataLayout(64)
        # 8 sibling VN lines share one level-1 parent.
        parents = {layout.tree_node_addr(i, 1) for i in range(8)}
        assert len(parents) == 1
        assert layout.tree_node_addr(8, 1) not in parents

    def test_level_validation(self):
        with pytest.raises(ValueError):
            MetadataLayout(64).tree_node_addr(0, 0)

    def test_vn_line_index_roundtrip(self):
        layout = MetadataLayout(64)
        addr = layout.vn_line_addr(100)
        assert vn_line_indices(layout, addr) == layout.vn_line_index(100)


class TestStorageOverhead:
    def test_fraction_64(self):
        layout = MetadataLayout(64)
        assert layout.metadata_overhead_fraction(with_vns=True) == \
            pytest.approx(16 / 64)
        assert layout.metadata_overhead_fraction(with_vns=False) == \
            pytest.approx(8 / 64)

    def test_fraction_512(self):
        layout = MetadataLayout(512)
        assert layout.metadata_overhead_fraction(with_vns=False) == \
            pytest.approx(8 / 512)
