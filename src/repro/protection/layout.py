"""Security-metadata address layout inside the protected region.

The metadata region (see :mod:`repro.accel.layout`) is carved into the
MAC table, the VN table and the integrity-tree levels. All tables are
indexed by protection-unit number, so one layout object serves any
power-of-two protection granularity.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.accel.layout import METADATA_BASE, PROTECTED_REGION_BYTES
from repro.integrity.merkle import MerkleTree

MAC_ENTRY_BYTES = 8
VN_ENTRY_BYTES = 8          # 56-bit VN stored in an 8 B slot
LINE_BYTES = 64
ENTRIES_PER_LINE = LINE_BYTES // MAC_ENTRY_BYTES  # 8

_MAC_BASE = METADATA_BASE
_VN_BASE = METADATA_BASE + 0x8000_0000
_TREE_BASE = METADATA_BASE + 0x1_0000_0000
_TREE_LEVEL_STRIDE = 0x1000_0000
TREE_ARITY = 8


@dataclass(frozen=True)
class MetadataLayout:
    """Metadata addressing for one protection granularity."""

    unit_bytes: int
    protected_bytes: int = PROTECTED_REGION_BYTES

    def __post_init__(self) -> None:
        unit = self.unit_bytes
        if unit < LINE_BYTES or unit & (unit - 1):
            raise ValueError("unit_bytes must be a power of two of at "
                             "least 64")

    # -- unit indexing --

    def unit_of(self, addr: int) -> int:
        return addr // self.unit_bytes

    @property
    def num_units(self) -> int:
        return self.protected_bytes // self.unit_bytes

    # -- MAC table --

    def mac_line_addr(self, unit: int) -> int:
        return _MAC_BASE + (unit // ENTRIES_PER_LINE) * LINE_BYTES

    @property
    def mac_table_bytes(self) -> int:
        return self.num_units * MAC_ENTRY_BYTES

    # -- VN table --

    def vn_line_addr(self, unit: int) -> int:
        return _VN_BASE + (unit // ENTRIES_PER_LINE) * LINE_BYTES

    @property
    def num_vn_lines(self) -> int:
        return -(-self.num_units // ENTRIES_PER_LINE)

    # -- integrity tree over VN lines --

    @property
    def tree_levels(self) -> int:
        """Internal levels between VN lines and the on-chip root."""
        return MerkleTree.levels_for(self.num_vn_lines, TREE_ARITY) - 1

    def tree_node_addr(self, vn_line_index: int, level: int) -> int:
        """Address of the level-``level`` ancestor of a VN line (level >= 1)."""
        if level < 1:
            raise ValueError("tree levels are numbered from 1")
        index = vn_line_index // (TREE_ARITY ** level)
        return _TREE_BASE + level * _TREE_LEVEL_STRIDE + index * LINE_BYTES

    def vn_line_index(self, unit: int) -> int:
        return unit // ENTRIES_PER_LINE

    # -- storage overhead (documentation / Table I support) --

    def metadata_overhead_fraction(self, with_vns: bool) -> float:
        """Stored metadata bytes per protected data byte."""
        per_unit = MAC_ENTRY_BYTES + (VN_ENTRY_BYTES if with_vns else 0)
        return per_unit / self.unit_bytes
