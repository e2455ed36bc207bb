"""Physical address -> (channel, bank, row) mapping.

Block-interleaved channel mapping (consecutive 64 B blocks round-robin
across channels) with row-major bank filling inside each channel:
a channel-local row fills ``row_bytes`` before moving to the next bank —
the RoBaCoCh-style mapping DRAM simulators default to for streaming
accelerators.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

import numpy as np

from repro.dram.timing import DramConfig


def _shift_of(value: int) -> int:
    """log2 of a power of two, or -1 when ``value`` is not one."""
    return value.bit_length() - 1 if value & (value - 1) == 0 else -1


@dataclass(frozen=True)
class AddressMapping:
    """Vectorized address decomposition for one :class:`DramConfig`."""

    config: DramConfig

    def decompose(self, addrs: np.ndarray) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(channel, bank, row) arrays for block-aligned byte addresses."""
        cfg = self.config
        col_blocks = cfg.blocks_per_row
        block_shift = _shift_of(cfg.block_bytes)
        channel_shift = _shift_of(cfg.channels)
        col_shift = _shift_of(col_blocks)
        bank_shift = _shift_of(cfg.banks_per_channel)
        if min(block_shift, channel_shift, col_shift, bank_shift) >= 0:
            # All divisors are powers of two (the common configs):
            # shifts and masks vectorize far better than 64-bit divides.
            block_idx = addrs.astype(np.int64) >> block_shift
            channel = block_idx & (cfg.channels - 1)
            local = block_idx >> channel_shift
            bank = (local >> col_shift) & (cfg.banks_per_channel - 1)
            row = local >> (col_shift + bank_shift)
            return channel, bank, row
        block_idx = addrs // cfg.block_bytes
        channel = (block_idx % cfg.channels).astype(np.int64)
        local = block_idx // cfg.channels          # channel-local block index
        bank = ((local // col_blocks) % cfg.banks_per_channel).astype(np.int64)
        row = (local // (col_blocks * cfg.banks_per_channel)).astype(np.int64)
        return channel, bank, row

    def keys(self, addrs: np.ndarray) -> np.ndarray:
        """Packed DRAM keys of block addresses under power-of-two
        mapping: the row shifted left by log2(channels * banks) bits,
        over the global bank ``channel * banks_per_channel + bank``
        (numpy twin of :func:`repro.utils.native.dram_keys`)."""
        cfg = self.config
        _, channel_shift, _, bank_shift = shifts = [
            _shift_of(value) for value in (cfg.block_bytes, cfg.channels,
                                           cfg.blocks_per_row,
                                           cfg.banks_per_channel)]
        if min(shifts) < 0:
            raise ValueError("packed DRAM keys need power-of-two mapping")
        channel, bank, row = self.decompose(addrs)
        return (row << (channel_shift + bank_shift)) \
            | (channel << bank_shift) | bank

    def decompose_one(self, addr: int) -> Tuple[int, int, int]:
        channel, bank, row = self.decompose(np.asarray([addr], dtype=np.uint64))
        return int(channel[0]), int(bank[0]), int(row[0])
