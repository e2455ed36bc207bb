"""Trace-driven DRAM simulation.

The model consumes :class:`repro.accel.trace.BlockStream` s (64-byte
block accesses with issue cycles) and reports how long the memory
system is busy serving each one, in accelerator cycles. Per channel,
data-bus occupancy is ``requests * burst``, and row-buffer conflicts
(counted exactly, in issue order, per bank) add an activation penalty
discounted by bank-level overlap.

The pipeline serves each layer as up to four cycle-sorted sides: data
and over-fetch blocks, then MAC and VN traffic (SGX); data, over-fetch
and MAC (MGX); data and layer MACs (SeDA). One walk visits their merge
in issue order, keyed ``(cycle, side index)`` so a lower side wins
ties, as in the sides' concatenated stream, with an open-row register
per bank; it has a native kernel and a numpy twin.
``tests/dram/oracle.py`` holds an event-driven walk of the same
semantics that the test suite checks this model against.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence, Tuple

import numpy as np

from repro import obs
from repro.accel.trace import BlockStream, TrafficSide
from repro.dram.mapping import AddressMapping, _shift_of
from repro.dram.timing import DramConfig
from repro.utils import native

#: A side's ``(addrs, cycles)`` columns, as the walk reads them.
_Columns = Tuple[np.ndarray, np.ndarray]


@dataclass
class DramResult:
    """Outcome of serving one block stream."""

    requests: int
    row_hits: int
    row_misses: int
    busy_cycles: float           # max per-channel busy time (the bottleneck)
    per_channel_requests: List[int]
    per_channel_busy: List[float]
    #: Row-conflict counts per channel — the integer inputs the analytic
    #: ``@bN`` derivation extrapolates before recomputing busy time.
    per_channel_row_misses: List[int]

    @property
    def row_hit_rate(self) -> float:
        if self.requests == 0:
            return 0.0
        return self.row_hits / self.requests

    @property
    def total_bytes(self) -> int:
        return self.requests * 64


class DramSim:
    """DRAM timing simulator for one configuration and NPU clock."""

    def __init__(self, config: DramConfig, freq_ghz: float):
        if freq_ghz <= 0:
            raise ValueError("freq_ghz must be positive")
        self.config = config
        self.freq_ghz = freq_ghz
        self.mapping = AddressMapping(config)
        self._burst_cyc = config.to_cycles(config.burst_ns, freq_ghz)
        self._miss_cyc = config.to_cycles(
            config.timing.row_miss_penalty_ns, freq_ghz)
        shifts = (_shift_of(config.block_bytes), _shift_of(config.channels),
                  _shift_of(config.blocks_per_row),
                  _shift_of(config.banks_per_channel))
        #: Power-of-two mapping shifts for the native walk; None leaves
        #: exotic non-power-of-two configs to the numpy twin.
        self._shifts = shifts if min(shifts) >= 0 else None
        #: The walk's output: per-channel requests and conflicts, then
        #: one open-row register per bank.
        self._counts = np.empty(
            config.channels * (2 + config.banks_per_channel), np.int64)

    @staticmethod
    def _conflict_mask(sorted_bank: np.ndarray,
                       sorted_row: np.ndarray) -> np.ndarray:
        """Row-conflict flags over bank-sorted arrays.

        Within each bank the input preserves issue order, so the first
        access of a bank and every row change between neighbours is a
        conflict — identical to walking the stream with per-bank
        open-row registers.
        """
        n = len(sorted_bank)
        new_bank = np.empty(n, dtype=bool)
        new_bank[0] = True
        np.not_equal(sorted_bank[1:], sorted_bank[:-1], out=new_bank[1:])
        row_change = np.empty(n, dtype=bool)
        row_change[0] = True
        np.not_equal(sorted_row[1:], sorted_row[:-1], out=row_change[1:])
        return new_bank | row_change

    def simulate_fast(self, stream: BlockStream) -> DramResult:
        """Busy time of serving one stream on a cold memory system."""
        return self.simulate_fast_batch_parts([(stream,)])[0]

    def simulate_fast_batch_parts(
            self, part_lists: List[Sequence[TrafficSide]]) -> List[DramResult]:
        """Serve each entry of ``part_lists`` on a cold memory system.

        An entry is up to :data:`~repro.utils.native.WALK_MAX_SIDES`
        cycle-sorted sides, treated as their concatenated stream
        without materializing it: one walk visits the sides' merge in
        issue order, a lower side first on equal cycles.
        """
        return [self._serve(parts) for parts in part_lists]

    def _serve(self, parts: Sequence[TrafficSide]) -> DramResult:
        if len(parts) > native.WALK_MAX_SIDES:
            raise ValueError(
                f"a DRAM entry is at most {native.WALK_MAX_SIDES} sides "
                f"(data, over-fetch, MAC, VN), got {len(parts)}")
        requests, conflicts = self._walk(
            [(native.as_int64(p.addrs), native.as_int64(p.cycles))
             for p in parts if len(p)])

        # Activation penalties overlap with other banks' bursts; with B
        # banks, roughly (B-1)/B of each penalty hides under concurrent
        # transfers.
        overlap = 1.0 / self.config.banks_per_channel
        busy = [r * self._burst_cyc + c * self._miss_cyc * overlap
                for r, c in zip(requests, conflicts)]
        n = sum(requests)
        misses = sum(conflicts)
        return DramResult(
            requests=n,
            row_hits=n - misses,
            row_misses=misses,
            busy_cycles=max(busy),
            per_channel_requests=requests,
            per_channel_busy=busy,
            per_channel_row_misses=conflicts,
        )

    def _walk(self, sides: List[_Columns]) -> Tuple[List[int], List[int]]:
        """Per-channel (requests, row conflicts) of the issue-order walk
        over an entry's non-empty ``(addrs, cycles)`` sides.

        The native kernel expects each side cycle-sorted, as every
        production side is; when it reports a descent, that side is
        stable-sorted by cycle (which keeps the walk's order) and the
        walk runs again.
        """
        if self._shifts is None:
            return self._walk_numpy(sides)
        channels = self.config.channels
        sorted_sides = 0
        while True:
            rc = native.dram_walk(sides, self._shifts, self._counts)
            if rc is None:
                return self._walk_numpy(sides)
            if rc == 0:
                break
            sorted_sides += 1
            addrs, cycles = sides[rc - 1]
            order = np.argsort(cycles, kind="stable")
            sides[rc - 1] = (addrs[order], cycles[order])
        if sorted_sides:
            obs.incr("dram.unsorted_side", sorted_sides)
        counts = self._counts[:2 * channels].tolist()
        return counts[:channels], counts[channels:]

    def _walk_numpy(self, sides: List[_Columns]
                    ) -> Tuple[List[int], List[int]]:
        """Numpy twin of the native walk: merge the sides by a stable
        cycle sort of their concatenation, then a stable sort by global
        bank lines each bank's accesses up in issue order for
        :meth:`_conflict_mask`."""
        cfg = self.config
        if not sides:
            return [0] * cfg.channels, [0] * cfg.channels
        addrs = np.concatenate([a for a, _ in sides])
        cycles = np.concatenate([c for _, c in sides])
        addrs = addrs[np.argsort(cycles, kind="stable")]
        channels, banks, rows = self.mapping.decompose(addrs)
        gb = channels * cfg.banks_per_channel + banks
        nbanks = cfg.channels * cfg.banks_per_channel
        # Small integer keys let numpy radix-sort the bank order.
        key_type = (np.uint8 if nbanks <= 1 << 8
                    else np.uint16 if nbanks <= 1 << 16 else np.int64)
        order = np.argsort(gb.astype(key_type), kind="stable")
        gb_s = gb[order]
        flags = self._conflict_mask(gb_s, rows[order])
        conflicts = np.bincount(gb_s[flags] // cfg.banks_per_channel,
                                minlength=cfg.channels)
        requests = np.bincount(channels, minlength=cfg.channels)
        return requests.tolist(), conflicts.tolist()
