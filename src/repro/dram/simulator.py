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

A layer arrives in cycle windows (:meth:`repro.accel.trace.Trace.
windows`), every side cut at the same cycle bounds, so the windows'
merges concatenate to the layer's. A :class:`WalkState` carries the
open-row registers and the per-channel counts from one window's walk
to the next, and :meth:`DramSim.finish` turns them into the layer's
:class:`DramResult`, exactly the result of one walk over the whole
layer. A batched layer's skipped image windows
(:func:`repro.protection.metadata_model.periodic_skip`) are served
without a walk: :meth:`WalkState.add` counts the last walked image
window's increments again and :meth:`WalkState.advance` moves the open
rows on by the images' row strides. ``tests/dram/oracle.py`` holds an
event-driven walk of the same semantics that the test suite checks this
model against.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro import obs
from repro.accel.trace import BlockStream, TrafficSide
from repro.dram.mapping import AddressMapping, _shift_of
from repro.dram.timing import DramConfig
from repro.utils import native

#: The open-row register of a closed bank.
_CLOSED = np.iinfo(np.int64).min

#: A side's ``(addrs, cycles)`` columns, as the walk reads them, maybe
#: followed by their data addresses (:func:`repro.utils.native.column_ptrs`).
_Columns = Tuple


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


class WalkState:
    """Where an issue-order walk stands between windows of one layer.

    ``regs`` is the native walk's in/out array: this walk's per-channel
    request and conflict counts, then one open-row register per bank
    (``INT64_MIN``: closed, as on a cold memory system). ``requests``
    and ``conflicts`` sum the counts of every walk so far.
    """

    __slots__ = ("regs", "regs_addr", "requests", "conflicts")

    def __init__(self, channels: int, banks_per_channel: int):
        self.regs = np.full(channels * (2 + banks_per_channel), _CLOSED,
                            np.int64)
        self.regs_addr = self.regs.ctypes.data
        self.requests = [0] * channels
        self.conflicts = [0] * channels

    def open_rows(self) -> np.ndarray:
        """The per-bank open-row registers (a view)."""
        return self.regs[2 * len(self.requests):]

    def add(self, requests: Sequence[int], conflicts: Sequence[int],
            times: int) -> None:
        """Count ``times`` more walks of these per-channel counts."""
        self.requests = [a + times * b
                         for a, b in zip(self.requests, requests)]
        self.conflicts = [a + times * b
                          for a, b in zip(self.conflicts, conflicts)]

    def advance(self, spans: np.ndarray, times: int) -> None:
        """Move every open row inside a ``(first row, last row, row
        stride)`` span of ``spans`` (sorted, disjoint) on by ``times``
        strides; closed banks and rows outside the spans stay."""
        rows = self.open_rows()
        span = np.searchsorted(spans[:, 0], rows, side="right") - 1
        inside = (span >= 0) & (rows <= spans[span, 1])
        rows[inside] += times * spans[span[inside], 2]


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

    def walk_state(self) -> WalkState:
        """A cold memory system: every bank closed, nothing counted."""
        return WalkState(self.config.channels, self.config.banks_per_channel)

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
            self, part_lists: List[Sequence[TrafficSide]],
            states: Optional[Sequence[WalkState]] = None
            ) -> List[DramResult]:
        """Serve each entry of ``part_lists`` on a cold memory system,
        or from the matching entry of ``states``.

        An entry is up to :data:`~repro.utils.native.WALK_MAX_SIDES`
        cycle-sorted sides, treated as their concatenated stream
        without materializing it: one walk visits the sides' merge in
        issue order, a lower side first on equal cycles. A state's walk
        starts from its open rows and leaves them, and its counts, for
        the entry's next window (:meth:`finish`); the result is what
        this entry alone added.
        """
        if states is None:
            states = [self.walk_state() for _ in part_lists]
        return [self._serve(parts, state)
                for parts, state in zip(part_lists, states)]

    def finish(self, state: WalkState) -> DramResult:
        """The result of every walk ``state`` has carried."""
        return self._result(state.requests, state.conflicts)

    def _serve(self, parts: Sequence[TrafficSide],
               state: WalkState) -> DramResult:
        if len(parts) > native.WALK_MAX_SIDES:
            raise ValueError(
                f"a DRAM entry is at most {native.WALK_MAX_SIDES} sides "
                f"(data, over-fetch, MAC, VN), got {len(parts)}")
        sides = []
        for part in parts:
            if len(part):
                ptrs = native.column_ptrs(part) \
                    if isinstance(part, BlockStream) else None
                sides.append((native.as_int64(part.addrs),
                              native.as_int64(part.cycles),
                              *(ptrs[:2] if ptrs else ())))
        requests, conflicts = self._walk(sides, state)
        state.requests = [a + b for a, b in zip(state.requests, requests)]
        state.conflicts = [a + b for a, b in zip(state.conflicts, conflicts)]
        return self._result(requests, conflicts)

    def _result(self, requests: List[int],
                conflicts: List[int]) -> DramResult:
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

    def _walk(self, sides: List[_Columns],
              state: WalkState) -> Tuple[List[int], List[int]]:
        """Per-channel (requests, row conflicts) of the issue-order walk
        over an entry's non-empty ``(addrs, cycles)`` sides, from and
        into ``state``'s open rows.

        The native kernel expects each side cycle-sorted, as every
        production side is; when it reports a descent, that side is
        stable-sorted by cycle (which keeps the walk's order) and the
        walk runs again from the open rows it started with.
        """
        if self._shifts is None:
            return self._walk_numpy(sides, state.open_rows())
        channels = self.config.channels
        regs = state.regs
        start = regs[2 * channels:].copy()
        sorted_sides = 0
        while True:
            rc = native.dram_walk(sides, self._shifts, regs, state.regs_addr)
            if rc is None:
                return self._walk_numpy(sides, state.open_rows())
            if rc == 0:
                break
            sorted_sides += 1
            regs[2 * channels:] = start
            addrs, cycles = sides[rc - 1][:2]
            order = np.argsort(cycles, kind="stable")
            sides[rc - 1] = (addrs[order], cycles[order])
        if sorted_sides:
            obs.incr("dram.unsorted_side", sorted_sides)
        counts = regs[:2 * channels].tolist()
        return counts[:channels], counts[channels:]

    def _walk_numpy(self, sides: List[_Columns], open_rows: np.ndarray
                    ) -> Tuple[List[int], List[int]]:
        """Numpy twin of the native walk: merge the sides by a stable
        cycle sort of their concatenation, then a stable sort by global
        bank lines each bank's accesses up in issue order for
        :meth:`_conflict_mask`; a bank's first access conflicts unless
        it hits the row ``open_rows`` holds, and its last leaves its row
        there."""
        cfg = self.config
        if not sides:
            return [0] * cfg.channels, [0] * cfg.channels
        addrs = np.concatenate([side[0] for side in sides])
        cycles = np.concatenate([side[1] for side in sides])
        addrs = addrs[np.argsort(cycles, kind="stable")]
        channels, banks, rows = self.mapping.decompose(addrs)
        gb = channels * cfg.banks_per_channel + banks
        nbanks = cfg.channels * cfg.banks_per_channel
        # Small integer keys let numpy radix-sort the bank order.
        key_type = (np.uint8 if nbanks <= 1 << 8
                    else np.uint16 if nbanks <= 1 << 16 else np.int64)
        order = np.argsort(gb.astype(key_type), kind="stable")
        gb_s = gb[order]
        rows_s = np.asarray(rows[order], np.int64)
        flags = self._conflict_mask(gb_s, rows_s)
        firsts = np.flatnonzero(np.diff(gb_s, prepend=-1))
        flags[firsts] = rows_s[firsts] != open_rows[gb_s[firsts]]
        lasts = np.append(firsts[1:] - 1, len(gb_s) - 1)
        open_rows[gb_s[lasts]] = rows_s[lasts]
        conflicts = np.bincount(gb_s[flags] // cfg.banks_per_channel,
                                minlength=cfg.channels)
        requests = np.bincount(channels, minlength=cfg.channels)
        return requests.tolist(), conflicts.tolist()
