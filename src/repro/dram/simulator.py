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

The native walk reads a block stream through its key column
(:meth:`DramSim._key_column`): one packed int64 per block, its row
shifted above its global bank (``row << log2(channels * banks) |
channel * banks + bank``), with the stream's per-channel request counts
and whether its cycles ascend, computed by the ``dram_keys`` kernel the
first time the stream is walked and kept on the stream, keyed by the
mapping's shifts. Every scheme walks a window's data blocks, and both
512 B schemes its over-fetch blocks, so each is decomposed once per
window instead of once per scheme; metadata sides are walked by
address. The numpy twin decomposes addresses itself
(:meth:`DramSim._walk_numpy`).

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

from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro import obs
from repro.accel.trace import BlockStream, TrafficSide
from repro.dram.mapping import AddressMapping, _shift_of
from repro.dram.timing import DramConfig
from repro.utils import native


class DramResult:
    """Outcome of serving one block stream: per-channel request and
    row-conflict counts, and the busy time they cost.

    Activation penalties overlap with other banks' bursts; with B
    banks, roughly (B-1)/B of each penalty hides under concurrent
    transfers, so a channel is busy ``requests * burst + conflicts *
    penalty / B`` cycles. The totals are worked out when read: the
    pipeline makes a result for every window it walks and reads only
    the layer's.
    """

    __slots__ = ("per_channel_requests", "per_channel_row_misses",
                 "_timing")

    def __init__(self, per_channel_requests: List[int],
                 per_channel_row_misses: List[int],
                 timing: Tuple[float, float, float]):
        self.per_channel_requests = per_channel_requests
        #: Row-conflict counts per channel — the integer inputs the
        #: analytic ``@bN`` derivation extrapolates before recomputing
        #: busy time.
        self.per_channel_row_misses = per_channel_row_misses
        #: Burst cycles, row-miss penalty cycles, and the share of a
        #: penalty that surfaces (1 / banks per channel).
        self._timing = timing

    @property
    def requests(self) -> int:
        return sum(self.per_channel_requests)

    @property
    def row_misses(self) -> int:
        return sum(self.per_channel_row_misses)

    @property
    def row_hits(self) -> int:
        return self.requests - self.row_misses

    @property
    def per_channel_busy(self) -> List[float]:
        burst, miss, overlap = self._timing
        return [r * burst + c * miss * overlap for r, c in
                zip(self.per_channel_requests, self.per_channel_row_misses)]

    @property
    def busy_cycles(self) -> float:
        """Max per-channel busy time (the bottleneck)."""
        return max(self.per_channel_busy)

    @property
    def row_hit_rate(self) -> float:
        if self.requests == 0:
            return 0.0
        return self.row_hits / self.requests

    @property
    def total_bytes(self) -> int:
        return self.requests * 64

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, DramResult):
            return NotImplemented
        return (self.per_channel_requests, self.per_channel_row_misses,
                self._timing) == (other.per_channel_requests,
                                  other.per_channel_row_misses,
                                  other._timing)

    __hash__ = None  # type: ignore[assignment]

    def __repr__(self) -> str:
        return (f"DramResult(requests={self.requests}, "
                f"row_misses={self.row_misses}, "
                f"busy_cycles={self.busy_cycles}, "
                f"per_channel_requests={self.per_channel_requests}, "
                f"per_channel_row_misses={self.per_channel_row_misses})")


class WalkState:
    """Where an issue-order walk stands between windows of one layer.

    ``regs`` is the native walk's register array
    (:func:`repro.utils.native.walk_registers`, valid by construction,
    so no walk checks it again): this walk's
    per-channel request and conflict counts, then one open-row register
    per bank (``INT64_MIN``: closed, as on a cold memory system), then
    the walk's save area. ``requests`` and ``conflicts`` sum the counts
    of every walk so far.
    """

    __slots__ = ("regs", "regs_addr", "requests", "conflicts")

    def __init__(self, regs: np.ndarray, channels: int):
        self.regs = regs
        self.regs_addr = native.address(regs)
        self.requests = [0] * channels
        self.conflicts = [0] * channels

    def open_rows(self) -> np.ndarray:
        """The per-bank open-row registers (a view)."""
        channels = len(self.requests)
        return self.regs[2 * channels:(len(self.regs) + 2 * channels) // 2]

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
        self._timing = (self._burst_cyc, self._miss_cyc,
                        1.0 / config.banks_per_channel)
        shifts = (_shift_of(config.block_bytes), _shift_of(config.channels),
                  _shift_of(config.blocks_per_row),
                  _shift_of(config.banks_per_channel))
        #: Power-of-two mapping shifts for the native walk; None leaves
        #: exotic non-power-of-two configs to the numpy twin.
        self._shifts = shifts if min(shifts) >= 0 else None
        #: The registers of a cold memory system, copied per walk state.
        self._cold = native.walk_registers(config.channels,
                                           config.banks_per_channel)

    def walk_state(self) -> WalkState:
        """A cold memory system: every bank closed, nothing counted."""
        return WalkState(self._cold.copy(), self.config.channels)

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
        return DramResult(state.requests, state.conflicts, self._timing)

    def _serve(self, parts: Sequence[TrafficSide],
               state: WalkState) -> DramResult:
        if len(parts) > native.WALK_MAX_SIDES:
            raise ValueError(
                f"a DRAM entry is at most {native.WALK_MAX_SIDES} sides "
                f"(data, over-fetch, MAC, VN), got {len(parts)}")
        if self._shifts is None or not native.available():
            requests, conflicts = self._walk_numpy(
                [(native.as_int64(part.addrs), native.as_int64(part.cycles))
                 for part in parts if len(part)], state.open_rows())
        else:
            requests, conflicts = self._walk(parts, state)
        state.requests = [a + b for a, b in zip(state.requests, requests)]
        state.conflicts = [a + b for a, b in zip(state.conflicts, conflicts)]
        return DramResult(requests, conflicts, self._timing)

    def _key_column(self, stream: BlockStream) -> Tuple:
        """Compute and keep on ``stream`` its packed key column under
        this mapping (:func:`repro.utils.native.dram_keys`): ``(shifts,
        side as the walk takes it, keys, cycles, request counts)``.
        Every scheme walks a window's data blocks, so they are
        decomposed once (again only under another mapping)."""
        cycles = native.as_int64(stream.cycles)
        keys, requests, ascending = native.dram_keys(
            stream.addrs, cycles, self._shifts)
        flags = native.WALK_PACKED | (native.WALK_ASCENDING if ascending
                                      else 0)
        side = (native.address(keys), native.address(cycles), len(keys),
                flags, native.address(requests))
        memo = stream.__dict__["_dram_keys"] = (self._shifts, side, keys,
                                                cycles, requests)
        return memo

    def _walk(self, parts: Sequence[TrafficSide],
              state: WalkState) -> Tuple[List[int], List[int]]:
        """Per-channel (requests, row conflicts) of the native
        issue-order walk over an entry's sides, from and into
        ``state``'s open rows.

        A block stream is walked through its key column
        (:meth:`_key_column`), any other side through its addresses.
        The kernel expects each side cycle-sorted, as every production
        side is; when it reports a descent, it has put the open rows
        back, and that side is stable-sorted by cycle (which keeps the
        walk's order) and the walk runs again.
        """
        sides, columns = [], []
        for part in parts:
            if isinstance(part, BlockStream):
                if not len(part):
                    continue
                memo = part.__dict__.get("_dram_keys")
                if memo is None or memo[0] != self._shifts:
                    memo = self._key_column(part)
                _, side, col, cycles, _ = memo
            elif len(part):
                col = native.as_int64(part.addrs)
                cycles = native.as_int64(part.cycles)
                side = (native.address(col), native.address(cycles),
                        len(col), 0, 0)
            else:
                continue
            sides.append(side)
            columns.append((col, cycles))
        sorted_sides = 0
        while True:
            rc = native.dram_walk(sides, self._shifts, state.regs_addr)
            if rc == 0:
                break
            sorted_sides += 1
            col, cycles = columns[rc - 1]
            order = np.argsort(cycles, kind="stable")
            col, cycles = columns[rc - 1] = col[order], cycles[order]
            _, _, length, flags, requests = sides[rc - 1]
            sides[rc - 1] = (native.address(col), native.address(cycles),
                             length, flags | native.WALK_ASCENDING, requests)
        if sorted_sides:
            obs.incr("dram.unsorted_side", sorted_sides)
        channels = self.config.channels
        counts = state.regs[:2 * channels].tolist()
        return counts[:channels], counts[channels:]

    def _walk_numpy(self, sides: List[Tuple[np.ndarray, np.ndarray]],
                    open_rows: np.ndarray
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
