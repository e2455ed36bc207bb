"""Trace-driven DRAM simulation.

The model consumes :class:`repro.accel.trace.BlockStream` s (64-byte
block accesses with issue cycles) and reports how long the memory
system is busy serving each one, in accelerator cycles. Per channel,
data-bus occupancy is ``requests * burst``, and row-buffer conflicts
(counted exactly, in issue order, per bank) add an activation penalty
discounted by bank-level overlap.

The pipeline serves each layer as a ``(data, metadata)`` pair: the data
stream's bank-sorted geometry and counts are memoized on the stream (it
is shared by every scheme in a sweep cell), and the metadata accesses
only add their own requests plus an *insertion correction* to the
conflict counts. Both steps have a native kernel and a numpy twin.
``tests/dram/oracle.py`` holds an event-driven walk of the same
semantics that the test suite checks this model against.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence, Tuple

import numpy as np

from repro.accel.trace import BlockStream
from repro.dram.mapping import AddressMapping, _shift_of
from repro.dram.timing import DramConfig
from repro.utils import native

#: Fixed cycle span for composite (bank, cycle) sort keys, so a stream's
#: sorted geometry can be memoized and merged against other streams.
_KEY_SPAN = 1 << 41

#: Bank-sorted ``(global bank, row, composite key)`` arrays of a stream.
Geometry = Tuple[np.ndarray, np.ndarray, np.ndarray]


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
        #: Power-of-two mapping shifts for the fused native geometry
        #: kernel; None disables it (exotic non-power-of-two configs).
        self._geom_shifts = shifts if min(shifts) >= 0 else None

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
            self, part_lists: List[Sequence[BlockStream]]) -> List[DramResult]:
        """Serve each entry of ``part_lists`` on a cold memory system.

        An entry is ``(data,)`` or ``(data, metadata)``, treated as the
        concatenated stream without materializing it: the data side's
        counts are memoized on the stream (:meth:`_stream_counts`), and
        the metadata side adds :meth:`_insertion_counts`.
        """
        return [self._serve(parts) for parts in part_lists]

    def _serve(self, parts: Sequence[BlockStream]) -> DramResult:
        cfg = self.config
        parts = [p for p in parts if len(p)]
        if len(parts) > 2:
            raise ValueError("a DRAM entry is at most a (data, metadata) "
                             f"pair, got {len(parts)} non-empty parts")
        if not parts:
            requests = conflicts = np.zeros(cfg.channels, np.int64)
        else:
            lead = self._sorted_geom(parts[0])
            requests, conflicts = self._stream_counts(parts[0], lead)
            if len(parts) == 2:
                req, con = self._insertion_counts(
                    lead, self._sorted_geom(parts[1]))
                requests = requests + req
                conflicts = conflicts + con

        # Activation penalties overlap with other banks' bursts; with B
        # banks, roughly (B-1)/B of each penalty hides under concurrent
        # transfers.
        overlap = 1.0 / cfg.banks_per_channel
        busy = requests * self._burst_cyc + conflicts * self._miss_cyc * overlap
        n = int(requests.sum())
        misses = int(conflicts.sum())
        return DramResult(
            requests=n,
            row_hits=n - misses,
            row_misses=misses,
            busy_cycles=float(busy.max()),
            per_channel_requests=requests.tolist(),
            per_channel_busy=busy.tolist(),
            per_channel_row_misses=conflicts.tolist(),
        )

    def _sorted_geom(self, stream: BlockStream) -> Geometry:
        """Bank-sorted geometry of a non-empty stream, memoized.

        The sort key is the composite ``(global bank, cycle)`` with a
        fixed cycle span, so the result is independent of the stream it
        is later merged with — layer data streams are shared across
        every scheme in a sweep cell, and their geometry is computed
        once. Relies on streams being immutable once built.
        """
        cfg = self.config
        key = (cfg.channels, cfg.banks_per_channel, cfg.row_bytes,
               cfg.block_bytes)
        cached = getattr(stream, "_dram_geom", None)
        if cached is not None and cached[0] == key:
            return cached[1]
        last_cycle = int(stream.cycles.max())
        if last_cycle >= _KEY_SPAN:
            raise ValueError(f"issue cycle {last_cycle} is past the DRAM "
                             f"model's limit of 2**41 cycles")
        n = len(stream)
        if self._geom_shifts is not None \
                and bool(np.all(stream.cycles[1:] >= stream.cycles[:-1])):
            # Cycle-sorted stream under power-of-two mapping: one fused
            # native pass yields the bank-sorted geometry (stable
            # counting sort by bank preserves issue order) plus the
            # per-channel counts _stream_counts would re-derive.
            got = native.geom_counts(stream.addrs, stream.cycles,
                                     self._geom_shifts, _KEY_SPAN,
                                     cfg.channels)
            if got is not None:
                gb_s, rows_s, key_s, req, con = got
                geom = (gb_s, rows_s, key_s)
                stream._dram_geom = (key, geom)
                stream._dram_counts = (geom, req, con)
                return geom
        channels, banks, rows = self.mapping.decompose(stream.addrs)
        gb = channels * cfg.banks_per_channel + banks
        cyc_bits = max(1, last_cycle.bit_length())
        gb_bits = max(1, int(gb.max()).bit_length())
        idx_bits = max(1, int(n - 1).bit_length())
        if gb_bits + cyc_bits + idx_bits <= 62:
            packed = ((((gb << cyc_bits) | stream.cycles) << idx_bits)
                      | np.arange(n, dtype=np.int64))
            packed.sort()
            order = packed & ((1 << idx_bits) - 1)
            gb_sorted = packed >> (cyc_bits + idx_bits)
            cyc_sorted = (packed >> idx_bits) & ((1 << cyc_bits) - 1)
            geom = (gb_sorted, rows[order], gb_sorted * _KEY_SPAN + cyc_sorted)
        else:
            sort_key = gb * _KEY_SPAN + stream.cycles
            order = np.argsort(sort_key, kind="stable")
            geom = (gb[order], rows[order], sort_key[order])
        stream._dram_geom = (key, geom)
        return geom

    def _stream_counts(self, stream: BlockStream, geom: Geometry):
        """Per-channel (requests, row-conflicts) of one stream, memoized.

        A layer's data stream is served (virtually concatenated with a
        scheme's metadata) by every scheme in a sweep cell; its internal
        conflict structure never changes, so it is computed once and
        only the metadata *insertions* are accounted per scheme.
        """
        cached = getattr(stream, "_dram_counts", None)
        if cached is not None and cached[0] is geom:
            return cached[1], cached[2]
        cfg = self.config
        gb, rows, _ = geom
        flags = self._conflict_mask(gb, rows)
        conflicts = np.bincount(gb[flags] // cfg.banks_per_channel,
                                minlength=cfg.channels)
        requests = np.bincount(gb // cfg.banks_per_channel,
                               minlength=cfg.channels)
        stream._dram_counts = (geom, requests, conflicts)
        return requests, conflicts

    def _insertion_counts(self, lead: Geometry, meta: Geometry):
        """Per-channel (requests, conflict delta) that merging ``meta``
        into ``lead`` adds, without materializing the merge.

        Each metadata access lands inside a bank's data sequence; its
        own conflict flag depends on its in-bank predecessor, and the
        data element that now follows an insertion run re-evaluates its
        flag against the run's last row. Ties resolve data first, as in
        the concatenated stream.
        """
        cfg = self.config
        bpc = cfg.banks_per_channel
        gb_a, rows_a, key_a = lead
        gb_b, rows_b, key_b = meta
        requests = np.zeros(cfg.channels, np.int64)
        conflicts = np.zeros(cfg.channels, np.int64)
        if native.insertion_scan(key_a, gb_a, rows_a, key_b, gb_b, rows_b,
                                 bpc, requests, conflicts):
            return requests, conflicts

        na, nb = len(key_a), len(key_b)
        requests += np.bincount(gb_b // bpc, minlength=cfg.channels)
        ins = np.searchsorted(key_a, key_b, side="right")
        p = ins - 1
        same_prev = (p >= 0) & (gb_a[np.maximum(p, 0)] == gb_b)
        run_first = np.empty(nb, dtype=bool)
        run_first[0] = True
        run_first[1:] = (ins[1:] != ins[:-1]) | (gb_b[1:] != gb_b[:-1])

        # metadata elements' own conflict flags
        flag_b = np.empty(nb, dtype=bool)
        chain = np.flatnonzero(~run_first)
        flag_b[chain] = rows_b[chain] != rows_b[chain - 1]
        fi = np.flatnonzero(run_first)
        with_prev = same_prev[fi]
        flag_b[fi[with_prev]] = rows_b[fi[with_prev]] \
            != rows_a[p[fi[with_prev]]]
        flag_b[fi[~with_prev]] = True
        conflicts += np.bincount(gb_b[flag_b] // bpc, minlength=cfg.channels)

        # the data element following each insertion run re-evaluates
        last = np.append(fi[1:], nb) - 1
        f = ins[last]
        valid = (f < na) & (gb_a[np.minimum(f, na - 1)] == gb_b[last])
        fv = f[valid]
        lv = last[valid]
        old_flag = np.where(same_prev[lv],
                            rows_a[fv] != rows_a[np.maximum(p[lv], 0)], True)
        new_flag = rows_a[fv] != rows_b[lv]
        delta = new_flag.astype(np.int64) - old_flag.astype(np.int64)
        nz = delta != 0
        np.add.at(conflicts, gb_b[lv[nz]] // bpc, delta[nz])
        return requests, conflicts
