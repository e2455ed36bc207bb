"""Shared machinery for metadata-traffic generation (SGX/MGX models).

The hot path: a layer's block stream drives the LRU cache model
directly.  Blocks map to protection units (64 B or 512 B, always a
power of two), units to 64 B metadata lines (8 entries per line), so a
block's line index is its address shifted right by ``log2(unit_bytes *
8)``; consecutive blocks on one line are one cache access (sequential
tile streams hit the same line 8 times in a row), a run compression
each drive does as it walks the stream.  Misses and dirty evictions
become metadata DRAM accesses.

A scheme keeps each metadata table behind its on-chip cache as one
:class:`MetadataTable`: the MAC table (SGX and MGX), and the VN table
with its integrity tree (SGX alone).  Every cache decision is one step
of a fully associative, write-back, write-allocate LRU drive, and one
:func:`drive_tables` call drives a MAC table and a VN table together
over one stream.  A drive has one production path per tier: the
compiled ``fused_drive`` kernel (:mod:`repro.utils.native`), or, on
hosts without a C compiler, its scalar twin :func:`drive_scalar`.  Both
return the same :class:`~repro.utils.native.DriveOutput`, which
:meth:`MetadataTable.apply` folds into the table; a table's cache
contents between drives are the ``(tags, dirty)`` arrays the latest
drive returned (:attr:`MetadataTable.state`).  The tiers are pinned
access-for-access against an independent ``LruCache`` reference
(``tests/lru.py``) by ``tests/protection/test_drive_tiers.py``.

A layer's traffic is never concatenated: its data blocks (the shared
cycle-sorted expansion), its over-fetch blocks at a coarse unit
(:func:`overfetch_columns`) and each cache's metadata traffic
(:class:`CacheTrafficResult`) are separate cycle-sorted *sides*.  The
drives and the DRAM walk merge them keyed ``(cycle, side index)``,
which is the order of their concatenation stably sorted by cycle.

A layer arrives in cycle windows (:func:`layer_windows`), every side
cut at the same bounds, and the drives continue from window to window:
the tables keep their cache state, and a metadata line run cut by a
window carries into the next (:func:`repro.utils.native.fused_drive`'s
``carry``), so the windows' traffic is exactly the whole layer's.
"""

from __future__ import annotations

import math
from collections import OrderedDict
from dataclasses import dataclass
from typing import Iterator, List, Optional, Sequence, Tuple

import numpy as np

from repro import obs
from repro.accel.layout import METADATA_BASE
from repro.accel.trace import (
    BLOCK_BYTES,
    AccessKind,
    BlockStream,
    Trace,
    TraceWindow,
    block_spans,
    kind_code,
)
from repro.utils import native
from repro.protection.layout import (
    ENTRIES_PER_LINE,
    LINE_BYTES,
    MetadataLayout,
    TREE_ARITY,
)

#: The paper's metadata caches (Section IV-A): a 16 KB VN cache and an
#: 8 KB MAC cache, both LRU, write-back and write-allocate.
VN_CACHE_BYTES = 16 << 10
MAC_CACHE_BYTES = 8 << 10


def compress_runs(values: np.ndarray, writes: np.ndarray,
                  cycles: np.ndarray) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Run-length compress consecutive equal ``values``.

    Within a run, write flags OR together (any write dirties the line)
    and the run's cycle is its first access's cycle.
    """
    n = len(values)
    if n == 0:
        return values, writes, cycles
    boundary = np.empty(n, dtype=bool)
    boundary[0] = True
    np.not_equal(values[1:], values[:-1], out=boundary[1:])
    starts = np.flatnonzero(boundary)
    run_writes = np.logical_or.reduceat(writes, starts)
    return values[starts], run_writes, cycles[starts]


class CacheTrafficResult:
    """Metadata traffic produced by driving one cache model: one
    cycle-sorted side of a layer's DRAM traffic.

    Drives append their event arrays as they come, without a copy; the
    ``cycles``, ``addrs`` and ``writes`` columns join them with one
    concatenation per column on first read.  The DRAM walk merges the
    side with the layer's others, so it never becomes a
    :class:`BlockStream`.
    """

    __slots__ = ("_parts", "misses")

    def __init__(self) -> None:
        self._parts: List[Tuple[np.ndarray, np.ndarray, np.ndarray]] = []
        self.misses = 0

    def __len__(self) -> int:
        return sum(len(part[0]) for part in self._parts)

    def _columns(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        if not self._parts:
            self._parts.append((np.empty(0, np.int64),
                                np.empty(0, np.int64), np.empty(0, bool)))
        elif len(self._parts) > 1:
            self._parts[:] = [tuple(np.concatenate(column)
                                    for column in zip(*self._parts))]
        return self._parts[0]

    @property
    def cycles(self) -> np.ndarray:
        return self._columns()[0]

    @property
    def addrs(self) -> np.ndarray:
        return self._columns()[1]

    @property
    def writes(self) -> np.ndarray:
        return self._columns()[2]

    def rows_since(self, mark: int
                   ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Columns of the entries appended after the first ``mark``."""
        return tuple(column[mark:] for column in self._columns())

    def extend_arrays(self, cycles, addrs, writes, misses: int = 0) -> None:
        """Append parallel event columns; the arrays are kept, not
        copied, so callers hand over arrays they no longer write."""
        if len(cycles):
            writes = np.asarray(writes)
            self._parts.append((
                native.as_int64(cycles), native.as_int64(addrs),
                writes.view(bool) if writes.dtype == np.uint8
                else writes.astype(bool, copy=False)))
        self.misses += misses

    def extend_from(self, other: "CacheTrafficResult") -> None:
        self._parts.extend(other._parts)
        self.misses += other.misses


def _lru_lines(state) -> "OrderedDict[int, bool]":
    """A private copy of a drive's initial ``(tags, dirty)`` state as a
    tag -> dirty map, least recent first."""
    tags, dirty = state
    return OrderedDict(zip(tags.tolist(), (dirty != 0).tolist()))


def _drive_output(events, stats, lines) -> native.DriveOutput:
    cyc, addr, wr = events
    n = len(lines)
    return native.DriveOutput(
        np.array(cyc, np.int64), np.array(addr, np.int64),
        np.array(wr, np.uint8), stats,
        np.fromiter(lines.keys(), np.int64, n),
        np.fromiter(lines.values(), np.uint8, n))


def _merge_sides(sides) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(keys, writes, cycles)`` of the sides' ``(cycle, side)`` merge:
    the stable cycle sort of their concatenation."""
    if len(sides) > native.DRIVE_MAX_SIDES:
        raise ValueError(f"a drive merges at most {native.DRIVE_MAX_SIDES} "
                         f"block sides, got {len(sides)}")
    keys, writes, cycles = (np.concatenate(column) for column in zip(
        *[(native.as_int64(k), np.asarray(w, bool), native.as_int64(c))
          for k, w, c, *_ in sides]))
    if len(cycles) > 1 and bool((cycles[1:] < cycles[:-1]).any()):
        order = np.argsort(cycles, kind="stable")
        keys, writes, cycles = keys[order], writes[order], cycles[order]
    return keys, writes, cycles


def drive_scalar(sides: Sequence[Tuple[np.ndarray, np.ndarray, np.ndarray]],
                 key_shift: int,
                 mac: Optional[Tuple] = None, vn: Optional[Tuple] = None,
                 carry: Optional[np.ndarray] = None,
                 ) -> Tuple[Optional[native.DriveOutput],
                            Optional[native.DriveOutput]]:
    """Scalar twin of :func:`repro.utils.native.fused_drive`.

    Same arguments, same ``(mac_output, vn_output)`` pair of
    :class:`~repro.utils.native.DriveOutput` (``None`` for a side not
    driven). The block sides are merged into one array (a stable cycle
    sort of their concatenation, which is the kernel's ``(cycle,
    side)`` merge) and reduced to line runs, vectorized
    (:func:`compress_runs` over ``key >> key_shift``); the loop over
    the runs then transcribes the kernel's ``drive_fused`` access for
    access: a MAC miss emits its fetch, then the dirty victim's
    writeback; a VN miss emits the writeback, then the fetch, then walks
    the line's tree ancestors ``node_base[l] + line // node_div[l]`` up
    to the first cached node. The initial states are copied,
    never mutated; the final states come back as arrays, exactly as the
    kernel returns them. ``carry`` continues and leaves an open line run
    as the kernel's does: a first run on the carried line only adds its
    write to the lines the carried access touched.
    """
    keys, writes, cycles = _merge_sides(sides)
    runs, writes, cycles = compress_runs(
        native.as_int64(keys).view(np.uint64) >> np.uint64(key_shift),
        writes, cycles)
    runs = runs.view(np.int64)
    lb = LINE_BYTES
    mac_on, vn_on = mac is not None, vn is not None
    empty = (np.empty(0, np.int64), np.empty(0, np.uint8))
    mac_base, mac_cap, mac_init = mac if mac_on else (0, 0, empty)
    vn_base, vn_cap, vn_init, node_base, node_div = \
        vn if vn_on else (0, 0, empty, (), ())
    walk = list(zip(np.asarray(node_base, np.int64).tolist(),
                    np.asarray(node_div, np.int64).tolist()))
    m_lines, v_lines = _lru_lines(mac_init), _lru_lines(vn_init)
    m_move, m_pop = m_lines.move_to_end, m_lines.popitem
    v_move, v_pop = v_lines.move_to_end, v_lines.popitem
    m_events: Tuple[List[int], List[int], List[int]] = ([], [], [])
    v_events: Tuple[List[int], List[int], List[int]] = ([], [], [])
    m_cyc, m_addr, m_wr = (col.append for col in m_events)
    v_cyc, v_addr, v_wr = (col.append for col in v_events)
    m_hits = m_misses = m_evictions = m_dirty = 0
    v_hits = v_misses = v_evictions = v_dirty = 0
    # The lines the latest access touched: its MAC tag, its VN tags.
    t_mac, t_vn = -1, []
    first = 0
    if carry is not None and carry[0]:
        t_mac = int(carry[3])
        t_vn = carry[5:5 + int(carry[4])].tolist()
        if len(runs) and int(runs[0]) == int(carry[1]):
            # The first run continues the carried one, accessed already.
            first = 1
            if writes[0] and not carry[2]:
                for lines, tags in ((m_lines, [t_mac] if t_mac >= 0 else []),
                                    (v_lines, t_vn)):
                    for tag in tags:
                        if tag not in lines:
                            raise native.CarryError(
                                "a window-cut line run's write found a "
                                "line its access touched evicted")
                        lines[tag] = True
                carry[2] = 1
    # Scalar twin tier: each LRU drive (and the VN tree walk, which
    # depends on what the drive has cached so far) is a sequential state
    # machine; this loop serves hosts without the compiled kernel and is
    # pinned access-for-access to it and to the LruCache reference.
    # repro: allow(hot-path-hygiene)
    for line, wr, cyc in zip(runs[first:].tolist(), writes[first:].tolist(),
                             cycles[first:].tolist()):
        t_vn = []
        if mac_on:
            tag = mac_base + line
            t_mac = tag
            if tag in m_lines:
                m_hits += 1
                m_move(tag)
                if wr:
                    m_lines[tag] = True
            else:
                # MAC miss: the fetch surfaces before the writeback.
                m_misses += 1
                m_cyc(cyc)
                m_addr(tag * lb)
                m_wr(0)
                if len(m_lines) >= mac_cap:
                    old_tag, old_dirty = m_pop(last=False)
                    m_evictions += 1
                    if old_dirty:
                        m_dirty += 1
                        m_cyc(cyc)
                        m_addr(old_tag * lb)
                        m_wr(1)
                m_lines[tag] = wr
        if not vn_on:
            continue
        tag = vn_base + line
        t_vn.append(tag)
        if tag in v_lines:
            v_hits += 1
            v_move(tag)
            if wr:
                v_lines[tag] = True
            continue
        # VN miss: the writeback surfaces before the fetch.
        v_misses += 1
        if len(v_lines) >= vn_cap:
            old_tag, old_dirty = v_pop(last=False)
            v_evictions += 1
            if old_dirty:
                v_dirty += 1
                v_cyc(cyc)
                v_addr(old_tag * lb)
                v_wr(1)
        v_lines[tag] = wr
        v_cyc(cyc)
        v_addr(tag * lb)
        v_wr(0)
        # Walk ancestors until a cached node (or the root) vouches.
        for base, div in walk:
            ntag = base + line // div
            t_vn.append(ntag)
            if ntag in v_lines:
                v_hits += 1
                v_move(ntag)
                if wr:
                    v_lines[ntag] = True
                break
            v_misses += 1
            if len(v_lines) >= vn_cap:
                old_tag, old_dirty = v_pop(last=False)
                v_evictions += 1
                if old_dirty:
                    v_dirty += 1
                    v_cyc(cyc)
                    v_addr(old_tag * lb)
                    v_wr(1)
            v_lines[ntag] = wr
            v_cyc(cyc)
            v_addr(ntag * lb)
            v_wr(0)
    if carry is not None and len(runs) > first:
        carry[:5] = (1, int(runs[-1]), bool(writes[-1]), t_mac, len(t_vn))
        carry[5:5 + len(t_vn)] = t_vn
    return (
        _drive_output(m_events, (m_hits, m_misses, m_evictions, m_dirty),
                      m_lines) if mac_on else None,
        _drive_output(v_events, (v_hits, v_misses, v_evictions, v_dirty),
                      v_lines) if vn_on else None,
    )


@dataclass
class CacheStats:
    """Access statistics of one metadata cache.

    ``evictions``/``dirty_evictions`` count *capacity* behaviour only —
    lines pushed out by allocation pressure. End-of-model teardown is
    reported separately (``flushed_lines``/``flush_writebacks``) so a
    cache's eviction rate stays interpretable: a model that never
    overflows the cache shows zero evictions even though its flush
    drains every line.
    """

    hits: int = 0
    misses: int = 0
    evictions: int = 0
    dirty_evictions: int = 0
    flushed_lines: int = 0
    flush_writebacks: int = 0

    @property
    def accesses(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        if self.accesses == 0:
            return 0.0
        return self.hits / self.accesses

    def note(self, hits: int, misses: int, evictions: int,
             dirty_evictions: int) -> None:
        """Record a batch of accesses one drive performed."""
        self.hits += hits
        self.misses += misses
        self.evictions += evictions
        self.dirty_evictions += dirty_evictions

    def reset(self) -> None:
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.dirty_evictions = 0
        self.flushed_lines = 0
        self.flush_writebacks = 0


#: An empty cache's ``(tags, dirty)`` state.
_EMPTY_STATE = (np.empty(0, np.int64), np.empty(0, np.uint8))


class MetadataTable:
    """One metadata table behind its on-chip cache of ``capacity_bytes``
    in 64 B lines.

    A block's line index ``line`` (its address shifted by
    :func:`drive_tables`) is the line tag ``base_tag + line`` (tag =
    line address // 64). A VN table also holds its integrity tree as
    ``tree = (node_base, node_div)``: a VN-line miss walks the line's
    ancestors ``node_base[l] + line // node_div[l]`` upward in the same
    cache and stops at the first cached one (or the on-chip root).
    Writes dirty the VN line (counter increment); the tree levels are
    re-hashed lazily on eviction, modelled by the dirty-eviction
    writeback of the touched nodes.

    ``state`` holds the cache contents the latest drive left: int64
    tags and uint8 dirty flags, least recent first, which the next
    drive starts from; ``stats`` accumulates the drives' counters.
    """

    __slots__ = ("capacity_lines", "base_tag", "tree", "state", "stats")

    def __init__(self, capacity_bytes: int, base_tag: int,
                 tree: Optional[Tuple[np.ndarray, np.ndarray]] = None):
        if capacity_bytes < LINE_BYTES:
            raise ValueError("capacity smaller than one line")
        self.capacity_lines = capacity_bytes // LINE_BYTES
        self.base_tag = base_tag
        self.tree = tree
        self.state = _EMPTY_STATE
        self.stats = CacheStats()

    @classmethod
    def mac(cls, layout: MetadataLayout,
            capacity_bytes: int = MAC_CACHE_BYTES) -> "MetadataTable":
        """The per-unit MAC table of ``layout``."""
        return cls(capacity_bytes, layout.mac_line_addr(0) // LINE_BYTES)

    @classmethod
    def vn(cls, layout: MetadataLayout,
           capacity_bytes: int = VN_CACHE_BYTES) -> "MetadataTable":
        """The VN table of ``layout`` with its integrity tree (the
        layout keeps VN lines contiguous from the table base)."""
        levels = range(1, layout.tree_levels + 1)
        tree = (np.array([layout.tree_node_addr(0, level) // LINE_BYTES
                          for level in levels], np.int64),
                np.array([TREE_ARITY ** level for level in levels],
                         np.int64))
        return cls(capacity_bytes, layout.vn_line_addr(0) // LINE_BYTES,
                   tree)

    def spec(self) -> Tuple:
        """The table as a drive's ``mac`` or ``vn`` argument
        (:func:`repro.utils.native.fused_drive`)."""
        head = (self.base_tag, self.capacity_lines, self.state)
        return head if self.tree is None else head + self.tree

    def apply(self, result: native.DriveOutput,
              out: CacheTrafficResult) -> None:
        """Fold one drive of this table into its traffic ``out``, its
        statistics and its cache state."""
        out.extend_arrays(result.ev_cycles, result.ev_addrs,
                          result.ev_writes, misses=result.misses)
        self.stats.note(result.hits, result.misses, result.evictions,
                        result.dirty_evictions)
        self.state = (result.state_tags, result.state_dirty)

    def flush(self, cycle: int) -> CacheTrafficResult:
        """Empty the cache: every dirty line is written back at
        ``cycle``, least recent first."""
        tags, dirty = self.state
        dirty = dirty != 0
        self.stats.flushed_lines += len(tags)
        self.stats.flush_writebacks += int(dirty.sum())
        self.state = _EMPTY_STATE
        addrs = tags[dirty] * LINE_BYTES
        out = CacheTrafficResult()
        out.extend_arrays(np.full(len(addrs), cycle, np.int64), addrs,
                          np.ones(len(addrs), bool))
        return out


def drive_tables(sides: Sequence[BlockStream], unit_bytes: int,
                 tables: Tuple[Optional[MetadataTable],
                               Optional[MetadataTable]],
                 carry: Optional[np.ndarray] = None,
                 ) -> Tuple[Optional[native.DriveOutput],
                            Optional[native.DriveOutput]]:
    """One LRU drive of a ``(mac, vn)`` pair of tables (``None`` for a
    table not driven) over the metadata lines of merged block ``sides``
    under a ``unit_bytes`` unit, continuing ``carry``'s open line run
    (:func:`repro.utils.native.new_carry`): the native kernel, or its
    scalar twin. Both tables index by the same line, so one walk feeds
    both, and each table's events and state equal a drive of it alone.
    Returns the ``(mac, vn)`` outputs for :meth:`MetadataTable.apply`.

    A block's key is its address, read in place when the kernel can
    (:func:`repro.utils.native.column_ptrs`), and its line index the key
    shifted by ``log2(unit_bytes * 8)``: every unit is a power of two
    (:class:`MetadataLayout`)."""
    columns = []
    for side in sides:
        ptrs = native.column_ptrs(side)
        columns.append((side.addrs, side.writes, side.cycles) + (
            () if ptrs is None else (ptrs[0], ptrs[2], ptrs[1])))
    shift = (unit_bytes * ENTRIES_PER_LINE).bit_length() - 1
    mac, vn = tables
    specs = dict(mac=None if mac is None else mac.spec(),
                 vn=None if vn is None else vn.spec(), carry=carry)
    out = native.fused_drive(columns, shift, **specs)
    return drive_scalar(columns, shift, **specs) if out is None else out


#: Images a batched layer actually pushes through the stateful metadata
#: tables: image 0 cold, image 1 against image 0's final state. Every
#: further image repeats image 1's traffic increment.
_SIMULATED_IMAGES = 2

#: Image windows a batched layer expands and walks under the periodic
#: shortcut (:func:`periodic_skip`): 0, 1 and 2. Windows 3..N-1 repeat
#: window 2's increment.
_WALKED_IMAGES = 3

#: Whether :func:`periodic_skip` may skip image windows at all. Off,
#: every window of a batched layer is expanded and walked: the oracle
#: ``tests/integration/test_periodic_parity.py`` checks the shortcut
#: against.
PERIODIC_SHORTCUT = True

#: Largest protection unit any scheme applies (SGX-512B / MGX-512B): a
#: periodic layer's image strides keep its phase too.
MAX_PROTECTION_UNIT = 512


class PeriodicSkip:
    """What the window of a batched layer's skipped images stands for:
    ``times`` more copies of the previous segment's traffic (image
    window 2's), after which every bank's open row has moved on by
    ``times`` per-image row strides of the region it lies in. ``spans``
    holds one ``(first row, last row, row stride)`` per data kind of
    the layer over all its images, sorted and disjoint; a row outside
    them (metadata) does not move."""

    __slots__ = ("times", "spans")

    def __init__(self, times: int, spans: np.ndarray):
        self.times = times
        self.spans = spans


def _periodic_spans(result, address_map, dram) -> Optional[np.ndarray]:
    """The row spans of :class:`PeriodicSkip`, or ``None`` when a
    batched layer's image windows 2..N-1 might not be shifted copies of
    one another.

    Image ``i`` of a layer is image 0's schedule (less its resident
    weight fetches) shifted by ``i`` images' share of the cycles and by
    a per-kind address stride (``AcceleratorSim._replicate_batch``).
    Window ``k`` (cycles ``[S + k * ic, S + (k + 1) * ic)``) holds image
    ``k``'s blocks and the spill of image ``k - 1``'s; it is window
    ``k - 1`` shifted when:

    - image 0's blocks issue below ``S + 2 * ic`` (every image's within
      its own and the next image's cycles);
    - every stride is a multiple of one DRAM row-set and of the largest
      protection unit, so a shifted block keeps its channel, bank,
      column and unit phase and moves a whole number of rows;
    - no two kinds, over all images, share a row, and no data row is a
      metadata row (metadata traffic repeats at the same addresses), so
      every row comparison the walk makes in window ``k`` equals its
      counterpart in window ``k - 1``.
    """
    layer = result.layer
    batch = layer.batch
    image_cycles = result.compute_cycles // batch
    cycles, addrs, nbytes, _, kinds, _, durations = result.trace.buf.arrays()
    if image_cycles <= 0 or not len(cycles):
        return None
    first, counts = block_spans(addrs, nbytes)
    last = cycles + (counts - 1) * durations // counts
    start = result.start_cycle
    image0 = cycles < start + image_cycles
    if (int(cycles.min()) < start or not image0.any()
            or int(last.max()) >= start + (batch + 1) * image_cycles
            or int(last[image0].max()) >= start + 2 * image_cycles):
        return None
    row_set = dram.row_bytes * dram.banks_per_channel * dram.channels
    quantum = math.lcm(row_set, MAX_PROTECTION_UNIT)
    strides = {
        kind_code(AccessKind.IFMAP):
            address_map.image_stride(layer.ifmap_bytes_per_image),
        kind_code(AccessKind.OFMAP):
            address_map.image_stride(layer.ofmap_bytes_per_image),
        kind_code(AccessKind.KVCACHE): address_map.kv_image_stride,
        kind_code(AccessKind.WEIGHT): 0,
    }
    spans = []
    for code in np.unique(kinds):
        stride = strides.get(int(code))
        if stride is None or stride % quantum:
            return None
        mask = kinds == code
        spans.append((
            int(first[mask].min()) // row_set,
            int((first[mask] + (counts[mask] - 1) * BLOCK_BYTES).max())
            // row_set,
            stride // row_set))
    spans.sort()
    if any(below[1] >= above[0] for below, above in zip(spans, spans[1:])) \
            or spans[-1][1] >= METADATA_BASE // row_set:
        return None
    return np.array(spans, np.int64)


def periodic_skip(result, address_map, dram) -> Optional[PeriodicSkip]:
    """The periodic shortcut's gate for one layer of a model run laid
    out by ``address_map`` and served by DRAM ``dram`` (a
    :class:`~repro.dram.timing.DramConfig`): a :class:`PeriodicSkip`
    for image windows 3..N-1 of a batched layer whose windows 2..N-1
    are exact shifted copies of one another (:func:`_periodic_spans`),
    ``None`` when the layer walks every window. The gate is the
    per-layer form of :func:`repro.analytic.derivable`'s stride check
    plus the checks of :func:`_periodic_spans`. Each ``@b4`` or larger
    layer counts one ``periodic.skipped`` or ``periodic.walked``."""
    batch = result.layer.batch
    if not PERIODIC_SHORTCUT or batch <= _WALKED_IMAGES:
        return None
    spans = _periodic_spans(result, address_map, dram)
    if spans is None:
        obs.incr("periodic.walked")
        return None
    obs.incr("periodic.skipped")
    return PeriodicSkip(batch - _WALKED_IMAGES, spans)


def layer_windows(result, skip: Optional[PeriodicSkip] = None
                  ) -> Iterator[TraceWindow]:
    """A layer's cycle windows (:meth:`Trace.windows`), cut also where
    :func:`drive_window` starts image 1 and image 2 of a batched layer
    (:attr:`LayerResult.start_cycle` plus one and two images' share of
    its compute cycles), then, from ``@b4``, where image 3 starts and
    where the last image ends. With ``skip`` (:func:`periodic_skip`),
    images 3..N-1 are never expanded: one window carrying ``skip``
    stands for them, and the traffic after the last image (its spill
    into the next image's cycles) is served from where they leave
    off."""
    batch = result.layer.batch
    cuts: Tuple[int, ...] = ()
    if batch > _SIMULATED_IMAGES:
        image_cycles = result.compute_cycles // batch
        images = (1, 2) if batch <= _WALKED_IMAGES \
            else (1, 2, _WALKED_IMAGES, batch)
        cuts = tuple(result.start_cycle + image * image_cycles
                     for image in images)
    return result.trace.windows(
        cuts, owner=result,
        skip=None if skip is None else (_WALKED_IMAGES, skip))


class _LayerDrive:
    """What one drive site carries between a layer's windows: the open
    line run, the image it belongs to, and image 1's traffic increment
    per output (its parts, then the joined columns) with its misses."""

    __slots__ = ("carry", "segment", "parts", "increment", "misses")

    def __init__(self, outs: int):
        self.carry = native.new_carry()
        self.segment = 0
        self.parts: List[List[Tuple[np.ndarray, ...]]] = \
            [[] for _ in range(outs)]
        self.increment: Optional[List[Tuple[np.ndarray, ...]]] = None
        self.misses = [0] * outs


def drive_window(drive, key: object, window: TraceWindow,
                 sides: Sequence[BlockStream],
                 outs: Sequence[CacheTrafficResult]) -> None:
    """One window's image-periodic cache traffic.

    ``drive(sides, carry)`` must push the block ``sides`` through the
    live metadata tables in one drive, continuing its ``carry`` (see
    :func:`drive_tables`) and appending traffic to every result in
    ``outs``. ``key`` names the drive site; its state lives in the
    window's per-layer ``state`` from window to window, so a layer's
    windows drive the caches exactly as one whole-layer drive does.

    A batched layer's data stream is an exact per-image replica of
    image 0's schedule (see ``AcceleratorSim._replicate_batch``), but
    LRU cache state is history-dependent, so metadata traffic is *not*
    — instead of walking every image, the model simulates image 0 cold
    and image 1 against image 0's final cache state, then repeats image
    1's traffic increment for each remaining image, advancing only the
    cycles (steady-state images touch a stationary metadata working set
    — the cache has already filtered the per-image pattern, and its
    residual DRAM traffic shape, not its absolute placement, is what
    the memory model consumes). This makes batched metadata traffic an
    exact affine function of the batch size from image 1 onward — the
    invariant the analytic ``@bN`` derivation extrapolates on — and
    bounds cache-simulation cost at two images per layer regardless of
    batch.

    Image ``i`` occupies cycles ``[start + i * image_cycles, start +
    (i + 1) * image_cycles)`` from the layer's :attr:`LayerResult.
    start_cycle`; :func:`layer_windows` cuts the windows where images 1
    and 2 start (``window.segment`` 0, 1 and 2), and a line run never
    continues across those cuts. A window past them drives nothing: it
    receives image ``i``'s shifted increment wherever that falls inside
    the window, for every image from 2 on.
    """
    result = window.layer
    batch = result.layer.batch
    state = window.state.get(key)
    if state is None:
        state = window.state[key] = _LayerDrive(len(outs))
    if batch <= _SIMULATED_IMAGES or window.segment < _SIMULATED_IMAGES:
        if window.segment != state.segment:
            # A line run never continues into the next image.
            state.segment = window.segment
            state.carry = native.new_carry()
        marks = [(len(out), out.misses) for out in outs]
        drive(sides, state.carry)
        if batch > _SIMULATED_IMAGES and window.segment == 1:
            for j, (out, (mark, misses)) in enumerate(zip(outs, marks)):
                state.parts[j].append(out.rows_since(mark))
                state.misses[j] += out.misses - misses
        return
    if state.increment is None:
        state.increment = [
            tuple(np.concatenate(column) for column in zip(*parts))
            if parts else (np.empty(0, np.int64), np.empty(0, np.int64),
                           np.empty(0, bool))
            for parts in state.parts]
        state.parts = []
    image_cycles = result.compute_cycles // batch
    lo, hi = window.lo, window.hi
    # Image i's increment issues in [start + i * ic, start + (i + 1) *
    # ic): the first image reaching into the window is the one whose
    # cycles hold ``lo``.
    first = _SIMULATED_IMAGES if lo is None or image_cycles <= 0 else max(
        _SIMULATED_IMAGES, (lo - result.start_cycle) // image_cycles)
    for out, (cycles, addrs, writes), misses in zip(
            outs, state.increment, state.misses):
        for image in range(first, batch):
            begin = result.start_cycle + image * image_cycles
            if hi is not None and begin >= hi:
                break
            shift = (image - 1) * image_cycles
            a = 0 if lo is None else int(np.searchsorted(cycles, lo - shift))
            b = len(cycles) if hi is None else \
                int(np.searchsorted(cycles, hi - shift))
            starts_here = lo is None or begin >= lo
            out.extend_arrays(cycles[a:b] + shift, addrs[a:b], writes[a:b],
                              misses=misses if starts_here else 0)


def overfetch_columns(trace: Trace, unit_bytes: int
                      ) -> Tuple[np.ndarray, ...]:
    """Range columns of one layer's over-fetch at a coarse unit.

    Verifying (or re-MACing, for writes) a partially touched unit needs
    the untouched remainder of that unit fetched from DRAM: per range, a
    head candidate from the unit's start up to the range and a tail
    candidate from the range's end to the unit's end, each issued like
    its range and read-only. The candidates alone are kept, in range
    order (head, then tail), in :meth:`RangeBuffer.arrays` column order,
    so their cycle-sorted expansion is a small side of the layer's
    blocks.
    """
    cycles, addrs, nbytes, _, _, layer_ids, durations = trace.buf.arrays()
    end = addrs + nbytes
    head_base = addrs - addrs % unit_bytes
    n = len(addrs)
    cand_addr = np.empty(2 * n, dtype=np.int64)
    cand_addr[0::2] = head_base
    cand_addr[1::2] = end
    cand_nbytes = np.empty(2 * n, dtype=np.int64)
    cand_nbytes[0::2] = addrs - head_base
    cand_nbytes[1::2] = (-end) % unit_bytes
    mask = cand_nbytes > 0
    kept = int(mask.sum())
    return (np.repeat(cycles, 2)[mask], cand_addr[mask], cand_nbytes[mask],
            np.zeros(kept, dtype=bool),
            np.full(kept, kind_code(AccessKind.METADATA), dtype=np.int8),
            np.repeat(layer_ids, 2)[mask], np.repeat(durations, 2)[mask])


def data_sides(window: TraceWindow,
               unit_bytes: int) -> Tuple[BlockStream, ...]:
    """One window's data traffic under a ``unit_bytes`` protection
    unit, as cycle-sorted sides.

    The first side is the window's data blocks, the same arrays every
    scheme reads; a unit above one 64 B block adds the window's piece
    of the layer's over-fetch (:func:`overfetch_columns`), cut at the
    same bounds. Their ``(cycle, side)`` merge is the stable cycle sort
    of the ranges' expansion followed by the over-fetch candidates'.
    """
    if unit_bytes <= LINE_BYTES:
        return (window.blocks,)
    trace = window.layer.trace
    return window.blocks, window.side(
        ("overfetch", unit_bytes),
        lambda: overfetch_columns(trace, unit_bytes))
