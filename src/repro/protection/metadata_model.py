"""Shared machinery for metadata-traffic generation (SGX/MGX models).

The hot path: a layer's block stream drives the LRU cache model
directly.  Blocks map to protection units, units to metadata lines (8
entries per 64 B line), so a block's line index is its address shifted
right by ``log2(unit_bytes * 8)``; consecutive blocks on one line are
one cache access (sequential tile streams hit the same line 8 times in
a row), a run compression each drive does as it walks the stream.
Misses and dirty evictions become metadata DRAM accesses.

Every MAC and VN cache decision is one step of a fully associative,
write-back, write-allocate LRU drive, and each drive has one production
path per tier: the compiled ``fused_drive`` kernel
(:mod:`repro.utils.native`), or, on hosts without a C compiler, its
scalar twin :func:`drive_scalar`.  Both return the same
:class:`~repro.utils.native.DriveOutput`, so one fold
(:func:`_apply_drive_output`) serves either.  They are pinned
access-for-access against an independent ``LruCache`` reference by
``tests/protection/test_drive_tiers.py``.

A layer's traffic is never concatenated: its data blocks (the shared
cycle-sorted expansion, :meth:`Trace.sorted_blocks`), its over-fetch
blocks at a coarse unit (:func:`overfetch_side`) and each cache's
metadata traffic (:class:`CacheTrafficResult`) are separate
cycle-sorted *sides*.  The drives and the DRAM walk merge them keyed
``(cycle, side index)``, which is the order of their concatenation
stably sorted by cycle.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro import obs
from repro.accel.trace import (
    AccessKind,
    BlockStream,
    Trace,
    expand_sorted,
    kind_code,
)
from repro.integrity.caches import MetadataCache
from repro.utils import native
from repro.protection.layout import (
    ENTRIES_PER_LINE,
    LINE_BYTES,
    MetadataLayout,
    TREE_ARITY,
)


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


def _drive_columns(sides: Sequence[BlockStream], unit_bytes: int):
    """Per-side ``(keys, writes, cycles)`` drive columns and the shift
    that maps a key to its metadata line index: the addresses
    themselves for a power-of-two unit, otherwise precomputed line
    indices with shift 0."""
    div = unit_bytes * ENTRIES_PER_LINE
    if div & (div - 1) == 0:
        return ([(side.addrs, side.writes, side.cycles) for side in sides],
                div.bit_length() - 1)
    return ([(side.addrs // np.uint64(div), side.writes, side.cycles)
             for side in sides], 0)


def _check_line_bytes(line_bytes: int) -> int:
    if LINE_BYTES % line_bytes:
        raise ValueError(
            f"cache line_bytes={line_bytes} must divide the {LINE_BYTES} B "
            "metadata line stride")
    return LINE_BYTES // line_bytes


def _lru_lines(init) -> "OrderedDict[int, bool]":
    """A private copy of a drive's initial LRU contents, from either
    form :meth:`MetadataCache.drive_state` hands out (the live tag map,
    or pending ``(tags, dirty)`` arrays), least recent first."""
    if isinstance(init, tuple):
        init = zip(init[0].tolist(), (init[1] != 0).tolist())
    return OrderedDict(init)


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
          for k, w, c in sides]))
    if len(cycles) > 1 and bool((cycles[1:] < cycles[:-1]).any()):
        order = np.argsort(cycles, kind="stable")
        keys, writes, cycles = keys[order], writes[order], cycles[order]
    return keys, writes, cycles


def drive_scalar(sides: Sequence[Tuple[np.ndarray, np.ndarray, np.ndarray]],
                 key_shift: int, idx_mul: int, line_bytes: int,
                 mac: Optional[Tuple] = None, vn: Optional[Tuple] = None,
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
    the leaf's tree ancestors ``node_base[l] + (leaf // node_div[l]) *
    ratio`` up to the first cached node. The initial states are copied,
    never mutated; the final states come back as arrays, exactly as the
    kernel returns them.
    """
    keys, writes, cycles = _merge_sides(sides)
    idx, writes, cycles = compress_runs(
        native.as_int64(keys).view(np.uint64) >> np.uint64(key_shift),
        writes, cycles)
    idx = idx.view(np.int64) * idx_mul
    lb = line_bytes
    mac_on, vn_on = mac is not None, vn is not None
    mac_base, mac_cap, mac_init = mac if mac_on else (0, 0, {})
    vn_base, vn_cap, leaf_base, leaf_div, vn_init, node_base, node_div, \
        ratio = vn if vn_on else (0, 0, 0, 1, {}, [], [], 1)
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
    # Scalar twin tier: each LRU drive (and the VN tree walk, which
    # depends on what the drive has cached so far) is a sequential state
    # machine; this loop serves hosts without the compiled kernel and is
    # pinned access-for-access to it and to the LruCache reference.
    # repro: allow(hot-path-hygiene)
    for line, wr, cyc in zip(idx.tolist(), writes.tolist(),
                             cycles.tolist()):
        if mac_on:
            tag = mac_base + line
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
        leaf = leaf_base + line // leaf_div
        for base, div in walk:
            ntag = base + (leaf // div) * ratio
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
    return (
        _drive_output(m_events, (m_hits, m_misses, m_evictions, m_dirty),
                      m_lines) if mac_on else None,
        _drive_output(v_events, (v_hits, v_misses, v_evictions, v_dirty),
                      v_lines) if vn_on else None,
    )


def _drive(sides: Sequence[BlockStream], unit_bytes: int, line_bytes: int,
           mac=None, vn=None):
    """One LRU drive over the metadata lines of a layer's merged block
    sides: the native kernel, or its scalar twin."""
    columns, shift = _drive_columns(sides, unit_bytes)
    args = (columns, shift, _check_line_bytes(line_bytes), line_bytes)
    out = native.fused_drive(*args, mac=mac, vn=vn)
    if out is None:
        out = drive_scalar(*args, mac=mac, vn=vn)
    return out


def _flush(cache: MetadataCache, cycle: int,
           out: CacheTrafficResult) -> None:
    """Write every dirty line back at ``cycle`` and empty the cache."""
    addrs = cache.flush()
    out.extend_arrays(np.full(len(addrs), cycle, np.int64),
                      np.array(addrs, np.int64), np.ones(len(addrs), bool))


def _apply_drive_output(cache: MetadataCache, out: CacheTrafficResult,
                        result: native.DriveOutput) -> None:
    """Fold one drive into the traffic result and cache state."""
    out.extend_arrays(result.ev_cycles, result.ev_addrs, result.ev_writes,
                      misses=result.misses)
    cache.note(result.hits, result.misses, result.evictions,
               result.dirty_evictions)
    cache.set_state_arrays(result.state_tags, result.state_dirty)


class MacTableModel:
    """Per-unit MAC table accessed through the on-chip MAC cache."""

    def __init__(self, layout: MetadataLayout, cache: MetadataCache):
        self.layout = layout
        self.cache = cache

    def _tag_base(self) -> int:
        """MAC tag of line index 0 (tags advance by the line ratio)."""
        return self.layout.mac_line_addr(0) // self.cache.line_bytes

    def process(self, sides: Sequence[BlockStream],
                out: CacheTrafficResult) -> None:
        result, _ = _drive(
            sides, self.layout.unit_bytes, self.cache.line_bytes,
            mac=(self._tag_base(), self.cache.capacity_lines,
                 self.cache.drive_state()))
        _apply_drive_output(self.cache, out, result)

    def flush(self, cycle: int, out: CacheTrafficResult) -> None:
        _flush(self.cache, cycle, out)


class VnTreeModel:
    """VN table plus integrity tree, both through the VN cache.

    On a VN-line miss the tree is walked upward; each level is looked up
    in the same cache and the walk stops at the first hit (or the on-chip
    root).  Writes dirty the VN line (counter increment); the tree levels
    are re-hashed lazily on eviction, modelled by the dirty-eviction
    writeback of the touched nodes.
    """

    def __init__(self, layout: MetadataLayout, cache: MetadataCache):
        self.layout = layout
        self.cache = cache
        lb = cache.line_bytes
        #: VN-line index = line tag - the table's base tag (the layout
        #: keeps VN lines contiguous from the table base).
        self._vn_base_tag = layout.vn_line_addr(0) // lb
        #: Per level, the node base tag and the leaf divisor, so the
        #: walk computes node tags without re-deriving layout constants.
        levels = range(1, layout.tree_levels + 1)
        self._node_base = np.array(
            [layout.tree_node_addr(0, level) // lb for level in levels],
            np.int64)
        self._node_div = np.array([TREE_ARITY ** level for level in levels],
                                  np.int64)

    def _vn_spec(self) -> Tuple:
        """The drive's ``vn`` argument: lines are tags above the VN base,
        ``ratio`` tags per 64 B metadata line, so leaf = line // ratio."""
        ratio = LINE_BYTES // self.cache.line_bytes
        return (self._vn_base_tag, self.cache.capacity_lines, 0, ratio,
                self.cache.drive_state(), self._node_base, self._node_div,
                ratio)

    def process(self, sides: Sequence[BlockStream],
                out: CacheTrafficResult) -> None:
        _, result = _drive(sides, self.layout.unit_bytes,
                           self.cache.line_bytes, vn=self._vn_spec())
        _apply_drive_output(self.cache, out, result)

    def flush(self, cycle: int, out: CacheTrafficResult) -> None:
        _flush(self.cache, cycle, out)


def process_mac_vn(mac_model: MacTableModel, vn_model: VnTreeModel,
                   sides: Sequence[BlockStream],
                   mac_out: CacheTrafficResult,
                   vn_out: CacheTrafficResult) -> None:
    """Drive the MAC table and VN tree over a layer's merged block
    ``sides`` in one pass.

    Both tables index by the same protection-unit line, so their run
    boundaries coincide; one walk of the stream feeds both LRU models.
    The two caches are independent, so per-model event order and cache
    behaviour are identical to calling ``mac_model.process`` then
    ``vn_model.process``.
    """
    mac_cache, vn_cache = mac_model.cache, vn_model.cache
    if (mac_cache.line_bytes != LINE_BYTES
            or vn_cache.line_bytes != LINE_BYTES):
        mac_model.process(sides, mac_out)
        vn_model.process(sides, vn_out)
        return
    mac_result, vn_result = _drive(
        sides, mac_model.layout.unit_bytes, LINE_BYTES,
        mac=(mac_model._tag_base(), mac_cache.capacity_lines,
             mac_cache.drive_state()),
        vn=vn_model._vn_spec())
    _apply_drive_output(mac_cache, mac_out, mac_result)
    _apply_drive_output(vn_cache, vn_out, vn_result)


#: Images a batched layer actually pushes through the stateful cache
#: models: image 0 cold, image 1 against image 0's final state. Every
#: further image repeats image 1's traffic increment.
_SIMULATED_IMAGES = 2


def _stream_slice(stream: BlockStream, start: int, stop: int) -> BlockStream:
    return BlockStream(
        stream.cycles[start:stop], stream.addrs[start:stop],
        stream.writes[start:stop], stream.layer_ids[start:stop],
        None if stream.kinds is None else stream.kinds[start:stop])


def process_image_periodic(drive, sides: Sequence[BlockStream], batch: int,
                           image_cycles: int,
                           outs: Sequence[CacheTrafficResult],
                           start_cycle: int = 0) -> None:
    """Image-periodic steady-state cache traffic for a batched layer.

    ``drive(sub_sides)`` must push the block sides ``sub_sides``
    through the live cache models, appending traffic to every result in
    ``outs``. The batched data stream is an exact per-image replica of
    image 0's schedule (see ``AcceleratorSim._replicate_batch``), but
    LRU cache state is history-dependent, so metadata traffic is *not* —
    instead of walking every image, the model simulates image 0 cold and
    image 1 against image 0's final cache state, then replicates image 1's
    traffic increment for each remaining image, advancing only the
    cycles (steady-state images touch a stationary metadata working
    set — the cache has already filtered the per-image pattern, and its
    residual DRAM traffic shape, not its absolute placement, is what
    the memory model consumes). This makes batched metadata traffic an
    exact affine function of the batch size from image 1 onward — the
    invariant the analytic ``@bN`` derivation extrapolates on — and
    bounds cache-simulation cost at two images per layer regardless of
    batch.

    ``start_cycle`` is the layer's position on the model's global
    timeline (:attr:`LayerResult.start_cycle`): image ``i`` occupies
    cycles ``[start_cycle + i * image_cycles, start_cycle + (i + 1) *
    image_cycles)``, so the image boundaries the sides are cut at are
    offsets from it. Every side is cut at the same bounds, so each
    drive sees one image's slice of the sides' merge.
    """
    if batch <= _SIMULATED_IMAGES or not any(len(side) for side in sides):
        drive(sides)
        return
    # Every side is cut at the same image bounds.
    cuts = [np.searchsorted(side.cycles, (start_cycle + image_cycles,
                                          start_cycle + 2 * image_cycles),
                            side="left").tolist() for side in sides]
    drive(tuple(_stream_slice(side, 0, cut0)
                for side, (cut0, _) in zip(sides, cuts)))
    marks = [(len(out), out.misses) for out in outs]
    drive(tuple(_stream_slice(side, cut0, cut1)
                for side, (cut0, cut1) in zip(sides, cuts)))
    reps = batch - _SIMULATED_IMAGES
    for out, (mark, misses_mark) in zip(outs, marks):
        inc_cycles, inc_addrs, inc_writes = out.rows_since(mark)
        inc = len(inc_cycles)
        if inc == 0:
            continue
        shifts = np.repeat(
            np.arange(1, reps + 1, dtype=np.int64) * image_cycles, inc)
        out.extend_arrays(np.tile(inc_cycles, reps) + shifts,
                          np.tile(inc_addrs, reps),
                          np.tile(inc_writes, reps),
                          misses=(out.misses - misses_mark) * reps)


class SharedTrafficModel:
    """Memoizes a cache model's per-layer traffic on the model run.

    Schemes with byte-identical cache configurations — the SGX and MGX
    MAC tables at the same unit size — produce identical traffic when
    driven over the same model in layer order, so the LRU drive runs
    once per sweep cell and later schemes replay the recorded streams.
    The wrapper relies on :meth:`ProtectionScheme.protect_model`'s
    contract (begin, layers in order, finish); the first scheme through
    populates the memo from its live cache, replays never touch theirs.
    """

    def __init__(self, inner, memo: dict, key: Tuple):
        self.inner = inner
        self.memo = memo
        self.key = key

    def peek(self, layer_id: int) -> Optional[CacheTrafficResult]:
        return self.memo.get((self.key, "layer", layer_id))

    def store(self, layer_id: int, out: CacheTrafficResult) -> None:
        self.memo[(self.key, "layer", layer_id)] = out

    @staticmethod
    def release_layer(memo: dict, layer_id: int) -> None:
        """Drop every model's traffic memoized for one layer; the
        end-of-model flush entries stay. A layer-major cell calls this
        once all its schemes have served the layer, so no replay is
        left to need it."""
        for key in [k for k in memo if k[1:] == ("layer", layer_id)]:
            del memo[key]

    def process_layer(self, sides: Sequence[BlockStream], layer_id: int,
                      batch: int = 1, image_cycles: int = 0,
                      start_cycle: int = 0) -> CacheTrafficResult:
        got = self.peek(layer_id)
        if got is None:
            got = CacheTrafficResult()
            process_image_periodic(
                lambda sub: self.inner.process(sub, got),
                sides, batch, image_cycles, (got,), start_cycle)
            self.store(layer_id, got)
        else:
            obs.incr("shared_traffic.replays")
        return got

    def flush(self, cycle: int, out: CacheTrafficResult) -> None:
        key = (self.key, "flush")
        got = self.memo.get(key)
        if got is None:
            got = CacheTrafficResult()
            self.inner.flush(cycle, got)
            self.memo[key] = got
        out.extend_from(got)


def overfetch_side(trace: Trace, unit_bytes: int) -> BlockStream:
    """Cycle-sorted over-fetch blocks of one layer at a coarse unit.

    Verifying (or re-MACing, for writes) a partially touched unit needs
    the untouched remainder of that unit fetched from DRAM: per range, a
    head candidate from the unit's start up to the range and a tail
    candidate from the range's end to the unit's end, each issued like
    its range and read-only. The candidates alone are expanded, in
    range order (head, then tail), so the side is a small fraction of
    the layer's blocks. Memoized on the trace per unit: every scheme of
    a sweep cell at one unit size shares one expansion.
    """
    def build() -> BlockStream:
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
        return expand_sorted((
            np.repeat(cycles, 2)[mask], cand_addr[mask], cand_nbytes[mask],
            np.zeros(kept, dtype=bool),
            np.full(kept, kind_code(AccessKind.METADATA), dtype=np.int8),
            np.repeat(layer_ids, 2)[mask], np.repeat(durations, 2)[mask]))

    return trace.memo(("overfetch", unit_bytes), build)


def data_sides(trace: Trace, unit_bytes: int) -> Tuple[BlockStream, ...]:
    """One layer's data traffic under a ``unit_bytes`` protection unit,
    as cycle-sorted sides.

    The first side is the layer's shared sorted expansion
    (:meth:`Trace.sorted_blocks`), the same arrays every scheme reads;
    a unit above one 64 B block adds its :func:`overfetch_side`. Their
    ``(cycle, side)`` merge is the stable cycle sort of the ranges'
    expansion followed by the over-fetch candidates'.
    """
    if unit_bytes <= LINE_BYTES:
        return (trace.sorted_blocks(),)
    return trace.sorted_blocks(), overfetch_side(trace, unit_bytes)
