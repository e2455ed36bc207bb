"""Test-side stream helpers.

The pipeline never builds a stream from Python lists, never joins a
layer's traffic sides into one stream, never expands a whole layer at
once and never expands over-fetch range by range; tests that want those
shapes build them here. :func:`expand_ranges` expands ranges in range
order (:func:`to_blocks` for a whole trace), and :func:`expand_sorted`
is the whole-layer expansion oracle the windowed expansion
(``ExpandCursor``, ``Trace.windows``) is checked against.
"""

from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.accel.trace import (
    BLOCK_BYTES,
    AccessKind,
    BlockStream,
    Trace,
    TraceRange,
    block_spans,
    empty_block_stream,
    kind_code,
)
from repro.protection.layout import ENTRIES_PER_LINE, LINE_BYTES
from repro.protection.metadata_model import overfetch_columns
from repro.utils.bitops import align_down, align_up


def model_trace(run) -> Trace:
    """A model run's whole trace: every layer's ranges, in layer order,
    copied into one new trace (the pipeline only ever reads one
    layer's)."""
    return Trace.concat(result.trace for result in run.layers)


def expand_ranges(cycles: np.ndarray, addrs: np.ndarray, nbytes: np.ndarray,
                  writes: np.ndarray, layer_ids: np.ndarray,
                  durations: np.ndarray,
                  kinds: Optional[np.ndarray] = None) -> BlockStream:
    """Vectorized block expansion of columnar ranges (repeat + cumsum).

    Blocks within a range are issued uniformly across its duration,
    modelling a streaming DMA engine: block ``j`` of ``count`` issues at
    ``cycle + j * duration // count``. Output order is range order, with
    each range's blocks ascending by address.
    """
    if len(addrs) == 0:
        return empty_block_stream()
    first, counts = block_spans(addrs, nbytes)
    starts = np.cumsum(counts) - counts
    within = np.arange(int(counts.sum()), dtype=np.int64)
    within -= np.repeat(starts, counts)
    out_addrs = within * BLOCK_BYTES + np.repeat(first, counts)
    offsets = within * np.repeat(durations, counts) // np.repeat(counts,
                                                                  counts)
    return BlockStream(
        np.repeat(cycles, counts) + offsets,
        out_addrs.astype(np.uint64),
        np.repeat(writes, counts),
        np.repeat(layer_ids, counts).astype(np.int32),
        None if kinds is None else np.repeat(kinds, counts).astype(np.int8),
    )


def to_blocks(trace: Trace) -> BlockStream:
    """Every range of ``trace`` expanded to blocks, in range order."""
    cycles, addrs, nbytes, writes, kinds, layer_ids, durations = \
        trace.buf.arrays()
    return expand_ranges(cycles, addrs, nbytes, writes, layer_ids,
                         durations, kinds)


def sorted_by_cycle(stream: BlockStream) -> BlockStream:
    """``stream`` stably sorted by issue cycle."""
    order = np.argsort(stream.cycles, kind="stable")
    return BlockStream(stream.cycles[order], stream.addrs[order],
                       stream.writes[order], stream.layer_ids[order],
                       None if stream.kinds is None else stream.kinds[order])


def expand_sorted(columns: Sequence[np.ndarray]) -> BlockStream:
    """The whole cycle-sorted expansion of range columns (in
    ``RangeBuffer.arrays`` order): every range expanded in range order,
    then stably sorted by cycle."""
    cycles, addrs, nbytes, writes, kinds, layer_ids, durations = columns
    return sorted_by_cycle(expand_ranges(cycles, addrs, nbytes, writes,
                                         layer_ids, durations, kinds))


def sorted_blocks(trace: Trace) -> BlockStream:
    """A whole layer's cycle-sorted data blocks."""
    return expand_sorted(trace.buf.arrays())


def overfetch_side(trace: Trace, unit_bytes: int) -> BlockStream:
    """A whole layer's cycle-sorted over-fetch blocks at a coarse unit."""
    return expand_sorted(overfetch_columns(trace, unit_bytes))


def whole_data_sides(trace: Trace,
                     unit_bytes: int) -> Tuple[BlockStream, ...]:
    """A whole layer's data sides under ``unit_bytes``: its blocks,
    plus its over-fetch above a 64 B unit."""
    if unit_bytes <= LINE_BYTES:
        return (sorted_blocks(trace),)
    return sorted_blocks(trace), overfetch_side(trace, unit_bytes)


def stream_from_lists(cycles: List[int], addrs: List[int], writes: List[bool],
                      layer_id: int,
                      kind: Optional[AccessKind] = None) -> BlockStream:
    """A stream from parallel Python lists. ``kind`` stamps every block
    with one access kind; ``None`` leaves the stream without a kind
    column."""
    n = len(addrs)
    if len(cycles) != n or len(writes) != n:
        raise ValueError("parallel metadata lists must match in length")
    return BlockStream(
        np.asarray(cycles, dtype=np.int64),
        np.asarray(addrs, dtype=np.uint64),
        np.asarray(writes, dtype=bool),
        np.full(n, layer_id, dtype=np.int32),
        None if kind is None else np.full(n, kind_code(kind), dtype=np.int8),
    )


def merge_sides(sides: Sequence, layer_id: int = 0) -> BlockStream:
    """One stream from a layer's cycle-sorted traffic sides, in the
    order the drives and the DRAM walk visit them: keyed ``(cycle, side
    index)``, i.e. the stable cycle sort of the sides' concatenation.

    Metadata cache traffic has no layer or kind column; its blocks take
    ``layer_id``, and the result keeps a kind column only when every
    side has one.
    """
    sides = list(sides)
    cycles = np.concatenate([np.asarray(s.cycles, np.int64) for s in sides]
                            or [np.empty(0, np.int64)])
    addrs = np.concatenate([np.asarray(s.addrs).astype(np.uint64)
                            for s in sides] or [np.empty(0, np.uint64)])
    writes = np.concatenate([np.asarray(s.writes, bool) for s in sides]
                            or [np.empty(0, bool)])
    layer_ids = np.concatenate(
        [s.layer_ids if hasattr(s, "layer_ids")
         else np.full(len(s), layer_id, np.int32) for s in sides]
        or [np.empty(0, np.int32)]).astype(np.int32)
    kinds = None
    if all(getattr(s, "kinds", None) is not None for s in sides):
        kinds = np.concatenate([s.kinds for s in sides]
                               or [np.empty(0, np.int8)])
    return sorted_by_cycle(BlockStream(cycles, addrs, writes, layer_ids,
                                       kinds))


def overfetch_ranges(ranges, unit_bytes: int) -> List[TraceRange]:
    """Per-range reference of the over-fetch a coarse protection unit
    forces at range edges: the untouched head and tail of every
    partially touched unit, read-only, issued like their range. Empty
    for 64 B units, where every access is unit-sized."""
    if unit_bytes <= LINE_BYTES:
        return []
    extras: List[TraceRange] = []
    for r in ranges:
        start = r.addr
        end = r.addr + r.nbytes
        head_base = align_down(start, unit_bytes)
        head = start - head_base
        if head:
            extras.append(TraceRange(r.cycle, head_base, head, write=False,
                                     kind=AccessKind.METADATA,
                                     layer_id=r.layer_id, duration=r.duration))
        tail = align_up(end, unit_bytes) - end
        if tail:
            extras.append(TraceRange(r.cycle, end, tail, write=False,
                                     kind=AccessKind.METADATA,
                                     layer_id=r.layer_id, duration=r.duration))
    return extras


class EventLog:
    """A reference cache model's metadata events, one append each, in
    the columns a :class:`CacheTrafficResult` exposes."""

    def __init__(self):
        self.cycles: List[int] = []
        self.addrs: List[int] = []
        self.writes: List[bool] = []
        self.misses = 0

    def __len__(self):
        return len(self.addrs)

    def extend_miss(self, cycle: int, addr: int) -> None:
        self.cycles.append(cycle)
        self.addrs.append(addr)
        self.writes.append(False)
        self.misses += 1

    def extend_writeback(self, cycle: int, addr: int) -> None:
        self.cycles.append(cycle)
        self.addrs.append(addr)
        self.writes.append(True)


def events(result) -> tuple:
    """``(cycles, addrs, writes, misses)`` of a traffic result or an
    :class:`EventLog`, as plain lists."""
    return (np.asarray(result.cycles, np.int64).tolist(),
            np.asarray(result.addrs, np.int64).tolist(),
            np.asarray(result.writes, bool).tolist(), result.misses)


def mac_line_addrs(layout, block_addrs):
    """The MAC-line address of each block address under ``layout``:
    :meth:`MetadataLayout.mac_line_addr` of its unit, vectorized."""
    units = block_addrs // layout.unit_bytes
    return layout.mac_line_addr(0) + (units // ENTRIES_PER_LINE) * LINE_BYTES


def vn_line_addrs(layout, block_addrs):
    """The VN-line address of each block address under ``layout``:
    :meth:`MetadataLayout.vn_line_addr` of its unit, vectorized."""
    units = block_addrs // layout.unit_bytes
    return layout.vn_line_addr(0) + (units // ENTRIES_PER_LINE) * LINE_BYTES


def vn_line_indices(layout, vn_line_addrs):
    """The VN-line index (:meth:`MetadataLayout.vn_line_index`) of VN
    line addresses, one or an array of them: lines lie contiguous from
    the table base."""
    return (vn_line_addrs - layout.vn_line_addr(0)) // LINE_BYTES
