"""DRAM access traces — the columnar stream core.

The accelerator emits accesses as compact ranges (contiguous byte spans
with an issue window); the DRAM simulator consumes them expanded to
64-byte block streams (:class:`BlockStream`, numpy arrays). Ranges are
stored columnar (structure-of-arrays, :class:`RangeBuffer`) rather than
as per-range Python objects: a ResNet-scale model touches megabytes per
layer, and object-per-range bookkeeping would dominate runtime.

:class:`TraceRange` remains the public per-range record — construction,
iteration and ``trace.ranges`` materialize it on demand — but the hot
paths (byte accounting, filtering, block expansion) run on the columns.
The cycle-sorted expansion every scheme consumes is served in cycle
windows of at most :data:`WINDOW_BLOCKS` blocks (:meth:`Trace.windows`):
a resumable native k-way merge of the ranges' block runs
(:class:`ExpandCursor`), with a numpy twin (repeat + cumsum expansion of
each window's blocks, then a stable cycle sort) on hosts without the
kernel. Every scheme of a sweep cell reads one window's blocks before
the next window is expanded, so a layer is never expanded whole, and a
segment of windows whose traffic its consumers can repeat instead is
never expanded at all (:meth:`ExpandCursor.seek`).

The whole-layer expansion (every range expanded in range order, then
stably sorted by cycle) is not built here: it is the oracle the windows
are checked against, in ``tests/streams.py``.

BlockStreams are treated as immutable once built:
:meth:`BlockStream.concat` returns a new stream, which is what makes
sharing a window's blocks across schemes safe.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import (Callable, Dict, Iterable, Iterator, List, Optional,
                    Protocol, Sequence, Tuple)

import numpy as np

from repro.utils import native
from repro.utils.bitops import align_down

BLOCK_BYTES = 64


class AccessKind(enum.Enum):
    """What a range carries — used by protection schemes to bind metadata."""

    IFMAP = "ifmap"
    WEIGHT = "weight"
    OFMAP = "ofmap"
    METADATA = "metadata"
    #: Per-sequence attention K/V state (KV-cache reads in decode, K^T/V
    #: operand streams in encoders) — kept distinct from WEIGHT so
    #: protection overhead on KV-cache traffic is measurable.
    KVCACHE = "kvcache"


#: Stable integer codes for the columnar ``kinds`` column.
_KIND_LIST: Tuple[AccessKind, ...] = tuple(AccessKind)
_KIND_CODE: Dict[AccessKind, int] = {k: i for i, k in enumerate(_KIND_LIST)}


def kind_code(kind: AccessKind) -> int:
    """Stable integer code of ``kind`` in the columnar ``kinds`` column
    (for consumers working directly on :meth:`RangeBuffer.arrays`)."""
    return _KIND_CODE[kind]


@dataclass(frozen=True)
class TraceRange:
    """A contiguous DRAM access: ``nbytes`` at ``addr``, issued over
    ``[cycle, cycle + duration)`` accelerator cycles."""

    cycle: int
    addr: int
    nbytes: int
    write: bool
    kind: AccessKind
    layer_id: int
    duration: int = 0

    def __post_init__(self) -> None:
        if self.addr < 0:
            raise ValueError("addr must be non-negative")
        if self.nbytes <= 0:
            raise ValueError("nbytes must be positive")
        if self.cycle < 0 or self.duration < 0:
            raise ValueError("cycle and duration must be non-negative")

    @property
    def num_blocks(self) -> int:
        first = align_down(self.addr, BLOCK_BYTES)
        last = align_down(self.addr + self.nbytes - 1, BLOCK_BYTES)
        return (last - first) // BLOCK_BYTES + 1


@dataclass
class BlockStream:
    """Expanded per-block access stream (parallel numpy arrays).

    ``kinds`` is the optional per-block :class:`AccessKind` code column
    (see :func:`kind_code`). Streams expanded from a :class:`Trace`
    carry it; ad-hoc streams may omit it (``None``), in which case
    per-kind accounting is unavailable and concatenation drops the
    column rather than inventing codes.
    """

    cycles: np.ndarray      # int64 issue cycle per block
    addrs: np.ndarray       # uint64 block-aligned byte address
    writes: np.ndarray      # bool
    layer_ids: np.ndarray   # int32
    kinds: Optional[np.ndarray] = None  # int8 AccessKind codes

    def __post_init__(self) -> None:
        lengths = {len(self.cycles), len(self.addrs), len(self.writes),
                   len(self.layer_ids)}
        if self.kinds is not None:
            lengths.add(len(self.kinds))
        if len(lengths) != 1:
            raise ValueError("BlockStream arrays must be parallel")

    def __len__(self) -> int:
        return len(self.addrs)

    @property
    def total_bytes(self) -> int:
        return len(self) * BLOCK_BYTES

    @property
    def read_blocks(self) -> int:
        return int((~self.writes).sum())

    @property
    def write_blocks(self) -> int:
        return int(self.writes.sum())

    def bytes_by_kind(self) -> Dict[AccessKind, int]:
        """Per-kind block bytes; empty when the stream has no kind column."""
        if self.kinds is None or not len(self):
            return {}
        counts = np.bincount(self.kinds, minlength=len(_KIND_LIST))
        return {kind: int(counts[code]) * BLOCK_BYTES
                for code, kind in enumerate(_KIND_LIST) if counts[code]}

    @staticmethod
    def concat(streams: Iterable["BlockStream"]) -> "BlockStream":
        streams = [s for s in streams if len(s)]
        if not streams:
            return empty_block_stream()
        kinds = None
        if all(s.kinds is not None for s in streams):
            kinds = np.concatenate([s.kinds for s in streams])
        return BlockStream(
            np.concatenate([s.cycles for s in streams]),
            np.concatenate([s.addrs for s in streams]),
            np.concatenate([s.writes for s in streams]),
            np.concatenate([s.layer_ids for s in streams]),
            kinds,
        )


class TrafficSide(Protocol):
    """One cycle-sorted side of a layer's DRAM traffic: a
    :class:`BlockStream` (data, over-fetch) or a metadata side, a
    cache's traffic or a scheme's layer MACs
    (:class:`repro.protection.metadata_model.CacheTrafficResult`). The
    DRAM walk reads only these columns."""

    @property
    def cycles(self) -> np.ndarray: ...

    @property
    def addrs(self) -> np.ndarray: ...

    @property
    def writes(self) -> np.ndarray: ...

    def __len__(self) -> int: ...


def empty_block_stream() -> BlockStream:
    return BlockStream(
        np.empty(0, np.int64), np.empty(0, np.uint64),
        np.empty(0, bool), np.empty(0, np.int32), np.empty(0, np.int8),
    )


def block_spans(addrs: np.ndarray,
                nbytes: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """First block address and block count of each range."""
    first = addrs - addrs % BLOCK_BYTES
    last = addrs + nbytes - 1
    last -= last % BLOCK_BYTES
    return first, (last - first) // BLOCK_BYTES + 1


#: Most data blocks one cycle window of a layer holds (2.9 MiB of block
#: columns at 22 B per block): a layer is expanded, protected and served
#: one window at a time (:meth:`Trace.windows`). A single issue cycle
#: holding more blocks than this stays whole, so it widens its window.
WINDOW_BLOCKS = 1 << 17

#: Issue-cycle bound of a window without an upper cut.
_NO_STOP = np.iinfo(np.int64).max


def _blocks_below(cycles: np.ndarray, counts: np.ndarray,
                  durations: np.ndarray, stop: int) -> np.ndarray:
    """Per range, how many of its blocks issue before ``stop``: block
    ``j`` issues at ``cycle + j * duration // count``, below ``stop``
    exactly when ``j * duration < (stop - cycle) * count``."""
    room = np.clip(stop - cycles, 0, durations + 1)
    timed = -(-(room * counts) // np.maximum(durations, 1))
    return np.where(durations > 0, np.minimum(counts, timed),
                    np.where(room > 0, counts, 0))


class ExpandCursor:
    """Resumable cycle-sorted block expansion of range columns.

    ``columns`` are ``(cycles, addrs, nbytes, writes, kinds, layer_ids,
    durations)`` in :meth:`RangeBuffer.arrays` order. Successive
    :meth:`take` calls return consecutive pieces of the whole
    expansion stably sorted by cycle: ties on a cycle keep range order,
    then address order. Each range's blocks are already in
    ascending cycle order, so the native kernel merges the ranges' runs
    and keeps its heap between calls; the numpy twin
    (:meth:`_take_numpy`) keeps how many blocks each range has emitted
    and expands, then sorts, only the blocks a call returns.
    """

    __slots__ = ("total", "emitted", "_state", "_cols", "_next", "_timing")

    def __init__(self, columns: Sequence[np.ndarray]):
        cycles, addrs, nbytes, writes, kinds, layer_ids, durations = columns
        first, counts = block_spans(addrs, nbytes)
        self.emitted = 0
        self._state = native.expand_cursor(cycles, first, counts, durations,
                                           writes, kinds, layer_ids,
                                           BLOCK_BYTES)
        self._cols = None
        self._next = None
        if self._state is None:
            self.total = int(counts.sum())
            self._cols = (native.as_int64(cycles), native.as_int64(first),
                          native.as_int64(counts), native.as_int64(durations),
                          np.asarray(writes, bool), np.asarray(kinds, np.int8),
                          np.asarray(layer_ids).astype(np.int32))
            self._next = np.zeros(len(counts), np.int64)
            #: Per range: first issue cycle, block count, duration.
            self._timing = self._cols[:1] + self._cols[2:4]
        else:
            self.total = self._state.total
            self._timing = self._state.keep[:1] + self._state.keep[2:4]

    def take(self, stop: int, cap: int) -> BlockStream:
        """The expansion's next blocks issued before cycle ``stop``, at
        most ``cap`` of them."""
        cap = max(0, min(cap, self.total - self.emitted))
        if self._state is not None:
            out = native.expand_merge(self._state, stop, cap)
        elif cap:
            out = self._take_numpy(stop, cap)
        else:
            return empty_block_stream()
        self.emitted += len(out[0])
        return BlockStream(*out)

    def peek(self) -> Optional[int]:
        """Issue cycle of the next block, or ``None`` once every block
        has been taken."""
        if self.emitted >= self.total:
            return None
        if self._state is not None:
            return native.expand_peek(self._state)
        cycles, _, counts, durations = self._cols[:4]
        left = self._next < counts
        nxt = self._next[left]
        return int((cycles[left] + nxt * durations[left]
                    // counts[left]).min())

    def seek(self, stop: int) -> Optional[int]:
        """Skip every untaken block issued before ``stop`` without
        expanding it: each range's next block becomes its first at or
        past ``stop``. Returns the issue cycle of the last block
        skipped, ``None`` when none was."""
        cycles, counts, durations = self._timing
        taken = self._next if self._state is None \
            else native.expand_taken(self._state)
        target = np.maximum(taken, _blocks_below(cycles, counts, durations,
                                                 stop))
        moved = target > taken
        if not moved.any():
            return None
        last = target[moved] - 1
        skipped = int((cycles[moved] + last * durations[moved]
                       // counts[moved]).max())
        if self._state is None:
            self._next = target
        else:
            native.expand_resume(self._state, target)
        self.emitted = int(target.sum())
        return skipped

    def _below(self, stop: int) -> np.ndarray:
        return _blocks_below(*self._timing, stop)

    def _take_numpy(self, stop: int, cap: int
                    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray,
                               np.ndarray, np.ndarray]:
        """Numpy twin of the native cursor: expand every range's untaken
        blocks below ``stop`` (lowering ``stop`` first while that would
        be far more than ``cap``), stable-sort them by cycle and keep
        the first ``cap``."""
        cycles, first, counts, durations, writes, kinds, layer_ids = \
            self._cols
        take = self._below(stop) - self._next
        low = self.peek()
        while int(take.sum()) > 4 * cap and stop - low > 1:
            mid = low + (stop - low) // 2
            below = self._below(mid) - self._next
            if int(below.sum()) < cap:
                low = mid
            else:
                stop, take = mid, below
        ranges = np.repeat(np.arange(len(counts)), take)
        j = np.arange(len(ranges), dtype=np.int64)
        j -= np.repeat(np.cumsum(take) - take - self._next, take)
        block_cycles = cycles[ranges] + j * durations[ranges] // counts[ranges]
        order = np.argsort(block_cycles, kind="stable")[:cap]
        ranges = ranges[order]
        self._next += np.bincount(ranges, minlength=len(counts))
        return (block_cycles[order],
                (first[ranges] + j[order] * BLOCK_BYTES).astype(np.uint64),
                writes[ranges], layer_ids[ranges], kinds[ranges])


class TraceWindow:
    """One cycle window ``[lo, hi)`` of a layer's traffic.

    ``blocks`` are the layer's data blocks issued in the window, a
    piece of its cycle-sorted expansion; ``lo`` is ``None`` for the
    first window and ``hi`` ``None`` for the last. ``segment`` counts
    the extra cuts (:meth:`Trace.windows`) below the window.
    ``first_block`` marks the window holding the layer's first data
    block; ``last_cycle`` is the issue cycle of the layer's last data
    block on the window after which none is left to serve (the window
    holding it, or the one after a skipped segment that held it),
    ``None`` on every other. ``last`` is the layer's last window. ``skip`` is ``None`` except on the one window
    standing for a skipped segment, whose blocks are never expanded
    (then ``blocks`` is empty). ``layer`` is what the windows were cut
    for (the :class:`~repro.accel.simulator.LayerResult`), and
    ``state`` a dict shared by every window of the layer, where
    consumers keep what they carry from one window to the next.
    ``shared`` is this window's own dict, where consumers keep what
    they share over the window alone (its other expansions,
    :meth:`side`, and the MAC traffic the schemes of a cell share); it
    goes away with the window.
    """

    __slots__ = ("layer", "index", "lo", "hi", "segment", "blocks",
                 "first_block", "last_cycle", "last", "skip",
                 "state", "layer_blocks", "_cursors", "shared")

    def __init__(self, layer, index, lo, hi, segment, blocks, first_block,
                 last_cycle, last, skip, state, layer_blocks, cursors):
        self.layer = layer
        self.index = index
        self.lo = lo
        self.hi = hi
        self.segment = segment
        self.blocks = blocks
        self.first_block = first_block
        self.last_cycle = last_cycle
        self.last = last
        self.skip = skip
        self.state = state
        #: Data blocks of the whole layer.
        self.layer_blocks = layer_blocks
        self._cursors = cursors
        self.shared: Dict[object, object] = {}

    def side(self, key: object,
             columns: Callable[[], Sequence[np.ndarray]]) -> BlockStream:
        """This window's piece of another cycle-sorted expansion of the
        layer, cut at the same bounds: ``columns()`` gives its range
        columns the first time the layer is asked for ``key``."""
        side = self.shared.get(key)
        if side is None:
            cursor = self._cursors.get(key)
            if cursor is None:
                cursor = self._cursors[key] = ExpandCursor(columns())
            # A new side, or one resumed past a skipped segment.
            head = cursor.peek()
            if self.lo is not None and head is not None and head < self.lo:
                cursor.seek(self.lo)
            side = self.shared[key] = cursor.take(
                _NO_STOP if self.hi is None else self.hi, cursor.total)
        return side


#: First allocation of a buffer that starts with scalar appends (the
#: walks' :meth:`Trace.emit` loops); it doubles from there.
_MIN_ROWS = 1 << 10

#: (dtype per column) — cycles, addrs, nbytes, writes, kinds,
#: layer_ids, durations.
_COLUMN_DTYPES = (np.int64, np.int64, np.int64, bool, np.int8,
                  np.int64, np.int64)


class RangeBuffer:
    """Columnar (structure-of-arrays) store of trace ranges: seven
    growable numpy columns and a fill count.

    A bulk append to an empty buffer allocates exactly; any other
    append that outgrows the columns doubles them. Byte totals are
    maintained incrementally so accounting is O(1) regardless of trace
    length.
    """

    __slots__ = ("_cols", "_fill", "read_bytes", "write_bytes",
                 "kind_bytes")

    def __init__(self) -> None:
        self._cols: Tuple[np.ndarray, ...] = tuple(
            np.empty(0, dtype) for dtype in _COLUMN_DTYPES)
        self._fill = 0
        self.read_bytes = 0
        self.write_bytes = 0
        self.kind_bytes = [0] * len(_KIND_LIST)

    def __len__(self) -> int:
        return self._fill

    def _resize(self, rows: int) -> None:
        """Move the filled rows into columns of ``rows`` rows."""
        fill = self._fill
        grown = tuple(np.empty(rows, dtype) for dtype in _COLUMN_DTYPES)
        for dst, src in zip(grown, self._cols):
            dst[:fill] = src[:fill]
        self._cols = grown

    def append(self, cycle: int, addr: int, nbytes: int, write: bool,
               kind_code: int, layer_id: int, duration: int) -> None:
        row = self._fill
        cols = self._cols
        try:
            cols[0][row] = cycle
        except IndexError:  # the columns are full: double them
            self._resize(max(_MIN_ROWS, 2 * row))
            cols = self._cols
            cols[0][row] = cycle
        cols[1][row] = addr
        cols[2][row] = nbytes
        cols[3][row] = write
        cols[4][row] = kind_code
        cols[5][row] = layer_id
        cols[6][row] = duration
        self._fill = row + 1
        if write:
            self.write_bytes += nbytes
        else:
            self.read_bytes += nbytes
        self.kind_bytes[kind_code] += nbytes

    def extend_columns(self, cycles: np.ndarray, addrs: np.ndarray,
                       nbytes: np.ndarray, writes: np.ndarray,
                       kind_codes: np.ndarray, layer_ids: np.ndarray,
                       durations: np.ndarray) -> None:
        """Bulk append of parallel columns."""
        nbytes = np.asarray(nbytes, np.int64)
        total = len(nbytes)
        if total == 0:
            return
        writes = np.asarray(writes, bool)
        kind_codes = np.asarray(kind_codes, np.int8)
        row = self._fill
        end = row + total
        if end > len(self._cols[0]):
            self._resize(end if row == 0 else max(end, 2 * row))
        for dst, col in zip(self._cols, (cycles, addrs, nbytes, writes,
                                         kind_codes, layer_ids, durations)):
            dst[row:end] = col
        self._fill = end
        total_write = int(nbytes[writes].sum())
        self.write_bytes += total_write
        self.read_bytes += int(nbytes.sum()) - total_write
        for code in np.unique(kind_codes):
            self.kind_bytes[code] += int(nbytes[kind_codes == code].sum())

    def arrays(self) -> Tuple[np.ndarray, ...]:
        """The filled rows ``(cycles, addrs, nbytes, writes, kinds,
        layer_ids, durations)`` as zero-copy views of the columns
        (``writes`` bool). Later appends write past these rows or into
        new columns, so a snapshot keeps its rows; consumers must treat
        it as read-only."""
        fill = self._fill
        return tuple(col[:fill] for col in self._cols)


class Trace:
    """An ordered collection of trace ranges, stored columnar.

    The per-range object API (:meth:`add`, iteration, :attr:`ranges`)
    is preserved for construction and inspection; aggregation, filtering
    and block expansion all run vectorized on the underlying
    :class:`RangeBuffer` columns.
    """

    __slots__ = ("buf",)

    def __init__(self, ranges: Optional[Iterable[TraceRange]] = None):
        self.buf = RangeBuffer()
        if ranges:
            self.extend(ranges)

    def __len__(self) -> int:
        return len(self.buf)

    def __iter__(self):
        return iter(self.ranges)

    # -- construction --

    def emit(self, cycle: int, addr: int, nbytes: int, *, write: bool,
             kind: AccessKind, layer_id: int, duration: int = 0) -> None:
        """Append one range from scalars (no :class:`TraceRange` object).

        This is the accelerator walks' fast path; it applies the same
        validation as :class:`TraceRange`.
        """
        if addr < 0:
            raise ValueError("addr must be non-negative")
        if nbytes <= 0:
            raise ValueError("nbytes must be positive")
        if cycle < 0 or duration < 0:
            raise ValueError("cycle and duration must be non-negative")
        self.buf.append(cycle, addr, nbytes, write, _KIND_CODE[kind],
                        layer_id, duration)

    def emit_batch(self, cycles, addrs, nbytes, *, writes, kind_codes,
                   layer_id: int, durations) -> None:
        """Append many ranges from parallel columns (the tile walks'
        fast path).  Applies the same validation as :class:`TraceRange`,
        vectorized."""
        cycles = np.asarray(cycles, dtype=np.int64)
        addrs = np.asarray(addrs, dtype=np.int64)
        nbytes = np.asarray(nbytes, dtype=np.int64)
        durations = np.asarray(durations, dtype=np.int64)
        n = len(addrs)
        if n == 0:
            return
        if int(addrs.min()) < 0:
            raise ValueError("addr must be non-negative")
        if int(nbytes.min()) <= 0:
            raise ValueError("nbytes must be positive")
        if int(cycles.min()) < 0 or int(durations.min()) < 0:
            raise ValueError("cycle and duration must be non-negative")
        self.buf.extend_columns(
            cycles, addrs, nbytes, writes, kind_codes,
            np.full(n, layer_id, dtype=np.int64), durations)

    def add(self, trace_range: TraceRange) -> None:
        # TraceRange already validated in __post_init__.
        self.buf.append(trace_range.cycle, trace_range.addr,
                        trace_range.nbytes, trace_range.write,
                        _KIND_CODE[trace_range.kind], trace_range.layer_id,
                        trace_range.duration)

    def extend(self, ranges: Iterable[TraceRange]) -> None:
        for r in ranges:
            self.add(r)

    @staticmethod
    def concat(traces: Iterable["Trace"]) -> "Trace":
        """Columnar concatenation — no per-range objects materialized."""
        merged = Trace()
        buf = merged.buf
        for trace in traces:
            buf.extend_columns(*trace.buf.arrays())
        return merged

    @classmethod
    def _from_arrays(cls, cycles, addrs, nbytes, writes, kinds, layer_ids,
                     durations) -> "Trace":
        trace = cls()
        trace.buf.extend_columns(cycles, addrs, nbytes, writes, kinds,
                                 layer_ids, durations)
        return trace

    # -- per-range view (compatibility) --

    @property
    def ranges(self) -> List[TraceRange]:
        """A fresh :class:`TraceRange` list, built on each call:
        mutating it cannot touch the columnar store — append through
        :meth:`add`/:meth:`emit`."""
        cycles, addrs, nbytes, writes, kinds, layer_ids, durations = \
            self.buf.arrays()
        return [
            TraceRange(cycle, addr, count, write,
                       _KIND_LIST[kind], layer_id, duration)
            for cycle, addr, count, write, kind, layer_id, duration
            # Deliberate boundary materialization: the per-range view
            # serves construction checks and inspection, never the
            # windowed pipeline.
            # repro: allow(hot-path-hygiene)
            in zip(cycles.tolist(), addrs.tolist(), nbytes.tolist(),
                   writes.tolist(), kinds.tolist(), layer_ids.tolist(),
                   durations.tolist())
        ]

    # -- aggregation (O(1) from running totals) --

    @property
    def read_bytes(self) -> int:
        return self.buf.read_bytes

    @property
    def write_bytes(self) -> int:
        return self.buf.write_bytes

    @property
    def total_bytes(self) -> int:
        return self.buf.read_bytes + self.buf.write_bytes

    def bytes_by_kind(self) -> dict:
        return {kind: self.buf.kind_bytes[code]
                for code, kind in enumerate(_KIND_LIST)
                if self.buf.kind_bytes[code]}

    # -- vectorized selection --

    def filter(self, kind: AccessKind) -> "Trace":
        return self._select(self.buf.arrays()[4] == _KIND_CODE[kind])

    def for_layer(self, layer_id: int) -> "Trace":
        return self._select(self.buf.arrays()[5] == layer_id)

    def _select(self, mask: np.ndarray) -> "Trace":
        cols = self.buf.arrays()
        return Trace._from_arrays(*(c[mask] for c in cols))

    def end_cycle(self) -> int:
        if not len(self.buf):
            return 0
        cycles, _, _, _, _, _, durations = self.buf.arrays()
        return int((cycles + np.maximum(durations, 1)).max())

    # -- block expansion --

    def windows(self, cuts: Sequence[int] = (), owner: object = None,
                skip: Optional[Tuple[int, object]] = None
                ) -> Iterator[TraceWindow]:
        """Serve the trace's cycle-sorted block expansion as consecutive
        :class:`TraceWindow` s, each of at most :data:`WINDOW_BLOCKS`
        blocks and cut at every cycle in ``cuts`` (ascending).

        Windows end at a cycle boundary, so every block of one issue
        cycle lands in one window, and the expansion's cursor carries
        from each window to the next: the windows' blocks concatenate
        to the whole expansion, and one window's blocks are alive at a
        time. ``owner`` becomes each window's ``layer``.

        ``skip = (segment, what)`` never expands the blocks of segment
        ``segment`` (one below its upper cut): the cursor seeks past
        them (:meth:`ExpandCursor.seek`) and one empty window whose
        ``skip`` is ``what`` stands for them.
        """
        cursor = ExpandCursor(self.buf.arrays())
        state: Dict[object, object] = {}
        cursors: Dict[object, ExpandCursor] = {}
        lo: Optional[int] = None
        index = 0
        # Whether the last block has been served yet, and the last block
        # a skip passed over.
        ended = False
        skipped: Optional[int] = None
        for segment, hi in enumerate([*cuts, None]):
            stop = _NO_STOP if hi is None else hi
            if skip is not None and segment == skip[0]:
                skipped = cursor.seek(stop)
                yield TraceWindow(owner, index, lo, hi, segment,
                                  empty_block_stream(), False, None, False,
                                  skip[1], state, cursor.total, cursors)
                index += 1
                lo = hi
                continue
            while True:
                first = cursor.emitted == 0
                parts = [cursor.take(stop, WINDOW_BLOCKS)]
                # Never split an issue cycle between two windows.
                while len(parts[-1]) == WINDOW_BLOCKS \
                        and cursor.peek() == int(parts[-1].cycles[-1]):
                    parts.append(cursor.take(int(parts[-1].cycles[-1]) + 1,
                                             WINDOW_BLOCKS))
                blocks = parts[0] if len(parts) == 1 else \
                    BlockStream.concat(parts)
                nxt = cursor.peek()
                closed = nxt is None or nxt >= stop
                bound = hi if closed else nxt
                last_cycle = None
                if nxt is None and not ended:
                    ended = True
                    last_cycle = int(blocks.cycles[-1]) if len(blocks) \
                        else skipped
                yield TraceWindow(owner, index, lo, bound, segment, blocks,
                                  first and len(blocks) > 0, last_cycle,
                                  closed and hi is None, None, state,
                                  cursor.total, cursors)
                index += 1
                lo = bound
                if closed:
                    break
