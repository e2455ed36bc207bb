"""Parity of the LRU drive tiers against an independent reference.

Every metadata cache decision is one step of a fully associative,
write-back, write-allocate LRU drive, served by one production path per
tier: the compiled ``fused_drive`` kernel, or its scalar twin
:func:`repro.protection.metadata_model.drive_scalar`.  A drive takes a
layer's *block* sides (data, then over-fetch) and walks their merge
keyed ``(cycle, side)``: consecutive blocks whose ``key >> key_shift``
agree are one access, also across the side boundary, with their write
flags OR'd and the first block's cycle.  The reference merges the
sides with a stable sort, compresses blocks to runs with its own
``itertools.groupby`` loop, then drives :meth:`LruCache.access` (and,
for :class:`MetadataTable` drives through :func:`drive_tables`,
``LruCache`` over layout addresses, tag = address // 64).  Each available tier must match it event for event: the
same miss/writeback stream in the same order, the same statistics and
the same final contents.  Inputs: randomized and adversarial block
streams at key shifts 0, 6, 9 and 12 (adjacent duplicate keys, writes
inside and at the end of runs, equal cycles across runs) over trees
of zero to two levels, warm starts from a drive's ``(tags, dirty)``
state, MAC-only, VN-only and fused calls, flushes mid-stream, a VN walk
that overflows the kernel's first event buffer, and a line run cut by
an image boundary.  Two-side inputs: an over-fetch block tying a data
block's cycle, a line run spanning both sides, an empty side of either
kind, a descending side, and both sides cut at the same image bounds.
"""

import itertools
from types import SimpleNamespace

import numpy as np
import pytest

from repro import obs
from repro.accel import trace as trace_module
from repro.accel.trace import AccessKind, BlockStream, Trace, TraceRange
from repro.protection.layout import MetadataLayout
from repro.protection.metadata_model import (
    CacheTrafficResult,
    MetadataTable,
    data_sides,
    drive_scalar,
    drive_tables,
    drive_window,
    layer_windows,
)
from repro.utils import native
from tests.lru import LruCache
from tests.streams import (
    EventLog,
    events,
    mac_line_addrs,
    merge_sides,
    sorted_blocks,
    vn_line_addrs,
    vn_line_indices,
    whole_data_sides,
)

#: Raw-tag drives: VN leaves are the line indices themselves, tree
#: levels sit in disjoint tag ranges above them.
VN_WALK = (np.array([10_000, 20_000], np.int64), np.array([8, 64], np.int64))
MAC_BASE, VN_BASE = 0, 0
LINE = 64


def _kernel_drive(*args, **kwargs):
    out = native.fused_drive(*args, **kwargs)
    assert out is not None, "kernel drive fell back"
    return out


@pytest.fixture(params=["scalar", "kernel"])
def drive(request):
    """Each available drive tier, called directly."""
    if request.param == "kernel":
        if not native.available():
            pytest.skip("no compiled kernel on this host")
        return _kernel_drive
    return drive_scalar


@pytest.fixture(params=["scalar", "kernel"])
def tier(request, monkeypatch):
    """Each available drive tier, serving the metadata tables."""
    if request.param == "kernel":
        if not native.available():
            pytest.skip("no compiled kernel on this host")
    else:
        monkeypatch.setattr(native, "fused_drive", lambda *a, **k: None)
    return request.param


def _state(pairs):
    """Initial contents as a drive takes them: ``(tags, dirty)``."""
    return (np.array([t for t, _ in pairs], np.int64),
            np.array([d for _, d in pairs], np.uint8))


def _walk(levels):
    """The first ``levels`` levels of :data:`VN_WALK`."""
    return tuple(column[:levels] for column in VN_WALK)


def reference_runs(keys, writes, cycles, key_shift=0):
    """``(key >> key_shift, any write, first cycle)`` per run of
    consecutive blocks with equal ``key >> key_shift``."""
    blocks = zip(np.asarray(keys).tolist(), np.asarray(writes).tolist(),
                 np.asarray(cycles).tolist())
    runs = []
    for line, group in itertools.groupby(
            blocks, key=lambda block: block[0] >> key_shift):
        group = list(group)
        runs.append((line, any(wr for _, wr, _ in group), group[0][2]))
    return runs


def reference_merge(sides):
    """The blocks of ``(keys, writes, cycles)`` sides in drive order:
    a stable sort of their concatenation by cycle, so a lower side wins
    equal cycles (and a side whose cycles descend is sorted first)."""
    blocks = [block for keys, writes, cycles in sides
              for block in zip(np.asarray(keys).tolist(),
                               np.asarray(writes).tolist(),
                               np.asarray(cycles).tolist())]
    blocks.sort(key=lambda block: block[2])
    return ([k for k, _, _ in blocks], [w for _, w, _ in blocks],
            [c for _, _, c in blocks])


def reference_drive(sides, key_shift, mac=None, vn=None):
    """``fused_drive``'s contract: the sides' blocks merged by cycle,
    grouped into line runs, then one ``LruCache.access`` per lookup.

    Returns ``(events, cache)`` per driven side, where ``events`` lists
    ``(cycle, addr, is_writeback)`` in emission order."""
    keys, writes, cycles = reference_merge(sides)

    def warm(capacity, init):
        cache = LruCache(capacity)
        cache.raw_lines.update(zip(init[0].tolist(),
                                   (init[1] != 0).tolist()))
        return cache

    runs = reference_runs(keys, writes, cycles, key_shift)
    mac_out = vn_out = None
    if mac is not None:
        base, capacity, init = mac
        cache, events = warm(capacity, init), []
        for line, wr, cyc in runs:
            hit, wb = cache.access(base + line, write=bool(wr))
            if not hit:
                events.append((cyc, (base + line) * LINE, False))
            if wb is not None:
                events.append((cyc, wb * LINE, True))
        mac_out = (events, cache)
    if vn is not None:
        base, capacity, init, node_base, node_div = vn
        cache, events = warm(capacity, init), []
        for line, wr, cyc in runs:
            tag = base + line
            for level in range(len(node_base) + 1):
                if level:
                    tag = int(node_base[level - 1]
                              + line // node_div[level - 1])
                hit, wb = cache.access(tag, write=bool(wr))
                if wb is not None:
                    events.append((cyc, wb * LINE, True))
                if hit:
                    break
                events.append((cyc, tag * LINE, False))
        vn_out = (events, cache)
    return mac_out, vn_out


def assert_drive_matches(got, want):
    events, cache = want
    assert list(zip(got.ev_cycles.tolist(), got.ev_addrs.tolist(),
                    (got.ev_writes != 0).tolist())) == events
    stats = cache.stats
    assert (got.hits, got.misses, got.evictions, got.dirty_evictions) == \
        (stats.hits, stats.misses, stats.evictions, stats.dirty_evictions)
    assert list(zip(got.state_tags.tolist(),
                    (got.state_dirty != 0).tolist())) == \
        [(tag, bool(dirty)) for tag, dirty in cache.raw_lines.items()]


def _specs(capacity, init=(), sides=("mac", "vn"), levels=2):
    mac = (MAC_BASE, capacity, _state(init)) if "mac" in sides else None
    vn = (VN_BASE, capacity, _state(init), *_walk(levels)) \
        if "vn" in sides else None
    return mac, vn


def _blocks(lines, key_shift, rng, max_repeat=3):
    """Block keys for a line sequence: each line repeated 1 to
    ``max_repeat`` times (adjacent duplicates), each block at a random
    offset inside its line."""
    lines = np.asarray(lines, np.int64)
    keys = np.repeat(lines, rng.integers(1, max_repeat + 1, len(lines)))
    return (keys << key_shift) | rng.integers(0, 1 << key_shift, len(keys))


def check_tier(drive, keys, writes, capacity, init=(),
               sides=("mac", "vn"), key_shift=0, levels=2, cycles=None,
               spec=None, extra=None):
    """One drive tier against the reference over a data side, plus an
    over-fetch side ``extra`` (``(keys, writes, cycles)``) when given."""
    keys = np.asarray(keys, np.int64)
    writes = np.asarray(writes, bool)
    if cycles is None:
        cycles = np.arange(len(keys), dtype=np.int64) * 3
    mac, vn = spec or _specs(capacity, init, sides, levels)
    blocks = [(keys, writes, np.asarray(cycles, np.int64))]
    if extra is not None:
        blocks.append(tuple(np.asarray(col, dtype) for col, dtype in
                            zip(extra, (np.int64, bool, np.int64))))
    got = drive(blocks, key_shift, mac=mac, vn=vn)
    want = reference_drive(blocks, key_shift, mac=mac, vn=vn)
    for got_side, want_side in zip(got, want):
        if want_side is None:
            assert got_side is None
        else:
            assert_drive_matches(got_side, want_side)
    return want


class TestDriveVsReference:
    def test_randomized_streams(self, drive):
        rng = np.random.default_rng(2025)
        for draw in range(300):
            n = int(rng.integers(0, 200))
            ntags = int(rng.integers(1, 60))
            capacity = int(rng.integers(1, 40))
            shift = (0, 6, 9, 12)[draw % 4]
            keys = _blocks(rng.integers(0, ntags, n), shift, rng)
            writes = rng.integers(0, 2, len(keys)).astype(bool)
            k = int(rng.integers(0, capacity + 1))
            pool = rng.permutation(ntags + 30)[:k]
            init = [(int(t), bool(rng.integers(0, 2))) for t in pool]
            check_tier(drive, keys, writes, capacity, init,
                       key_shift=shift, levels=(draw // 4) % 3)

    @pytest.mark.parametrize("levels", [1, 2])
    @pytest.mark.parametrize("key_shift", [6, 9, 12])
    def test_runs_of_blocks(self, drive, key_shift, levels):
        """Hand-built runs: a write mid-run and at a run's end dirties
        the whole access, a run takes its first block's cycle, equal
        cycles across runs keep the runs apart, and a key that only
        differs below the shift stays in its run; under a VN tree of
        one or two levels."""
        lines = [3, 3, 3, 5, 5, 3, 7, 7, 7, 7, 5, 3, 3]
        low = [0, 1, 9, 0, 4, 2, 0, 3, 3, 8, 0, 0, 1]
        keys = [(line << key_shift) | (off % (1 << key_shift))
                for line, off in zip(lines, low)]
        writes = [0, 1, 0, 0, 1, 0, 0, 0, 0, 1, 0, 0, 0]
        cycles = np.array([0, 1, 2, 2, 3, 3, 4, 4, 4, 5, 5, 5, 6],
                          np.int64)
        runs = reference_runs(keys, writes, cycles, key_shift)
        assert runs == [(3, True, 0), (5, True, 2), (3, False, 3),
                        (7, True, 4), (5, False, 5), (3, False, 5)]
        for capacity in (1, 2, 8):
            check_tier(drive, keys, writes, capacity, key_shift=key_shift,
                       levels=levels, cycles=cycles)

    def test_precomputed_keys_of_a_192b_unit(self, drive):
        """At key shift 0 a drive's keys are line indices themselves,
        here precomputed ones of a 192 B unit (which no layout builds):
        runs are equal adjacent indices, whatever their stride."""
        rng = np.random.default_rng(192)
        for _ in range(20):
            addrs = np.cumsum(rng.integers(0, 3, 300)) * 64
            keys = addrs // (192 * 8)
            writes = rng.integers(0, 2, len(keys)).astype(bool)
            want = check_tier(drive, keys, writes, int(rng.integers(1, 12)))
            assert want[0][1].stats.hits + want[0][1].stats.misses == \
                len(reference_runs(keys, writes, np.zeros(len(keys))))

    @pytest.mark.parametrize("capacity", [1, 2, 7, 64])
    def test_adversarial_patterns(self, drive, capacity):
        rng = np.random.default_rng(capacity)
        n = 300
        patterns = {
            "all_same": np.zeros(n, np.int64),
            "all_distinct": np.arange(n),
            "all_hits": np.arange(n) % max(1, capacity - 1) if capacity > 1
            else np.zeros(n, np.int64),
            "all_conflict_sweep": np.arange(n) % (capacity + 1),
            "pingpong": (np.arange(n) // 2) % (capacity + 2),
        }
        for shift, lines in zip(itertools.cycle((0, 6, 9, 12)),
                                patterns.values()):
            keys = _blocks(lines, shift, rng)
            for writes in (np.zeros(len(keys), bool),
                           np.ones(len(keys), bool),
                           rng.integers(0, 2, len(keys)).astype(bool)):
                check_tier(drive, keys, writes, capacity, key_shift=shift)

    def test_interleaved_dirty_clean(self, drive):
        # Alternating dirty/clean touches of two working sets that
        # alternately fit and thrash.
        tags = np.concatenate([np.tile(np.arange(4), 8),
                               np.arange(64), np.tile(np.arange(4), 8)])
        keys = _blocks(tags, 9, np.random.default_rng(3))
        writes = (np.arange(len(keys)) % 3 == 0)
        for capacity in (1, 4, 8, 32):
            check_tier(drive, keys, writes, capacity, key_shift=9)

    @pytest.mark.parametrize("sides", [("mac",), ("vn",)],
                             ids=["mac_only", "vn_only"])
    def test_single_side_calls(self, drive, sides):
        rng = np.random.default_rng(7)
        for _ in range(40):
            n = int(rng.integers(0, 150))
            keys = _blocks(rng.integers(0, 50, n), 6, rng)
            writes = rng.integers(0, 2, len(keys)).astype(bool)
            check_tier(drive, keys, writes, int(rng.integers(1, 24)),
                       sides=sides, key_shift=6)

    @pytest.mark.parametrize("form", ["arrays", "output"])
    def test_warm_start_from_each_state_form(self, drive, form):
        """A second drive from the first one's final state equals one
        drive over both halves (split between two runs), whether the
        state is handed over as fresh ``(tags, dirty)`` arrays or as the
        first drive's own output arrays, as the metadata tables pass it;
        the initial state is never mutated."""
        rng = np.random.default_rng(5)
        tags = rng.integers(0, 40, 400)
        tags[200] = (tags[199] + 1) % 40
        tags = (tags << 9) | rng.integers(0, 512, 400)
        writes = rng.integers(0, 2, 400).astype(bool)
        cycles = np.arange(400, dtype=np.int64)
        capacity = 12
        whole = drive([(tags, writes, cycles)], 9, *_specs(capacity))
        half = drive([(tags[:200], writes[:200], cycles[:200])], 9,
                     *_specs(capacity))
        states = [(out.state_tags, out.state_dirty) for out in half]
        if form == "arrays":
            states = [(t.copy(), d.copy()) for t, d in states]
        before = [(t.tolist(), d.tolist()) for t, d in states]
        rest = drive([(tags[200:], writes[200:], cycles[200:])], 9,
                     mac=(MAC_BASE, capacity, states[0]),
                     vn=(VN_BASE, capacity, states[1], *VN_WALK))
        for side in (0, 1):
            assert [col.tolist() for col in states[side]] == \
                list(before[side])
            for field in ("state_tags", "state_dirty"):
                np.testing.assert_array_equal(getattr(rest[side], field),
                                              getattr(whole[side], field))
            np.testing.assert_array_equal(
                np.concatenate([half[side].ev_addrs, rest[side].ev_addrs]),
                whole[side].ev_addrs)
            assert half[side].misses + rest[side].misses == \
                whole[side].misses

    def test_vn_walk_overflowing_the_first_event_buffer(self, drive,
                                                         monkeypatch):
        """A nine-level VN walk over cold, dirty lines emits up to 20
        events per run, past the kernel's first buffer of two per
        block; its retry is sized from the run count the kernel
        reports, not from the block count."""
        monkeypatch.setattr(native, "_scratch_bufs", {})
        levels = 9
        walk = (np.arange(1, levels + 1, dtype=np.int64) << 40,
                8 ** np.arange(1, levels + 1, dtype=np.int64))
        keys = (np.repeat(np.arange(0, 4000, 7, dtype=np.int64), 3) << 9) \
            | 5
        writes = np.ones(len(keys), bool)
        spec = (None, (VN_BASE, 4, _state(()), *walk))
        want = check_tier(drive, keys, writes, 4, key_shift=9, spec=spec)
        runs = len(keys) // 3
        assert len(want[1][0]) > 2 * len(keys) + 16
        if drive is _kernel_drive:
            assert len(native._scratch_bufs["vc"][0]) == \
                2 * runs * (levels + 1) + 16


class TestDriveSides:
    """A drive over a layer's data and over-fetch sides walks their
    ``(cycle, side)`` merge: the data side wins equal cycles, and a
    line run carries on across the side boundary."""

    @pytest.mark.parametrize("levels", [1, 2])
    @pytest.mark.parametrize("key_shift", [6, 9, 12])
    def test_overfetch_block_tying_a_data_block(self, drive, key_shift,
                                                levels):
        data = ([1, 1, 3, 3], [0, 1, 0, 0], [0, 5, 5, 9])
        extra = ([3, 2], [0, 0], [5, 9])
        data_keys, extra_keys = ([line << key_shift for line in side[0]]
                                 for side in (data, extra))
        merged = reference_merge([(data_keys, *data[1:]),
                                  (extra_keys, *extra[1:])])
        # The over-fetch block at cycle 5 follows both data blocks at
        # cycle 5, so line 3's run spans data, over-fetch, data.
        assert reference_runs(*merged, key_shift) == \
            [(1, True, 0), (3, False, 5), (2, False, 9)]
        for capacity in (1, 2, 8):
            check_tier(drive, data_keys, data[1], capacity,
                       key_shift=key_shift, levels=levels,
                       cycles=data[2], extra=(extra_keys, *extra[1:]))

    def test_line_run_spanning_both_sides(self, drive):
        """Data ends on line 7, over-fetch starts on it: one access,
        dirtied by the data side's write, at the data block's cycle."""
        data_keys = np.array([5, 7, 7], np.int64) << 9
        extra_keys = (np.array([7, 7, 8], np.int64) << 9) | 64
        merged = reference_merge([(data_keys, [0, 0, 1], [0, 1, 2]),
                                  (extra_keys, [0, 0, 0], [3, 3, 4])])
        assert reference_runs(*merged, 9) == \
            [(5, False, 0), (7, True, 1), (8, False, 4)]
        for capacity in (1, 4):
            check_tier(drive, data_keys, [0, 0, 1], capacity, key_shift=9,
                       cycles=[0, 1, 2],
                       extra=(extra_keys, [0, 0, 0], [3, 3, 4]))

    @pytest.mark.parametrize("empty", ["data", "overfetch"])
    def test_an_empty_side(self, drive, empty):
        rng = np.random.default_rng(4)
        keys = _blocks(rng.integers(0, 30, 120), 9, rng)
        writes = rng.integers(0, 2, len(keys)).astype(bool)
        cycles = np.sort(rng.integers(0, 50, len(keys)))
        none = (np.empty(0, np.int64), np.empty(0, bool),
                np.empty(0, np.int64))
        if empty == "data":
            check_tier(drive, none[0], none[1], 6, key_shift=9,
                       cycles=none[2], extra=(keys, writes, cycles))
        else:
            check_tier(drive, keys, writes, 6, key_shift=9, cycles=cycles,
                       extra=none)

    def test_randomized_sides(self, drive):
        """Two cycle-sorted sides drawn from few cycles (so ties across
        sides are common) at key shifts 0, 6, 9 and 12."""
        rng = np.random.default_rng(2026)
        for draw in range(120):
            shift = (0, 6, 9, 12)[draw % 4]
            sides = []
            for n in rng.integers(0, 80, 2):
                keys = _blocks(rng.integers(0, 20, n), shift, rng)
                sides.append((keys,
                              rng.integers(0, 2, len(keys)).astype(bool),
                              np.sort(rng.integers(0, 40, len(keys)))))
            (keys, writes, cycles), extra = sides
            check_tier(drive, keys, writes, int(rng.integers(1, 12)),
                       key_shift=shift, levels=draw % 3, cycles=cycles,
                       extra=extra)

    @pytest.mark.parametrize("descending", [0, 1])
    def test_a_descending_side_is_sorted(self, drive, descending):
        """A side whose cycles descend is stable-sorted before the walk,
        so the drive equals the reference's stable sort of the sides'
        concatenation; the kernel reports it and retries."""
        rng = np.random.default_rng(9)
        sides = []
        for _ in range(2):
            keys = _blocks(rng.integers(0, 25, 90), 6, rng)
            sides.append((keys, rng.integers(0, 2, len(keys)).astype(bool),
                          np.sort(rng.integers(0, 30, len(keys)))))
        keys, writes, cycles = sides[descending]
        sides[descending] = (keys, writes, cycles[::-1].copy())
        recorder = obs.Recorder()
        previous = obs.install(recorder)
        try:
            (keys, writes, cycles), extra = sides
            check_tier(drive, keys, writes, 5, key_shift=6, cycles=cycles,
                       extra=extra)
        finally:
            obs.install(previous)
        if drive is _kernel_drive:
            assert recorder.counters["native.drive.unsorted_side"] == 1

    def test_more_than_two_sides_rejected(self, drive):
        side = (np.zeros(1, np.int64), np.zeros(1, bool),
                np.zeros(1, np.int64))
        with pytest.raises(ValueError, match="sides"):
            drive([side] * 3, 0, *_specs(4))


def _random_stream(seed, n=80):
    rng = np.random.default_rng(seed)
    trace = Trace([
        TraceRange(int(rng.integers(0, 5_000)), int(rng.integers(0, 1 << 18)),
                   int(rng.integers(1, 3_000)), bool(rng.integers(0, 2)),
                   AccessKind.IFMAP, int(rng.integers(0, 3)),
                   int(rng.integers(0, 200)))
        for _ in range(n)
    ])
    return sorted_blocks(trace)


class ReferenceModels:
    """MAC table and VN tree driven by ``LruCache.access`` over layout
    addresses (tag = address // 64), independent of the tables' tag
    arithmetic."""

    def __init__(self, layout, mac_bytes, vn_bytes):
        self.layout = layout
        self.mac = LruCache(mac_bytes // LINE)
        self.vn = LruCache(vn_bytes // LINE)
        self.mac_out = EventLog()
        self.vn_out = EventLog()

    def process(self, stream):
        layout = self.layout
        for addr, wr, cyc in reference_runs(
                mac_line_addrs(layout, stream.addrs), stream.writes,
                stream.cycles):
            hit, wb = self.mac.access(addr // LINE, write=wr)
            if not hit:
                self.mac_out.extend_miss(cyc, addr)
            if wb is not None:
                self.mac_out.extend_writeback(cyc, wb * LINE)
        for addr, wr, cyc in reference_runs(
                vn_line_addrs(layout, stream.addrs), stream.writes,
                stream.cycles):
            leaf = vn_line_indices(layout, addr)
            for level in range(layout.tree_levels + 1):
                if level:
                    addr = layout.tree_node_addr(leaf, level)
                hit, wb = self.vn.access(addr // LINE, write=wr)
                if wb is not None:
                    self.vn_out.extend_writeback(cyc, wb * LINE)
                if hit:
                    break
                self.vn_out.extend_miss(cyc, addr)

    def flush(self, cycle):
        for cache, out in ((self.mac, self.mac_out), (self.vn, self.vn_out)):
            for tag in cache.flush():
                out.extend_writeback(cycle, tag * LINE)


def _contents(cache):
    """A table's or a reference's cache contents, least recent first."""
    if isinstance(cache, LruCache):
        return list(cache.raw_lines.items())
    tags, dirty = cache.state
    return list(zip(tags.tolist(), (dirty != 0).tolist()))


def _drive(tables, sides, unit_bytes, outs, carry=None):
    """One :func:`drive_tables` call, each driven table's output folded
    into the table and its traffic."""
    for table, result, out in zip(
            tables, drive_tables(sides, unit_bytes, tables, carry), outs):
        if table is not None:
            table.apply(result, out)


def _snapshot(mac_cache, vn_cache, mac_out, vn_out):
    stats = [(s.hits, s.misses, s.evictions, s.dirty_evictions,
              s.flushed_lines, s.flush_writebacks)
             for s in (mac_cache.stats, vn_cache.stats)]
    return (stats,
            [events(o) for o in (mac_out, vn_out)],
            _contents(mac_cache), _contents(vn_cache))


class TestModelsVsReference:
    @pytest.mark.parametrize("between", ["pending", "flush"])
    def test_fused_models_across_drives(self, tier, between):
        """Two fused drives of a MAC and a VN table. The second starts
        from the state arrays the first left pending in the tables, or
        from the empty caches a mid-stream flush leaves."""
        for unit_bytes, seed in itertools.product((64, 512), range(6)):
            layout = MetadataLayout(unit_bytes)
            stream = _random_stream(seed)
            tables = (MetadataTable.mac(layout, 512),
                      MetadataTable.vn(layout, 1024))
            outs = (CacheTrafficResult(), CacheTrafficResult())
            ref = ReferenceModels(layout, 512, 1024)
            for step in range(2):
                _drive(tables, (stream,), unit_bytes, outs)
                ref.process(stream)
                if step == 0 and between == "flush":
                    for table, out in zip(tables, outs):
                        out.extend_from(table.flush(99_999))
                    ref.flush(99_999)
            assert _snapshot(*tables, *outs) == \
                _snapshot(ref.mac, ref.vn, ref.mac_out, ref.vn_out)

    @pytest.mark.parametrize("unit_bytes", [64, 512])
    @pytest.mark.parametrize("vn_lines", [64, 32])
    def test_single_models(self, tier, unit_bytes, vn_lines):
        """Single-table drives (the MAC table alone, then the VN table
        alone), under a VN cache of 64 or 32 lines."""
        layout = MetadataLayout(unit_bytes)
        vn_bytes = vn_lines * LINE
        for seed in (11, 12):
            stream = _random_stream(seed)
            mac = MetadataTable.mac(layout, 512)
            vn = MetadataTable.vn(layout, vn_bytes)
            mac_out, vn_out = CacheTrafficResult(), CacheTrafficResult()
            ref = ReferenceModels(layout, 512, vn_bytes)
            for _ in range(2):
                _drive((mac, None), (stream,), unit_bytes, (mac_out, None))
                _drive((None, vn), (stream,), unit_bytes, (None, vn_out))
                ref.process(stream)
            assert _snapshot(mac, vn, mac_out, vn_out) == \
                _snapshot(ref.mac, ref.vn, ref.mac_out, ref.vn_out)

    @staticmethod
    def _drive_layer(trace, batch, image_cycles, unit_bytes, tables, outs):
        """Drive a layer's windows (a batched layer's image cuts
        included) through fused drives of the tables, as a scheme
        does."""
        layer = SimpleNamespace(layer=SimpleNamespace(batch=batch),
                                compute_cycles=batch * image_cycles,
                                start_cycle=0, trace=trace, layer_id=0)
        for window in layer_windows(layer):
            drive_window(
                lambda sub, carry: _drive(tables, sub, unit_bytes, outs,
                                          carry),
                "fused", window, data_sides(window, unit_bytes), outs)

    def test_sides_cut_at_the_same_image_bounds(self, tier):
        """A 512 B layer's data and over-fetch sides through
        ``drive_window``: both are cut at the same image bounds, so each
        driven image equals the reference over that image's slice of
        the sides' merge."""
        self._check_image_cuts(512)

    def test_sides_cut_in_small_windows(self, tier, monkeypatch):
        """The same, with windows of five blocks cutting the images and
        line runs: the carried runs keep every image exact (with a VN
        cache that holds a whole tree walk, so a carried write finds
        every line its access touched)."""
        monkeypatch.setattr(trace_module, "WINDOW_BLOCKS", 5)
        self._check_image_cuts(1024)

    def test_small_vn_cache_refuses_a_cut_run(self, tier, monkeypatch):
        """A VN cache smaller than one tree walk evicts lines of the
        walk itself; a write joining such a run in the next window
        cannot be applied, and the drive says so."""
        monkeypatch.setattr(trace_module, "WINDOW_BLOCKS", 5)
        with pytest.raises(native.CarryError):
            self._check_image_cuts(512)

    def _check_image_cuts(self, vn_bytes):
        layout = MetadataLayout(512)
        trace = Trace([
            TraceRange(64 * i, 700 * i + 96, 900, i % 3 == 0,
                       AccessKind.IFMAP, 0, 40)
            for i in range(24)
        ])
        sides = whole_data_sides(trace, 512)
        assert all(len(side) for side in sides)
        merged = merge_sides(sides)
        mac = MetadataTable.mac(layout, 256)
        vn = MetadataTable.vn(layout, vn_bytes)
        mac_out, vn_out = CacheTrafficResult(), CacheTrafficResult()
        ref = ReferenceModels(layout, 256, vn_bytes)
        self._drive_layer(trace, 4, 500, 512, (mac, vn), (mac_out, vn_out))
        for lo, hi in ((0, 500), (500, 1000)):
            keep = (merged.cycles >= lo) & (merged.cycles < hi)
            ref.process(BlockStream(merged.cycles[keep], merged.addrs[keep],
                                    merged.writes[keep],
                                    merged.layer_ids[keep]))
        stats, streams, *state = _snapshot(mac, vn, mac_out, vn_out)
        want_stats, want_streams, *want_state = _snapshot(
            ref.mac, ref.vn, ref.mac_out, ref.vn_out)
        assert (stats, state) == (want_stats, want_state)
        for got, want in zip(streams, want_streams):
            k = len(want[0])
            assert len(got[0]) > k
            assert [col[:k] for col in got[:3]] == list(want[:3])

    def test_line_run_cut_by_the_image_boundary(self, tier):
        """``drive_window`` drives image 0 and image 1 in windows cut at
        the image bounds, and no line run continues across those cuts:
        a line run straddling one stays two accesses."""
        layout = MetadataLayout(64)
        n = 16      # blocks 0-7 on line 0, 8-15 on line 1
        stream = BlockStream(
            np.arange(n, dtype=np.int64),
            np.arange(n, dtype=np.uint64) * 64, np.arange(n) % 5 == 2,
            np.zeros(n, np.int32))
        trace = Trace([TraceRange(i, 64 * i, 64, i % 5 == 2,
                                  AccessKind.IFMAP, 0) for i in range(n)])
        mac = MetadataTable.mac(layout, 512)
        vn = MetadataTable.vn(layout, 1024)
        mac_out, vn_out = CacheTrafficResult(), CacheTrafficResult()
        ref = ReferenceModels(layout, 512, 1024)
        self._drive_layer(trace, 3, 4, 64, (mac, vn), (mac_out, vn_out))
        for lo, hi in ((0, 4), (4, 8)):
            ref.process(BlockStream(stream.cycles[lo:hi],
                                    stream.addrs[lo:hi],
                                    stream.writes[lo:hi],
                                    stream.layer_ids[lo:hi]))
        assert (mac.stats.hits, mac.stats.misses) == (1, 1)
        assert vn.stats.hits == 1
        stats, streams, *state = _snapshot(mac, vn, mac_out, vn_out)
        want_stats, want_streams, *want_state = _snapshot(
            ref.mac, ref.vn, ref.mac_out, ref.vn_out)
        assert (stats, state) == (want_stats, want_state)
        # Images 2+ replay image 1's increment after the two driven ones.
        for got, want in zip(streams, want_streams):
            k = len(want[0])
            assert [col[:k] for col in got[:3]] == list(want[:3])
