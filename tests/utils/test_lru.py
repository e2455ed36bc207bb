"""Unit and property tests for the LRU cache model."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tests.lru import LruCache


class TestBasicBehaviour:
    def test_miss_then_hit(self):
        cache = LruCache(4)
        hit, _ = cache.access("a")
        assert not hit
        hit, _ = cache.access("a")
        assert hit

    def test_capacity_eviction(self):
        cache = LruCache(2)
        cache.access("a")
        cache.access("b")
        cache.access("c")  # evicts a
        hit, _ = cache.access("a")
        assert not hit

    def test_lru_order(self):
        cache = LruCache(2)
        cache.access("a")
        cache.access("b")
        cache.access("a")  # refresh a -> b is now LRU
        cache.access("c")  # evicts b
        assert cache.probe("a")
        assert not cache.probe("b")

    def test_invalid_capacity(self):
        with pytest.raises(ValueError):
            LruCache(0)

    def test_len_and_contains(self):
        cache = LruCache(4)
        cache.access(1)
        cache.access(2)
        assert len(cache) == 2
        assert 1 in cache
        assert 3 not in cache


class TestWriteback:
    def test_clean_eviction_no_writeback(self):
        cache = LruCache(1)
        cache.access("a", write=False)
        _, writeback = cache.access("b")
        assert writeback is None

    def test_dirty_eviction_returns_tag(self):
        cache = LruCache(1)
        cache.access("a", write=True)
        _, writeback = cache.access("b")
        assert writeback == "a"

    def test_write_hit_marks_dirty(self):
        cache = LruCache(1)
        cache.access("a", write=False)
        cache.access("a", write=True)
        _, writeback = cache.access("b")
        assert writeback == "a"

    def test_flush_returns_dirty_only(self):
        cache = LruCache(4)
        cache.access("a", write=True)
        cache.access("b", write=False)
        cache.access("c", write=True)
        assert sorted(cache.flush()) == ["a", "c"]
        assert len(cache) == 0


class TestStats:
    def test_counts(self):
        cache = LruCache(2)
        cache.access("a")          # miss
        cache.access("a")          # hit
        cache.access("b")          # miss
        cache.access("c")          # miss + eviction
        assert cache.stats.hits == 1
        assert cache.stats.misses == 3
        assert cache.stats.evictions == 1
        assert cache.stats.accesses == 4
        assert cache.stats.hit_rate == pytest.approx(0.25)

    def test_empty_hit_rate(self):
        assert LruCache(2).stats.hit_rate == 0.0


class TestProperties:
    @given(st.lists(st.integers(min_value=0, max_value=10), max_size=200),
           st.integers(min_value=1, max_value=8))
    @settings(max_examples=50)
    def test_never_exceeds_capacity(self, accesses, capacity):
        cache = LruCache(capacity)
        for tag in accesses:
            cache.access(tag)
            assert len(cache) <= capacity

    @given(st.lists(st.integers(min_value=0, max_value=20), max_size=200))
    @settings(max_examples=50)
    def test_matches_reference_model(self, accesses):
        """Hits must agree with a straightforward reference LRU."""
        capacity = 4
        cache = LruCache(capacity)
        reference = []
        for tag in accesses:
            expected_hit = tag in reference
            if expected_hit:
                reference.remove(tag)
            elif len(reference) >= capacity:
                reference.pop(0)
            reference.append(tag)
            hit, _ = cache.access(tag)
            assert hit == expected_hit

    @given(st.lists(
        st.tuples(st.integers(min_value=0, max_value=6), st.booleans()),
        max_size=200))
    @settings(max_examples=50)
    def test_writeback_conservation(self, accesses):
        """Every dirty line is written back exactly once (evict or flush)."""
        cache = LruCache(2)
        writebacks = []
        writes = set()
        for tag, write in accesses:
            if write:
                writes.add(tag)
            _, wb = cache.access(tag, write=write)
            if wb is not None:
                writebacks.append(wb)
        writebacks.extend(cache.flush())
        # A tag written at least once produces at least one writeback;
        # a tag never written produces none.
        assert set(writebacks) <= writes
        for tag in writes:
            assert tag in writebacks


class TestFlushCountersSeparateFromEvictions:
    """End-of-model teardown must not masquerade as capacity pressure."""

    def test_flush_does_not_count_as_eviction(self):
        cache = LruCache(4)
        cache.access("a", write=True)
        cache.access("b")
        assert sorted(cache.flush()) == ["a"]
        assert cache.stats.evictions == 0
        assert cache.stats.dirty_evictions == 0
        assert cache.stats.flushed_lines == 2
        assert cache.stats.flush_writebacks == 1

    def test_capacity_evictions_still_counted(self):
        cache = LruCache(2)
        cache.access("a", write=True)
        cache.access("b")
        cache.access("c")  # capacity-evicts dirty a
        assert cache.stats.evictions == 1
        assert cache.stats.dirty_evictions == 1
        cache.flush()
        # Flush drains b and c; the capacity counters are untouched.
        assert cache.stats.evictions == 1
        assert cache.stats.dirty_evictions == 1
        assert cache.stats.flushed_lines == 2

    def test_eviction_free_model_reports_zero_evictions(self):
        """A working set that fits shows a 100% post-warmup hit picture:
        zero evictions even though the final flush drains every line."""
        cache = LruCache(8)
        for _ in range(3):
            for tag in range(8):
                cache.access(tag, write=True)
        cache.flush()
        assert cache.stats.evictions == 0
        assert cache.stats.hits == 16
        assert cache.stats.flushed_lines == 8
        assert cache.stats.flush_writebacks == 8

    def test_reset_clears_flush_counters(self):
        cache = LruCache(2)
        cache.access("a", write=True)
        cache.flush()
        cache.stats.reset()
        assert cache.stats.flushed_lines == 0
        assert cache.stats.flush_writebacks == 0

    def test_flush_still_returns_dirty_tags_for_writeback_traffic(self):
        """The traffic contract (dirty tags out) is unchanged — only the
        statistics bookkeeping moved."""
        cache = LruCache(4)
        cache.access("a", write=True)
        cache.access("b")
        cache.access("c", write=True)
        assert sorted(cache.flush()) == ["a", "c"]
        assert len(cache) == 0
