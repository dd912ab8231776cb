"""Tests for the interval index, including a naive-model check."""

import pytest
from hypothesis import given, strategies as st

from repro.datastore.index import IntervalIndex
from repro.exceptions import StorageError
from repro.util.timeutil import Interval


class TestIntervalIndex:
    def test_overlapping_basic(self):
        idx = IntervalIndex()
        idx.add(Interval(0, 10), "a")
        idx.add(Interval(5, 15), "b")
        idx.add(Interval(20, 30), "c")
        assert sorted(idx.overlapping(Interval(8, 22))) == ["a", "b", "c"]
        assert sorted(idx.overlapping(Interval(10, 20))) == ["b"]
        assert list(idx.overlapping(Interval(30, 40))) == []

    def test_half_open_boundaries(self):
        idx = IntervalIndex()
        idx.add(Interval(0, 10), "a")
        assert list(idx.overlapping(Interval(10, 20))) == []  # touching, not overlapping
        assert list(idx.overlapping(Interval(9, 10))) == ["a"]

    def test_stabbing(self):
        idx = IntervalIndex()
        idx.add(Interval(0, 10), "a")
        assert list(idx.stabbing(0)) == ["a"]
        assert list(idx.stabbing(9)) == ["a"]
        assert list(idx.stabbing(10)) == []

    def test_remove(self):
        idx = IntervalIndex()
        idx.add(Interval(0, 10), "a")
        idx.remove(Interval(0, 10), "a")
        assert len(idx) == 0
        with pytest.raises(StorageError):
            idx.remove(Interval(0, 10), "a")

    def test_span(self):
        idx = IntervalIndex()
        assert idx.span() is None
        idx.add(Interval(5, 10), "a")
        idx.add(Interval(0, 3), "b")
        assert idx.span() == Interval(0, 10)

    @given(
        st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=500),
                st.integers(min_value=1, max_value=60),
            ),
            max_size=40,
        ),
        st.integers(min_value=0, max_value=500),
        st.integers(min_value=1, max_value=80),
    )
    def test_matches_naive_overlap(self, items, qstart, qlen):
        idx = IntervalIndex()
        intervals = []
        for i, (start, length) in enumerate(items):
            iv = Interval(start, start + length)
            idx.add(iv, i)
            intervals.append(iv)
        window = Interval(qstart, qstart + qlen)
        expected = sorted(i for i, iv in enumerate(intervals) if iv.overlaps(window))
        assert sorted(idx.overlapping(window)) == expected


    @given(
        st.lists(
            st.tuples(
                st.booleans(),  # False: remove a live entry (when there is one)
                st.integers(min_value=0, max_value=300),
                st.integers(min_value=1, max_value=40),
            ),
            max_size=60,
        ),
        st.lists(
            st.tuples(
                st.integers(min_value=-10, max_value=350),
                st.integers(min_value=1, max_value=80),
            ),
            min_size=1,
            max_size=5,
        ),
    )
    def test_matches_brute_force_under_adds_and_removes(self, steps, windows):
        idx, live = IntervalIndex(), []
        for n, (add, start, length) in enumerate(steps):
            if add or not live:
                live.append((Interval(start, start + length), n))
                idx.add(*live[-1])
            else:
                idx.remove(*live.pop(start % len(live)))
        for qstart, qlen in windows:
            window = Interval(qstart, qstart + qlen)
            got = list(idx.overlapping(window))
            ordered = sorted((iv.start, iv.end, i) for iv, i in live if iv.overlaps(window))
            assert got == [i for _, _, i in ordered]  # start order, each once
        assert len(idx) == len(live)

    def test_lookup_does_not_copy_the_tail(self):
        class NoSlices(list):
            def __getitem__(self, key):
                assert not isinstance(key, slice), "overlapping copied the index"
                return super().__getitem__(key)

        idx = IntervalIndex()
        for i in range(100):
            idx.add(Interval(i * 10, i * 10 + 10), i)
        idx._entries = NoSlices(idx._entries)
        assert list(idx.overlapping(Interval(15, 35))) == [1, 2, 3]
