"""Join primitives: correctness, additivity, checksum properties."""

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.relational.hashing import partition_keys
from repro.relational.join_core import (
    HashBuild,
    JoinAccumulator,
    JoinResult,
    hash_join,
    nested_loop_join,
    reference_join,
)

INT64_MIN = int(np.iinfo(np.int64).min)
INT64_MAX = int(np.iinfo(np.int64).max)


def as_keys(xs) -> np.ndarray:
    return np.array(xs, dtype=np.int64)


#: Small-range keys: a dense table whenever there are enough of them.
narrow_keys = st.lists(st.integers(min_value=-50, max_value=50), max_size=60)
#: Full-range keys, extremes included, drawn from a small pool so that
#: duplicates (and matches between two draws) stay common.
wide_values = st.integers(INT64_MIN, INT64_MAX) | st.sampled_from(
    [INT64_MIN, INT64_MIN + 1, -1, 0, 1, INT64_MAX - 1, INT64_MAX]
)
wide_keys = st.lists(wide_values, min_size=1, max_size=8).flatmap(
    lambda pool: st.lists(st.sampled_from(pool), max_size=60)
)
keys_arrays = (narrow_keys | wide_keys).map(as_keys)


@st.composite
def dense_keys(draw) -> np.ndarray:
    """Keys whose span is within the dense factor, anywhere in int64."""
    width = draw(st.integers(0, 20))
    lo = draw(st.sampled_from([INT64_MIN, -50, 0, INT64_MAX - width]))
    offsets = draw(
        st.lists(st.integers(0, width), min_size=(width + 1 + 3) // 4, max_size=40)
    )
    return as_keys([lo + offset for offset in offsets])


@st.composite
def sparse_keys(draw) -> np.ndarray:
    """Keys spread too widely for a dense table."""
    keys = draw(wide_keys.map(as_keys))
    assume(
        len(keys) > 0
        and int(keys.max()) - int(keys.min()) + 1
        > HashBuild.DENSE_SPAN_FACTOR * len(keys)
    )
    return keys


class TestJoinResult:
    def test_addition(self):
        total = JoinResult(2, 10) + JoinResult(3, 20)
        assert total == JoinResult(5, 30)

    def test_checksum_wraps_mod_2_64(self):
        big = JoinResult(1, 2**64 - 1) + JoinResult(1, 5)
        assert big.checksum == 4

    def test_zero_identity(self):
        result = JoinResult(7, 1234)
        assert result + JoinResult.zero() == result


class TestHashJoin:
    def test_simple_match_counts(self):
        result = hash_join(np.array([1, 2, 3]), np.array([2, 2, 4]))
        assert result.n_pairs == 2

    def test_duplicates_multiply(self):
        result = hash_join(np.array([5, 5]), np.array([5, 5, 5]))
        assert result.n_pairs == 6

    def test_no_matches(self):
        result = hash_join(np.array([1, 2]), np.array([3, 4]))
        assert result == JoinResult.zero()

    def test_empty_inputs(self):
        empty = np.empty(0, dtype=np.int64)
        assert hash_join(empty, np.array([1])) == JoinResult.zero()
        assert hash_join(np.array([1]), empty) == JoinResult.zero()

    def test_symmetric(self):
        a = np.array([1, 2, 2, 3])
        b = np.array([2, 3, 3])
        assert hash_join(a, b) == hash_join(b, a)

    @given(r=keys_arrays, s=keys_arrays)
    @settings(max_examples=200, deadline=None)
    def test_matches_nested_loop_reference(self, r, s):
        assert hash_join(r, s) == nested_loop_join(r, s)

    @given(r=dense_keys(), s=keys_arrays, extra=dense_keys())
    @settings(max_examples=100, deadline=None)
    def test_dense_table_matches_nested_loop(self, r, s, extra):
        build = HashBuild(r)
        assert build.dense
        # Probe with the build's own keys and its neighbours too, so the
        # table's interior and both of its edges are hit.
        probe = np.concatenate([s, r, extra])
        assert build.probe(probe) == nested_loop_join(r, probe)

    @given(r=sparse_keys(), s=keys_arrays)
    @settings(max_examples=100, deadline=None)
    def test_sorted_keys_match_nested_loop(self, r, s):
        build = HashBuild(r)
        assert not build.dense
        probe = np.concatenate([s, r])
        assert build.probe(probe) == nested_loop_join(r, probe)

    @given(r=dense_keys() | sparse_keys(), data=st.data())
    @settings(max_examples=100, deadline=None)
    def test_keys_outside_the_build_range_match_nothing(self, r, data):
        lo, hi = int(r.min()), int(r.max())
        outside = []
        if lo > INT64_MIN:
            outside.append(st.integers(INT64_MIN, lo - 1))
        if hi < INT64_MAX:
            outside.append(st.integers(hi + 1, INT64_MAX))
        assume(outside)
        s = as_keys(data.draw(st.lists(st.one_of(outside), min_size=1, max_size=30)))
        assert HashBuild(r).probe(s) == JoinResult.zero()

    def test_extremes_do_not_alias_into_the_table(self):
        """A table at one end of int64 is never hit from the other end,
        where a wrapped ``s - lo`` would land inside it."""
        top_keys = as_keys([INT64_MAX - 3, INT64_MAX - 1, INT64_MAX])
        bottom_keys = as_keys([INT64_MIN, INT64_MIN + 2, INT64_MIN + 3])
        top, bottom = HashBuild(top_keys), HashBuild(bottom_keys)
        assert top.dense and bottom.dense
        low_end = as_keys([INT64_MIN, INT64_MIN + 1, INT64_MIN + 3, -1, 0])
        high_end = as_keys([INT64_MAX, INT64_MAX - 1, INT64_MAX - 3, 0, 1])
        assert top.probe(low_end) == JoinResult.zero()
        assert bottom.probe(high_end) == JoinResult.zero()
        assert top.probe(high_end).n_pairs == 3
        assert top.probe(high_end) == nested_loop_join(top_keys, high_end)
        assert bottom.probe(low_end) == nested_loop_join(bottom_keys, low_end)

    @given(r=keys_arrays, s=keys_arrays, n_chunks=st.integers(2, 5))
    @settings(max_examples=60, deadline=None)
    def test_additive_over_s_chunks(self, r, s, n_chunks):
        """Nested-block decomposition: joining R against S chunk by chunk
        sums to the full join."""
        whole = hash_join(r, s)
        acc = JoinAccumulator()
        for part in np.array_split(s, n_chunks):
            acc.add(hash_join(r, part))
        assert acc.result() == whole

    @given(r=keys_arrays, s=keys_arrays, n_chunks=st.integers(1, 6))
    @settings(max_examples=100, deadline=None)
    def test_one_build_probed_piecewise(self, r, s, n_chunks):
        """Reusing one build for every S piece sums to the full join."""
        build = HashBuild(r)
        acc = JoinAccumulator()
        for part in np.array_split(s, n_chunks):
            acc.add(hash_join(build, part))
        assert acc.result() == hash_join(r, s)

    @given(r=keys_arrays, s=keys_arrays, n_buckets=st.integers(1, 8))
    @settings(max_examples=60, deadline=None)
    def test_additive_over_hash_buckets(self, r, s, n_buckets):
        """Grace-hash decomposition: per-bucket mini-joins sum to the
        full join."""
        whole = hash_join(r, s)
        acc = JoinAccumulator()
        r_parts = partition_keys(r, n_buckets) if len(r) else [r] * n_buckets
        s_parts = partition_keys(s, n_buckets) if len(s) else [s] * n_buckets
        for r_part, s_part in zip(r_parts, s_parts):
            acc.add(hash_join(r_part, s_part))
        assert acc.result() == whole

    def test_checksum_distinguishes_results_of_equal_size(self):
        a = hash_join(np.array([1]), np.array([1]))
        b = hash_join(np.array([2]), np.array([2]))
        assert a.n_pairs == b.n_pairs == 1
        assert a.checksum != b.checksum


class TestAccumulator:
    def test_counts_mini_joins(self):
        acc = JoinAccumulator()
        acc.add(JoinResult(1, 5))
        acc.add(JoinResult(2, 6))
        assert acc.mini_joins == 2
        assert acc.result() == JoinResult(3, 11)


class TestReferenceJoin:
    def test_on_relations(self, small_r, small_s):
        result = reference_join(small_r, small_s)
        assert result == nested_loop_join(small_r.keys, small_s.keys)
        assert result == hash_join(small_r.keys, small_s.keys)
        assert result.n_pairs > 0
