"""Property-based tests (hypothesis) on core invariants."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core import ShuffleScheduler, all_hot_batch_probability
from repro.core.access_profile import TableProfile
from repro.core.classifier import HotEmbeddingBagSpec
from repro.core.config import FAEConfig
from repro.core.randem_box import RandEmBox
from repro.core.replicator import HotEmbeddingBag
from repro.data.zipf import (
    generalized_harmonic,
    zipf_probabilities,
    zipf_rows_above_probability,
    zipf_top_k_coverage,
)
from repro.nn import Parameter, SGD
from repro.nn.parameter import SparseGrad


class TestZipfProperties:
    @given(n=st.integers(2, 5000), s=st.floats(0.0, 2.5))
    @settings(max_examples=60, deadline=None)
    def test_probabilities_normalized_and_sorted(self, n, s):
        probs = zipf_probabilities(n, s)
        assert probs.sum() == pytest.approx(1.0, rel=1e-9)
        assert np.all(np.diff(probs) <= 1e-15)

    @given(n=st.integers(2, 100_000), s=st.floats(0.1, 2.0))
    @settings(max_examples=60, deadline=None)
    def test_harmonic_positive_and_bounded(self, n, s):
        h = generalized_harmonic(n, s)
        assert 1.0 <= h <= n  # between first term and uniform sum

    @given(
        n=st.integers(10, 50_000),
        s=st.floats(0.2, 2.0),
        k1=st.integers(1, 100),
        k2=st.integers(101, 5000),
    )
    @settings(max_examples=60, deadline=None)
    def test_coverage_monotone_in_k(self, n, s, k1, k2):
        assert zipf_top_k_coverage(n, s, k1) <= zipf_top_k_coverage(n, s, k2) + 1e-12

    @given(
        n=st.integers(10, 100_000),
        s=st.floats(0.3, 2.0),
        t1=st.floats(1e-9, 1e-2),
        t2=st.floats(1e-9, 1e-2),
    )
    @settings(max_examples=60, deadline=None)
    def test_rows_above_probability_antitone(self, n, s, t1, t2):
        lo, hi = min(t1, t2), max(t1, t2)
        assert zipf_rows_above_probability(n, s, lo) >= zipf_rows_above_probability(n, s, hi)


class TestSparseGradProperties:
    @given(
        ids=st.lists(st.integers(0, 49), min_size=1, max_size=60),
        dim=st.integers(1, 8),
        seed=st.integers(0, 1000),
    )
    @settings(max_examples=60, deadline=None)
    def test_coalesced_preserves_total(self, ids, dim, seed):
        rng = np.random.default_rng(seed)
        values = rng.normal(size=(len(ids), dim)).astype(np.float32)
        record = SparseGrad(ids=np.array(ids, dtype=np.int64), values=values)
        merged = record.coalesced()
        assert len(np.unique(merged.ids)) == len(merged.ids)
        np.testing.assert_allclose(
            merged.values.sum(axis=0), values.sum(axis=0), rtol=1e-4, atol=1e-5
        )

    @given(
        ids=st.lists(st.integers(0, 19), min_size=1, max_size=40),
        seed=st.integers(0, 100),
    )
    @settings(max_examples=40, deadline=None)
    def test_sparse_step_equals_dense_step(self, ids, seed):
        rng = np.random.default_rng(seed)
        values = rng.normal(size=(len(ids), 3)).astype(np.float32)
        sparse_param = Parameter("s", np.ones((20, 3), dtype=np.float32))
        dense_param = Parameter("d", np.ones((20, 3), dtype=np.float32))
        sparse_param.accumulate_sparse(np.array(ids, dtype=np.int64), values)
        dense_grad = np.zeros((20, 3), dtype=np.float32)
        np.add.at(dense_grad, np.array(ids), values)
        dense_param.accumulate_dense(dense_grad)
        SGD([sparse_param], lr=0.05).step()
        SGD([dense_param], lr=0.05).step()
        np.testing.assert_allclose(sparse_param.value, dense_param.value, rtol=1e-5, atol=1e-6)


class TestSchedulerProperties:
    @given(
        hot=st.integers(0, 300),
        cold=st.integers(0, 300),
        rate=st.integers(1, 100),
    )
    @settings(max_examples=80, deadline=None)
    def test_every_batch_scheduled_once(self, hot, cold, rate):
        scheduler = ShuffleScheduler(hot, cold, initial_rate=rate)
        issued_hot = issued_cold = 0
        for segment in scheduler.segments():
            assert segment.num_batches > 0
            if segment.kind == "hot":
                issued_hot += segment.num_batches
            else:
                issued_cold += segment.num_batches
        assert issued_hot == hot
        assert issued_cold == cold

    @given(
        losses=st.lists(st.floats(0.01, 10.0), min_size=2, max_size=40),
        rate=st.integers(1, 100),
        u=st.integers(1, 8),
    )
    @settings(max_examples=80, deadline=None)
    def test_rate_stays_in_bounds_under_any_loss_sequence(self, losses, rate, u):
        scheduler = ShuffleScheduler(100, 100, initial_rate=rate, strip_length=u)
        for loss in losses:
            scheduler.record_test_loss(loss)
            assert 1 <= scheduler.rate <= 100


def hot_bag(hot: set, whole_table: bool) -> HotEmbeddingBag:
    """A bag of ``hot`` (all 100 rows when ``whole_table``) over a store of its own."""
    hot_ids = np.arange(100) if whole_table else np.array(sorted(hot), dtype=np.int64)
    spec = HotEmbeddingBagSpec("t", hot_ids, num_rows=100, dim=2, whole_table=whole_table)
    store = Parameter("hot", np.zeros((len(hot_ids), 2), dtype=np.float32))
    return HotEmbeddingBag(spec, store, 0, spec.local_rows())


class TestHotBagProperties:
    @given(
        hot=st.sets(st.integers(0, 99), max_size=60),
        whole_table=st.booleans(),
        queries=st.lists(st.integers(-150, 250), min_size=1, max_size=30),
    )
    @settings(max_examples=60, deadline=None)
    def test_contains_matches_set_membership(self, hot, whole_table, queries):
        """``to_local`` resolves exactly the members; any other id (cold,
        negative or past the table) raises a KeyError naming the table."""
        bag = hot_bag(hot, whole_table)
        members = set(range(100)) if whole_table else hot
        for query in queries:
            if query in members:
                assert bag.spec.hot_ids[bag.to_local(np.array([query]))[0]] == query
            else:
                with pytest.raises(KeyError, match=f"^'t: ids \\[{query}\\]"):
                    bag.to_local(np.array([query]))
        if set(queries) <= members:
            np.testing.assert_array_equal(bag.spec.hot_ids[bag.to_local(queries)], queries)
        else:
            with pytest.raises(KeyError, match="^'t: "):
                bag.to_local(np.array(queries))

    @given(hot=st.sets(st.integers(0, 99), max_size=60), whole_table=st.booleans())
    @settings(max_examples=40, deadline=None)
    def test_to_local_inverts_hot_ids(self, hot, whole_table):
        bag = hot_bag(hot, whole_table)
        local = bag.to_local(bag.spec.hot_ids)
        np.testing.assert_array_equal(local, np.arange(bag.spec.num_hot))


class TestRandEmProperties:
    @given(
        seed=st.integers(0, 50),
        zipf_a=st.floats(1.2, 2.5),
        min_count=st.integers(1, 30),
    )
    @settings(max_examples=25, deadline=None)
    def test_estimate_bounds_ordered_and_nonnegative(self, seed, zipf_a, min_count):
        rng = np.random.default_rng(seed)
        counts = rng.zipf(zipf_a, size=80_000).astype(np.int64)
        profile = TableProfile("t", counts, dim=4)
        config = FAEConfig(chunk_size=256, num_chunks=35)
        est = RandEmBox(config, seed=seed).estimate(profile, min_count)
        assert 0 <= est.hot_rows_lower <= est.hot_rows_mean <= est.hot_rows_upper
        assert est.hot_rows_upper <= profile.num_rows


class TestProbabilityProperties:
    @given(p=st.floats(0.0, 1.0), b=st.integers(1, 4096))
    @settings(max_examples=80, deadline=None)
    def test_all_hot_probability_valid(self, p, b):
        value = all_hot_batch_probability(p, b)
        assert 0.0 <= value <= 1.0
        assert value <= p or b == 0 or p in (0.0, 1.0) or value == pytest.approx(p)
