"""Tests for the Count-Min Sketch and sketch-based profiling."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core import EmbeddingClassifier, EmbeddingLogger
from repro.core.sketch import CountMinSketch, SketchLogger
from repro.data import LogChunkSource, save_log_shards


class TestCountMinSketch:
    def test_never_undercounts(self, rng):
        sketch = CountMinSketch(width=64, depth=4, seed=1)
        ids = rng.integers(0, 1000, size=5000)
        sketch.add(ids)
        truth = np.bincount(ids, minlength=1000)
        estimates = sketch.query(np.arange(1000))
        assert np.all(estimates >= truth)

    def test_exact_when_wide_enough(self):
        sketch = CountMinSketch(width=4096, depth=5, seed=0)
        ids = np.repeat(np.arange(10), [1, 2, 3, 4, 5, 6, 7, 8, 9, 10])
        sketch.add(ids)
        np.testing.assert_array_equal(
            sketch.query(np.arange(10)), np.arange(1, 11)
        )

    def test_error_bound_holds(self, rng):
        epsilon, delta = 0.01, 1e-3
        sketch = CountMinSketch.from_error_bounds(epsilon, delta, seed=3)
        ids = rng.integers(0, 50_000, size=100_000)
        sketch.add(ids)
        truth = np.bincount(ids, minlength=50_000)
        estimates = sketch.query(np.arange(50_000))
        overcount = estimates - truth
        # One-sided bound: overcount <= eps * total (allow rare outliers
        # per the delta guarantee).
        violations = np.mean(overcount > epsilon * sketch.total)
        assert violations <= delta * 10  # generous slack on a single trial

    def test_total_tracks_stream(self):
        sketch = CountMinSketch(width=16, depth=2)
        sketch.add(np.arange(5))
        sketch.add(np.arange(3))
        assert sketch.total == 8

    def test_empty_add_query(self):
        sketch = CountMinSketch(width=16, depth=2)
        sketch.add(np.array([], dtype=np.int64))
        assert sketch.total == 0
        assert sketch.query(np.array([], dtype=np.int64)).size == 0

    def test_deterministic_given_seed(self, rng):
        ids = rng.integers(0, 100, size=1000)
        a = CountMinSketch(width=32, depth=3, seed=9)
        b = CountMinSketch(width=32, depth=3, seed=9)
        a.add(ids)
        b.add(ids)
        np.testing.assert_array_equal(a.table, b.table)

    def test_from_error_bounds_sizing(self):
        sketch = CountMinSketch.from_error_bounds(0.001, 0.01)
        assert sketch.width == int(np.ceil(np.e / 0.001))
        assert sketch.depth == int(np.ceil(np.log(100)))

    @pytest.mark.parametrize("kwargs", [dict(width=0, depth=1), dict(width=1, depth=0)])
    def test_bad_geometry(self, kwargs):
        with pytest.raises(ValueError):
            CountMinSketch(**kwargs)

    def test_bad_bounds(self):
        with pytest.raises(ValueError):
            CountMinSketch.from_error_bounds(0.0, 0.5)
        with pytest.raises(ValueError):
            CountMinSketch.from_error_bounds(0.1, 1.5)

    @given(
        ids=st.lists(st.integers(0, 500), min_size=1, max_size=300),
        seed=st.integers(0, 50),
    )
    @settings(max_examples=40, deadline=None)
    def test_property_one_sided_error(self, ids, seed):
        sketch = CountMinSketch(width=128, depth=4, seed=seed)
        ids = np.array(ids, dtype=np.int64)
        sketch.add(ids)
        truth = np.bincount(ids, minlength=501)
        estimates = sketch.query(np.arange(501))
        assert np.all(estimates >= truth)
        assert estimates.sum() >= truth.sum()


def _reference_add(sketch: CountMinSketch, ids, counts=None) -> None:
    """``CountMinSketch.add`` as it was before PR 13: one ``np.add.at``
    per hash row."""
    ids = np.asarray(ids, dtype=np.int64).ravel()
    weights = 1 if counts is None else np.asarray(counts, dtype=np.int64).ravel()
    hashed = (sketch._a[:, None] * ids[None, :] + sketch._b[:, None]) % sketch._PRIME
    buckets = hashed % sketch.width
    for row in range(sketch.depth):
        np.add.at(sketch.table[row], buckets[row], weights)
    sketch.total += int(ids.size if counts is None else weights.sum())


def _reference_query(sketch: CountMinSketch, ids) -> np.ndarray:
    """``CountMinSketch.query`` as it was before PR 13: stack rows, take min."""
    ids = np.asarray(ids, dtype=np.int64).ravel()
    hashed = (sketch._a[:, None] * ids[None, :] + sketch._b[:, None]) % sketch._PRIME
    buckets = hashed % sketch.width
    rows = [sketch.table[row, buckets[row]] for row in range(sketch.depth)]
    return np.min(np.stack(rows), axis=0).astype(np.int64)


class TestFlatAddMatchesRowLoop:
    @given(
        batches=st.lists(
            st.lists(
                # Weights past 2**53 would round in a float64 bincount.
                st.tuples(st.integers(0, 10**9), st.integers(0, 2**55)),
                min_size=1,
                max_size=40,
            ),
            min_size=1,
            max_size=4,
        ),
        weighted=st.booleans(),
        width=st.sampled_from([1, 7, 64]),
        depth=st.integers(1, 4),
        seed=st.integers(0, 5),
    )
    @settings(max_examples=120, deadline=None)
    def test_table_and_total_bit_identical(self, batches, weighted, width, depth, seed):
        new = CountMinSketch(width=width, depth=depth, seed=seed)
        old = CountMinSketch(width=width, depth=depth, seed=seed)
        for batch in batches:
            ids, counts = (np.array(x, dtype=np.int64) for x in zip(*batch))
            new.add(ids, counts=counts if weighted else None)
            _reference_add(old, ids, counts if weighted else None)
            new.decay(0.75)
            old.decay(0.75)
            assert new.table.dtype == old.table.dtype == np.int64
            np.testing.assert_array_equal(new.table, old.table)
            assert new.total == old.total
        probe = np.arange(50, dtype=np.int64)
        assert new.query(probe).dtype == np.int64
        np.testing.assert_array_equal(new.query(probe), _reference_query(old, probe))

    def test_two_dimensional_ids_are_flattened(self):
        new = CountMinSketch(width=16, depth=3, seed=2)
        old = CountMinSketch(width=16, depth=3, seed=2)
        ids = np.array([[3, 3, 9], [9, 9, 1]])
        new.add(ids)
        _reference_add(old, ids)
        np.testing.assert_array_equal(new.table, old.table)
        assert new.total == old.total == 6


class TestDecay:
    @given(
        batches=st.lists(
            st.lists(st.tuples(st.integers(0, 200), st.integers(0, 5)), min_size=1, max_size=20),
            min_size=1,
            max_size=6,
        ),
        factor=st.sampled_from([0.1, 0.5, 0.75, 1.0]),
    )
    @settings(max_examples=100, deadline=None)
    def test_no_row_sums_past_total(self, batches, factor):
        # What lets decay skip an empty sketch: total == 0 means every counter is 0.
        sketch = CountMinSketch(width=7, depth=3, seed=1)
        for batch in batches:
            ids, counts = (np.array(x, dtype=np.int64) for x in zip(*batch))
            sketch.add(ids, counts=counts)
            for _ in range(3):
                sketch.decay(factor)
                assert (sketch.table.sum(axis=1) <= sketch.total).all()
        assert sketch.total or not sketch.table.any()


class TestSketchLogger:
    def test_profile_matches_exact_on_hot_rows(self, tiny_log, tiny_fae_config):
        exact = EmbeddingLogger(tiny_fae_config).profile(
            tiny_log, np.arange(len(tiny_log))
        )
        sketched = SketchLogger(tiny_fae_config, epsilon=1e-4).profile(
            tiny_log, np.arange(len(tiny_log))
        )
        for name, table in exact.tables.items():
            estimate = sketched.tables[name].counts
            assert np.all(estimate >= table.counts)
            # At epsilon=1e-4 and ~4-8K accesses, estimates are exact.
            top = np.argsort(table.counts)[-20:]
            np.testing.assert_array_equal(estimate[top], table.counts[top])

    def test_same_hot_classification_as_exact(self, tiny_log, tiny_fae_config):
        """The sketch must select the same hot rows as exact counting."""
        exact_profile = EmbeddingLogger(tiny_fae_config).profile(
            tiny_log, np.arange(len(tiny_log))
        )
        sketch_profile = SketchLogger(tiny_fae_config, epsilon=1e-4).profile(
            tiny_log, np.arange(len(tiny_log))
        )
        classifier = EmbeddingClassifier(tiny_fae_config)
        threshold = 1e-3
        exact_bags = classifier.classify(exact_profile, threshold)
        sketch_bags = classifier.classify(sketch_profile, threshold)
        for name in exact_bags:
            exact_ids = set(exact_bags[name].hot_ids.tolist())
            sketch_ids = set(sketch_bags[name].hot_ids.tolist())
            # One-sided error -> sketch hot set is a superset.
            assert exact_ids <= sketch_ids
            # And not a much larger one at this epsilon.
            assert len(sketch_ids) <= len(exact_ids) * 1.1 + 2

    def test_sketch_bytes_reported(self, tiny_log, tiny_fae_config):
        logger = SketchLogger(tiny_fae_config, epsilon=1e-3)
        logger.profile(tiny_log, np.arange(100))
        assert logger.last_sketch_bytes > 0

    def test_empty_sample_rejected(self, tiny_log, tiny_fae_config):
        with pytest.raises(ValueError):
            SketchLogger(tiny_fae_config).profile(tiny_log, np.array([], dtype=np.int64))

    def test_log_source_and_shards_give_one_profile(self, tiny_log, tiny_fae_config, tmp_path):
        # Any input as_chunk_source accepts, positions in any order.
        picks = np.random.default_rng(4).permutation(len(tiny_log))[:1500]
        shards = save_log_shards(tmp_path / "shards", tiny_log, chunk_size=700)
        profiles = [
            SketchLogger(tiny_fae_config, epsilon=1e-3).profile(source, picks)
            for source in (tiny_log, LogChunkSource(tiny_log, chunk_size=333), str(shards))
        ]
        for profile in profiles[1:]:
            assert profile.num_sampled_inputs == profiles[0].num_sampled_inputs == 1500
            assert profile.num_total_inputs == profiles[0].num_total_inputs == len(tiny_log)
            assert list(profile.tables) == list(profiles[0].tables)
            for name, table in profiles[0].tables.items():
                np.testing.assert_array_equal(profile.tables[name].counts, table.counts)

    def test_positions_outside_the_source_rejected(self, tiny_log, tiny_fae_config):
        with pytest.raises(ValueError, match="must lie in"):
            SketchLogger(tiny_fae_config).profile(tiny_log, np.array([len(tiny_log)]))
