"""Unit tests for repro.data.synthetic."""

import numpy as np
import pytest

from repro.data import (
    ClickLog,
    LogChunkSource,
    SyntheticClickLog,
    SyntheticConfig,
    as_chunk_source,
)
from repro.data.schema import DatasetSchema, EmbeddingTableSpec


@pytest.fixture(scope="module")
def schema():
    return DatasetSchema(
        name="syn",
        num_dense=5,
        tables=(
            EmbeddingTableSpec("t0", num_rows=300, dim=8, zipf_exponent=1.2),
            EmbeddingTableSpec("t1", num_rows=50, dim=8, zipf_exponent=1.0, multiplicity=3),
        ),
        num_samples=1000,
    )


@pytest.fixture(scope="module")
def log(schema):
    return SyntheticClickLog(schema, SyntheticConfig(num_samples=3000, seed=5))


class TestGeneration:
    def test_shapes(self, schema, log):
        assert log.dense.shape == (3000, 5)
        assert log.sparse["t0"].shape == (3000, 1)
        assert log.sparse["t1"].shape == (3000, 3)
        assert log.labels.shape == (3000,)
        assert len(log) == 3000

    def test_dtypes(self, log):
        assert log.dense.dtype == np.float32
        assert log.sparse["t0"].dtype == np.int64
        assert log.labels.dtype == np.float32

    def test_ids_in_range(self, schema, log):
        for spec in schema.tables:
            ids = log.sparse[spec.name]
            assert ids.min() >= 0
            assert ids.max() < spec.num_rows

    def test_labels_binary(self, log):
        assert set(np.unique(log.labels)) <= {0.0, 1.0}

    def test_deterministic_given_seed(self, schema):
        a = SyntheticClickLog(schema, SyntheticConfig(num_samples=200, seed=7))
        b = SyntheticClickLog(schema, SyntheticConfig(num_samples=200, seed=7))
        np.testing.assert_array_equal(a.labels, b.labels)
        np.testing.assert_array_equal(a.sparse["t0"], b.sparse["t0"])

    def test_seed_changes_data(self, schema):
        a = SyntheticClickLog(schema, SyntheticConfig(num_samples=200, seed=7))
        b = SyntheticClickLog(schema, SyntheticConfig(num_samples=200, seed=8))
        assert not np.array_equal(a.sparse["t0"], b.sparse["t0"])


class TestStatistics:
    def test_access_counts_total(self, log):
        counts = log.access_counts("t1")
        assert counts.sum() == 3000 * 3
        assert counts.shape == (50,)

    def test_access_counts_with_subset(self, log):
        subset = np.arange(100)
        counts = log.access_counts("t0", subset)
        assert counts.sum() == 100

    def test_accesses_are_skewed(self, log):
        counts = np.sort(log.access_counts("t0"))[::-1]
        top_decile = counts[:30].sum()
        assert top_decile / counts.sum() > 0.4

    def test_base_rate_reasonable(self, log):
        assert 0.2 < log.base_rate() < 0.8

    def test_bayes_beats_base_rate(self, log):
        majority = max(log.base_rate(), 1 - log.base_rate())
        assert log.bayes_accuracy() > majority

    def test_labels_correlate_with_planted_signal(self, schema):
        # With zero noise the planted logit should classify well.
        clean = SyntheticClickLog(
            schema, SyntheticConfig(num_samples=4000, seed=3, label_noise=0.0)
        )
        assert clean.bayes_accuracy() > 0.75


class TestIsAClickLog:
    def test_is_a_click_log(self, log):
        assert isinstance(log, ClickLog)
        assert isinstance(as_chunk_source(log), LogChunkSource)
        assert isinstance(log.take(np.arange(10)), SyntheticClickLog)

    def test_take_keeps_the_planted_model_of_its_rows(self, log):
        """The planted logits follow the rows: the halves' correct counts
        sum to the whole log's, and a permuted copy scores the same."""
        rows = np.random.default_rng(3).permutation(len(log))
        halves = (rows[:1100], rows[1100:])

        def correct(part):
            return round(part.bayes_accuracy() * len(part))

        assert sum(correct(log.take(half)) for half in halves) == correct(log)
        assert log.take(rows).bayes_accuracy() == log.bayes_accuracy()
        assert log.take(halves[0]).take(np.arange(100)).bayes_accuracy() == (
            log.take(halves[0][:100]).bayes_accuracy()
        )


class TestTake:
    def test_take_subset(self, log):
        indices = np.array([5, 10, 20])
        sub = log.take(indices)
        assert len(sub) == 3
        np.testing.assert_array_equal(sub.labels, log.labels[indices])
        np.testing.assert_array_equal(sub.sparse["t1"], log.sparse["t1"][indices])

    def test_take_preserves_schema(self, log, schema):
        sub = log.take(np.arange(10))
        assert sub.schema is schema

    def test_take_bayes_consistent(self, log):
        sub = log.take(np.arange(len(log)))
        assert sub.bayes_accuracy() == pytest.approx(log.bayes_accuracy())


class TestConfigValidation:
    def test_rejects_bad_sample_count(self):
        with pytest.raises(ValueError):
            SyntheticConfig(num_samples=0)

    def test_rejects_negative_noise(self):
        with pytest.raises(ValueError):
            SyntheticConfig(num_samples=10, label_noise=-0.1)
