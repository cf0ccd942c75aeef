"""Tests for the ClickLog container, the in-memory log format every consumer reads."""

import numpy as np
import pytest

from repro.core import FAEConfig, fae_preprocess
from repro.data import ClickLog, train_test_split
from repro.data.schema import DatasetSchema, EmbeddingTableSpec


class TestClickLog:
    def make(self, n=6):
        schema = DatasetSchema(
            "cl", 2,
            (
                EmbeddingTableSpec("a", num_rows=10, dim=4),
                EmbeddingTableSpec("b", num_rows=5, dim=4, multiplicity=2),
            ),
            n,
        )
        rng = np.random.default_rng(0)
        return ClickLog(
            schema=schema,
            dense=rng.normal(size=(n, 2)),
            sparse={
                "a": rng.integers(0, 10, size=(n, 1)),
                "b": rng.integers(0, 5, size=(n, 2)),
            },
            labels=rng.integers(0, 2, size=n).astype(np.float32),
        )

    def test_access_counts(self):
        log = self.make()
        counts = log.access_counts("b")
        assert counts.sum() == 12
        assert counts.shape == (5,)

    def test_take(self):
        log = self.make()
        sub = log.take(np.array([0, 2]))
        assert len(sub) == 2
        np.testing.assert_array_equal(sub.labels, log.labels[[0, 2]])

    def test_rejects_out_of_range_ids(self):
        schema = DatasetSchema(
            "cl", 1, (EmbeddingTableSpec("a", num_rows=3, dim=2),), 2
        )
        with pytest.raises(ValueError):
            ClickLog(
                schema=schema,
                dense=np.zeros((2, 1)),
                sparse={"a": np.array([[0], [3]])},
                labels=np.zeros(2),
            )

    def test_rejects_missing_table(self):
        schema = DatasetSchema(
            "cl", 1, (EmbeddingTableSpec("a", num_rows=3, dim=2),), 2
        )
        with pytest.raises(ValueError):
            ClickLog(schema, np.zeros((2, 1)), {}, np.zeros(2))

    def test_works_with_fae_pipeline(self):
        """A plain ClickLog must flow through the full static pipeline."""
        rng = np.random.default_rng(1)
        n = 2000
        schema = DatasetSchema(
            "cl", 2,
            (
                EmbeddingTableSpec("a", num_rows=500, dim=8),
                EmbeddingTableSpec("b", num_rows=100, dim=8),
            ),
            n,
        )
        # Skewed ids so a hot set exists.
        ids_a = (rng.pareto(1.3, size=(n, 1)) * 20).astype(np.int64) % 500
        ids_b = (rng.pareto(1.3, size=(n, 1)) * 10).astype(np.int64) % 100
        log = ClickLog(
            schema=schema,
            dense=rng.normal(size=(n, 2)),
            sparse={"a": ids_a, "b": ids_b},
            labels=rng.integers(0, 2, size=n).astype(np.float32),
        )
        config = FAEConfig(
            gpu_memory_budget=8 * 1024, large_table_min_bytes=512, chunk_size=16
        )
        plan = fae_preprocess(log, config, batch_size=64)
        assert 0 < plan.hot_input_fraction <= 1
        train, test = train_test_split(log, 0.2)
        assert len(train) + len(test) == n
