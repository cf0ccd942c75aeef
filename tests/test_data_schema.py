"""Unit tests for repro.data.schema."""

import pytest

from repro.data.schema import DatasetSchema, EmbeddingTableSpec, scaled_schema


def make_schema(**overrides):
    defaults = dict(
        name="s",
        num_dense=3,
        tables=(
            EmbeddingTableSpec("a", num_rows=1000, dim=16),
            EmbeddingTableSpec("b", num_rows=10, dim=16, multiplicity=4),
        ),
        num_samples=100,
    )
    defaults.update(overrides)
    return DatasetSchema(**defaults)


class TestEmbeddingTableSpec:
    def test_size_bytes(self):
        spec = EmbeddingTableSpec("t", num_rows=100, dim=16)
        assert spec.size_bytes == 100 * 16 * 4

    def test_rows_for_bytes(self):
        spec = EmbeddingTableSpec("t", num_rows=100, dim=16)
        assert spec.rows_for_bytes(64 * 10) == 10
        assert spec.rows_for_bytes(0) == 0
        assert spec.rows_for_bytes(63) == 0

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(num_rows=0, dim=4),
            dict(num_rows=4, dim=0),
            dict(num_rows=4, dim=4, multiplicity=0),
            dict(num_rows=4, dim=4, zipf_exponent=-1.0),
        ],
    )
    def test_rejects_invalid(self, kwargs):
        with pytest.raises(ValueError):
            EmbeddingTableSpec("t", **kwargs)


class TestDatasetSchema:
    def test_basic_accessors(self):
        schema = make_schema()
        assert schema.num_sparse == 2
        assert schema.table_names == ("a", "b")
        assert schema.table("a").num_rows == 1000
        assert schema.total_embedding_bytes == (1000 + 10) * 16 * 4

    def test_unknown_table_raises(self):
        with pytest.raises(KeyError):
            make_schema().table("nope")

    def test_lookups_per_sample_counts_multiplicity(self):
        assert make_schema().lookups_per_sample() == 1 + 4

    def test_large_small_partition(self):
        schema = make_schema()
        cutoff = 1000  # bytes
        assert {t.name for t in schema.large_tables(cutoff)} == {"a"}

    def test_duplicate_table_names_rejected(self):
        with pytest.raises(ValueError):
            make_schema(
                tables=(
                    EmbeddingTableSpec("a", num_rows=10, dim=4),
                    EmbeddingTableSpec("a", num_rows=20, dim=4),
                )
            )

    def test_empty_tables_rejected(self):
        with pytest.raises(ValueError):
            make_schema(tables=())

    def test_describe_mentions_name(self):
        assert "s:" in make_schema().describe()


class TestScaledSchema:
    def test_scales_rows_and_samples(self):
        schema = make_schema()
        scaled = scaled_schema(schema, row_scale=0.1, sample_scale=0.5)
        assert scaled.table("a").num_rows == 100
        assert scaled.num_samples == 50

    def test_preserves_dim_and_multiplicity(self):
        scaled = scaled_schema(make_schema(), 0.1, 0.1)
        assert scaled.table("b").dim == 16
        assert scaled.table("b").multiplicity == 4

    def test_minimum_two_rows(self):
        scaled = scaled_schema(make_schema(), 1e-9, 0.5)
        assert all(t.num_rows >= 2 for t in scaled.tables)

    def test_rejects_non_positive_scales(self):
        with pytest.raises(ValueError):
            scaled_schema(make_schema(), 0.0, 1.0)
        with pytest.raises(ValueError):
            scaled_schema(make_schema(), 1.0, -1.0)
