"""Tests for the chunked synthetic stream (repro.data.stream); the pipeline
over it is covered by tests/test_streaming_preprocess.py."""

import numpy as np
import pytest

from repro.data import SyntheticClickLog, SyntheticConfig
from repro.data.stream import SyntheticClickStream


@pytest.fixture(scope="module")
def stream(request):
    tiny_schema = request.getfixturevalue("tiny_schema")
    return SyntheticClickStream(
        tiny_schema, total_samples=4000, chunk_size=512, seed=11
    )


class TestSyntheticClickStream:
    def test_chunk_geometry(self, stream, tiny_schema):
        assert stream.num_chunks == 8
        start, chunk = next(iter(stream))
        assert start == 0
        assert len(chunk) == 512
        assert chunk.schema is tiny_schema

    def test_final_chunk_short(self, tiny_schema):
        s = SyntheticClickStream(tiny_schema, total_samples=1000, chunk_size=300)
        sizes = [len(chunk) for _start, chunk in s]
        assert sizes == [300, 300, 300, 100]

    def test_total_samples(self, stream):
        total = sum(len(chunk) for _s, chunk in stream)
        assert total == len(stream) == 4000

    def test_chunks_deterministic_and_independent(self, stream):
        direct = stream.chunk(3)
        via_iteration = [c for _s, c in stream][3]
        np.testing.assert_array_equal(direct.labels, via_iteration.labels)
        np.testing.assert_array_equal(
            direct.sparse["table_00"], via_iteration.sparse["table_00"]
        )

    def test_chunks_differ_from_each_other(self, stream):
        a, b = stream.chunk(0), stream.chunk(1)
        assert not np.array_equal(a.sparse["table_00"], b.sparse["table_00"])

    def test_distribution_matches_materialized_log(self, tiny_schema):
        """Stream and one-shot generator share the same popularity law."""
        s = SyntheticClickStream(tiny_schema, total_samples=4000, chunk_size=1000, seed=11)
        stream_counts = np.zeros(tiny_schema.table("table_00").num_rows, dtype=np.int64)
        for _start, chunk in s:
            stream_counts += chunk.access_counts("table_00")
        log = SyntheticClickLog(tiny_schema, SyntheticConfig(num_samples=4000, seed=11))
        log_counts = log.access_counts("table_00")
        # Same generative samplers -> strongly correlated rank profiles.
        corr = np.corrcoef(stream_counts, log_counts)[0, 1]
        assert corr > 0.9

    def test_labels_learnable(self, stream):
        # The planted logit must produce a non-degenerate label mix.
        labels = np.concatenate([c.labels for _s, c in stream])
        assert 0.2 < labels.mean() < 0.8

    def test_bad_args(self, tiny_schema):
        with pytest.raises(ValueError):
            SyntheticClickStream(tiny_schema, total_samples=0)
        with pytest.raises(ValueError):
            SyntheticClickStream(tiny_schema, total_samples=10, chunk_size=0)
        with pytest.raises(IndexError):
            SyntheticClickStream(tiny_schema, total_samples=10).chunk(99)
