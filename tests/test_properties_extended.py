"""Additional property-based tests: collectives, quantization."""

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.dist import ProcessGroup, ReduceOp
from repro.nn.quantization import (
    dequantize_int8_rows,
    quantize_fp16,
    quantize_int8_rows,
)


class TestCollectiveProperties:
    @given(
        world=st.integers(2, 6),
        size=st.integers(1, 40),
        seed=st.integers(0, 100),
    )
    @settings(max_examples=40, deadline=None)
    def test_all_reduce_matches_numpy_sum(self, world, size, seed):
        rng = np.random.default_rng(seed)
        buffers = [rng.normal(size=size).astype(np.float64) for _ in range(world)]
        results = ProcessGroup(world_size=world).all_reduce(buffers, ReduceOp.SUM)
        expected = np.sum(buffers, axis=0)
        for r in results:
            np.testing.assert_allclose(r, expected, rtol=1e-9)

    @given(
        world=st.integers(1, 5),
        size=st.integers(1, 30),
        scale=st.floats(0.1, 100.0),
        seed=st.integers(0, 50),
    )
    @settings(max_examples=40, deadline=None)
    def test_all_reduce_linearity(self, world, size, scale, seed):
        """all_reduce(c * x) == c * all_reduce(x)."""
        rng = np.random.default_rng(seed)
        buffers = [rng.normal(size=size).astype(np.float64) for _ in range(world)]
        plain = ProcessGroup(world_size=world).all_reduce(buffers)[0]
        scaled = ProcessGroup(world_size=world).all_reduce([scale * b for b in buffers])[0]
        np.testing.assert_allclose(scaled, scale * plain, rtol=1e-8)

    @given(world=st.integers(2, 5), seed=st.integers(0, 50))
    @settings(max_examples=30, deadline=None)
    def test_reduce_scatter_concat_equals_all_reduce(self, world, seed):
        rng = np.random.default_rng(seed)
        size = world * 6
        buffers = [rng.normal(size=size).astype(np.float64) for _ in range(world)]
        group = ProcessGroup(world_size=world)
        shards = group.reduce_scatter([b.copy() for b in buffers])
        full = ProcessGroup(world_size=world).all_reduce([b.copy() for b in buffers])[0]
        np.testing.assert_allclose(np.concatenate(shards), full, rtol=1e-9)


class TestQuantizationProperties:
    @given(
        rows=st.integers(1, 30),
        dim=st.integers(1, 16),
        scale=st.floats(1e-3, 1e3),
        seed=st.integers(0, 100),
    )
    @settings(max_examples=50, deadline=None)
    def test_int8_error_bounded_by_half_step(self, rows, dim, scale, seed):
        rng = np.random.default_rng(seed)
        values = (rng.normal(size=(rows, dim)) * scale).astype(np.float32)
        codes, scales = quantize_int8_rows(values)
        restored = dequantize_int8_rows(codes, scales)
        step = np.abs(values).max(axis=1) / 127.0
        assert np.all(np.abs(restored - values) <= step[:, None] * 0.51 + 1e-6)

    @given(
        rows=st.integers(1, 20),
        dim=st.integers(1, 8),
        seed=st.integers(0, 100),
    )
    @settings(max_examples=50, deadline=None)
    def test_fp16_idempotent_and_sign_preserving(self, rows, dim, seed):
        rng = np.random.default_rng(seed)
        values = rng.normal(size=(rows, dim)).astype(np.float32)
        once = quantize_fp16(values).astype(np.float32)
        twice = quantize_fp16(once).astype(np.float32)
        np.testing.assert_array_equal(once, twice)
        assert np.all(np.sign(once) == np.sign(np.where(np.abs(values) < 6e-8, once, values)))
