"""Unit tests for DotInteraction and SequenceAttention."""

import numpy as np
import pytest

from repro.nn import DotInteraction, SequenceAttention


class TestDotInteraction:
    def test_output_dim_formula(self):
        assert DotInteraction.output_dim(num_features=3, feature_dim=4) == 4 + 3
        assert DotInteraction.output_dim(num_features=27, feature_dim=16) == 16 + 27 * 26 // 2

    def test_forward_values(self, rng):
        inter = DotInteraction()
        x = rng.normal(size=(2, 3)).astype(np.float32)
        e1 = rng.normal(size=(2, 3)).astype(np.float32)
        e2 = rng.normal(size=(2, 3)).astype(np.float32)
        out = inter.forward(np.stack([x, e1, e2], axis=1))
        assert out.shape == (2, 3 + 3)
        np.testing.assert_allclose(out[:, :3], x, rtol=1e-6)
        # pair order from tril_indices(k=-1): (e1,x), (e2,x), (e2,e1)
        np.testing.assert_allclose(out[0, 3], e1[0] @ x[0], rtol=1e-5)
        np.testing.assert_allclose(out[0, 4], e2[0] @ x[0], rtol=1e-5)
        np.testing.assert_allclose(out[0, 5], e2[0] @ e1[0], rtol=1e-5)

    def test_width_mismatch_rejected(self, rng):
        inter = DotInteraction()
        with pytest.raises(ValueError):
            inter.forward(np.zeros((1, 3)))

    def test_backward_before_forward(self):
        with pytest.raises(RuntimeError):
            DotInteraction().backward(np.zeros((1, 4)))

    def test_numeric_gradient(self, rng):
        inter = DotInteraction()
        x = rng.normal(size=(3, 4)).astype(np.float64)
        e = rng.normal(size=(3, 4)).astype(np.float64)

        def loss(xv, ev):
            out = inter.forward(np.stack([xv, ev], axis=1).astype(np.float32))
            return float((out.astype(np.float64) ** 2).sum())

        out = inter.forward(np.stack([x, e], axis=1).astype(np.float32))
        grad_dense, grad_embs = inter.backward((2 * out).astype(np.float32))
        eps = 1e-4
        for arr, grad, which in ((x, grad_dense, "x"), (e, grad_embs[0], "e")):
            idx = (1, 2)
            old = arr[idx]
            arr[idx] = old + eps
            up = loss(x, e)
            arr[idx] = old - eps
            down = loss(x, e)
            arr[idx] = old
            numeric = (up - down) / (2 * eps)
            assert numeric == pytest.approx(float(grad[idx]), rel=0.02, abs=1e-3), which


class TestSequenceAttention:
    def test_output_is_convex_combination(self, rng):
        attn = SequenceAttention(dim=4, rng=rng)
        seq = rng.normal(size=(2, 5, 4)).astype(np.float32)
        out = attn.forward(seq)
        assert out.shape == (2, 4)
        # Each output lies within the min/max envelope of the sequence.
        assert np.all(out <= seq.max(axis=1) + 1e-5)
        assert np.all(out >= seq.min(axis=1) - 1e-5)

    def test_uniform_sequence_passthrough(self, rng):
        attn = SequenceAttention(dim=3, rng=rng)
        seq = np.ones((1, 7, 3), dtype=np.float32) * 2.5
        np.testing.assert_allclose(attn.forward(seq), 2.5, rtol=1e-6)

    def test_shape_validation(self, rng):
        attn = SequenceAttention(dim=4, rng=rng)
        with pytest.raises(ValueError):
            attn.forward(np.zeros((2, 5, 3)))
        with pytest.raises(ValueError):
            attn.forward(np.zeros((2, 5)))

    def test_backward_before_forward(self, rng):
        with pytest.raises(RuntimeError):
            SequenceAttention(4, rng).backward(np.zeros((1, 4)))

    def test_numeric_gradient_sequence(self, rng):
        attn = SequenceAttention(dim=3, rng=rng)
        seq = rng.normal(size=(2, 4, 3)).astype(np.float64)

        def loss(s):
            return float((attn.forward(s.astype(np.float32)).astype(np.float64) ** 2).sum())

        out = attn.forward(seq.astype(np.float32))
        grad_seq = attn.backward((2 * out).astype(np.float32))
        attn.query.zero_grad()
        eps = 1e-4
        idx = (1, 2, 0)
        old = seq[idx]
        seq[idx] = old + eps
        up = loss(seq)
        seq[idx] = old - eps
        down = loss(seq)
        seq[idx] = old
        assert (up - down) / (2 * eps) == pytest.approx(float(grad_seq[idx]), rel=0.03, abs=1e-3)

    def test_numeric_gradient_query(self, rng):
        attn = SequenceAttention(dim=3, rng=rng)
        seq = rng.normal(size=(2, 4, 3)).astype(np.float32)

        def loss():
            return float((attn.forward(seq).astype(np.float64) ** 2).sum())

        out = attn.forward(seq)
        attn.backward((2 * out).astype(np.float32))
        grad_q = attn.query.densified_grad().copy()
        attn.query.zero_grad()
        eps = 1e-4
        old = attn.query.value[1]
        attn.query.value[1] = old + eps
        up = loss()
        attn.query.value[1] = old - eps
        down = loss()
        attn.query.value[1] = old
        assert (up - down) / (2 * eps) == pytest.approx(float(grad_q[1]), rel=0.03, abs=1e-3)

    def test_rejects_bad_dim(self, rng):
        with pytest.raises(ValueError):
            SequenceAttention(0, rng)
