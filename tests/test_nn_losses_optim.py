"""Unit tests for BCEWithLogits and the optimizers."""

import numpy as np
import pytest

from repro.nn import BCEWithLogits, Parameter, SGD
from repro.nn.activations import sigmoid


class TestBCEWithLogits:
    def test_matches_reference(self):
        loss_fn = BCEWithLogits()
        logits = np.array([0.5, -1.0, 2.0])
        labels = np.array([1.0, 0.0, 1.0])
        probs = sigmoid(logits)
        reference = -(labels * np.log(probs) + (1 - labels) * np.log(1 - probs)).mean()
        assert loss_fn.forward(logits, labels) == pytest.approx(reference, rel=1e-8)

    def test_extreme_logits_finite(self):
        loss_fn = BCEWithLogits()
        loss = loss_fn.forward(np.array([1e4, -1e4]), np.array([0.0, 1.0]))
        assert np.isfinite(loss)
        assert loss > 100  # confidently wrong is very expensive

    def test_gradient_formula(self):
        loss_fn = BCEWithLogits()
        logits = np.array([0.3, -0.7])
        labels = np.array([1.0, 0.0])
        loss_fn.forward(logits, labels)
        grad = loss_fn.backward()
        expected = (sigmoid(logits) - labels) / 2
        np.testing.assert_allclose(grad, expected, rtol=1e-6)

    def test_numeric_gradient(self):
        loss_fn = BCEWithLogits()
        logits = np.array([0.2, -0.4, 1.3])
        labels = np.array([1.0, 1.0, 0.0])
        loss_fn.forward(logits, labels)
        grad = loss_fn.backward()
        eps = 1e-5
        for i in range(3):
            up = logits.copy()
            up[i] += eps
            down = logits.copy()
            down[i] -= eps
            numeric = (
                BCEWithLogits().forward(up, labels) - BCEWithLogits().forward(down, labels)
            ) / (2 * eps)
            assert numeric == pytest.approx(grad[i], rel=1e-3)

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            BCEWithLogits().forward(np.zeros(3), np.zeros(2))

    def test_backward_before_forward(self):
        with pytest.raises(RuntimeError):
            BCEWithLogits().backward()

    def test_predictions(self):
        preds = BCEWithLogits.predictions(np.array([-1.0, 0.0, 1.0]))
        np.testing.assert_array_equal(preds, [0.0, 1.0, 1.0])


class TestSGD:
    def test_dense_step(self):
        p = Parameter("w", np.array([[1.0, 2.0]], dtype=np.float32))
        p.accumulate_dense(np.array([[1.0, -1.0]], dtype=np.float32))
        SGD([p], lr=0.5).step()
        np.testing.assert_allclose(p.value, [[0.5, 2.5]])

    def test_sparse_step_coalesces(self):
        p = Parameter("e", np.ones((4, 2), dtype=np.float32))
        p.accumulate_sparse(np.array([1, 1]), np.ones((2, 2), dtype=np.float32))
        SGD([p], lr=0.1).step()
        np.testing.assert_allclose(p.value[1], 0.8)  # two grads summed once
        np.testing.assert_allclose(p.value[[0, 2, 3]], 1.0)  # no other row moves

    def test_sparse_matches_dense_equivalent(self):
        dense = Parameter("d", np.ones((5, 2), dtype=np.float32))
        sparse = Parameter("s", np.ones((5, 2), dtype=np.float32))
        g = np.zeros((5, 2), dtype=np.float32)
        g[2] = 3.0
        dense.accumulate_dense(g)
        sparse.accumulate_sparse(np.array([2]), np.full((1, 2), 3.0, dtype=np.float32))
        SGD([dense], lr=0.2).step()
        SGD([sparse], lr=0.2).step()
        np.testing.assert_allclose(dense.value, sparse.value)

    def test_step_clears_grads(self):
        p = Parameter("w", np.zeros((2, 2), dtype=np.float32))
        p.accumulate_dense(np.ones((2, 2), dtype=np.float32))
        SGD([p], lr=0.1).step()
        assert p.grad is None and p.sparse_grads == []

    def test_rejects_bad_lr(self):
        with pytest.raises(ValueError):
            SGD([], lr=0.0)
