"""Unit tests for the nn substrate: parameters, linear, activations, MLP."""

import numpy as np
import pytest

from repro.nn import MLP, Linear, Parameter, ReLU, Sigmoid, SparseGrad
from repro.nn.activations import sigmoid
from repro.nn.initializers import normal_init, xavier_uniform
from repro.nn.mlp import parse_layer_spec


class TestParameter:
    def test_dense_accumulation(self):
        p = Parameter("w", np.zeros((2, 3), dtype=np.float32))
        p.accumulate_dense(np.ones((2, 3), dtype=np.float32))
        p.accumulate_dense(np.ones((2, 3), dtype=np.float32))
        np.testing.assert_allclose(p.grad, 2.0)

    def test_dense_shape_mismatch(self):
        p = Parameter("w", np.zeros((2, 3)))
        with pytest.raises(ValueError):
            p.accumulate_dense(np.zeros((3, 2)))

    def test_sparse_accumulation_and_densify(self):
        p = Parameter("e", np.zeros((5, 2), dtype=np.float32))
        p.accumulate_sparse(np.array([1, 1, 3]), np.ones((3, 2), dtype=np.float32))
        dense = p.densified_grad()
        np.testing.assert_allclose(dense[1], 2.0)
        np.testing.assert_allclose(dense[3], 1.0)
        np.testing.assert_allclose(dense[0], 0.0)

    def test_sparse_requires_2d_param(self):
        p = Parameter("b", np.zeros(4))
        with pytest.raises(ValueError):
            p.accumulate_sparse(np.array([0]), np.zeros((1, 1)))

    def test_sparse_dim_mismatch(self):
        p = Parameter("e", np.zeros((5, 2)))
        with pytest.raises(ValueError):
            p.accumulate_sparse(np.array([0]), np.zeros((1, 3)))

    def test_zero_grad_clears_everything(self):
        p = Parameter("e", np.zeros((5, 2)))
        p.accumulate_sparse(np.array([0]), np.ones((1, 2), dtype=np.float32))
        p.zero_grad()
        assert p.grad is None
        assert p.sparse_grads == []
        assert p.coalesced_sparse_grad() is None

    def test_coalesced_sparse_grad_merges_records(self):
        p = Parameter("e", np.zeros((10, 2)))
        p.accumulate_sparse(np.array([7, 2, 7]), np.ones((3, 2), dtype=np.float32))
        p.accumulate_sparse(np.array([2, 9]), np.ones((2, 2), dtype=np.float32))
        merged = p.coalesced_sparse_grad()
        np.testing.assert_array_equal(merged.ids, [2, 7, 9])
        np.testing.assert_array_equal(merged.values, [[2, 2], [2, 2], [1, 1]])

    def test_nbytes(self):
        p = Parameter("e", np.zeros((10, 4), dtype=np.float32))
        assert p.nbytes == 160


class TestSparseGrad:
    def test_coalesced_sums_duplicates(self):
        record = SparseGrad(
            ids=np.array([3, 1, 3]),
            values=np.array([[1.0, 0.0], [0.5, 0.5], [2.0, 1.0]], dtype=np.float32),
        )
        merged = record.coalesced()
        np.testing.assert_array_equal(merged.ids, [1, 3])
        np.testing.assert_allclose(merged.values, [[0.5, 0.5], [3.0, 1.0]])

    def test_validates_shapes(self):
        with pytest.raises(ValueError):
            SparseGrad(ids=np.zeros((2, 2), dtype=np.int64), values=np.zeros((2, 2)))
        with pytest.raises(ValueError):
            SparseGrad(ids=np.zeros(3, dtype=np.int64), values=np.zeros((2, 2)))


class TestInitializers:
    def test_xavier_bounds(self, rng):
        w = xavier_uniform(100, 50, rng)
        limit = np.sqrt(6.0 / 150)
        assert w.shape == (100, 50)
        assert np.abs(w).max() <= limit

    def test_normal_std(self, rng):
        w = normal_init((10_000,), 0.5, rng)
        assert w.std() == pytest.approx(0.5, rel=0.05)

    def test_normal_rejects_negative_std(self, rng):
        with pytest.raises(ValueError):
            normal_init((2,), -1.0, rng)


class TestLinear:
    def test_forward_matches_manual(self, rng):
        layer = Linear(3, 2, rng)
        x = rng.normal(size=(5, 3)).astype(np.float32)
        np.testing.assert_allclose(
            layer.forward(x), x @ layer.weight.value.T + layer.bias.value, rtol=1e-6
        )

    def test_backward_gradients(self, rng):
        layer = Linear(3, 2, rng)
        x = rng.normal(size=(4, 3)).astype(np.float32)
        layer.forward(x)
        g = rng.normal(size=(4, 2)).astype(np.float32)
        grad_in = layer.backward(g)
        np.testing.assert_allclose(grad_in, g @ layer.weight.value, rtol=1e-6)
        np.testing.assert_allclose(layer.weight.grad, g.T @ x, rtol=1e-5)
        np.testing.assert_allclose(layer.bias.grad, g.sum(axis=0), rtol=1e-5)

    def test_backward_without_forward_raises(self, rng):
        with pytest.raises(RuntimeError):
            Linear(2, 2, rng).backward(np.zeros((1, 2)))

    def test_input_width_checked(self, rng):
        layer = Linear(3, 2, rng)
        with pytest.raises(ValueError):
            layer.forward(np.zeros((1, 4)))

    def test_flops_per_sample(self, rng):
        assert Linear(10, 20, rng).flops_per_sample() == 2 * 10 * 20


class TestActivations:
    def test_sigmoid_stability(self):
        x = np.array([-1e4, -1.0, 0.0, 1.0, 1e4])
        y = sigmoid(x)
        assert np.all(np.isfinite(y))
        assert y[0] == pytest.approx(0.0, abs=1e-12)
        assert y[2] == pytest.approx(0.5)
        assert y[-1] == pytest.approx(1.0)

    def test_relu_forward_backward(self):
        relu = ReLU()
        x = np.array([[-1.0, 2.0], [3.0, -4.0]], dtype=np.float32)
        out = relu.forward(x)
        np.testing.assert_allclose(out, [[0.0, 2.0], [3.0, 0.0]])
        grad = relu.backward(np.ones_like(x))
        np.testing.assert_allclose(grad, [[0.0, 1.0], [1.0, 0.0]])

    def test_sigmoid_module_backward(self):
        sig = Sigmoid()
        x = np.array([[0.0]], dtype=np.float32)
        y = sig.forward(x)
        grad = sig.backward(np.ones_like(x))
        np.testing.assert_allclose(grad, y * (1 - y))

    def test_backward_before_forward_raises(self):
        with pytest.raises(RuntimeError):
            ReLU().backward(np.zeros((1, 1)))
        with pytest.raises(RuntimeError):
            Sigmoid().backward(np.zeros((1, 1)))


class TestParseLayerSpec:
    def test_parses(self):
        assert parse_layer_spec("13-512-256-64-16") == (13, 512, 256, 64, 16)

    @pytest.mark.parametrize("spec", ["", "12", "a-b", "4--2", "0-3"])
    def test_rejects_malformed(self, spec):
        with pytest.raises(ValueError):
            parse_layer_spec(spec)


class TestMLP:
    def test_shapes_flow(self, rng):
        mlp = MLP("4-8-2", rng)
        out = mlp.forward(np.zeros((7, 4), dtype=np.float32))
        assert out.shape == (7, 2)
        assert mlp.in_features == 4
        assert mlp.out_features == 2

    def test_final_activation_variants(self, rng):
        x = np.full((3, 4), -10.0, dtype=np.float32)
        relu_out = MLP("4-2", rng, final_activation="relu").forward(x)
        assert np.all(relu_out >= 0)
        sig_out = MLP("4-2", rng, final_activation="sigmoid").forward(x)
        assert np.all((sig_out > 0) & (sig_out < 1))
        raw_out = MLP("4-2", rng, final_activation=None).forward(x)
        assert raw_out.min() < 0 or raw_out.max() > 0  # unconstrained

    def test_unknown_activation_rejected(self, rng):
        with pytest.raises(ValueError):
            MLP("4-2", rng, final_activation="tanh")

    def test_parameter_count(self, rng):
        mlp = MLP("4-8-2", rng)
        assert mlp.num_parameters() == (4 * 8 + 8) + (8 * 2 + 2)

    def test_flops(self, rng):
        assert MLP("4-8-2", rng).flops_per_sample() == 2 * (4 * 8 + 8 * 2)

    def test_numeric_gradient(self, rng):
        mlp = MLP("3-5-1", rng, final_activation=None)
        x = rng.normal(size=(6, 3)).astype(np.float32)

        def loss():
            return float((mlp.forward(x) ** 2).sum())

        out = mlp.forward(x)
        mlp.backward((2.0 * out).astype(np.float32))
        for p in mlp.parameters():
            grad = p.densified_grad().copy()
            idx = np.unravel_index(np.argmax(np.abs(grad)), grad.shape)
            eps = 1e-3
            old = p.value[idx]
            p.value[idx] = old + eps
            up = loss()
            p.value[idx] = old - eps
            down = loss()
            p.value[idx] = old
            numeric = (up - down) / (2 * eps)
            assert numeric == pytest.approx(grad[idx], rel=0.05, abs=1e-3)
