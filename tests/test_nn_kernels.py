"""Kernel equivalence and aliasing suite for ``repro.nn``.

The formulas the kernels had before they were rewritten for speed (PR 12)
live on here as the references.  Where the rewrite left the arithmetic
alone the comparison is bit for bit (``-0.0``, NaN payloads and all);
``SparseGrad.coalesced`` sums in a different grouping, so it is held to
``rtol=1e-6`` on values and exact equality on ids.

The aliasing tests pin the ownership rules of DESIGN.md ("nn kernels:
buffer ownership and aliasing"): an in-place kernel only ever writes a
buffer its own layer allocated, ``Parameter.grad`` is always an array
the parameter owns, and a table on a shared store is written through the
store, never rebound.

``TestStoreEquivalence`` keeps DLRM's embedding layer as it was before
its tables shared a store (a bag call per table, ``np.stack``, ``A @ A.T``,
one record per table, coalesced and applied per table) and holds the
table-batched path to it bit for bit.
"""

from __future__ import annotations

import copy
import gc
import weakref

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.classifier import HotEmbeddingBagSpec
from repro.core.replicator import EmbeddingReplicator
from repro.data import SyntheticClickLog, SyntheticConfig
from repro.data.loader import MiniBatch, batch_from_log
from repro.data.schema import DatasetSchema, EmbeddingTableSpec
from repro.models import DLRM, DLRMConfig
from repro.nn import (
    MLP,
    SGD,
    BCEWithLogits,
    DotInteraction,
    EmbeddingBag,
    EmbeddingTable,
    Linear,
    Parameter,
    ReLU,
)
from repro.nn.activations import sigmoid
from repro.nn.embedding import embedding_store
from repro.nn.parameter import SparseGrad, sparse_stores
from repro.resilience.checkpoint import (
    TrainerCheckpoint,
    capture_training_state,
    load_checkpoint,
    restore_training_state,
    save_checkpoint,
)
from repro.train import evaluate_model

SPECIALS = (np.nan, np.inf, -np.inf, -0.0, 0.0)
FLOATS = (np.float16, np.float32, np.float64)


# ----------------------------------------------------------------------
# References: the kernels as they were at the parent commit
# ----------------------------------------------------------------------


def relu_forward_ref(x):
    mask = x > 0
    return np.where(mask, x, 0.0).astype(x.dtype), mask


def relu_backward_ref(mask, grad_out):
    return np.where(mask, grad_out, 0.0).astype(grad_out.dtype)


def linear_forward_ref(x, weight, bias):
    return x @ weight.T + bias


def sgd_step_ref(value, grad, lr):
    out = value.copy()
    out -= lr * grad
    return out


def coalesced_ref(ids, values):
    unique_ids, inverse = np.unique(ids, return_inverse=True)
    summed = np.zeros((unique_ids.shape[0], values.shape[1]), dtype=values.dtype)
    np.add.at(summed, inverse, values)
    return unique_ids, summed


def coalesced_parent(ids, values):
    """`SparseGrad.coalesced` as PRs 12-15 had it: int64 sort, `np.unique`."""
    order = np.argsort(ids, kind="stable")
    unique_ids, starts = np.unique(ids[order], return_index=True)
    return unique_ids, np.add.reduceat(values[order], starts, axis=0)


def sigmoid_ref(x):
    out = np.empty_like(x, dtype=np.float64)
    positive = x >= 0
    out[positive] = 1.0 / (1.0 + np.exp(-x[positive]))
    exp_x = np.exp(x[~positive])
    out[~positive] = exp_x / (1.0 + exp_x)
    return out.astype(x.dtype) if x.dtype == np.float32 else out


def interaction_forward_ref(dense_vec, embedding_vecs):
    stacked = np.stack([dense_vec, *embedding_vecs], axis=1)
    gram = stacked @ stacked.transpose(0, 2, 1)
    tri_rows, tri_cols = np.tril_indices(stacked.shape[1], k=-1)
    dots = gram[:, tri_rows, tri_cols]
    return np.concatenate([dense_vec, dots], axis=1).astype(np.float32), stacked


def interaction_backward_ref(stacked, grad_out):
    batch, num_features, dim = stacked.shape
    tri_rows, tri_cols = np.tril_indices(num_features, k=-1)
    grad_gram = np.zeros((batch, num_features, num_features), dtype=grad_out.dtype)
    grad_gram[:, tri_rows, tri_cols] = grad_out[:, dim:]
    grad_gram[:, tri_cols, tri_rows] = grad_out[:, dim:]
    grad_stacked = grad_gram @ stacked
    grad_dense = grad_stacked[:, 0, :] + grad_out[:, :dim]
    return grad_dense.astype(np.float32), [
        grad_stacked[:, i, :].astype(np.float32) for i in range(1, num_features)
    ]


def pooled_forward_ref(weight, ids, mode):
    gathered = weight[ids]
    return gathered.mean(axis=1) if mode == "mean" else gathered.sum(axis=1)


def pooled_backward_ref(ids, grad_out, mode):
    multiplicity = ids.shape[1]
    scale = 1.0 / multiplicity if mode == "mean" else 1.0
    return ids.ravel(), np.repeat(grad_out * scale, multiplicity, axis=0).astype(np.float32)


def dlrm_step_parent(model, batch, grad_logits):
    """DLRM forward + backward with a bag call per table (the parent's body):
    returns the logits and the interaction input."""
    names = model.schema.table_names
    dense_vec = model.bottom_mlp.forward(batch.dense)
    bags = [model.get_bag(name) for name in names]
    pooled = [bag.forward(batch.sparse[name]) for bag, name in zip(bags, names)]
    interacted, stacked = interaction_forward_ref(dense_vec, pooled)
    logits = model.top_mlp.forward(interacted)[:, 0]
    grad_top = model.top_mlp.backward(grad_logits[:, None])
    grad_dense, grad_embeddings = interaction_backward_ref(stacked, grad_top)
    for bag, grad in zip(bags, grad_embeddings):
        bag.backward(grad)
    model.bottom_mlp.backward(grad_dense)
    return logits, stacked


def sgd_step_parent(params, lr):
    """`SGD.step` with one int64-sorted coalesce and update per parameter."""
    for param in params:
        if param.grad is not None:
            param.grad *= lr
            param.value -= param.grad
        if param.sparse_grads:
            ids, values = coalesced_parent(
                np.concatenate([r.ids for r in param.sparse_grads]),
                np.concatenate([r.values for r in param.sparse_grads]),
            )
            values *= lr
            param.value[ids] -= values
        param.zero_grad()


def evaluate_ref(model, log, batch_size):
    total_loss = total_correct = 0.0
    for start in range(0, len(log), batch_size):
        batch = batch_from_log(log, np.arange(start, min(start + batch_size, len(log))))
        logits = np.asarray(model.forward(batch), dtype=np.float64)
        labels = batch.labels.astype(np.float64)
        total_loss += float(
            (np.maximum(logits, 0) - logits * labels + np.log1p(np.exp(-np.abs(logits)))).sum()
        )
        total_correct += float(((sigmoid_ref(logits) >= 0.5) == labels.astype(bool)).sum())
    return total_loss / len(log), total_correct / len(log)


# ----------------------------------------------------------------------
# Helpers
# ----------------------------------------------------------------------


def assert_bit_equal(actual, expected):
    assert actual.dtype == expected.dtype
    assert actual.shape == expected.shape
    bits = f"u{actual.dtype.itemsize}"
    np.testing.assert_array_equal(
        np.ascontiguousarray(actual).view(bits), np.ascontiguousarray(expected).view(bits)
    )


def draw_array(seed, shape, dtype, specials=True):
    """Seeded normal values with NaN, +-inf and +-0 sprinkled in."""
    rng = np.random.default_rng(seed)
    values = rng.standard_normal(shape).astype(dtype)
    if specials and values.size:
        positions = rng.integers(0, values.size, size=max(1, values.size // 6))
        values.ravel()[positions] = rng.choice(SPECIALS, size=positions.size).astype(dtype)
    return values


shapes_2d = st.tuples(st.integers(1, 17), st.integers(1, 33))
seeds = st.integers(0, 2**16)


# ----------------------------------------------------------------------
# Equivalence with the parent formulas
# ----------------------------------------------------------------------


class TestReLUEquivalence:
    @given(shape=shapes_2d, dtype=st.sampled_from(FLOATS), seed=seeds)
    @settings(max_examples=80, deadline=None)
    def test_forward_and_backward_bit_equal(self, shape, dtype, seed):
        x = draw_array(seed, shape, dtype)
        grad_out = draw_array(seed + 1, shape, dtype)
        expected, mask = relu_forward_ref(x)
        relu = ReLU()
        assert_bit_equal(relu.forward(x), expected)
        assert_bit_equal(relu.backward(grad_out), relu_backward_ref(mask, grad_out))

    @given(shape=shapes_2d, seed=seeds)
    @settings(max_examples=40, deadline=None)
    def test_in_place_forms_equal_the_copying_forms(self, shape, seed):
        x = draw_array(seed, shape, np.float32)
        grad_out = draw_array(seed + 1, shape, np.float32)
        expected, mask = relu_forward_ref(x)
        relu = ReLU()
        buffer = x.copy()
        assert relu.forward(buffer, out=buffer) is buffer
        assert_bit_equal(buffer, expected)
        buffer = grad_out.copy()
        assert relu.backward(buffer, out=buffer) is buffer
        assert_bit_equal(buffer, relu_backward_ref(mask, grad_out))

    def test_non_contiguous_input(self):
        x = draw_array(3, (9, 14), np.float32)[:, ::2]
        assert_bit_equal(ReLU().forward(x), relu_forward_ref(x)[0])

    def test_nan_maps_to_zero(self):
        # Load-bearing for the numeric guards: see DESIGN.md.
        out = ReLU().forward(np.array([[np.nan, -np.inf, np.inf, -0.0]], dtype=np.float32))
        np.testing.assert_array_equal(out, [[0.0, 0.0, np.inf, 0.0]])
        assert not np.signbit(out).any()


class TestLinearEquivalence:
    @given(
        batch=st.integers(1, 17),
        fan_in=st.integers(1, 24),
        fan_out=st.integers(1, 24),
        dtype=st.sampled_from([np.float32, np.float64]),
        seed=seeds,
    )
    @settings(max_examples=60, deadline=None)
    def test_forward_bit_equal(self, batch, fan_in, fan_out, dtype, seed):
        layer = Linear(fan_in, fan_out, np.random.default_rng(seed))
        layer.bias.value[...] = draw_array(seed + 1, fan_out, np.float32, specials=False)
        x = draw_array(seed + 2, (batch, fan_in), dtype, specials=False)
        assert_bit_equal(
            layer.forward(x), linear_forward_ref(x, layer.weight.value, layer.bias.value)
        )

    @given(batch=st.integers(1, 17), fan_in=st.integers(1, 24), fan_out=st.integers(1, 24), seed=seeds)
    @settings(max_examples=40, deadline=None)
    def test_backward_equals_zero_fill_plus_add(self, batch, fan_in, fan_out, seed):
        layer = Linear(fan_in, fan_out, np.random.default_rng(seed))
        x = draw_array(seed + 1, (batch, fan_in), np.float32, specials=False)
        grad_out = draw_array(seed + 2, (batch, fan_out), np.float32, specials=False)
        layer.forward(x)
        grad_in = layer.backward(grad_out)
        # 0 + g == g everywhere but the sign of a zero, which == ignores.
        np.testing.assert_array_equal(layer.weight.grad, np.zeros_like(layer.weight.value) + grad_out.T @ x)
        np.testing.assert_array_equal(layer.bias.grad, grad_out.sum(axis=0))
        assert_bit_equal(grad_in, grad_out @ layer.weight.value)
        # A second accumulation in the same step adds to the first.
        layer.forward(x)
        layer.backward(grad_out)
        np.testing.assert_array_equal(layer.weight.grad, grad_out.T @ x + grad_out.T @ x)


class TestMLPEquivalence:
    @given(batch=st.integers(1, 9), seed=seeds, final=st.sampled_from(["relu", None, "sigmoid"]))
    @settings(max_examples=40, deadline=None)
    def test_fused_stack_equals_layer_by_layer(self, batch, seed, final):
        sizes = (5, 7, 4, 3)
        fused = MLP(sizes, np.random.default_rng(seed), final_activation=final)
        x = draw_array(seed + 1, (batch, sizes[0]), np.float32, specials=False)
        grad_out = draw_array(seed + 2, (batch, sizes[-1]), np.float32, specials=False)

        out = fused.forward(x)
        # predict is the same stack, bit for bit, and keeps nothing backward reads.
        assert_bit_equal(fused.predict(x), out)
        grad_in = fused.backward(grad_out)
        fused_grads = [p.grad.copy() for p in fused.parameters()]
        for p in fused.parameters():
            p.zero_grad()

        # The same layers, driven one at a time through their copying forms.
        activation, grad = x, grad_out
        for layer in fused.layers:
            activation = layer.forward(activation)
        for layer in reversed(fused.layers):
            grad = layer.backward(grad)
        assert_bit_equal(out, activation)
        assert_bit_equal(grad_in, grad)
        for mine, param in zip(fused_grads, fused.parameters()):
            assert_bit_equal(mine, param.grad)


    @given(batch=st.integers(1, 9), seed=seeds, final=st.sampled_from(["relu", None]))
    @settings(max_examples=30, deadline=None)
    def test_no_input_gradient_leaves_the_parameter_gradients_alone(self, batch, seed, final):
        """``input_grad=False`` (a bottom MLP) returns None and skips only
        the first layer's input GEMM; asking still gets the gradient."""
        for sizes in ((5, 7, 4, 3), (5, 1), (5, 6, 1)):
            mlp = MLP(sizes, np.random.default_rng(seed), final_activation=final)
            x = draw_array(seed + 1, (batch, sizes[0]), np.float32, specials=False)
            grad_out = draw_array(seed + 2, (batch, sizes[-1]), np.float32, specials=False)
            mlp.forward(x)
            grad_in = mlp.backward(grad_out)
            grads = [p.grad.copy() for p in mlp.parameters()]
            for p in mlp.parameters():
                p.zero_grad()
            mlp.forward(x)
            assert mlp.backward(grad_out, input_grad=False) is None
            for mine, param in zip(grads, mlp.parameters()):
                assert_bit_equal(param.grad, mine)
            assert grad_in.shape == x.shape


class TestSGDEquivalence:
    @given(shape=shapes_2d, lr=st.floats(1e-4, 2.0), seed=seeds)
    @settings(max_examples=60, deadline=None)
    def test_dense_step_bit_equal(self, shape, lr, seed):
        value = draw_array(seed, shape, np.float32, specials=False)
        grad = draw_array(seed + 1, shape, np.float32)
        param = Parameter("p", value.copy())
        param.accumulate_dense(grad)
        SGD([param], lr=lr).step()
        assert_bit_equal(param.value, sgd_step_ref(value, grad, lr))
        assert param.grad is None

    @given(
        records=st.lists(
            st.lists(st.integers(0, 29), min_size=1, max_size=40), min_size=1, max_size=3
        ),
        dim=st.integers(1, 8),
        seed=seeds,
    )
    @settings(max_examples=60, deadline=None)
    def test_sparse_step_applies_the_total_gradient(self, records, dim, seed):
        value = draw_array(seed, (30, dim), np.float32, specials=False)
        param = Parameter("t", value.copy())
        dense = np.zeros_like(value, dtype=np.float64)
        for offset, ids in enumerate(records):
            grads = draw_array(seed + 1 + offset, (len(ids), dim), np.float32, specials=False)
            param.accumulate_sparse(np.array(ids), grads)
            np.add.at(dense, np.array(ids), grads)
        merged = param.coalesced_sparse_grad()
        SGD([param], lr=0.1).step()
        np.testing.assert_allclose(param.value, value - 0.1 * dense, rtol=1e-5, atol=1e-6)
        # One coalesced update: each touched row moves once, by its summed
        # gradient, and no other row moves.
        np.testing.assert_array_equal(merged.ids, sorted({i for ids in records for i in ids}))
        update = merged.values.copy()
        update *= 0.1
        expected = value.copy()
        expected[merged.ids] -= update
        assert_bit_equal(param.value, expected)
        assert param.sparse_grads == []


class TestCoalescedEquivalence:
    @given(
        ids=st.lists(st.integers(0, 40), min_size=0, max_size=120),
        dim=st.integers(1, 16),
        dtype=st.sampled_from([np.float32, np.float64]),
        seed=seeds,
    )
    @settings(max_examples=100, deadline=None)
    def test_matches_unique_plus_add_at(self, ids, dim, dtype, seed):
        ids = np.array(ids, dtype=np.int64)
        values = draw_array(seed, (ids.shape[0], dim), dtype, specials=False)
        merged = SparseGrad(ids=ids, values=values).coalesced()
        expected_ids, expected_values = coalesced_ref(ids, values)
        assert merged.ids.dtype == np.int64
        np.testing.assert_array_equal(merged.ids, expected_ids)
        assert merged.values.dtype == values.dtype
        np.testing.assert_allclose(merged.values, expected_values, rtol=1e-6, atol=1e-6)

    def test_heavy_duplication(self):
        # A hot row hit by most of a batch: long segments.
        rng = np.random.default_rng(0)
        ids = rng.zipf(1.3, size=4096).clip(max=50).astype(np.int64)
        values = rng.standard_normal((4096, 16)).astype(np.float32)
        merged = SparseGrad(ids=ids, values=values).coalesced()
        expected_ids, expected_values = coalesced_ref(ids, values)
        np.testing.assert_array_equal(merged.ids, expected_ids)
        np.testing.assert_allclose(merged.values, expected_values, rtol=1e-4, atol=1e-4)

    @given(
        num_rows=st.sampled_from([1, 65_535, 65_536, 65_537, 10**6]),
        sizes=st.lists(st.integers(0, 90), min_size=1, max_size=4),
        distinct=st.one_of(st.none(), st.integers(1, 6)),
        dim=st.integers(1, 4),
        seed=seeds,
    )
    @settings(max_examples=120, deadline=None)
    def test_bit_equal_to_the_int64_sort_at_every_key_width(
        self, num_rows, sizes, distinct, dim, seed
    ):
        """A parameter's pending records coalesce to the parent's ids and
        sums bit for bit, whether its row count selects uint16 keys or not."""
        rng = np.random.default_rng(seed)
        if distinct is None:  # duplicate-free: each row at most once in the step
            pool = rng.permutation(np.unique(rng.integers(0, num_rows, size=sum(sizes))))
            sizes = np.diff(np.linspace(0, pool.size, len(sizes) + 1).astype(int)).tolist()
        else:  # duplicate-heavy, and always the table's first and last row
            rows = np.append(rng.integers(0, num_rows, size=distinct), [0, num_rows - 1])
            pool = rng.choice(rows, size=sum(sizes))
        param = Parameter("table", np.zeros((num_rows, dim), dtype=np.float32))
        records, start = [], 0
        for size in sizes:
            ids = pool[start : start + size].astype(np.int64)
            values = draw_array(seed + start, (size, dim), np.float32, specials=False)
            param.accumulate_sparse(ids, values)
            records.append((ids, values))
            start += size
        merged = param.coalesced_sparse_grad()
        expected_ids, expected_values = coalesced_parent(
            np.concatenate([ids for ids, _ in records]),
            np.concatenate([values for _, values in records]),
        )
        assert_bit_equal(merged.ids, expected_ids)
        assert_bit_equal(merged.values, expected_values)

    @pytest.mark.parametrize("num_rows", [2**16 + 1, 2**32, 2**32 + 1, None])
    def test_every_key_width_sorts_like_the_int64_merge_sort(self, num_rows):
        rng = np.random.default_rng(4)
        top = 2**32 if num_rows is None or num_rows > 2**32 else num_rows
        ids = np.append(rng.integers(0, top, size=40), [0, top - 1, 65_535, 65_536])
        ids = rng.choice(ids, size=500)  # duplicates across both 16-bit halves
        values = draw_array(5, (500, 3), np.float32, specials=False)
        merged = SparseGrad(ids=ids, values=values).coalesced(num_rows=num_rows)
        expected_ids, expected_values = coalesced_parent(ids, values)
        assert_bit_equal(merged.ids, expected_ids)
        assert_bit_equal(merged.values, expected_values)

    def test_nothing_pending_and_empty_records(self):
        param = Parameter("table", np.zeros((5, 3), dtype=np.float32))
        assert param.coalesced_sparse_grad() is None
        param.accumulate_sparse(np.empty(0, dtype=np.int64), np.empty((0, 3), dtype=np.float32))
        merged = param.coalesced_sparse_grad()
        assert merged.ids.shape == (0,) and merged.ids.dtype == np.int64
        assert merged.values.shape == (0, 3) and merged.values.dtype == np.float32

    def test_an_id_outside_the_table_is_not_merged_with_the_row_it_aliases(self):
        # 65 536 + 3 and 3 share a uint16 key; the bad id must come out
        # unmerged so the optimizer's index check still sees it.
        ids = np.array([3, 65_539, 3], dtype=np.int64)
        values = np.ones((3, 2), dtype=np.float32)
        merged = SparseGrad(ids=ids, values=values).coalesced(num_rows=65_536)
        np.testing.assert_array_equal(merged.values[merged.ids == 65_539], [[1.0, 1.0]])
        param = Parameter("table", np.zeros((65_536, 2), dtype=np.float32))
        param.accumulate_sparse(ids, values)
        with pytest.raises(IndexError):
            SGD([param], lr=0.1).step()

    def test_inputs_untouched(self):
        ids = np.array([3, 1, 3, 0], dtype=np.int64)
        values = np.arange(8, dtype=np.float32).reshape(4, 2)
        ids_before, values_before = ids.copy(), values.copy()
        SparseGrad(ids=ids, values=values).coalesced()
        np.testing.assert_array_equal(ids, ids_before)
        np.testing.assert_array_equal(values, values_before)


class TestInteractionEquivalence:
    @given(
        batch=st.integers(1, 9),
        num_embeddings=st.integers(1, 6),
        dim=st.integers(1, 8),
        seed=seeds,
    )
    @settings(max_examples=60, deadline=None)
    def test_forward_and_backward_bit_equal(self, batch, num_embeddings, dim, seed):
        dense_vec = draw_array(seed, (batch, dim), np.float32, specials=False)
        embeddings = [
            draw_array(seed + 1 + i, (batch, dim), np.float32, specials=False)
            for i in range(num_embeddings)
        ]
        layer = DotInteraction()
        expected, stacked = interaction_forward_ref(dense_vec, embeddings)
        out = layer.forward(np.stack([dense_vec, *embeddings], axis=1))
        assert_bit_equal(out, expected)
        grad_out = draw_array(seed + 50, out.shape, np.float32, specials=False)
        grad_dense, grad_embeddings = layer.backward(grad_out)
        expected_dense, expected_embeddings = interaction_backward_ref(stacked, grad_out)
        assert_bit_equal(grad_dense, expected_dense)
        assert len(grad_embeddings) == num_embeddings
        for mine, theirs in zip(grad_embeddings, expected_embeddings):
            assert_bit_equal(mine, theirs)

    def test_feature_count_may_change_between_calls(self):
        layer = DotInteraction()
        for num_embeddings in (2, 4, 2):
            dense_vec = draw_array(num_embeddings, (3, 4), np.float32, specials=False)
            embeddings = [draw_array(9 + i, (3, 4), np.float32, specials=False) for i in range(num_embeddings)]
            expected, _stacked = interaction_forward_ref(dense_vec, embeddings)
            assert_bit_equal(layer.forward(np.stack([dense_vec, *embeddings], axis=1)), expected)
            layer.backward(np.ones_like(expected))


class TestPooledLookupEquivalence:
    @given(
        batch=st.integers(1, 12),
        multiplicity=st.integers(1, 4),
        mode=st.sampled_from(["mean", "sum"]),
        seed=seeds,
    )
    @settings(max_examples=60, deadline=None)
    def test_embedding_bag_bit_equal(self, batch, multiplicity, mode, seed):
        rng = np.random.default_rng(seed)
        table = EmbeddingTable("t", 20, 6, rng)
        bag = EmbeddingBag(table, mode=mode)
        ids = rng.integers(0, 20, size=(batch, multiplicity))
        grad_out = draw_array(seed + 1, (batch, 6), np.float32, specials=False)
        assert_bit_equal(bag.forward(ids), pooled_forward_ref(table.weight.value, ids, mode))
        bag.backward(grad_out)
        (record,) = table.weight.sparse_grads
        expected_ids, expected_values = pooled_backward_ref(ids, grad_out, mode)
        np.testing.assert_array_equal(record.ids, expected_ids)
        assert_bit_equal(record.values, expected_values)


def unique_params(models):
    params = {}
    for model in models:
        for param in model.parameters():
            params.setdefault(id(param), param)
    return list(params.values())


def store_models(seed, multiplicities, big, mode, replicas, hot):
    """``replicas`` DLRMs; ranks r > 0 read rank 0's master tables (cold
    mode), and each rank serves the tables flagged in ``hot`` from its own
    hot store.  Returns the models, one batch per rank and the schema."""
    rng = np.random.default_rng(seed)
    rows = rng.integers(2, 300, size=len(multiplicities))
    if big:  # the store crosses 65 536 rows: two 16-bit sort passes
        rows[rng.integers(len(rows))] = 65_600
    schema = DatasetSchema(
        name="store",
        num_dense=3,
        tables=tuple(
            EmbeddingTableSpec(f"t{i}", num_rows=int(n), dim=4, zipf_exponent=1.0, multiplicity=m)
            for i, (n, m) in enumerate(zip(rows, multiplicities))
        ),
        num_samples=64,
    )
    config = DLRMConfig("3-8-4", "8-1", pooling=mode, seed=seed)
    models = [DLRM(schema, config) for _ in range(replicas)]
    masters = models[0].tables
    hot_ids = {
        name: np.unique(rng.integers(0, masters[name].num_rows, size=3))
        for name, flag in zip(schema.table_names, hot) if flag
    }
    specs = {
        name: HotEmbeddingBagSpec(name, ids, masters[name].num_rows, 4, False)
        for name, ids in hot_ids.items()
    }
    replicator = EmbeddingReplicator(
        masters, specs, num_replicas=replicas, pooling=dict.fromkeys(masters, mode)
    )
    for rank, model in enumerate(models):
        hot_bags = replicator.bags_for_replica(rank)
        for name, table in masters.items():
            if name in hot_bags:
                model.set_bag(name, hot_bags[name])
            elif rank:
                model.set_bag(name, EmbeddingBag(table, mode=mode))
    batches = []
    for rank in range(replicas):
        size = int(rng.integers(1, 12))
        sparse = {}
        for spec in schema.tables:
            if spec.name in hot_ids:
                sparse[spec.name] = rng.choice(hot_ids[spec.name], size=(size, spec.multiplicity))
            else:
                # Few distinct rows: duplicates, so record order shows in the sums.
                high = min(spec.num_rows, 5)
                sparse[spec.name] = rng.integers(0, high, size=(size, spec.multiplicity))
        batches.append(
            MiniBatch(
                dense=draw_array(seed + rank, (size, 3), np.float32, specials=False),
                sparse=sparse,
                labels=np.zeros(size, dtype=np.float32),
                indices=np.arange(size, dtype=np.int64),
            )
        )
    return models, batches, schema


class TestStoreEquivalence:
    @given(
        multiplicities=st.lists(st.integers(1, 4), min_size=1, max_size=30),
        big=st.booleans(),
        mode=st.sampled_from(["mean", "sum"]),
        replicas=st.integers(1, 2),
        hot=st.lists(st.booleans(), min_size=30, max_size=30),
        seed=seeds,
    )
    @settings(max_examples=40, deadline=None)
    def test_one_store_equals_a_bag_per_table(self, multiplicities, big, mode, replicas, hot, seed):
        """Logits, interaction input, the coalesced update and the stepped
        parameters are the per-table path's, bit for bit."""
        models, batches, schema = store_models(seed, multiplicities, big, mode, replicas, hot)
        references = copy.deepcopy(models)  # a deep copy's tables are stores of one
        assert all(t.weight.store is t.weight for t in references[0].tables.values())
        store = models[0].tables["t0"].weight.store
        assert all(t.weight.store is store for t in models[0].tables.values())

        for rank, (model, reference, batch) in enumerate(zip(models, references, batches)):
            grad = draw_array(seed + 10 + rank, len(batch), np.float32, specials=False)
            seen = []
            forward = model.interaction.forward

            def spy(stacked, forward=forward, seen=seen):
                seen.append(stacked.copy())
                return forward(stacked)

            model.interaction.forward = spy
            logits = model.forward(batch)
            model.backward(grad)
            expected_logits, expected_stacked = dlrm_step_parent(reference, batch, grad)
            assert_bit_equal(logits, expected_logits)
            assert_bit_equal(seen[0], expected_stacked)

        # The applied update: the store's one record, split at its tables.
        merged = store.coalesced_sparse_grad()
        expected_ids, expected_values = [], []
        for table, ref in zip(models[0].tables.values(), references[0].tables.values()):
            if ref.weight.sparse_grads:
                ids, values = coalesced_parent(
                    np.concatenate([r.ids for r in ref.weight.sparse_grads]),
                    np.concatenate([r.values for r in ref.weight.sparse_grads]),
                )
                expected_ids.append(ids + table.weight.offset)
                expected_values.append(values)
        if expected_ids:
            assert_bit_equal(merged.ids, np.concatenate(expected_ids))
            assert_bit_equal(merged.values, np.concatenate(expected_values))
        else:
            assert merged is None

        before = store.value.copy()
        SGD(unique_params(models), lr=0.3).step()
        sgd_step_parent(unique_params(references), lr=0.3)
        for mine, theirs in zip(unique_params(models), unique_params(references)):
            assert_bit_equal(mine.value, theirs.value)
        # Only the rows of the coalesced record moved.
        untouched = np.ones(store.value.shape[0], dtype=bool)
        if merged is not None:
            untouched[merged.ids] = False
        assert_bit_equal(store.value[untouched], before[untouched])
        assert store.sparse_grads == []

    @given(
        rows=st.lists(st.integers(1, 70_000), min_size=1, max_size=4),
        mode=st.sampled_from(["mean", "sum"]),
        multiplicity=st.integers(1, 4),
        seed=seeds,
    )
    @settings(max_examples=30, deadline=None)
    def test_a_bag_per_table_on_a_store_records_store_rows(self, rows, mode, multiplicity, seed):
        """TBSM's per-table calls: each bag's record lands on the store at
        its table's offset, and one step equals a step per table."""
        rng = np.random.default_rng(seed)
        tables = embedding_store([(f"t{i}", n) for i, n in enumerate(rows)], 3, rng)
        alone = copy.deepcopy(tables)
        grads = []
        for name, n in enumerate(rows):
            ids = rng.integers(0, min(n, 6), size=(5, multiplicity))
            grad = draw_array(seed + name, (5, 3), np.float32, specials=False)
            for group in (tables, alone):
                bag = EmbeddingBag(group[f"t{name}"], mode=mode)
                expected = pooled_forward_ref(group[f"t{name}"].weight.value, ids, mode)
                assert_bit_equal(bag.forward(ids), expected)
                bag.backward(grad)
            grads.append(alone[f"t{name}"].weight.densified_grad())
        for table, grad in zip(tables.values(), grads):
            assert_bit_equal(table.weight.densified_grad(), grad)
            assert table.weight.sparse_grads == []
        SGD([t.weight for t in tables.values()], lr=0.5).step()
        sgd_step_parent([t.weight for t in alone.values()], lr=0.5)
        for table, reference in zip(tables.values(), alone.values()):
            assert_bit_equal(table.weight.value, reference.weight.value)

    def test_tables_draw_in_the_order_of_tables_of_their_own(self):
        schema = DatasetSchema(
            name="order",
            num_dense=3,
            tables=tuple(EmbeddingTableSpec(f"t{i}", num_rows=7 + i, dim=4) for i in range(5)),
            num_samples=8,
        )
        model = DLRM(schema, DLRMConfig("3-8-4", "8-1", seed=11))
        rng = np.random.default_rng(11)
        MLP((3, 8, 4), rng)
        for spec in schema.tables:
            alone = EmbeddingTable(spec.name, spec.num_rows, spec.dim, rng)
            assert_bit_equal(model.tables[spec.name].weight.value, alone.weight.value)
        top = MLP((model.top_mlp.in_features, 8, 1), rng, final_activation=None)
        for mine, theirs in zip(model.top_mlp.parameters(), top.parameters()):
            assert_bit_equal(mine.value, theirs.value)
        store = model.tables["t0"].weight.store
        assert store.value.shape == (sum(s.num_rows for s in schema.tables), 4)
        assert [t.weight.offset for t in model.tables.values()] == [0, 7, 15, 24, 34]

    @pytest.mark.parametrize("bad", [-1, "rows"])
    @pytest.mark.parametrize("column", [0, 2])
    def test_an_id_out_of_range_names_its_table(self, bad, column):
        models, batches, schema = store_models(3, [1, 2, 1], False, "mean", 1, [False] * 3)
        name = schema.table_names[column]
        ids = batches[0].sparse[name]
        ids[0, -1] = schema.tables[column].num_rows if bad == "rows" else bad
        with pytest.raises(IndexError, match=rf"^{name}: lookup ids out of range"):
            models[0].forward(batches[0])

    def test_a_replica_reading_another_stores_masters_records_there(self):
        models, batches, _schema = store_models(5, [1, 1, 3], False, "sum", 2, [False] * 3)
        own, masters = models[1].tables["t0"].weight.store, models[0].tables["t0"].weight.store
        models[1].forward(batches[1])
        models[1].backward(np.ones(len(batches[1]), dtype=np.float32))
        assert own.sparse_grads == [] and len(masters.sparse_grads) == 1
        assert sparse_stores(models[1].parameters()) == [
            *[p for p in models[1].dense_parameters()],
            masters,
        ]

    def test_a_dropped_model_is_freed_at_once(self):
        """No reference cycle through ``Parameter.store``: a model's arrays
        go with its last reference, not at the next full collection."""
        models, _batches, _schema = store_models(2, [1, 2], False, "mean", 1, [False, True])
        model = models.pop()
        refs = [weakref.ref(p) for p in (*model.parameters(), model.tables["t0"].weight.store)]
        gc.disable()
        try:
            del model
            assert all(ref() is None for ref in refs)
        finally:
            gc.enable()

    def test_backward_needs_a_forward(self):
        models, batches, _schema = store_models(1, [1], False, "mean", 1, [False])
        with pytest.raises(RuntimeError):
            models[0].backward(np.ones(len(batches[0]), dtype=np.float32))


class TestSigmoidAndEvaluate:
    @given(size=st.integers(0, 65), dtype=st.sampled_from([np.float32, np.float64]), seed=seeds)
    @settings(max_examples=80, deadline=None)
    def test_sigmoid_bit_equal(self, size, dtype, seed):
        x = (draw_array(seed, size, dtype) * 30).astype(dtype)
        actual, expected = sigmoid(x), sigmoid_ref(x)
        # A NaN in is a NaN out; its sign bit carries no meaning.
        np.testing.assert_array_equal(np.isnan(actual), np.isnan(x))
        assert_bit_equal(np.nan_to_num(actual, nan=2.0), np.nan_to_num(expected, nan=2.0))

    def test_sigmoid_is_stable_at_the_extremes(self):
        x = np.array([-1e4, -745.0, -0.0, 0.0, 745.0, 1e4])
        np.testing.assert_array_equal(sigmoid(x), [0.0, sigmoid_ref(x)[1], 0.5, 0.5, 1.0, 1.0])

    def test_evaluate_model_values_unchanged(self):
        schema = DatasetSchema(
            name="eval",
            num_dense=3,
            tables=(
                EmbeddingTableSpec("a", num_rows=40, dim=4, zipf_exponent=1.0),
                EmbeddingTableSpec("b", num_rows=30, dim=4, zipf_exponent=1.0, multiplicity=2),
            ),
            num_samples=300,
        )
        log = SyntheticClickLog(schema, SyntheticConfig(num_samples=300, seed=2))
        model = DLRM(schema, DLRMConfig("3-8-4", "8-1", seed=1))
        assert evaluate_model(model, log, batch_size=128) == evaluate_ref(model, log, 128)
        capped = evaluate_model(model, log, batch_size=64, max_samples=100)
        assert capped == evaluate_ref(model, log.take(np.arange(100)), 64)

    def test_loss_forward_is_the_mean_of_per_sample(self):
        logits = draw_array(5, 33, np.float32, specials=False) * 4
        labels = (draw_array(6, 33, np.float32, specials=False) > 0).astype(np.float32)
        assert BCEWithLogits().forward(logits, labels) == float(
            BCEWithLogits.per_sample(logits, labels).mean()
        )


# ----------------------------------------------------------------------
# Aliasing: in-place kernels never write what they do not own
# ----------------------------------------------------------------------


class TestAliasing:
    def test_relu_copying_forms_leave_their_inputs_alone(self):
        x = draw_array(1, (4, 5), np.float32)
        grad_out = draw_array(2, (4, 5), np.float32)
        x_before, grad_before = x.copy(), grad_out.copy()
        relu = ReLU()
        out = relu.forward(x)
        grad_in = relu.backward(grad_out)
        assert not np.shares_memory(out, x) and not np.shares_memory(grad_in, grad_out)
        assert_bit_equal(x, x_before)
        assert_bit_equal(grad_out, grad_before)

    @pytest.mark.parametrize("final", ["relu", None])
    def test_mlp_leaves_input_and_grad_out_alone(self, final):
        mlp = MLP((4, 6, 3), np.random.default_rng(0), final_activation=final)
        x = draw_array(1, (5, 4), np.float32, specials=False)
        grad_out = draw_array(2, (5, 3), np.float32, specials=False)
        x_before, grad_before = x.copy(), grad_out.copy()
        values_before = [p.value.copy() for p in mlp.parameters()]
        out = mlp.forward(x)
        grad_in = mlp.backward(grad_out)
        assert_bit_equal(x, x_before)
        assert_bit_equal(grad_out, grad_before)
        assert not np.shares_memory(out, x) and not np.shares_memory(grad_in, grad_out)
        for param, before in zip(mlp.parameters(), values_before):
            assert_bit_equal(param.value, before)

    def test_returned_activation_survives_the_next_forward(self):
        mlp = MLP((4, 6, 3), np.random.default_rng(0))
        first = mlp.forward(draw_array(1, (5, 4), np.float32, specials=False))
        kept = first.copy()
        mlp.forward(draw_array(2, (5, 4), np.float32, specials=False))
        assert_bit_equal(first, kept)

    def test_linear_output_is_a_new_buffer(self):
        layer = Linear(4, 3, np.random.default_rng(0))
        x = draw_array(1, (5, 4), np.float32, specials=False)
        out = layer.forward(x)
        for other in (x, layer.weight.value, layer.bias.value):
            assert not np.shares_memory(out, other)

    def test_parameter_owns_its_gradient(self):
        param = Parameter("p", np.ones((3, 2), dtype=np.float32))
        grad = np.full((3, 2), 2.0, dtype=np.float32)
        param.accumulate_dense(grad)
        assert not np.shares_memory(param.grad, grad)
        SGD([param], lr=0.5).step()  # scales the gradient where it is
        np.testing.assert_array_equal(grad, 2.0)
        np.testing.assert_array_equal(param.value, 0.0)

        left = draw_array(1, (3, 4), np.float32, specials=False)
        right = draw_array(2, (4, 2), np.float32, specials=False)
        param.accumulate_product(left, right)
        assert param.grad.base is None and param.grad.dtype == np.float32
        assert not np.shares_memory(param.grad, left) and not np.shares_memory(param.grad, right)
        assert_bit_equal(param.grad, left @ right)
        with pytest.raises(ValueError):
            Parameter("q", np.ones((3, 3), dtype=np.float32)).accumulate_product(left, right)

    def test_linear_backward_grads_are_owned_by_their_parameters(self):
        layer = Linear(4, 3, np.random.default_rng(0))
        x = draw_array(1, (5, 4), np.float32, specials=False)
        grad_out = draw_array(2, (5, 3), np.float32, specials=False)
        layer.forward(x)
        grad_in = layer.backward(grad_out)
        for grad in (layer.weight.grad, layer.bias.grad):
            for other in (x, grad_out, grad_in, layer.weight.value, layer.bias.value):
                assert not np.shares_memory(grad, other)

    def test_step_updates_value_in_place_and_nothing_else_does(self):
        layer = Linear(4, 3, np.random.default_rng(0))
        value = layer.weight.value
        before = value.copy()
        layer.forward(draw_array(1, (5, 4), np.float32, specials=False))
        layer.backward(draw_array(2, (5, 3), np.float32, specials=False))
        assert_bit_equal(value, before)
        SGD(layer.parameters(), lr=0.1).step()
        assert layer.weight.value is value
        assert not np.array_equal(value, before)

    def test_interaction_leaves_its_inputs_alone(self):
        features = [draw_array(i, (4, 3), np.float32, specials=False) for i in range(4)]
        stacked = np.stack(features, axis=1)
        before = stacked.copy()
        layer = DotInteraction()
        out = layer.forward(stacked)
        assert not np.shares_memory(out, stacked)
        assert_bit_equal(stacked, before)
        grad_out = draw_array(9, out.shape, np.float32, specials=False)
        grad_before = grad_out.copy()
        grad_dense, grad_embeddings = layer.backward(grad_out)
        assert_bit_equal(grad_out, grad_before)
        assert not any(np.shares_memory(g, grad_out) for g in (grad_dense, *grad_embeddings))

    @pytest.mark.parametrize("multiplicity", [1, 3])
    def test_embedding_bag_output_is_not_the_table(self, multiplicity):
        rng = np.random.default_rng(0)
        table = EmbeddingTable("t", 10, 4, rng)
        weights_before = table.weight.value.copy()
        bag = EmbeddingBag(table)
        out = bag.forward(rng.integers(0, 10, size=(6, multiplicity)))
        assert not np.shares_memory(out, table.weight.value)
        out[...] = 7.0
        grad_out = draw_array(1, (6, 4), np.float32, specials=False)
        grad_before = grad_out.copy()
        bag.backward(grad_out)
        assert_bit_equal(grad_out, grad_before)
        assert_bit_equal(table.weight.value, weights_before)

    def _store_model(self, seed=1):
        schema = DatasetSchema(
            name="alias",
            num_dense=3,
            tables=tuple(EmbeddingTableSpec(f"t{i}", num_rows=9 + i, dim=4) for i in range(3)),
            num_samples=16,
        )
        model = DLRM(schema, DLRMConfig("3-8-4", "8-1", seed=seed))
        weights = [table.weight for table in model.tables.values()]
        return model, weights, [w.value for w in weights], weights[0].store

    @staticmethod
    def _assert_views_of(values, weights, store):
        for value, weight in zip(values, weights):
            assert weight.value is value and value.base is store.value
            assert_bit_equal(value, store.value[weight.offset : weight.offset + len(value)])

    def test_load_checkpoint_writes_through_the_store(self, tmp_path):
        source, *_rest = self._store_model(seed=1)
        model, weights, values, store = self._store_model(seed=2)
        ckpt = TrainerCheckpoint(
            step=1, epoch=0, cursors={}, scheduler_state={},
            params=capture_training_state(source.dense_parameters(), source.tables),
        )
        loaded = load_checkpoint(save_checkpoint(tmp_path, ckpt))
        restore_training_state(model.dense_parameters(), model.tables, loaded.params)
        self._assert_views_of(values, weights, store)
        for name, table in source.tables.items():
            assert_bit_equal(model.tables[name].weight.value, table.weight.value)

    def test_write_rows_writes_through_the_store(self):
        model, weights, values, store = self._store_model()
        model.tables["t1"].write_rows(np.array([0, 9]), np.full((2, 4), 5.0, dtype=np.float32))
        self._assert_views_of(values, weights, store)
        np.testing.assert_array_equal(store.value[[weights[1].offset, weights[1].offset + 9]], 5.0)

    def test_replicator_sync_reads_and_writes_through_the_store(self):
        model, weights, values, store = self._store_model()
        hot = np.array([1, 4])
        specs = {
            name: HotEmbeddingBagSpec(name, hot, table.num_rows, 4, False)
            for name, table in model.tables.items()
        }
        replicator = EmbeddingReplicator(model.tables, specs, num_replicas=2)
        hot_values = [replica_store.value for replica_store in replicator.stores]
        store.value[weights[2].offset + hot] = 3.0  # the masters move on
        replicator.sync_from_master()
        for replica_store, hot_value, replica in zip(
            replicator.stores, hot_values, replicator.replicas
        ):
            assert replica_store.value is hot_value
            assert replica["t2"].weight.value.base is hot_value
            np.testing.assert_array_equal(replica["t2"].weight.value, 3.0)
        replicator.replicas[0]["t0"].weight.value[...] = -1.0
        replicator.sync_to_master()
        self._assert_views_of(values, weights, store)
        np.testing.assert_array_equal(store.value[hot], -1.0)

    def test_step_updates_the_store_in_place(self):
        model, weights, values, store = self._store_model()
        log = SyntheticClickLog(model.schema, SyntheticConfig(num_samples=16, seed=2))
        batch = batch_from_log(log, np.arange(16))
        before = store.value.copy()
        model.forward(batch)
        model.backward(np.ones(16, dtype=np.float32))
        assert_bit_equal(store.value, before)
        SGD(model.parameters(), lr=0.1).step()
        self._assert_views_of(values, weights, store)
        assert not np.array_equal(store.value, before)

    def test_model_step_leaves_the_batch_and_its_grad_alone(self):
        schema = DatasetSchema(
            name="alias",
            num_dense=3,
            tables=(
                EmbeddingTableSpec("a", num_rows=40, dim=4, zipf_exponent=1.0),
                EmbeddingTableSpec("b", num_rows=30, dim=4, zipf_exponent=1.0, multiplicity=2),
            ),
            num_samples=64,
        )
        log = SyntheticClickLog(schema, SyntheticConfig(num_samples=64, seed=2))
        batch = batch_from_log(log, np.arange(32))
        dense_before = batch.dense.copy()
        sparse_before = {name: ids.copy() for name, ids in batch.sparse.items()}
        model = DLRM(schema, DLRMConfig("3-8-4", "8-1", seed=1))
        values_before = [p.value.copy() for p in model.parameters()]
        loss = BCEWithLogits()
        loss.forward(model.forward(batch), batch.labels)
        grad = loss.backward()
        grad_before = grad.copy()
        model.backward(grad)
        assert_bit_equal(batch.dense, dense_before)
        for name, ids in batch.sparse.items():
            np.testing.assert_array_equal(ids, sparse_before[name])
        assert_bit_equal(grad, grad_before)
        for param, before in zip(model.parameters(), values_before):
            assert_bit_equal(param.value, before)
        for param in model.dense_parameters():
            assert param.grad is not None and param.grad.base is None
