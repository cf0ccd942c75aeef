"""Extension: FAE vs mixed-precision embedding storage (paper SS V).

The paper argues against precision-reducing alternatives on two grounds:
(1) even halving/quartering the footprint leaves real tables beyond GPU
memory, and (2) changing the representation requires accuracy
revalidation, whereas FAE trains the unmodified fp32 model.  This bench
measures both: the capacity arithmetic at Table I scale, and real
training accuracy with fp32 vs fp16 vs int8 embedding storage.
"""

import numpy as np

from repro.analysis import format_table
from repro.data import dataset_by_name, train_test_split
from repro.models.dlrm import DLRM, DLRMConfig
from repro.nn import EmbeddingBag, Fp16EmbeddingTable, Int8EmbeddingTable

V100_MEMORY = 16 * 2**30


def quantized_model(schema, table_cls, seed):
    model = DLRM(schema, DLRMConfig("13-64-32-16", "64-1", seed=seed))
    if table_cls is None:
        return model, []
    rng = np.random.default_rng(seed)
    tables = []
    for spec in schema.tables:
        table = table_cls(spec.name, spec.num_rows, spec.dim, rng)
        model._tables[spec.name] = table
        model.set_bag(spec.name, EmbeddingBag(table, mode="mean"))
        tables.append(table)
    return model, tables


def run_comparison(log, seed=13):
    train, test = train_test_split(log, 0.15, seed=2)
    results = {}
    for label, table_cls in (("fp32", None), ("fp16", Fp16EmbeddingTable), ("int8", Int8EmbeddingTable)):
        model, tables = quantized_model(log.schema, table_cls, seed)
        # Train manually so requantization happens after each step.
        from repro.data.loader import BatchIterator
        from repro.nn import BCEWithLogits, SGD
        from repro.train.metrics import evaluate_model

        loss_fn = BCEWithLogits()
        optimizer = SGD(model.parameters(), lr=0.15)
        iterator = BatchIterator(train, 256, shuffle=True, seed=seed)
        for _epoch in range(2):
            for batch in iterator:
                logits = model.forward(batch)
                loss_fn.forward(logits, batch.labels)
                model.backward(loss_fn.backward())
                optimizer.step()
                for table in tables:
                    table.requantize(batch.sparse[table.name].ravel())
        _loss, accuracy = evaluate_model(model, test)
        results[label] = accuracy
    return results


def capacity_table():
    rows = []
    for name in ("taobao", "criteo-kaggle", "criteo-terabyte"):
        schema = dataset_by_name(name, "paper")
        fp32 = schema.total_embedding_bytes
        rows.append(
            [
                name,
                f"{fp32 / 2**30:.1f}",
                f"{fp32 / 2 / 2**30:.1f}",
                f"{fp32 / 4 / 2**30:.1f}",
                # 15% of HBM is reserved for activations, optimizer
                # state, and the CUDA context — same headroom the
                # sharded-mode feasibility check applies.
                "yes" if fp32 / 4 <= 0.85 * V100_MEMORY else "NO",
            ]
        )
    return rows


def test_x3_quantized_comparison(benchmark, emit, kaggle_small_log):
    accuracies = benchmark.pedantic(
        run_comparison, args=(kaggle_small_log,), rounds=1, iterations=1
    )

    capacity = format_table(
        ["dataset", "fp32 GiB", "fp16 GiB", "int8 GiB", "int8 fits V100?"],
        capacity_table(),
        title="Capacity: quantization alone cannot fit Terabyte on a 16 GiB GPU",
    )
    accuracy = format_table(
        ["storage", "test accuracy"],
        [[label, f"{acc:.4f}"] for label, acc in accuracies.items()],
        title="Accuracy after 2 epochs (Kaggle-like, real training)",
    )
    emit("x3_quantized", capacity + "\n\n" + accuracy)

    # Paper argument 1: even int8 leaves Terabyte (61 GB -> ~15 GB) at or
    # beyond a 16 GiB V100 once activations/optimizer state are counted.
    terabyte = dataset_by_name("criteo-terabyte", "paper")
    assert terabyte.total_embedding_bytes / 4 > 0.85 * V100_MEMORY
    # Paper argument 2: precision reduction is the accuracy-risk path;
    # fp16 tracks fp32 closely, int8 must not beat fp32 meaningfully.
    assert accuracies["fp16"] >= accuracies["fp32"] - 0.02
    assert accuracies["int8"] <= accuracies["fp32"] + 0.02
    # All remain above the majority floor (training worked everywhere).
    assert min(accuracies.values()) > 0.55
