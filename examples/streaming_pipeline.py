"""FAE as a streaming operator: preprocess and train without materializing.

A Terabyte-scale click log never fits in memory.  This example runs the
full FAE front-end over a chunked stream through the one streaming path
the rest of the repo uses (``repro preprocess --stream``, the
shard-backed CI smoke): a :class:`ChunkSource` handed to
:func:`fae_preprocess_source`.

- pass 1 — sample, profile and calibrate the access threshold (the
  paper's Sparse Input Sampler: exact per-row counts over a random input
  sample), one chunk in memory at a time;
- pass 2 — classify each chunk against the hot bags; only the hot/cold
  *index* of every input is kept, never its features;
- training — the stream is read a third time and each chunk is split by
  the plan's hot mask into pure-hot / pure-cold mini-batches that feed a
  trainer directly.

The plan is byte-identical to preprocessing the materialized log, at any
chunk size.  Memory is constant in the stream's length apart from the
packed index (9 bytes per input).

Run:  python examples/streaming_pipeline.py
"""

import numpy as np

from repro import FAEConfig, criteo_kaggle_like
from repro.core import fae_preprocess_source
from repro.data import StreamChunkSource, SyntheticClickStream
from repro.data.loader import batch_from_log
from repro.models.dlrm import DLRM, DLRMConfig
from repro.nn import BCEWithLogits, SGD

BATCH_SIZE = 256


def main() -> None:
    schema = criteo_kaggle_like("small")
    stream = SyntheticClickStream(
        schema, total_samples=60_000, chunk_size=4096, seed=9
    )
    print(f"stream: {len(stream):,} samples in {stream.num_chunks} chunks "
          f"of {stream.chunk_size}")

    config = FAEConfig(
        gpu_memory_budget=256 * 1024,
        large_table_min_bytes=1024,
        chunk_size=64,
        sample_rate=0.25,
        seed=9,
    )

    # ---- passes 1 + 2: calibrate, classify, pack the index ------------
    plan = fae_preprocess_source(StreamChunkSource(stream), config, batch_size=BATCH_SIZE)
    print(f"preprocess: {plan.summary()}")
    # What grows with the stream is the packed index, not the features:
    # 8 B of batch position + 1 B of hot mask per input, against the
    # feature columns a materialized log would hold.
    _start, chunk = next(iter(stream))
    chunk_bytes = chunk.dense.nbytes + chunk.labels.nbytes + sum(
        ids.nbytes for ids in chunk.sparse.values()
    )
    index_bytes = 9 * plan.dataset.num_inputs
    print(f"  memory: one chunk {chunk_bytes / 2**20:.1f} MiB + packed index "
          f"{index_bytes / 2**20:.1f} MiB, constant in stream length but for "
          f"the index (materialized log: "
          f"{chunk_bytes * len(stream) / len(chunk) / 2**20:.1f} MiB)")

    # ---- training: pure mini-batches, chunk by chunk -------------------
    model = DLRM(schema, DLRMConfig("13-64-32-16", "64-1", seed=1))
    loss_fn = BCEWithLogits()
    optimizer = SGD(model.parameters(), lr=0.15)

    losses = []
    emitted = {True: 0, False: 0}
    for start, chunk in stream:
        chunk_hot = plan.dataset.hot_mask[start : start + len(chunk)]
        for hot in (True, False):
            rows = np.flatnonzero(chunk_hot == hot)
            for lo in range(0, len(rows), BATCH_SIZE):
                batch = batch_from_log(chunk, rows[lo : lo + BATCH_SIZE], hot=hot)
                logits = model.forward(batch)
                losses.append(loss_fn.forward(logits, batch.labels))
                model.backward(loss_fn.backward())
                optimizer.step()
                emitted[hot] += 1

    print(f"trained on {emitted[True]} hot + {emitted[False]} cold "
          f"mini-batches as the chunks streamed by")
    print(f"loss: first-10 avg {np.mean(losses[:10]):.4f} -> "
          f"last-10 avg {np.mean(losses[-10:]):.4f}")


if __name__ == "__main__":
    main()
