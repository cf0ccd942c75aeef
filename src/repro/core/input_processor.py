"""Input Processor (paper SS III-B): hot/cold input split and batch packing.

A sparse input is *hot* iff **every** lookup it performs — across all
tables and all multiplicities — hits a hot embedding row; otherwise it is
cold.  Mini-batches must be *pure*: a single cold input inside a batch
would stall the whole batch on a CPU fetch (paper Fig 4 quantifies how
fast the all-hot probability collapses under naive batching), so the
processor packs hot and cold inputs into separate mini-batch streams.

Packing is streaming: :meth:`InputProcessor.classify_and_pack_stream`
classifies one chunk at a time and accumulates only *index* arrays (8
bytes per input), never the feature columns, so packing a source never
materializes the log.  The whole-log :meth:`InputProcessor.pack` is a
thin wrapper over a single-chunk source and produces byte-identical
batches for the same seed regardless of chunking.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.classifier import HotEmbeddingBagSpec
from repro.data.chunk_source import ChunkSource, LogChunkSource
from repro.data.synthetic import SyntheticClickLog
from repro.obs import get_registry, span, timed

__all__ = [
    "FAEDataset",
    "InputProcessor",
    "all_hot_batch_probability",
    "compute_hot_mask",
]


def all_hot_batch_probability(hot_input_fraction: float, batch_size: int) -> float:
    """P(an entire random mini-batch is hot) under naive batching (Fig 4).

    With i.i.d. inputs of which a fraction ``p`` are hot, a random batch
    of ``B`` inputs is all-hot with probability ``p**B`` — which collapses
    for large ``B`` even at ``p = 0.99``, motivating explicit packing.
    """
    if not 0 <= hot_input_fraction <= 1:
        raise ValueError(f"hot_input_fraction must be in [0, 1], got {hot_input_fraction}")
    if batch_size <= 0:
        raise ValueError(f"batch_size must be positive, got {batch_size}")
    return float(hot_input_fraction**batch_size)


def compute_hot_mask(
    sparse: dict[str, np.ndarray],
    bags: dict[str, HotEmbeddingBagSpec],
    masks: dict[str, np.ndarray],
    num_inputs: int,
) -> np.ndarray:
    """Boolean hot mask over ``num_inputs`` rows of sparse lookups.

    One vectorized pass per table: an input stays hot while every id it
    looks up is in that table's hot bag.  Shared by the input processor
    and the streaming packer.  ``sparse`` may be any mapping; a table
    whose bag is the whole table cannot make an input cold, so its ids
    are never looked at -- on a column-lazy shard chunk
    (:class:`~repro.data.chunk_source.ShardChunk`) they are not decoded.

    Raises:
        KeyError: if a sparse table has no corresponding hot bag.
    """
    hot = np.ones(num_inputs, dtype=bool)
    for name in sparse:
        bag = bags.get(name)
        if bag is None:
            raise KeyError(f"no hot bag for table {name!r}")
        if bag.whole_table:
            continue
        hot &= masks[name][sparse[name]].all(axis=1)
    return hot


@dataclass
class FAEDataset:
    """A click log pre-packed into pure-hot and pure-cold mini-batches.

    Attributes:
        hot_batches: int64 index arrays, each a pure-hot batch.  Either a
            plain list or a lazy shard-backed sequence (see
            :class:`repro.core.fae_format.ShardBatchSequence`); both
            support ``len()``, indexing, slicing, and iteration.
        cold_batches: same, for pure-cold batches.
        hot_mask: per-input hotness over the full log.
        batch_size: packing batch size.
    """

    hot_batches: list[np.ndarray]
    cold_batches: list[np.ndarray]
    hot_mask: np.ndarray
    batch_size: int

    @property
    def num_hot_inputs(self) -> int:
        return int(np.count_nonzero(self.hot_mask))

    @property
    def num_inputs(self) -> int:
        return int(self.hot_mask.shape[0])

    @property
    def hot_input_fraction(self) -> float:
        return self.num_hot_inputs / self.num_inputs if self.num_inputs else 0.0

    def batch_counts(self) -> tuple[int, int]:
        return len(self.hot_batches), len(self.cold_batches)

    def state_dict(self) -> dict:
        """Exact batch geometry for checkpointing (schema-versioned).

        Cache turnover re-packs the remaining batches mid-epoch, so a
        checkpoint taken after a refresh must carry the repacked geometry
        — cursors and scheduler pools are meaningless against the
        original packing.  Batches are stored as one concatenated index
        stream plus per-batch lengths (ragged tails are preserved).
        """
        hot = [np.asarray(batch, dtype=np.int64) for batch in self.hot_batches]
        cold = [np.asarray(batch, dtype=np.int64) for batch in self.cold_batches]
        return {
            "schema_version": 1,
            "batch_size": int(self.batch_size),
            "hot_indices": np.concatenate(hot) if hot else np.zeros(0, np.int64),
            "hot_lengths": np.array([b.size for b in hot], dtype=np.int64),
            "cold_indices": np.concatenate(cold) if cold else np.zeros(0, np.int64),
            "cold_lengths": np.array([b.size for b in cold], dtype=np.int64),
            "hot_mask": np.asarray(self.hot_mask, dtype=bool),
        }

    @classmethod
    def from_state_dict(cls, state: dict) -> "FAEDataset":
        """Rebuild the exact dataset a :meth:`state_dict` captured.

        Raises:
            ValueError: on schema-version mismatch.
        """
        version = state.get("schema_version")
        if version != 1:
            raise ValueError(f"dataset state schema_version {version} != 1")

        def _split(indices: np.ndarray, lengths: np.ndarray) -> list[np.ndarray]:
            indices = np.asarray(indices, dtype=np.int64)
            bounds = np.cumsum(np.asarray(lengths, dtype=np.int64))[:-1]
            return [chunk.copy() for chunk in np.split(indices, bounds)] if len(
                lengths
            ) else []

        return cls(
            hot_batches=_split(state["hot_indices"], state["hot_lengths"]),
            cold_batches=_split(state["cold_indices"], state["cold_lengths"]),
            hot_mask=np.asarray(state["hot_mask"], dtype=bool).copy(),
            batch_size=int(state["batch_size"]),
        )


def _cut_batches(indices: np.ndarray, batch_size: int, drop_last: bool) -> list[np.ndarray]:
    """Slice an index stream into consecutive batches (each computed once)."""
    stop = (len(indices) // batch_size) * batch_size if drop_last else len(indices)
    return [indices[start : start + batch_size] for start in range(0, stop, batch_size)]


class InputProcessor:
    """Classifies inputs against hot bags and packs pure mini-batches.

    Args:
        bags: hot bag specs from the :class:`EmbeddingClassifier`.
        seed: shuffle seed for batch packing.
    """

    def __init__(self, bags: dict[str, HotEmbeddingBagSpec], seed: int = 0) -> None:
        self.bags = bags
        self.seed = seed
        self.last_classify_seconds = 0.0
        self._masks = {name: bag.hot_mask() for name, bag in bags.items()}

    def classify_inputs(self, log: SyntheticClickLog) -> np.ndarray:
        """Boolean hot mask over the log's inputs."""
        with timed("classify", num_inputs=len(log)) as timer:
            hot = compute_hot_mask(log.sparse, self.bags, self._masks, len(log))
            hot_count = int(np.count_nonzero(hot))
            timer.set(num_hot=hot_count)
        # Thin alias over the span's wall time; kept for older callers.
        self.last_classify_seconds = timer.seconds
        registry = get_registry()
        registry.counter("classify.inputs").inc(len(log))
        registry.counter("classify.hot_inputs").inc(hot_count)
        if len(log):
            registry.gauge("train.batch.hot_fraction").set(hot_count / len(log))
        return hot

    def pack(
        self,
        log: SyntheticClickLog,
        batch_size: int,
        drop_last: bool = False,
        shuffle: bool = True,
    ) -> FAEDataset:
        """Classify and pack ``log`` into pure hot/cold mini-batches.

        Args:
            log: the training inputs.
            batch_size: samples per mini-batch.
            drop_last: drop trailing short batches from each stream.
            shuffle: shuffle within each stream before chunking.

        Returns:
            The packed :class:`FAEDataset` (persist it with
            :func:`repro.core.fae_format.save_fae_dataset`).
        """
        return self.classify_and_pack_stream(
            LogChunkSource(log),
            batch_size=batch_size,
            drop_last=drop_last,
            shuffle=shuffle,
        )

    def classify_and_pack_stream(
        self,
        source: ChunkSource,
        batch_size: int,
        drop_last: bool = False,
        shuffle: bool = True,
    ) -> FAEDataset:
        """Fused classify+pack over a chunk source (pass 2 of preprocess).

        Each chunk is classified against the hot masks and contributes
        only its hot/cold *global index* arrays to the builders; the
        feature columns are never retained, so memory is bounded by one
        chunk plus 8 bytes per input.  The hot-then-cold shuffle consumes
        one seeded generator exactly like the legacy whole-log pack, so
        batch order is byte-identical for any chunking of the same input.
        """
        if batch_size <= 0:
            raise ValueError(f"batch_size must be positive, got {batch_size}")
        with span("classify.pack", batch_size=batch_size) as pack_span:
            mask_parts: list[np.ndarray] = []
            hot_parts: list[np.ndarray] = []
            cold_parts: list[np.ndarray] = []
            classify_seconds = 0.0
            num_inputs = 0
            num_hot = 0
            for start, chunk in source:
                with timed("classify", num_inputs=len(chunk)) as timer:
                    chunk_hot = compute_hot_mask(
                        chunk.sparse, self.bags, self._masks, len(chunk)
                    )
                    chunk_hot_count = int(np.count_nonzero(chunk_hot))
                    timer.set(num_hot=chunk_hot_count)
                classify_seconds += timer.seconds
                mask_parts.append(chunk_hot)
                hot_parts.append((start + np.flatnonzero(chunk_hot)).astype(np.int64))
                cold_parts.append((start + np.flatnonzero(~chunk_hot)).astype(np.int64))
                num_inputs += len(chunk)
                num_hot += chunk_hot_count

            # Thin alias over the classify spans' wall time (summed).
            self.last_classify_seconds = classify_seconds
            registry = get_registry()
            registry.counter("classify.inputs").inc(num_inputs)
            registry.counter("classify.hot_inputs").inc(num_hot)
            if num_inputs:
                registry.gauge("train.batch.hot_fraction").set(num_hot / num_inputs)

            hot_mask = (
                np.concatenate(mask_parts) if mask_parts else np.zeros(0, dtype=bool)
            )
            rng = np.random.default_rng(self.seed)

            def build(parts: list[np.ndarray]) -> list[np.ndarray]:
                indices = (
                    np.concatenate(parts) if parts else np.zeros(0, dtype=np.int64)
                )
                if shuffle:
                    rng.shuffle(indices)
                return _cut_batches(indices, batch_size, drop_last)

            dataset = FAEDataset(
                hot_batches=build(hot_parts),
                cold_batches=build(cold_parts),
                hot_mask=hot_mask,
                batch_size=batch_size,
            )
            pack_span.set(
                num_hot_batches=len(dataset.hot_batches),
                num_cold_batches=len(dataset.cold_batches),
            )
        return dataset
