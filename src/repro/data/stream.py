"""Chunked click-log streams: Terabyte-scale data without the memory.

The real Criteo Terabyte log (4 B clicks) cannot be materialized; neither
can a faithful synthetic equivalent.  :class:`SyntheticClickStream`
generates the same distribution as :class:`~repro.data.synthetic.
SyntheticClickLog` — identical samplers, identical planted labels — but
lazily, one chunk at a time, so pipelines can process arbitrarily long
streams at constant memory.  The stream is itself a
:class:`~repro.data.chunk_source.ChunkSource` whose chunks are ordinary
:class:`~repro.data.log.ClickLog` objects, so every preprocess stage
reads it directly.
"""

from __future__ import annotations

from typing import Iterator

import numpy as np

from repro.data.chunk_source import ChunkSource
from repro.data.log import ClickLog
from repro.data.schema import DatasetSchema
from repro.data.zipf import ZipfSampler

__all__ = ["SyntheticClickStream"]


class SyntheticClickStream(ChunkSource):
    """Lazy, chunked synthetic click-log generator.

    Args:
        schema: dataset geometry.
        total_samples: stream length (may far exceed memory).
        chunk_size: samples per materialized chunk.
        seed: master seed; the stream is deterministic and repeatable.
        label_noise: planted-logit noise (as in SyntheticConfig).
        affinity_scale: hidden-affinity scale.
        dense_signal: dense weight multiplier.

    Iterating yields ``(start_index, ClickLog)`` chunks, each generated on
    demand and dropped after use, so memory is bounded by one chunk.
    """

    def __init__(
        self,
        schema: DatasetSchema,
        total_samples: int,
        chunk_size: int = 8192,
        seed: int = 0,
        label_noise: float = 0.25,
        affinity_scale: float = 1.6,
        dense_signal: float = 1.6,
    ) -> None:
        if total_samples <= 0:
            raise ValueError("total_samples must be positive")
        if chunk_size <= 0:
            raise ValueError("chunk_size must be positive")
        self.schema = schema
        self.total_samples = total_samples
        self.chunk_size = chunk_size
        self.seed = seed
        self.label_noise = label_noise

        # Fixed model parameters shared by every chunk — the stream is one
        # coherent distribution, not a sequence of unrelated logs.
        param_rng = np.random.default_rng(seed)
        if schema.num_dense:
            self._w_dense = param_rng.normal(
                0.0, dense_signal / np.sqrt(schema.num_dense), size=schema.num_dense
            )
        else:
            self._w_dense = np.zeros(0)
        self._samplers: dict[str, ZipfSampler] = {}
        self._affinity: dict[str, np.ndarray] = {}
        for t_index, spec in enumerate(schema.tables):
            self._samplers[spec.name] = ZipfSampler(
                num_items=spec.num_rows,
                exponent=spec.zipf_exponent,
                seed=seed * 7919 + t_index,
            )
            affinity_rng = np.random.default_rng(seed * 104729 + t_index)
            self._affinity[spec.name] = affinity_rng.normal(
                0.0, affinity_scale, size=spec.num_rows
            )

    @property
    def num_samples(self) -> int:
        return self.total_samples

    @property
    def num_chunks(self) -> int:
        return (self.total_samples + self.chunk_size - 1) // self.chunk_size

    def chunk(self, index: int) -> ClickLog:
        """Materialize chunk ``index`` (deterministic, order-independent)."""
        if not 0 <= index < self.num_chunks:
            raise IndexError(f"chunk {index} out of range [0, {self.num_chunks})")
        start = index * self.chunk_size
        n = min(self.chunk_size, self.total_samples - start)
        rng = np.random.default_rng((self.seed, index, 0xC0FFEE))

        dense = rng.normal(0.0, 1.0, size=(n, self.schema.num_dense)).astype(np.float32)
        logit = dense @ self._w_dense if self.schema.num_dense else np.zeros(n)

        sparse: dict[str, np.ndarray] = {}
        for table_index, spec in enumerate(self.schema.tables):
            # Per-chunk draw stream derived from (seed, chunk, table) so
            # any chunk can be regenerated independently.  The table's
            # positional index keys the stream (Python's str hash is
            # salted per process and would break reproducibility).
            draw_rng = np.random.default_rng((self.seed, index, table_index))
            probs = self._samplers[spec.name].id_probabilities()
            ids = draw_rng.choice(
                spec.num_rows, size=n * spec.multiplicity, p=probs
            ).reshape(n, spec.multiplicity)
            sparse[spec.name] = ids.astype(np.int64)
            logit = logit + self._affinity[spec.name][ids].mean(axis=1) / np.sqrt(
                self.schema.num_sparse
            )

        logit = logit + rng.normal(0.0, self.label_noise, size=n)
        probs = 1.0 / (1.0 + np.exp(-logit))
        labels = (rng.random(n) < probs).astype(np.float32)
        return ClickLog(schema=self.schema, dense=dense, sparse=sparse, labels=labels)

    def chunks(self) -> Iterator[tuple[int, ClickLog]]:
        for index in range(self.num_chunks):
            yield index * self.chunk_size, self.chunk(index)

    def __len__(self) -> int:
        return self.total_samples
