"""Embedding Logger (paper SS III-A.2).

Counts accesses into each entry of each *large* embedding table for the
sampled inputs, producing the :class:`~repro.core.access_profile.AccessProfile`
every later stage consumes.  Tables under the large-table cutoff (1 MB by
default) are skipped: they are de-facto hot and always shipped whole.

Profiling is streaming at heart: a :class:`ProfileAccumulator` folds one
chunk of sampled lookups at a time into running per-table counts, so
the profile of a terabyte-scale source is built at the memory cost of
one chunk.  The whole-log :meth:`EmbeddingLogger.profile` and the
chunked :meth:`EmbeddingLogger.profile_source` produce identical
profiles for the same sampled positions.  The calibrator profiles a
small input sample (5 % by default), so the chunked pass runs in
process: it is the one profile pass over a source.
"""

from __future__ import annotations

import numpy as np

from repro.core.access_profile import AccessProfile, TableProfile
from repro.core.config import FAEConfig
from repro.data.chunk_source import ChunkSource
from repro.data.log import ClickLog
from repro.data.schema import DatasetSchema
from repro.data.synthetic import SyntheticClickLog
from repro.obs import timed

__all__ = [
    "EmbeddingLogger",
    "ProfileAccumulator",
]


class ProfileAccumulator:
    """Streaming access-count accumulation over chunked sampled inputs.

    Args:
        schema: dataset geometry.
        large_table_min_bytes: cutoff below which tables are skipped.

    Feed chunks with :meth:`update`; :meth:`finalize` yields the
    :class:`AccessProfile`.  Memory is one int64 count vector per large
    table — independent of how many inputs stream through.
    """

    def __init__(self, schema: DatasetSchema, large_table_min_bytes: int) -> None:
        self.schema = schema
        self.num_sampled = 0
        self.num_observed = 0
        self._profiles = {
            spec.name: TableProfile(
                name=spec.name,
                counts=np.zeros(spec.num_rows, dtype=np.int64),
                dim=spec.dim,
            )
            for spec in schema.large_tables(large_table_min_bytes)
        }

    @property
    def num_tables(self) -> int:
        return len(self._profiles)

    def update(
        self,
        chunk: ClickLog,
        local_indices: np.ndarray,
        count_observed: bool = True,
    ) -> None:
        """Fold one chunk's sampled rows into the running counts.

        Args:
            chunk: the chunk being profiled.
            local_indices: sampled positions *within* the chunk.
            count_observed: whether ``len(chunk)`` joins the observed
                total (False when re-feeding an already-seen chunk, e.g.
                the keep-at-least-one fallback for empty Bernoulli runs).
        """
        local_indices = np.asarray(local_indices, dtype=np.int64)
        if count_observed:
            self.num_observed += len(chunk)
        if local_indices.size == 0:
            return
        self.num_sampled += int(local_indices.size)
        for name, profile in self._profiles.items():
            profile.accumulate(chunk.sparse[name][local_indices])

    def finalize(self, num_total_inputs: int | None = None) -> AccessProfile:
        """The accumulated profile.

        Args:
            num_total_inputs: full input-set size; defaults to the
                number of rows observed via :meth:`update`.

        Raises:
            ValueError: if no inputs were sampled.
        """
        if self.num_sampled == 0:
            raise ValueError("no inputs were sampled; cannot build an access profile")
        return AccessProfile(
            schema=self.schema,
            tables=self._profiles,
            num_sampled_inputs=self.num_sampled,
            num_total_inputs=(
                self.num_observed if num_total_inputs is None else num_total_inputs
            ),
        )


class EmbeddingLogger:
    """Builds sampled access profiles over a click log.

    Args:
        config: FAE configuration (controls the large-table cutoff).
    """

    def __init__(self, config: FAEConfig) -> None:
        self.config = config
        self.last_elapsed_seconds = 0.0

    def accumulator(self, schema: DatasetSchema) -> ProfileAccumulator:
        """A fresh accumulator under this logger's large-table cutoff."""
        return ProfileAccumulator(schema, self.config.large_table_min_bytes)

    def profile(self, log: SyntheticClickLog, sample_indices: np.ndarray) -> AccessProfile:
        """Count accesses for the sampled inputs.

        Args:
            log: the click log being profiled.
            sample_indices: input positions selected by the sampler (pass
                ``np.arange(len(log))`` for the naive full profile).

        Returns:
            An :class:`AccessProfile` covering the large tables.
        """
        sample_indices = np.asarray(sample_indices, dtype=np.int64)
        if sample_indices.size == 0:
            raise ValueError("sample_indices must be non-empty")

        with timed("calibrate.profile", num_sampled=int(sample_indices.shape[0])) as timer:
            tables: dict[str, TableProfile] = {}
            for spec in log.schema.large_tables(self.config.large_table_min_bytes):
                counts = log.access_counts(spec.name, sample_indices)
                tables[spec.name] = TableProfile(name=spec.name, counts=counts, dim=spec.dim)
            timer.set(num_tables=len(tables))

        # Thin alias over the span's wall time; kept for older callers.
        self.last_elapsed_seconds = timer.seconds
        return AccessProfile(
            schema=log.schema,
            tables=tables,
            num_sampled_inputs=int(sample_indices.shape[0]),
            num_total_inputs=len(log),
        )

    def profile_source(
        self, source: ChunkSource, sample_indices: np.ndarray
    ) -> AccessProfile:
        """Chunked equivalent of :meth:`profile` over a sized source.

        Each chunk selects its slice of the (sorted) sampled positions
        via ``searchsorted`` and folds the corresponding lookups into a
        :class:`ProfileAccumulator`; per-table sums of per-chunk
        scatters equal the whole-log bincount, so the resulting profile
        is identical to :meth:`profile` over the materialized log.
        """
        sample_indices = np.asarray(sample_indices, dtype=np.int64)
        if sample_indices.size == 0:
            raise ValueError("sample_indices must be non-empty")

        with timed("calibrate.profile", num_sampled=int(sample_indices.shape[0])) as timer:
            accumulator = self.accumulator(source.schema)
            num_chunks = 0
            for start, chunk in source:
                lo = np.searchsorted(sample_indices, start)
                hi = np.searchsorted(sample_indices, start + len(chunk))
                accumulator.update(chunk, sample_indices[lo:hi] - start)
                num_chunks += 1
            timer.set(num_tables=accumulator.num_tables, num_chunks=num_chunks)

        self.last_elapsed_seconds = timer.seconds
        return accumulator.finalize(num_total_inputs=source.num_samples)
