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
profiles for the same sampled positions.

Chunks are also *independent*, and integer counts merge associatively
and commutatively — so :meth:`EmbeddingLogger.profile_source_parallel`
fans the per-chunk counting out across an elastic worker pool
(:class:`~repro.resilience.elastic.WorkerPool`) and folds the partial
counts back in canonical chunk order.  Exact integer sums in a fixed
order mean the parallel profile is *byte-identical* to the sequential
one, no matter which workers ran which chunks, in what order they
finished, or how many died and were re-dispatched along the way.
"""

from __future__ import annotations

import numpy as np

from repro.core.access_profile import AccessProfile, TableProfile
from repro.core.config import FAEConfig
from repro.data.chunk_source import ChunkSource, ShardChunk, ShardChunkSource
from repro.data.log import ClickLog
from repro.data.schema import DatasetSchema
from repro.data.synthetic import SyntheticClickLog
from repro.obs import timed
from repro.resilience.elastic import WorkerPool

__all__ = [
    "EmbeddingLogger",
    "PROFILE_TASK_KIND",
    "ProfileAccumulator",
]

#: Elastic-pool task kind for one chunk's access counting.
PROFILE_TASK_KIND = "repro.core.embedding_logger:_profile_chunk_counts"


def _profile_chunk_counts(payload: dict) -> dict:
    """Elastic-pool task: compact access counts for one chunk's samples.

    Two payload shapes: an *inline* payload carries the sampled sparse
    ids directly (``tables`` maps name -> ids array); a *shard* payload
    carries a shard path, the schema and local sample positions, and the
    worker does the shard I/O itself (the point of fanning out) through
    the sequential pass's :class:`~repro.data.chunk_source.ShardChunk`,
    so both accept and reject exactly the same shards.  Either way the
    result is ``{name: (unique_ids, counts)}`` — equivalent to the
    chunk's bincount, but compact enough to ship back over a queue.

    Tasks are pure: re-executing one (after a worker death or for
    speculation) recomputes exactly the same counts.
    """
    shard = payload.get("shard")
    if shard is not None:
        local = np.asarray(payload["local_indices"], dtype=np.int64)
        chunk = ShardChunk(payload["schema"], shard, int(payload["chunk_len"]))
        num_sampled = int(local.size)
        # No sampled row, no column touched: as ProfileAccumulator.update.
        names = payload["tables"] if num_sampled else ()
        tables = {name: chunk.sparse[name][local] for name in names}
    else:
        tables = payload["tables"]
        num_sampled = int(payload["num_sampled"])
    out = {}
    for name, ids in tables.items():
        unique, counts = np.unique(
            np.asarray(ids, dtype=np.int64).ravel(), return_counts=True
        )
        out[name] = (unique, counts.astype(np.int64))
    return {
        "tables": out,
        "num_sampled": num_sampled,
        "chunk_len": int(payload["chunk_len"]),
    }


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

    @property
    def table_names(self) -> list[str]:
        """Profiled (large) table names."""
        return list(self._profiles)

    def absorb_partial(self, partial: dict) -> None:
        """Merge one worker-computed partial (see ``_profile_chunk_counts``).

        Scatter-adding a chunk's ``(unique_ids, counts)`` pairs is the
        same integer arithmetic as :meth:`update`'s scatter, so feeding
        partials in canonical chunk order reproduces the sequential
        accumulator bit for bit.
        """
        self.num_observed += int(partial["chunk_len"])
        num_sampled = int(partial["num_sampled"])
        if num_sampled == 0:
            return
        self.num_sampled += num_sampled
        for name, (ids, counts) in partial["tables"].items():
            self._profiles[name].counts[ids] += counts

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

    def profile_source_parallel(
        self, source: ChunkSource, sample_indices: np.ndarray, pool: WorkerPool
    ) -> AccessProfile:
        """Parallel :meth:`profile_source` over an elastic worker pool.

        One task per chunk.  For a :class:`ShardChunkSource` the task
        payload is a shard *reference* (path + local sample positions)
        and workers do the shard I/O; for any other source the parent
        slices the sampled ids and ships them.  Partial counts are merged
        in canonical chunk order — exact integer sums, so the result is
        byte-identical to the sequential pass regardless of completion
        order, speculation, or worker deaths (see tests/test_elastic.py).

        Raises:
            TaskQuarantinedError: when a chunk's task was quarantined as
                poison — a profile missing a chunk would silently skew
                the plan, so the run fails instead.
        """
        sample_indices = np.asarray(sample_indices, dtype=np.int64)
        if sample_indices.size == 0:
            raise ValueError("sample_indices must be non-empty")

        with timed(
            "calibrate.profile",
            num_sampled=int(sample_indices.shape[0]),
            workers=pool.config.workers,
        ) as timer:
            accumulator = self.accumulator(source.schema)
            names = accumulator.table_names
            payloads: list[dict] = []
            if isinstance(source, ShardChunkSource):
                for path, start, count in source.shard_refs():
                    lo = np.searchsorted(sample_indices, start)
                    hi = np.searchsorted(sample_indices, start + count)
                    payloads.append(
                        {
                            "shard": path,
                            "schema": source.schema,
                            "tables": names,
                            "local_indices": sample_indices[lo:hi] - start,
                            "chunk_len": count,
                        }
                    )
            else:
                for start, chunk in source:
                    lo = np.searchsorted(sample_indices, start)
                    hi = np.searchsorted(sample_indices, start + len(chunk))
                    local = sample_indices[lo:hi] - start
                    payloads.append(
                        {
                            "tables": {name: chunk.sparse[name][local] for name in names},
                            "num_sampled": int(local.size),
                            "chunk_len": len(chunk),
                        }
                    )
            results = pool.run(PROFILE_TASK_KIND, payloads)
            for index in range(len(payloads)):
                accumulator.absorb_partial(results[index])
            timer.set(num_tables=accumulator.num_tables, num_chunks=len(payloads))

        self.last_elapsed_seconds = timer.seconds
        return accumulator.finalize(num_total_inputs=source.num_samples)
