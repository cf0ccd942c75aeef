"""Generic in-memory click log container.

:class:`ClickLog` is the structural interface every consumer in this
library actually relies on (the trainers, the FAE input processor, the
loader): dense features, per-table sparse ids, labels, and a schema.
:class:`~repro.data.synthetic.SyntheticClickLog` produces the same
surface with a planted generative model.
"""

from __future__ import annotations

import numpy as np

from repro.data.schema import DatasetSchema

__all__ = ["ClickLog"]


class ClickLog:
    """Dense features, sparse lookup ids, and labels for N samples.

    Attributes:
        schema: table geometry the sparse ids index into.
        dense: float32 ``(N, num_dense)``.
        sparse: table name -> int64 ``(N, multiplicity)``.
        labels: float32 ``(N,)`` in {0, 1}.
        quarantined_indices: input-row indices dropped under
            ``oov_policy="quarantine"`` (empty otherwise).

    ``oov_policy`` controls how out-of-range sparse ids are handled at
    construction: ``raise`` (default, historical behavior) aborts,
    ``clamp`` clips ids into ``[0, num_rows)``, ``quarantine`` drops the
    offending rows and records them in ``quarantined_indices``.  For
    richer per-field policies and a persistent ledger, use
    :class:`~repro.data.validate.ValidatingChunkSource`.
    """

    def __init__(
        self,
        schema: DatasetSchema,
        dense: np.ndarray,
        sparse: dict[str, np.ndarray],
        labels: np.ndarray,
        oov_policy: str = "raise",
    ) -> None:
        if oov_policy not in ("raise", "clamp", "quarantine"):
            raise ValueError(
                f"oov_policy must be 'raise', 'clamp', or 'quarantine', got {oov_policy!r}"
            )
        self.schema = schema
        self.dense = np.ascontiguousarray(dense, dtype=np.float32)
        self.labels = np.ascontiguousarray(labels, dtype=np.float32)
        self.sparse = {}
        self.quarantined_indices: np.ndarray = np.empty(0, dtype=np.int64)
        n = self.labels.shape[0]
        if self.dense.shape != (n, schema.num_dense):
            raise ValueError(
                f"dense shape {self.dense.shape} != ({n}, {schema.num_dense})"
            )
        if set(sparse) != set(schema.table_names):
            raise ValueError(
                f"sparse tables {sorted(sparse)} != schema tables {sorted(schema.table_names)}"
            )
        drop = np.zeros(n, dtype=bool)
        for spec in schema.tables:
            ids = np.ascontiguousarray(sparse[spec.name], dtype=np.int64)
            if ids.shape != (n, spec.multiplicity):
                raise ValueError(
                    f"{spec.name}: ids shape {ids.shape} != ({n}, {spec.multiplicity})"
                )
            if n and (ids.min() < 0 or ids.max() >= spec.num_rows):
                if oov_policy == "raise":
                    raise ValueError(f"{spec.name}: ids out of range [0, {spec.num_rows})")
                if oov_policy == "clamp":
                    ids = np.clip(ids, 0, spec.num_rows - 1)
                else:  # quarantine: mark offending rows for removal
                    drop |= ((ids < 0) | (ids >= spec.num_rows)).any(axis=1)
            self.sparse[spec.name] = ids
        if drop.any():
            self.quarantined_indices = np.flatnonzero(drop).astype(np.int64)
            keep = ~drop
            self.dense = self.dense[keep]
            self.labels = self.labels[keep]
            self.sparse = {name: ids[keep] for name, ids in self.sparse.items()}

    @classmethod
    def from_trusted(
        cls,
        schema: DatasetSchema,
        dense: np.ndarray,
        sparse: dict[str, np.ndarray],
        labels: np.ndarray,
    ) -> "ClickLog":
        """Construct without validation or copies.

        For internal use on arrays that are already validated — e.g.
        row-slice views handed out by
        :class:`~repro.data.chunk_source.LogChunkSource`.  Skipping the
        per-table range checks keeps chunk iteration free of extra full
        scans over the sparse ids.
        """
        log = cls.__new__(cls)
        log.schema = schema
        log.dense = dense
        log.sparse = sparse
        log.labels = labels
        return log

    def __len__(self) -> int:
        return int(self.labels.shape[0])

    @property
    def num_samples(self) -> int:
        return len(self)

    def access_counts(
        self, table_name: str, sample_indices: np.ndarray | None = None
    ) -> np.ndarray:
        """Per-row access counts for one table (FAE profiling hook)."""
        spec = self.schema.table(table_name)
        ids = self.sparse[table_name]
        if sample_indices is not None:
            ids = ids[sample_indices]
        return np.bincount(ids.ravel(), minlength=spec.num_rows).astype(np.int64)

    def base_rate(self) -> float:
        """Positive-label fraction."""
        return float(self.labels.mean()) if len(self) else 0.0

    def take(self, indices: np.ndarray) -> "ClickLog":
        """Row-subset copy (train/test splitting)."""
        indices = np.asarray(indices)
        return ClickLog(
            schema=self.schema,
            dense=self.dense[indices],
            sparse={name: ids[indices] for name, ids in self.sparse.items()},
            labels=self.labels[indices],
        )
