"""Access profiles: per-row access counts and skew diagnostics.

A :class:`TableProfile` holds the access counts the Embedding Logger
gathered for one table over the sampled inputs; an :class:`AccessProfile`
aggregates the per-table profiles plus bookkeeping about how the sample
was drawn.  Profiles are what every downstream FAE stage (Rand-Em Box,
classifier, Fig 2/6/7 benches) consumes.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.data.schema import DatasetSchema

__all__ = ["TableProfile", "AccessProfile"]


@dataclass
class TableProfile:
    """Sampled access counts for one embedding table.

    Attributes:
        name: table name.
        counts: int64 ``(num_rows,)`` access counts over the sampled inputs.
        dim: embedding dimension (to convert rows to bytes).
        bytes_per_value: storage width (4 for fp32).
    """

    name: str
    counts: np.ndarray
    dim: int
    bytes_per_value: int = 4

    def __post_init__(self) -> None:
        self.counts = np.asarray(self.counts, dtype=np.int64)
        if self.counts.ndim != 1:
            raise ValueError(f"{self.name}: counts must be 1-D")

    @property
    def num_rows(self) -> int:
        return int(self.counts.shape[0])

    @property
    def total_accesses(self) -> int:
        return int(self.counts.sum())

    def row_bytes(self) -> int:
        return self.dim * self.bytes_per_value

    def accumulate(self, ids: np.ndarray) -> None:
        """Add one chunk of sampled lookup ids to the counts.

        The streaming profiler builds a table's profile one chunk at a
        time, scattering each id into its count (``np.add.at``, unbuffered:
        a repeated id counts every time).  Integer sums are exact in any
        order, so chunking never changes the final profile, and a chunk
        costs its ids, not a ``num_rows``-long ``bincount``: a 5 % sample
        of a chunk touches a few hundred rows of a 100 k-row table.  Ids
        are range-checked where they enter (``ClickLog``, shard decode).
        """
        np.add.at(self.counts, np.asarray(ids, dtype=np.int64).ravel(), 1)

    def hot_mask(self, min_count: float) -> np.ndarray:
        """Boolean mask of rows with at least ``min_count`` accesses."""
        return self.counts >= min_count

    def hot_row_count(self, min_count: float) -> int:
        return int(np.count_nonzero(self.counts >= min_count))

    def hot_bytes(self, min_count: float) -> int:
        return self.hot_row_count(min_count) * self.row_bytes()

    def hot_access_share(self, min_count: float) -> float:
        """Fraction of all accesses landing on rows above the threshold."""
        total = self.total_accesses
        if total == 0:
            return 0.0
        hot = self.counts[self.counts >= min_count].sum()
        return float(hot / total)

    def top_fraction_share(self, fraction: float) -> float:
        """Access share captured by the most-popular ``fraction`` of rows.

        Reproduces statements like "top 6.8% of entries get >= 76% of
        accesses" (paper SS II-A).
        """
        if not 0 < fraction <= 1:
            raise ValueError(f"fraction must be in (0, 1], got {fraction}")
        total = self.total_accesses
        if total == 0:
            return 0.0
        k = max(1, int(round(fraction * self.num_rows)))
        top = np.partition(self.counts, self.num_rows - k)[self.num_rows - k :]
        return float(top.sum() / total)

    def rank_frequency(self, max_points: int | None = None) -> np.ndarray:
        """Descending access counts (the Fig 7 access-profile curve)."""
        ordered = np.sort(self.counts)[::-1]
        if max_points is not None:
            ordered = ordered[:max_points]
        return ordered


@dataclass
class AccessProfile:
    """Aggregated sampled access profile for a dataset.

    Attributes:
        schema: the dataset geometry profiled.
        tables: per-table profiles keyed by name.  Only *large* tables are
            profiled (small ones are de-facto hot, SS III-A.1); absent
            names mean the table was below the large-table cutoff.
        num_sampled_inputs: |S_I hat| — how many inputs the counts cover.
        num_total_inputs: |S_I| — size of the full training input set.
    """

    schema: DatasetSchema
    tables: dict[str, TableProfile]
    num_sampled_inputs: int
    num_total_inputs: int

    def __post_init__(self) -> None:
        if self.num_sampled_inputs <= 0:
            raise ValueError("num_sampled_inputs must be positive")
        if self.num_total_inputs < self.num_sampled_inputs:
            raise ValueError("cannot sample more inputs than exist")

    @property
    def sample_rate(self) -> float:
        return self.num_sampled_inputs / self.num_total_inputs

    def min_count_for_threshold(self, threshold: float, table_name: str) -> float:
        """Translate an access threshold into a raw count cutoff (Eq. 1).

        ``H_zt = t x S_I``, with S_I the sampled-input count scaled by the
        table's lookup multiplicity (a table looked up m times per input
        sees m x S_I total accesses).
        """
        multiplicity = self.schema.table(table_name).multiplicity
        return threshold * self.num_sampled_inputs * multiplicity
