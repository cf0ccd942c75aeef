"""Embedding Classifier (paper SS III-B).

Turns the calibrated threshold into concrete *hot-embedding bags*: for
each table, the sorted row ids whose sampled access count clears the
cutoff.  Small tables (below the large-table cutoff) are hot in their
entirety.  This is the single full pass over each table the paper
describes; its output is what the Embedding Replicator ships to GPUs and
what the Input Processor tests membership against.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.access_profile import AccessProfile
from repro.core.config import FAEConfig

__all__ = ["HotEmbeddingBagSpec", "EmbeddingClassifier"]


@dataclass(frozen=True)
class HotEmbeddingBagSpec:
    """The hot rows of one table.

    Attributes:
        table_name: which table.
        hot_ids: sorted int64 global row ids classified hot.
        num_rows: table cardinality (for mask reconstruction).
        dim: embedding dimension.
        whole_table: True when the entire table is hot (small tables).
    """

    table_name: str
    hot_ids: np.ndarray
    num_rows: int
    dim: int
    whole_table: bool

    @property
    def num_hot(self) -> int:
        return int(self.hot_ids.shape[0])

    @property
    def nbytes(self) -> int:
        return self.num_hot * self.dim * 4

    def hot_mask(self) -> np.ndarray:
        """Boolean membership mask of length ``num_rows``."""
        mask = np.zeros(self.num_rows, dtype=bool)
        mask[self.hot_ids] = True
        return mask

    def local_rows(self) -> np.ndarray:
        """``int32`` map of length ``num_rows``: each hot row's position in
        the bag, -1 for a cold row."""
        local = np.full(self.num_rows, -1, dtype=np.int32)
        local[self.hot_ids] = np.arange(self.num_hot, dtype=np.int32)
        return local


class EmbeddingClassifier:
    """Tags embedding rows as hot per the calibrated threshold.

    Args:
        config: FAE configuration (large-table cutoff).
    """

    def __init__(self, config: FAEConfig) -> None:
        self.config = config

    def classify(self, profile: AccessProfile, threshold: float) -> dict[str, HotEmbeddingBagSpec]:
        """Build hot bags for every table of the profiled schema.

        Args:
            profile: sampled access profile.
            threshold: the calibrator's final access threshold.

        Returns:
            Table name -> :class:`HotEmbeddingBagSpec` (every table
            appears; small tables come back as whole-table bags).
        """
        bags: dict[str, HotEmbeddingBagSpec] = {}
        for spec in profile.schema.tables:
            table_profile = profile.tables.get(spec.name)
            if table_profile is None:
                bags[spec.name] = HotEmbeddingBagSpec(
                    table_name=spec.name,
                    hot_ids=np.arange(spec.num_rows, dtype=np.int64),
                    num_rows=spec.num_rows,
                    dim=spec.dim,
                    whole_table=True,
                )
                continue
            min_count = profile.min_count_for_threshold(threshold, spec.name)
            hot_ids = np.flatnonzero(table_profile.counts >= min_count).astype(np.int64)
            bags[spec.name] = HotEmbeddingBagSpec(
                table_name=spec.name,
                hot_ids=hot_ids,
                num_rows=spec.num_rows,
                dim=spec.dim,
                whole_table=hot_ids.shape[0] == spec.num_rows,
            )
        return bags

    @staticmethod
    def total_hot_bytes(bags: dict[str, HotEmbeddingBagSpec]) -> int:
        """Aggregate GPU-resident footprint of the hot bags."""
        return sum(bag.nbytes for bag in bags.values())
