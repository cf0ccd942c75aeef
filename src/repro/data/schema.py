"""Dataset schemas: table geometry and feature layout.

A :class:`DatasetSchema` captures exactly the columns of the paper's
Table I that the rest of the system needs — dense feature count, sparse
feature count, embedding-table cardinalities and dimensions — plus the
per-table Zipf exponents that drive the synthetic generators.
"""

from __future__ import annotations

from dataclasses import dataclass


__all__ = ["EmbeddingTableSpec", "DatasetSchema"]

#: Bytes per embedding value.  The paper trains in fp32 full precision.
BYTES_PER_VALUE = 4


@dataclass(frozen=True)
class EmbeddingTableSpec:
    """Geometry of one embedding table.

    Attributes:
        name: stable identifier, e.g. ``"table_03"``.
        num_rows: table cardinality (number of embedding entries).
        dim: embedding dimension (paper: 16 for Kaggle/Taobao, 64 for Terabyte).
        zipf_exponent: skew of accesses into this table; 0 means uniform.
        multiplicity: lookups per sample into this table (Taobao sessions
            access up to 21 sub-inputs per sample, paper footnote 1).
    """

    name: str
    num_rows: int
    dim: int
    zipf_exponent: float = 1.05
    multiplicity: int = 1

    def __post_init__(self) -> None:
        if self.num_rows <= 0:
            raise ValueError(f"{self.name}: num_rows must be positive")
        if self.dim <= 0:
            raise ValueError(f"{self.name}: dim must be positive")
        if self.multiplicity <= 0:
            raise ValueError(f"{self.name}: multiplicity must be positive")
        if self.zipf_exponent < 0:
            raise ValueError(f"{self.name}: zipf_exponent must be non-negative")

    @property
    def size_bytes(self) -> int:
        """Full-precision storage footprint of the table."""
        return self.num_rows * self.dim * BYTES_PER_VALUE

    def rows_for_bytes(self, byte_budget: int) -> int:
        """How many rows fit in ``byte_budget`` bytes (floor, >= 0)."""
        return max(0, byte_budget // (self.dim * BYTES_PER_VALUE))


@dataclass(frozen=True)
class DatasetSchema:
    """Full feature layout of one workload.

    Attributes:
        name: dataset name ("criteo-kaggle", "criteo-terabyte", "taobao").
        num_dense: count of continuous features fed to the bottom MLP.
        tables: one spec per sparse feature / embedding table.
        num_samples: nominal training-set size of the real dataset
            (45 M / 80 M / 10 M per Table I); synthetic instantiations may
            generate fewer rows via ``SyntheticConfig.num_samples``.
    """

    name: str
    num_dense: int
    tables: tuple[EmbeddingTableSpec, ...]
    num_samples: int

    def __post_init__(self) -> None:
        if self.num_dense < 0:
            raise ValueError("num_dense must be non-negative")
        if not self.tables:
            raise ValueError("a schema needs at least one embedding table")
        names = [t.name for t in self.tables]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate table names in schema {self.name!r}")
        if self.num_samples <= 0:
            raise ValueError("num_samples must be positive")

    @property
    def num_sparse(self) -> int:
        """Number of sparse features (== number of embedding tables)."""
        return len(self.tables)

    @property
    def total_embedding_bytes(self) -> int:
        """Aggregate embedding storage (paper Fig 2's left bars)."""
        return sum(t.size_bytes for t in self.tables)

    @property
    def table_names(self) -> tuple[str, ...]:
        return tuple(t.name for t in self.tables)

    def table(self, name: str) -> EmbeddingTableSpec:
        """Look up a table spec by name.

        Raises:
            KeyError: if no table has that name.
        """
        for spec in self.tables:
            if spec.name == name:
                return spec
        raise KeyError(f"no table named {name!r} in schema {self.name!r}")

    def large_tables(self, min_bytes: int = 1 << 20) -> tuple[EmbeddingTableSpec, ...]:
        """Tables at/above ``min_bytes``.

        The paper treats tables under 1 MB as de-facto hot (SS III-A.1):
        they always fit in GPU memory, so the calibrator only profiles the
        large ones.
        """
        return tuple(t for t in self.tables if t.size_bytes >= min_bytes)

    def lookups_per_sample(self) -> int:
        """Total embedding lookups a single sample performs."""
        return int(sum(t.multiplicity for t in self.tables))

    def describe(self) -> str:
        """Human-readable one-line summary (used by examples)."""
        gib = self.total_embedding_bytes / 2**30
        return (
            f"{self.name}: {self.num_dense} dense + {self.num_sparse} sparse, "
            f"{gib:.2f} GiB of embeddings, {self.num_samples:,} samples"
        )


def scaled_schema(schema: DatasetSchema, row_scale: float, sample_scale: float) -> DatasetSchema:
    """Return a geometrically shrunken copy of ``schema``.

    Accuracy experiments train real numpy models, which cannot hold the
    paper's 73 M-row tables; scaling rows and samples by a common factor
    preserves the rank-frequency shape (Zipf exponents are scale-free).
    """
    if row_scale <= 0 or sample_scale <= 0:
        raise ValueError("scales must be positive")
    tables = tuple(
        EmbeddingTableSpec(
            name=t.name,
            num_rows=max(2, int(round(t.num_rows * row_scale))),
            dim=t.dim,
            zipf_exponent=t.zipf_exponent,
            multiplicity=t.multiplicity,
        )
        for t in schema.tables
    )
    return DatasetSchema(
        name=f"{schema.name}-x{row_scale:g}",
        num_dense=schema.num_dense,
        tables=tables,
        num_samples=max(1, int(round(schema.num_samples * sample_scale))),
    )
