"""Workload factories matching the paper's Table I geometry.

Three factories mirror the three evaluated workloads:

=======  ==================  =====  ======================================
Model    Dataset             Dense  Embedding tables
=======  ==================  =====  ======================================
RMC1     Taobao (Alibaba)    3      3 tables, 0.3 GB, largest 4.1M x 16
RMC2     Criteo Kaggle       13     26 tables, ~2 GB, largest 10.1M x 16
RMC3     Criteo Terabyte     13     26 tables, ~61 GB, largest 73.1M x 64
=======  ==================  =====  ======================================

Each factory accepts a ``scale``: ``"paper"`` keeps the full row counts
(used by the hardware cost model, which never allocates the tables), while
``"medium"``/``"small"``/``"tiny"`` shrink rows and samples by a common
factor so real numpy training and unit tests stay fast.  Zipf exponents
are scale-free, so the rank-frequency *shape* survives shrinking.
"""

from __future__ import annotations

import math

from repro.data.schema import DatasetSchema, EmbeddingTableSpec, scaled_schema

__all__ = [
    "criteo_kaggle_like",
    "criteo_terabyte_like",
    "taobao_like",
    "dataset_by_name",
    "SCALE_FACTORS",
]

#: Named geometric shrink factors applied to table rows and sample counts.
SCALE_FACTORS: dict[str, float] = {
    "paper": 1.0,
    "medium": 1.0 / 100.0,
    "small": 1.0 / 1000.0,
    "tiny": 1.0 / 20000.0,
}

# Published per-feature cardinalities of the Criteo Kaggle categorical
# columns (as preprocessed by the open-source DLRM repo).  Sum ~= 33.8M
# rows -> ~2.06 GiB at dim 16, matching Table I's "2 GB".
_KAGGLE_CARDINALITIES = (
    1460, 583, 10131227, 2202608, 305, 24, 12517, 633, 3, 93145, 5683,
    8351593, 3194, 27, 14992, 5461306, 10, 5652, 2173, 4, 7046547, 18, 15,
    286181, 105, 142572,
)

# Terabyte-like cardinalities: largest table pinned at 73.1M rows per
# Table I, remaining tables spread to total ~238M rows -> ~61 GB at dim 64.
_TERABYTE_CARDINALITIES = (
    73100000, 49000000, 40000000, 29000000, 11300000, 9990000, 7500000,
    5400000, 3600000, 2800000, 1570000, 980000, 452000, 345000, 142000,
    63000, 36700, 17200, 12600, 11200, 7400, 5650, 2200, 975, 105, 26,
)

# Taobao user-behaviour log: (users, items, categories).  Items and
# categories are accessed as length-21 behaviour sequences per sample
# (paper footnote 1: "a stream of up to 21 sub-inputs").
_TAOBAO_CARDINALITIES = (987994, 4162024, 9439)
_TAOBAO_SEQ_LEN = 21


def _resolve_scale(scale: str | float) -> float:
    """A named scale's factor, or a number (or numeric string) taken as one."""
    if scale in SCALE_FACTORS:
        return SCALE_FACTORS[scale]
    try:
        factor = float(scale)
    except ValueError:
        raise ValueError(
            f"unknown scale {scale!r}; expected one of {sorted(SCALE_FACTORS)} or a number"
        ) from None
    if not (math.isfinite(factor) and factor > 0):
        raise ValueError(f"scale must be finite and positive, got {scale!r}")
    return factor


def _skewed_exponent(num_rows: int, base: float) -> float:
    """Mild cardinality-dependent skew adjustment.

    Very small tables (tens of rows) in real logs look closer to uniform;
    huge tables are the ones with pronounced popularity skew.  This keeps
    the generated per-table access shares within the paper's 75-92% band.
    """
    if num_rows < 100:
        return max(0.0, base - 0.5)
    return base


def _build_schema(
    name: str,
    num_dense: int,
    cardinalities: tuple[int, ...],
    dim: int,
    num_samples: int,
    base_exponent: float,
    multiplicities: tuple[int, ...] | None = None,
) -> DatasetSchema:
    if multiplicities is None:
        multiplicities = tuple(1 for _ in cardinalities)
    tables = tuple(
        EmbeddingTableSpec(
            name=f"table_{i:02d}",
            num_rows=rows,
            dim=dim,
            zipf_exponent=_skewed_exponent(rows, base_exponent),
            multiplicity=mult,
        )
        for i, (rows, mult) in enumerate(zip(cardinalities, multiplicities))
    )
    return DatasetSchema(
        name=name, num_dense=num_dense, tables=tables, num_samples=num_samples
    )


def criteo_kaggle_like(scale: str | float = "small") -> DatasetSchema:
    """Criteo Kaggle-shaped workload (RMC2 / DLRM): 13 dense, 26 tables, dim 16.

    The base Zipf exponent is set so the top ~6.8% of rows of the big
    tables capture >=76% of accesses, the skew the paper reports in SS II-A.
    """
    schema = _build_schema(
        name="criteo-kaggle",
        num_dense=13,
        cardinalities=_KAGGLE_CARDINALITIES,
        dim=16,
        num_samples=45_000_000,
        base_exponent=1.10,
    )
    return _apply_scale(schema, scale)


def criteo_terabyte_like(scale: str | float = "small") -> DatasetSchema:
    """Criteo Terabyte-shaped workload (RMC3 / DLRM): 13 dense, 26 tables, dim 64."""
    schema = _build_schema(
        name="criteo-terabyte",
        num_dense=13,
        cardinalities=_TERABYTE_CARDINALITIES,
        dim=64,
        num_samples=80_000_000,
        base_exponent=1.45,
    )
    return _apply_scale(schema, scale)


def taobao_like(scale: str | float = "small") -> DatasetSchema:
    """Taobao-shaped workload (RMC1 / TBSM): 3 dense, 3 tables, dim 16.

    Item and category tables use multiplicity 21 to model the behaviour
    sequence each TBSM input carries.
    """
    schema = _build_schema(
        name="taobao",
        num_dense=3,
        cardinalities=_TAOBAO_CARDINALITIES,
        dim=16,
        num_samples=10_000_000,
        base_exponent=1.05,
        multiplicities=(1, _TAOBAO_SEQ_LEN, _TAOBAO_SEQ_LEN),
    )
    return _apply_scale(schema, scale)


def _apply_scale(schema: DatasetSchema, scale: str | float) -> DatasetSchema:
    factor = _resolve_scale(scale)
    if factor == 1.0:
        return schema
    scaled = scaled_schema(schema, row_scale=factor, sample_scale=factor)
    # Keep enough samples for meaningful training even at tiny scales.
    if scaled.num_samples < 2000:
        scaled = DatasetSchema(
            name=scaled.name,
            num_dense=scaled.num_dense,
            tables=scaled.tables,
            num_samples=2000,
        )
    return scaled


def dataset_by_name(name: str, scale: str | float = "small") -> DatasetSchema:
    """Factory lookup used by benchmarks: accepts the paper's dataset names."""
    factories = {
        "criteo-kaggle": criteo_kaggle_like,
        "criteo-terabyte": criteo_terabyte_like,
        "taobao": taobao_like,
    }
    try:
        factory = factories[name]
    except KeyError:
        raise ValueError(f"unknown dataset {name!r}; expected one of {sorted(factories)}") from None
    return factory(scale)
