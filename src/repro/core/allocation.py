"""Hot-budget allocation across tables: threshold rule vs product-optimal.

The paper's calibrator applies one global access threshold: a row is hot
iff its access count clears ``t x S_I`` (scaled by multiplicity).  That
rule maximizes the total *access* coverage per byte.  But the quantity
that actually drives FAE's speedup is the *hot-input fraction*

    P(input hot) = prod_z coverage_z ** multiplicity_z,

a product, not a sum: a table looked up 21 times per input (Taobao's
behaviour sequences) punishes low coverage 21-fold, so it deserves
disproportionate budget.  :func:`greedy_product_allocation` maximizes the
log of that product directly — a classic greedy on concave marginal
gains, optimal up to one block per table — and
``benchmarks/test_abl_allocation.py`` measures what it buys over the
paper's rule.

Both allocators consume the same sampled :class:`~repro.core.
access_profile.AccessProfile` the calibrator already builds, and both
return per-table hot-row id arrays compatible with
:class:`~repro.core.classifier.HotEmbeddingBagSpec`.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass

import numpy as np

from repro.core.access_profile import AccessProfile
from repro.core.classifier import HotEmbeddingBagSpec

__all__ = ["Allocation", "threshold_allocation", "greedy_product_allocation"]

#: Coverage floor standing in for "zero coverage" when computing log gains
#: (a table with zero hot rows zeroes the product; the greedy's first
#: block per table therefore carries an effectively unbounded gain).
_COVERAGE_FLOOR = 1e-12


@dataclass(frozen=True)
class Allocation:
    """A per-table hot-row assignment.

    Attributes:
        hot_rows: table name -> number of hot rows granted.
        bytes_used: total footprint of the allocation (plus small tables).
        log_hot_fraction: the objective, sum of mult * log(coverage)
            (``-inf`` when any profiled table got zero coverage).
    """

    hot_rows: dict[str, int]
    bytes_used: int
    log_hot_fraction: float

    def to_bag_specs(self, profile: AccessProfile) -> dict[str, HotEmbeddingBagSpec]:
        """Materialize bag specs: the top-k rows by sampled count per table.

        Small (unprofiled) tables come back whole, as in the classifier.
        """
        bags: dict[str, HotEmbeddingBagSpec] = {}
        for spec in profile.schema.tables:
            table_profile = profile.tables.get(spec.name)
            if table_profile is None:
                hot_ids = np.arange(spec.num_rows, dtype=np.int64)
                whole = True
            else:
                k = self.hot_rows.get(spec.name, 0)
                order = np.argsort(table_profile.counts, kind="stable")[::-1]
                hot_ids = np.sort(order[:k]).astype(np.int64)
                whole = k >= spec.num_rows
            bags[spec.name] = HotEmbeddingBagSpec(
                table_name=spec.name,
                hot_ids=hot_ids,
                num_rows=spec.num_rows,
                dim=spec.dim,
                whole_table=whole,
            )
        return bags


def _table_inputs(profile: AccessProfile):
    """(name, sorted-desc counts, total, row_bytes, multiplicity) per table."""
    for spec in profile.schema.tables:
        table_profile = profile.tables.get(spec.name)
        if table_profile is None:
            continue
        counts = np.sort(table_profile.counts, kind="stable")[::-1].astype(np.float64)
        total = counts.sum()
        yield spec.name, counts, total, table_profile.row_bytes(), spec.multiplicity


def _small_table_bytes(profile: AccessProfile) -> int:
    return sum(
        spec.size_bytes
        for spec in profile.schema.tables
        if spec.name not in profile.tables
    )


def _objective(profile: AccessProfile, hot_rows: dict[str, int]) -> float:
    log_fraction = 0.0
    for name, counts, total, _row_bytes, mult in _table_inputs(profile):
        k = hot_rows.get(name, 0)
        coverage = counts[:k].sum() / total if total > 0 else 1.0
        log_fraction += mult * np.log(max(coverage, _COVERAGE_FLOOR))
    return float(log_fraction)


def threshold_allocation(profile: AccessProfile, budget: int) -> Allocation:
    """The paper's rule: one global threshold, lowered until L is full.

    Binary-searches the threshold (exact, not sampled — this is the
    idealized version the greedy is compared against).
    """
    small = _small_table_bytes(profile)
    if small > budget:
        raise ValueError("small tables alone exceed the budget")
    tables = list(_table_inputs(profile))

    def rows_at(threshold: float) -> dict[str, int]:
        hot = {}
        for name, counts, _total, _rb, mult in tables:
            cutoff = profile.min_count_for_threshold(threshold, name)
            hot[name] = int(np.searchsorted(-counts, -cutoff, side="right"))
        return hot

    def bytes_at(hot: dict[str, int]) -> int:
        by_name = {name: rb for name, _c, _t, rb, _m in tables}
        return small + sum(k * by_name[name] for name, k in hot.items())

    lo, hi = 1e-12, 1.0
    for _ in range(80):
        mid = float(np.sqrt(lo * hi))
        if bytes_at(rows_at(mid)) > budget:
            lo = mid
        else:
            hi = mid
    hot = rows_at(hi)
    return Allocation(
        hot_rows=hot,
        bytes_used=bytes_at(hot),
        log_hot_fraction=_objective(profile, hot),
    )


def greedy_product_allocation(
    profile: AccessProfile, budget: int, block_rows: int = 16
) -> Allocation:
    """Maximize ``sum mult_z log(coverage_z)`` under the byte budget.

    Rows are granted in blocks of ``block_rows`` (in descending count
    order within each table) by a max-heap on marginal gain per byte.
    Because log-coverage is concave in the granted rows, per-table gains
    are non-increasing and the lazy greedy is exact up to one block.

    Raises:
        ValueError: if the always-hot small tables exceed the budget.
    """
    if block_rows <= 0:
        raise ValueError("block_rows must be positive")
    small = _small_table_bytes(profile)
    if small > budget:
        raise ValueError("small tables alone exceed the budget")

    state: dict[str, dict] = {}
    heap: list[tuple[float, str]] = []
    for name, counts, total, row_bytes, mult in _table_inputs(profile):
        cumulative = np.concatenate([[0.0], np.cumsum(counts)])
        state[name] = {
            "cumulative": cumulative,
            "total": total if total > 0 else 1.0,
            "row_bytes": row_bytes,
            "mult": mult,
            "granted": 0,
            "num_rows": len(counts),
        }
        gain = _block_gain(state[name], block_rows)
        if gain > 0:
            heapq.heappush(heap, (-gain, name))

    remaining = budget - small
    while heap:
        neg_gain, name = heapq.heappop(heap)
        table = state[name]
        block = min(block_rows, table["num_rows"] - table["granted"])
        cost = block * table["row_bytes"]
        if block == 0:
            continue
        if cost > remaining:
            continue  # this table's block no longer fits; try others
        # Lazy greedy: re-check the gain is still current.
        current_gain = _block_gain(table, block_rows)
        if current_gain < -neg_gain * (1 - 1e-12) - 1e-15:
            if current_gain > 0:
                heapq.heappush(heap, (-current_gain, name))
            continue
        table["granted"] += block
        remaining -= cost
        next_gain = _block_gain(table, block_rows)
        if next_gain > 0:
            heapq.heappush(heap, (-next_gain, name))

    hot = {name: table["granted"] for name, table in state.items()}
    return Allocation(
        hot_rows=hot,
        bytes_used=budget - remaining,
        log_hot_fraction=_objective(profile, hot),
    )


def _block_gain(table: dict, block_rows: int) -> float:
    """Marginal ``mult * dlog(coverage)`` per byte of the next block."""
    granted = table["granted"]
    block = min(block_rows, table["num_rows"] - granted)
    if block <= 0:
        return 0.0
    cumulative = table["cumulative"]
    total = table["total"]
    before = max(cumulative[granted] / total, _COVERAGE_FLOOR)
    after = max(cumulative[granted + block] / total, _COVERAGE_FLOOR)
    gain = table["mult"] * (np.log(after) - np.log(before))
    return float(gain / (block * table["row_bytes"]))
