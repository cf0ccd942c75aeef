"""Popularity-drift detection and recalibration support.

The FAE preprocessing runs once per dataset, but item popularity moves:
new items trend, old ones cool off.  When that happens the hot bags stop
covering the access stream and hot-input classification degrades — the
paper notes hotness "needs to be re-calibrated for every model, dataset,
and system configuration tuple" (SS I), and drift is the *when*.

:class:`DriftDetector` watches a fresh window of inputs and compares its
hot-set coverage against the coverage measured at calibration time; a
relative drop beyond the tolerance flags drift.  :func:`recalibration_diff`
then quantifies how much of each hot bag a recalibration would change —
useful to size the replica-refresh traffic a live recalibration costs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.classifier import HotEmbeddingBagSpec
from repro.core.input_processor import compute_hot_mask
from repro.core.sampler import SparseInputSampler

__all__ = ["DriftReport", "DriftDetector", "recalibration_diff"]


@dataclass(frozen=True)
class DriftReport:
    """Outcome of one drift check.

    Attributes:
        hot_input_fraction: hot-input share measured on the new window.
        baseline_hot_input_fraction: share at calibration time.
        per_table_coverage: table name -> fraction of the window's
            accesses that hit the table's hot bag.
        relative_drop: ``1 - current/baseline`` hot-input share (0 when
            the window is as hot as calibration; 1 when nothing is hot).
        drifted: True when the drop exceeds the detector's tolerance.
    """

    hot_input_fraction: float
    baseline_hot_input_fraction: float
    per_table_coverage: dict[str, float]
    relative_drop: float
    drifted: bool

    def worst_table(self) -> str:
        """The table whose hot bag covers the least of the new traffic."""
        return min(self.per_table_coverage, key=self.per_table_coverage.get)


class DriftDetector:
    """Monitors hot-set coverage of fresh input windows.

    Args:
        bags: hot bags from the active FAE plan.
        baseline_hot_input_fraction: hot-input share of the plan's
            training log (``plan.hot_input_fraction``).
        tolerance: maximum tolerated *relative* drop in hot-input share
            before recalibration is recommended.  The default 0.15
            tolerates sampling noise while catching genuine shifts.
        sample_rate: fraction of the window to inspect (the same cheap
            sampling trick the calibrator uses).
        seed: sampling seed.
    """

    def __init__(
        self,
        bags: dict[str, HotEmbeddingBagSpec],
        baseline_hot_input_fraction: float,
        tolerance: float = 0.15,
        sample_rate: float = 0.2,
        seed: int = 0,
    ) -> None:
        if not 0 <= baseline_hot_input_fraction <= 1:
            raise ValueError("baseline_hot_input_fraction must be in [0, 1]")
        if not 0 < tolerance < 1:
            raise ValueError(f"tolerance must be in (0, 1), got {tolerance}")
        self.bags = bags
        self.baseline = baseline_hot_input_fraction
        self.tolerance = tolerance
        self.sample_rate = sample_rate
        self.seed = seed
        self._masks = {name: bag.hot_mask() for name, bag in bags.items()}

    def check(self, window) -> DriftReport:
        """Measure hot coverage on a fresh window of inputs.

        Args:
            window: a click log drawn from the *new* traffic.

        Raises:
            KeyError: if a window table has no hot bag.
        """
        indices = SparseInputSampler(self.sample_rate, seed=self.seed).sample(window).indices
        sampled = {name: ids[indices] for name, ids in window.sparse.items()}
        # Only the sampled rows are classified, and through the bare mask:
        # a check is not a training pass, so it bumps no classify counter
        # and leaves the training hot-fraction gauge alone.
        current = float(compute_hot_mask(sampled, self.bags, self._masks, len(indices)).mean())
        coverage = {name: float(self._masks[name][ids].mean()) for name, ids in sampled.items()}

        if self.baseline <= 0:
            relative_drop = 0.0 if current <= 0 else -1.0
        else:
            relative_drop = 1.0 - current / self.baseline
        return DriftReport(
            hot_input_fraction=current,
            baseline_hot_input_fraction=self.baseline,
            per_table_coverage=coverage,
            relative_drop=relative_drop,
            drifted=relative_drop > self.tolerance,
        )


def recalibration_diff(
    old_bags: dict[str, HotEmbeddingBagSpec],
    new_bags: dict[str, HotEmbeddingBagSpec],
) -> dict[str, tuple[int, int]]:
    """Per-table (rows added, rows removed) between two hot-bag sets.

    The added-row count times the row size is the extra replica-refresh
    traffic a live recalibration ships to each GPU.

    Raises:
        KeyError: if the bag sets cover different tables.
    """
    if set(old_bags) != set(new_bags):
        raise KeyError("bag sets must cover the same tables")
    diff: dict[str, tuple[int, int]] = {}
    for name in old_bags:
        old_ids = old_bags[name].hot_ids
        new_ids = new_bags[name].hot_ids
        added = int(np.setdiff1d(new_ids, old_ids, assume_unique=True).size)
        removed = int(np.setdiff1d(old_ids, new_ids, assume_unique=True).size)
        diff[name] = (added, removed)
    return diff
