"""Statistical Optimizer: threshold search against the GPU budget.

Walks the descending threshold grid, asking the Rand-Em Box for the
estimated hot-embedding footprint at each candidate (one sweep per table
covers the whole grid), and settles on the
*smallest* threshold (largest, most-covering hot set) whose upper-CI
footprint still fits the allocated GPU memory ``L``.  Smaller thresholds
classify more inputs as hot — more GPU-resident execution — so this is
the best-performance feasible point (paper SS III-A: "either finalizes
the threshold or adjusts it for the next iteration").
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass

from repro.core.access_profile import AccessProfile
from repro.core.config import FAEConfig
from repro.core.randem_box import HotSizeEstimate, RandEmBox

__all__ = ["ThresholdEvaluation", "CalibrationResult", "StatisticalOptimizer"]


@dataclass(frozen=True)
class ThresholdEvaluation:
    """Footprint estimate for one candidate threshold.

    Attributes:
        threshold: candidate access threshold (fraction of sampled inputs).
        estimated_bytes: point-estimate hot footprint across all tables
            (small tables counted whole).
        estimated_bytes_upper: upper-CI footprint the feasibility test uses.
        fits: whether the upper bound fits the GPU budget.
        per_table: per-table Rand-Em estimates for the large tables.
    """

    threshold: float
    estimated_bytes: float
    estimated_bytes_upper: float
    fits: bool
    per_table: tuple[HotSizeEstimate, ...]


@dataclass(frozen=True)
class CalibrationResult:
    """Outcome of the threshold search.

    Attributes:
        threshold: the final access threshold.
        evaluations: every candidate evaluated, in search order.
        gpu_memory_budget: the budget ``L`` the search ran against.
    """

    threshold: float
    evaluations: tuple[ThresholdEvaluation, ...]
    gpu_memory_budget: int

    @property
    def iterations(self) -> int:
        return len(self.evaluations)


class StatisticalOptimizer:
    """Grid search over thresholds using Rand-Em Box footprint estimates.

    Args:
        config: FAE configuration (budget, grid, CLT parameters).
    """

    def __init__(self, config: FAEConfig) -> None:
        self.config = config
        self._box = RandEmBox(config)

    def evaluate(self, profile: AccessProfile, threshold: float) -> ThresholdEvaluation:
        """Estimate the hot footprint at one threshold."""
        return self._sweep(profile, (threshold,))[0]

    def _sweep(
        self, profile: AccessProfile, thresholds: Sequence[float]
    ) -> list[ThresholdEvaluation]:
        """Every threshold's evaluation, each table swept once over all of them."""
        small_bytes = _small_bytes(profile)
        per_table = [
            self._box.sweep(
                table_profile,
                [profile.min_count_for_threshold(threshold, name) for threshold in thresholds],
            )
            for name, table_profile in profile.tables.items()
        ]
        evaluations = []
        for i, threshold in enumerate(thresholds):
            estimates = tuple(sweep[i] for sweep in per_table)
            total_mean = float(small_bytes)
            total_upper = float(small_bytes)
            for est in estimates:
                total_mean += est.hot_bytes_mean
                total_upper += est.hot_bytes_upper
            evaluations.append(
                ThresholdEvaluation(
                    threshold=threshold,
                    estimated_bytes=total_mean,
                    estimated_bytes_upper=total_upper,
                    fits=total_upper <= self.config.gpu_memory_budget,
                    per_table=estimates,
                )
            )
        return evaluations

    def converge(self, profile: AccessProfile) -> CalibrationResult:
        """Walk the grid from selective to permissive; keep the last fit.

        Every table is swept once over the whole grid
        (:meth:`RandEmBox.sweep`); the walk then stops at the first
        overflow after a fit, so ``evaluations`` is that prefix of the grid.

        Raises:
            ValueError: if even the most selective threshold overflows the
                budget, naming the budget in bytes and whether the small
                tables alone exceed it.
        """
        evaluations: list[ThresholdEvaluation] = []
        best: ThresholdEvaluation | None = None
        for evaluation in self._sweep(profile, self.config.threshold_grid):
            evaluations.append(evaluation)
            if evaluation.fits:
                best = evaluation
            else:
                if best is not None:
                    # Footprint grows monotonically as the threshold drops;
                    # once a candidate overflows, later ones will too.
                    break
        if best is None:
            budget, small_bytes = self.config.gpu_memory_budget, _small_bytes(profile)
            if small_bytes > budget:
                why = f"the always-hot small tables alone take {small_bytes} B"
            else:
                first = evaluations[0]
                why = (
                    f"even the most selective threshold, {first.threshold:g}, needs up to "
                    f"{math.ceil(first.estimated_bytes_upper)} B, {small_bytes} B of them "
                    "the always-hot small tables"
                )
            raise ValueError(f"no threshold fits the GPU budget of {budget} B; {why}")
        return CalibrationResult(
            threshold=best.threshold,
            evaluations=tuple(evaluations),
            gpu_memory_budget=self.config.gpu_memory_budget,
        )


def _small_bytes(profile: AccessProfile) -> int:
    """Bytes of the tables the profile leaves out: small, so always hot."""
    return sum(
        spec.size_bytes for spec in profile.schema.tables if spec.name not in profile.tables
    )
