"""Rand-Em Box: hot-embedding size estimation by random chunk sampling.

Implements the paper's Eq. 1-6 (SS III-A.3).  For an access threshold
``t`` and a table with ``N`` rows, the hot cutoff is ``H_zt = t x S_I``
accesses (Eq. 1).  Rather than scanning all ``N`` counts, the box draws
``n`` random chunks of ``m`` consecutive rows, counts above-cutoff rows
per chunk (Eq. 2-3), and applies the Central Limit Theorem: the chunk
means follow a t-distribution, so a two-sided t-interval around the mean
(Eq. 4-6) bounds the true hot fraction.  With ``n = 35`` and a 99.9%
interval (``t_{alpha/2} = 3.340``) the paper measures estimates within
10% of ground truth (Fig 9) at a 14.5-61x latency saving (Fig 10).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.access_profile import TableProfile
from repro.core.config import FAEConfig
from repro.obs import timed

__all__ = ["HotSizeEstimate", "RandEmBox"]


@dataclass(frozen=True)
class HotSizeEstimate:
    """Estimated hot-row population of one table at one threshold.

    Attributes:
        table_name: which table.
        min_count: the raw access cutoff ``H_zt`` used.
        hot_rows_mean: point estimate of hot rows in the table.
        hot_rows_upper: upper end of the confidence interval (the
            optimizer budgets against this to avoid overflowing GPU memory).
        hot_rows_lower: lower end of the interval (floored at 0).
        hot_bytes_mean: point estimate in bytes.
        hot_bytes_upper: upper-bound bytes.
        rows_scanned: how many counts the estimator actually read.
        exact: True when the table was small enough to scan fully.
    """

    table_name: str
    min_count: float
    hot_rows_mean: float
    hot_rows_upper: float
    hot_rows_lower: float
    hot_bytes_mean: float
    hot_bytes_upper: float
    rows_scanned: int
    exact: bool


class RandEmBox:
    """CLT-based hot-size estimator over sampled access counts.

    Args:
        config: supplies ``n`` (num_chunks), ``m`` (chunk_size) and the
            t-interval critical value.
        seed: chunk-placement seed.
    """

    def __init__(self, config: FAEConfig, seed: int | None = None) -> None:
        self.config = config
        self.seed = config.seed if seed is None else seed
        self.last_elapsed_seconds = 0.0

    def sample(self, profile: TableProfile) -> np.ndarray | None:
        """Access counts of the box's ``n`` random chunks, shape ``(n, m)``;
        None for a table small enough to scan exactly.  The draw depends on
        the seed and the table, not on a threshold: a threshold search takes
        it once per table and hands it to every :meth:`estimate`."""
        n, m = self.config.num_chunks, self.config.chunk_size
        if profile.num_rows <= n * m:
            return None
        starts = np.random.default_rng(self.seed).integers(0, profile.num_rows - m + 1, size=n)
        # One gather for all n chunks: rows[i, j] = starts[i] + j.
        return profile.counts[starts[:, None] + np.arange(m)]

    def estimate(
        self, profile: TableProfile, min_count: float, sample: np.ndarray | None = None
    ) -> HotSizeEstimate:
        """Estimate how many rows of ``profile`` meet ``min_count`` accesses.

        Tables with fewer than ``n x m`` rows are scanned exactly — the
        sampling machinery would read as much as a full scan there.
        ``sample`` is this table's :meth:`sample`, drawn here when absent.
        """
        with timed("calibrate.estimate", table=profile.name) as timer:
            n = self.config.num_chunks
            m = self.config.chunk_size
            num_rows = profile.num_rows
            row_bytes = profile.row_bytes()

            if num_rows <= n * m:
                hot = float(profile.hot_row_count(min_count))
                estimate = HotSizeEstimate(
                    table_name=profile.name,
                    min_count=min_count,
                    hot_rows_mean=hot,
                    hot_rows_upper=hot,
                    hot_rows_lower=hot,
                    hot_bytes_mean=hot * row_bytes,
                    hot_bytes_upper=hot * row_bytes,
                    rows_scanned=num_rows,
                    exact=True,
                )
            else:
                if sample is None:
                    sample = self.sample(profile)
                chunk_counts = (sample >= min_count).sum(axis=1).astype(np.float64)  # Eq. 2-3

                mean = float(chunk_counts.mean())  # Eq. 4
                std = float(chunk_counts.std(ddof=1))
                half_width = self.config.t_value * std / np.sqrt(n)  # Eq. 6

                fraction_mean = mean / m
                fraction_upper = min(1.0, (mean + half_width) / m)
                fraction_lower = max(0.0, (mean - half_width) / m)

                estimate = HotSizeEstimate(
                    table_name=profile.name,
                    min_count=min_count,
                    hot_rows_mean=fraction_mean * num_rows,
                    hot_rows_upper=fraction_upper * num_rows,
                    hot_rows_lower=fraction_lower * num_rows,
                    hot_bytes_mean=fraction_mean * num_rows * row_bytes,
                    hot_bytes_upper=fraction_upper * num_rows * row_bytes,
                    rows_scanned=n * m,
                    exact=False,
                )
            timer.set(rows_scanned=estimate.rows_scanned, exact=estimate.exact)

        # Thin alias over the span's wall time; kept for older callers.
        self.last_elapsed_seconds = timer.seconds
        return estimate

    def scan_reduction(self, profile: TableProfile) -> float:
        """How many times fewer rows the box reads than a full scan."""
        n, m = self.config.num_chunks, self.config.chunk_size
        if profile.num_rows <= n * m:
            return 1.0
        return profile.num_rows / (n * m)
