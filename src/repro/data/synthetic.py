"""Synthetic click-log generation with planted, learnable labels.

The generator reproduces the two properties of the paper's real datasets
that FAE depends on:

1. **Access skew** — every sparse feature draws ids from a per-table
   truncated Zipf distribution (:class:`repro.data.zipf.ZipfSampler`),
   calibrated so that small head fractions capture the 75-92% access
   shares the paper measures.
2. **Learnability** — labels come from a planted logistic model over the
   dense features plus hidden per-row affinities, so the accuracy curves
   of Fig 12 / Table III are meaningful (a model that trains must climb
   above the base rate, and baseline vs FAE schedules can be compared).
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from repro.data.log import ClickLog
from repro.data.schema import DatasetSchema
from repro.data.zipf import ZipfSampler

__all__ = ["SyntheticConfig", "SyntheticClickLog"]


@dataclass(frozen=True)
class SyntheticConfig:
    """Knobs for synthetic log generation.

    Attributes:
        num_samples: rows to generate (overrides the schema's nominal count).
        seed: master seed; every table/stream derives its own child seed.
        label_noise: std-dev of Gaussian noise added to the planted logit.
        dense_scale: std-dev of the dense features.
        affinity_scale: std-dev of hidden per-row affinities.  Larger values
            make sparse features more informative relative to dense ones.
        dense_signal: multiplier on the dense weight vector.  Together with
            ``affinity_scale`` this sets the planted logit's spread and thus
            the Bayes accuracy (defaults target the ~79% test accuracy the
            paper reports for Criteo Kaggle).
    """

    num_samples: int
    seed: int = 0
    label_noise: float = 0.25
    dense_scale: float = 1.0
    affinity_scale: float = 1.6
    dense_signal: float = 1.6

    def __post_init__(self) -> None:
        if self.num_samples <= 0:
            raise ValueError("num_samples must be positive")
        if self.label_noise < 0:
            raise ValueError("label_noise must be non-negative")


class SyntheticClickLog(ClickLog):
    """A :class:`~repro.data.log.ClickLog` drawn from a planted model.

    Beyond the log's columns it keeps what generated them: ``config``,
    the per-table :meth:`sampler` and the planted logits behind
    :meth:`bayes_accuracy`.  The generated ids are in range by
    construction, so the log's per-table range scan is skipped.
    """

    def __init__(self, schema: DatasetSchema, config: SyntheticConfig) -> None:
        self.schema = schema
        self.config = config
        rng = np.random.default_rng(config.seed)

        n = config.num_samples
        self.dense = rng.normal(0.0, config.dense_scale, size=(n, schema.num_dense)).astype(
            np.float32
        )

        self.sparse: dict[str, np.ndarray] = {}
        self._samplers: dict[str, ZipfSampler] = {}
        logit = np.zeros(n, dtype=np.float64)

        # Dense contribution to the planted logit.
        if schema.num_dense:
            w_dense = rng.normal(
                0.0, config.dense_signal / np.sqrt(schema.num_dense), size=schema.num_dense
            )
            logit += self.dense @ w_dense

        # Sparse contributions: hidden affinity per embedding row.
        for t_index, spec in enumerate(schema.tables):
            sampler = ZipfSampler(
                num_items=spec.num_rows,
                exponent=spec.zipf_exponent,
                seed=config.seed * 7919 + t_index,
            )
            self._samplers[spec.name] = sampler
            ids = sampler.sample(n * spec.multiplicity).reshape(n, spec.multiplicity)
            self.sparse[spec.name] = ids
            affinity_rng = np.random.default_rng(config.seed * 104729 + t_index)
            affinity = affinity_rng.normal(0.0, config.affinity_scale, size=spec.num_rows)
            logit += affinity[ids].mean(axis=1) / np.sqrt(schema.num_sparse)

        logit += rng.normal(0.0, config.label_noise, size=n)
        probs = 1.0 / (1.0 + np.exp(-logit))
        self.labels = (rng.random(n) < probs).astype(np.float32)
        self._logits = logit

    def sampler(self, table_name: str) -> ZipfSampler:
        """Ground-truth sampler for a table (tests use this as an oracle)."""
        return self._samplers[table_name]

    def bayes_accuracy(self) -> float:
        """Accuracy of the planted model itself — an upper bound for training."""
        predictions = (self._logits > 0).astype(np.float32)
        return float((predictions == self.labels).mean())

    def take(self, indices: np.ndarray) -> "SyntheticClickLog":
        """Return a view-like copy restricted to ``indices`` (for splits)."""
        indices = np.asarray(indices)
        clone = object.__new__(SyntheticClickLog)
        clone.schema = self.schema
        clone.config = replace(self.config, num_samples=len(indices))
        clone.dense = self.dense[indices]
        clone.sparse = {name: ids[indices] for name, ids in self.sparse.items()}
        clone.labels = self.labels[indices]
        clone._logits = self._logits[indices]
        clone._samplers = self._samplers
        return clone
