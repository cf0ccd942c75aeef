"""Evaluation metrics for click-through models."""

from __future__ import annotations

import numpy as np

from repro.data.loader import batch_from_log
from repro.data.synthetic import SyntheticClickLog
from repro.models.base import RecModel
from repro.nn.activations import sigmoid
from repro.nn.losses import BCEWithLogits

__all__ = ["binary_accuracy", "roc_auc", "evaluate_model"]


def roc_auc(logits: np.ndarray, labels: np.ndarray) -> float:
    """Area under the ROC curve (rank statistic, ties averaged).

    AUC is the standard CTR-model quality metric; computed via the
    Mann-Whitney U relation: AUC = (rank-sum of positives - offset) /
    (num_pos * num_neg).

    Raises:
        ValueError: if either class is absent (AUC undefined).
    """
    logits = np.asarray(logits, dtype=np.float64).ravel()
    labels = np.asarray(labels, dtype=np.float64).ravel()
    if logits.shape != labels.shape:
        raise ValueError(f"logits {logits.shape} vs labels {labels.shape} mismatch")
    positives = labels > 0.5
    num_pos = int(positives.sum())
    num_neg = labels.size - num_pos
    if num_pos == 0 or num_neg == 0:
        raise ValueError("AUC needs at least one positive and one negative sample")
    order = np.argsort(logits, kind="mergesort")
    ranks = np.empty(labels.size, dtype=np.float64)
    ranks[order] = np.arange(1, labels.size + 1)
    # Average ranks over tied scores so AUC is permutation-invariant.
    sorted_logits = logits[order]
    start = 0
    for i in range(1, labels.size + 1):
        if i == labels.size or sorted_logits[i] != sorted_logits[start]:
            if i - start > 1:
                ranks[order[start:i]] = ranks[order[start:i]].mean()
            start = i
    rank_sum = ranks[positives].sum()
    return float((rank_sum - num_pos * (num_pos + 1) / 2) / (num_pos * num_neg))


def binary_accuracy(logits: np.ndarray, labels: np.ndarray, threshold: float = 0.5) -> float:
    """Fraction of correct hard predictions at a probability threshold."""
    logits = np.asarray(logits, dtype=np.float64).ravel()
    labels = np.asarray(labels, dtype=np.float64).ravel()
    if logits.shape != labels.shape:
        raise ValueError(f"logits {logits.shape} vs labels {labels.shape} mismatch")
    predictions = sigmoid(logits) >= threshold
    return float((predictions == labels.astype(bool)).mean())


def evaluate_model(
    model: RecModel,
    log: SyntheticClickLog,
    batch_size: int = 2048,
    max_samples: int | None = None,
) -> tuple[float, float]:
    """Evaluate ``model`` on ``log``: returns ``(mean BCE loss, accuracy)``.

    Args:
        model: the model (forward-only; no gradients recorded).
        log: evaluation inputs.
        batch_size: evaluation batch size.
        max_samples: cap on evaluated samples (the FAE scheduler evaluates
            a subsample after each segment to keep training fast).
    """
    n = len(log) if max_samples is None else min(len(log), max_samples)
    if n == 0:
        raise ValueError("cannot evaluate on an empty log")
    total_loss = 0.0
    total_correct = 0.0
    for start in range(0, n, batch_size):
        indices = np.arange(start, min(start + batch_size, n))
        batch = batch_from_log(log, indices)
        logits = np.asarray(model.forward(batch), dtype=np.float64)
        total_loss += float(BCEWithLogits.per_sample(logits, batch.labels).sum())
        total_correct += float(((sigmoid(logits) >= 0.5) == batch.labels.astype(bool)).sum())
    return total_loss / n, total_correct / n
