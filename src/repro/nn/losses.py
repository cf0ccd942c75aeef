"""Loss functions (fused logits + loss, as in torch's BCEWithLogitsLoss)."""

from __future__ import annotations

import numpy as np

from repro.nn.activations import sigmoid

__all__ = ["BCEWithLogits"]


class BCEWithLogits:
    """Binary cross-entropy on raw logits with mean reduction.

    Fusing the sigmoid into the loss keeps the backward pass numerically
    stable: ``dL/dlogit = (sigmoid(logit) - label) / B``.
    """

    def __init__(self) -> None:
        self._probs: np.ndarray | None = None
        self._labels: np.ndarray | None = None

    def forward(self, logits: np.ndarray, labels: np.ndarray) -> float:
        """Mean BCE over the batch.

        Args:
            logits: ``(B,)`` raw scores.
            labels: ``(B,)`` targets in {0, 1}.
        """
        loss = self.per_sample(logits, labels)
        self._probs = sigmoid(np.asarray(logits, dtype=np.float64).ravel())
        self._labels = np.asarray(labels, dtype=np.float64).ravel()
        return float(loss.mean())

    @staticmethod
    def per_sample(logits: np.ndarray, labels: np.ndarray) -> np.ndarray:
        """Unreduced BCE of each sample: float64 ``(B,)``."""
        logits = np.asarray(logits, dtype=np.float64).ravel()
        labels = np.asarray(labels, dtype=np.float64).ravel()
        if logits.shape != labels.shape:
            raise ValueError(f"logits {logits.shape} vs labels {labels.shape} mismatch")
        # log(1 + exp(-|x|)) formulation: stable for large |logits|.
        return np.maximum(logits, 0) - logits * labels + np.log1p(np.exp(-np.abs(logits)))

    def backward(self) -> np.ndarray:
        """Gradient of the mean loss w.r.t. the logits: ``(B,)`` float32."""
        if self._probs is None or self._labels is None:
            raise RuntimeError("backward called before forward")
        batch = self._labels.shape[0]
        grad = (self._probs - self._labels) / batch
        self._probs = None
        self._labels = None
        return grad.astype(np.float32)

    @staticmethod
    def predictions(logits: np.ndarray, threshold: float = 0.5) -> np.ndarray:
        """Hard 0/1 predictions from logits."""
        return (sigmoid(np.asarray(logits, dtype=np.float64)) >= threshold).astype(np.float32)
