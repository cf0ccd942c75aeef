"""Training histories: the curves behind Fig 12 and Table III."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

__all__ = ["HistoryPoint", "TrainingHistory"]


@dataclass(frozen=True)
class HistoryPoint:
    """One evaluation snapshot during training.

    Attributes:
        iteration: mini-batches processed so far.
        train_loss: running training loss at the snapshot.
        test_loss: evaluation loss.
        test_accuracy: evaluation accuracy.
        train_accuracy: accuracy the training steps measured on their own
            mini-batches: the unweighted mean over the batches since the
            previous snapshot (an FAE snapshot with no trained batch
            repeats the previous value) and, on a run's closing point,
            ``TrainResult.final_train_accuracy`` — the sample-weighted
            running accuracy of the final epoch.
        segment_kind: the execution mode of the segment just trained,
            "hot" or "cold" (every baseline segment is cold), or "final"
            on a run's closing point.
    """

    iteration: int
    train_loss: float
    test_loss: float
    test_accuracy: float
    train_accuracy: float
    segment_kind: str


@dataclass
class TrainingHistory:
    """Accumulated snapshots of one training run."""

    points: list[HistoryPoint] = field(default_factory=list)

    def record(self, point: HistoryPoint) -> None:
        if self.points and point.iteration < self.points[-1].iteration:
            raise ValueError("history iterations must be non-decreasing")
        self.points.append(point)

    def __len__(self) -> int:
        return len(self.points)

    @property
    def final(self) -> HistoryPoint:
        if not self.points:
            raise ValueError("history is empty")
        return self.points[-1]

    def best_test_accuracy(self) -> float:
        if not self.points:
            raise ValueError("history is empty")
        return max(p.test_accuracy for p in self.points)

    def series(self, attribute: str) -> tuple[np.ndarray, np.ndarray]:
        """(iterations, values) arrays for plotting a named attribute."""
        iters = np.array([p.iteration for p in self.points])
        values = np.array([getattr(p, attribute) for p in self.points])
        return iters, values

    def converged(self, window: int = 3, tolerance: float = 5e-3) -> bool:
        """True when the last ``window`` test losses move less than ``tolerance``."""
        if len(self.points) < window + 1:
            return False
        recent = [p.test_loss for p in self.points[-(window + 1):]]
        return max(recent) - min(recent) < tolerance
