"""Shared recommender-model interface.

Both trainers (baseline hybrid and FAE) drive models through this
interface; the FAE trainer additionally swaps embedding bags in and out
via :meth:`RecModel.set_bag` when switching between the CPU-resident full
tables and the GPU-resident hot bags.
"""

from __future__ import annotations

import abc

import numpy as np

from repro.data.loader import MiniBatch
from repro.nn.embedding import EmbeddingTable
from repro.nn.parameter import Parameter

__all__ = ["RecModel"]


class RecModel(abc.ABC):
    """A binary click-through recommender model."""

    @abc.abstractmethod
    def forward(self, batch: MiniBatch) -> np.ndarray:
        """Compute ``(B,)`` logits for a mini-batch."""

    def predict(self, batch: MiniBatch) -> np.ndarray:
        """Forward-only ``(B,)`` logits, for serving: :meth:`forward`'s up
        to float32 rounding.

        A model may score some batches by a cheaper path of its own (DLRM
        scores a ranking request's shared context once); such a path keeps
        nothing for a backward and leaves what :meth:`forward` kept as it
        was.  Any other batch runs :meth:`forward` itself, so no
        :meth:`backward` may rely on a ``predict``.  Training, evaluation
        and AUC call :meth:`forward`, never this.  By default this is
        :meth:`forward`.
        """
        return self.forward(batch)

    @abc.abstractmethod
    def backward(self, grad_logits: np.ndarray) -> None:
        """Backpropagate from the logit gradient through every layer."""

    @abc.abstractmethod
    def parameters(self) -> list[Parameter]:
        """All trainable parameters (MLPs + embedding tables in use)."""

    @abc.abstractmethod
    def dense_parameters(self) -> list[Parameter]:
        """Parameters of the neural-network portion only (no tables)."""

    @property
    @abc.abstractmethod
    def tables(self) -> dict[str, EmbeddingTable]:
        """The full (CPU master) embedding tables by name."""

    @abc.abstractmethod
    def set_bag(self, table_name: str, bag) -> None:
        """Swap the lookup bag serving ``table_name`` (FAE hot/cold switch)."""

    @abc.abstractmethod
    def get_bag(self, table_name: str):
        """Current lookup bag serving ``table_name``."""

    def num_parameters(self) -> int:
        return sum(p.size for p in self.parameters())
