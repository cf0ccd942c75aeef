"""DLRM feature interaction: pairwise dot products + concatenation.

Given the bottom-MLP output ``x`` and the ``T`` pooled embedding vectors
``e_1..e_T`` (all of width ``d``), stacked as ``(T+1)`` feature vectors
in one ``(B, T+1, d)`` buffer, DLRM computes all distinct pairwise dot
products (the strictly lower triangle of the Gram matrix), and
concatenates those scalars with ``x`` to form the top-MLP input.
"""

from __future__ import annotations

import numpy as np

__all__ = ["DotInteraction"]


class DotInteraction:
    """Pairwise-dot feature interaction with exact backward."""

    def __init__(self) -> None:
        self._stacked: np.ndarray | None = None
        # Strictly-lower-triangle (rows, cols) per feature count seen.
        self._tril: dict[int, tuple[np.ndarray, np.ndarray]] = {}

    @staticmethod
    def output_dim(num_features: int, feature_dim: int) -> int:
        """Width of the interaction output: d + C(num_features, 2)."""
        return feature_dim + num_features * (num_features - 1) // 2

    def pairs(self, num_features: int) -> tuple[np.ndarray, np.ndarray]:
        """``(rows, cols)`` of the strictly lower triangle: output column
        ``d + k`` is the dot of features ``rows[k]`` and ``cols[k]``."""
        if num_features not in self._tril:
            self._tril[num_features] = np.tril_indices(num_features, k=-1)
        return self._tril[num_features]

    def forward(self, stacked: np.ndarray) -> np.ndarray:
        """Compute ``concat(stacked[:, 0], pairwise_dots)``.

        Args:
            stacked: ``(B, F, d)`` features, the bottom-MLP output in slot 0
                and the ``F - 1`` pooled embeddings after it (the buffer
                DLRM gathers its tables into); held, never written, until
                :meth:`backward`.

        Returns:
            ``(B, d + C(F, 2))`` interaction features.
        """
        if stacked.ndim != 3:
            raise ValueError(f"expected (B, F, d) features, got shape {stacked.shape}")
        batch, num_features, dim = stacked.shape
        # A contiguous transpose takes numpy's batched gemm path, not its
        # per-sample A @ A.T one: half the time, the same bits.
        gram = stacked @ np.ascontiguousarray(stacked.transpose(0, 2, 1))  # (B, F, F)
        tri_rows, tri_cols = self.pairs(num_features)
        self._stacked = stacked
        out = np.empty((batch, dim + tri_rows.shape[0]), dtype=np.float32)
        out[:, :dim] = stacked[:, 0]
        out[:, dim:] = gram[:, tri_rows, tri_cols]  # (B, C(F,2))
        return out

    def backward(self, grad_out: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Split the output gradient back into dense and embedding grads.

        Returns:
            ``(grad_dense, grad_embeddings)``: ``(B, d)``, and ``(F - 1, B, d)``
            whose ``i``-th entry is embedding ``i``'s gradient — views of
            one ``(B, F, d)`` buffer, so ``grad_embeddings.transpose(1, 0, 2)``
            is the ``(B, F - 1, d)`` block a batched lookup takes.
        """
        if self._stacked is None:
            raise RuntimeError("backward called before forward")
        stacked = self._stacked
        batch, num_features, dim = stacked.shape
        tri_rows, tri_cols = self.pairs(num_features)
        grad_dots = grad_out[:, dim:]  # (B, P)

        # Scatter pair gradients into a symmetric (B, F, F) matrix; each
        # dot z_ij = f_i . f_j sends grad to both f_i and f_j.
        grad_gram = np.zeros((batch, num_features, num_features), dtype=grad_out.dtype)
        grad_gram[:, tri_rows, tri_cols] = grad_dots
        grad_gram[:, tri_cols, tri_rows] = grad_dots
        grad_stacked = grad_gram @ stacked
        grad_stacked[:, 0, :] += grad_out[:, :dim]
        grad_stacked = grad_stacked.astype(np.float32, copy=False)
        self._stacked = None
        return grad_stacked[:, 0, :], grad_stacked[:, 1:, :].transpose(1, 0, 2)
