"""DLRM feature interaction: pairwise dot products + concatenation.

Given the bottom-MLP output ``x`` and the ``T`` pooled embedding vectors
``e_1..e_T`` (all of width ``d``), DLRM stacks them into ``(T+1)`` feature
vectors, computes all distinct pairwise dot products (the strictly lower
triangle of the Gram matrix), and concatenates those scalars with ``x``
to form the top-MLP input.
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

    def forward(self, dense_vec: np.ndarray, embedding_vecs: list[np.ndarray]) -> np.ndarray:
        """Compute ``concat(dense_vec, pairwise_dots)``.

        Args:
            dense_vec: ``(B, d)`` bottom-MLP output.
            embedding_vecs: list of ``(B, d)`` pooled embeddings.

        Returns:
            ``(B, d + C(T+1, 2))`` interaction features.
        """
        features = [dense_vec, *embedding_vecs]
        widths = {f.shape[1] for f in features}
        if len(widths) != 1:
            raise ValueError(f"all interacted features must share width, got {sorted(widths)}")
        stacked = np.stack(features, axis=1)  # (B, F, d)
        batch, num_features, dim = stacked.shape
        gram = stacked @ stacked.transpose(0, 2, 1)  # (B, F, F)
        if num_features not in self._tril:
            self._tril[num_features] = np.tril_indices(num_features, k=-1)
        tri_rows, tri_cols = self._tril[num_features]
        self._stacked = stacked
        out = np.empty((batch, dim + tri_rows.shape[0]), dtype=np.float32)
        out[:, :dim] = dense_vec
        out[:, dim:] = gram[:, tri_rows, tri_cols]  # (B, C(F,2))
        return out

    def backward(self, grad_out: np.ndarray) -> tuple[np.ndarray, list[np.ndarray]]:
        """Split the output gradient back into dense and embedding grads.

        Returns:
            ``(grad_dense, [grad_e1, ..., grad_eT])``.
        """
        if self._stacked is None:
            raise RuntimeError("backward called before forward")
        stacked = self._stacked
        batch, num_features, dim = stacked.shape
        tri_rows, tri_cols = self._tril[num_features]
        grad_dots = grad_out[:, dim:]  # (B, P)

        # Scatter pair gradients into a symmetric (B, F, F) matrix; each
        # dot z_ij = f_i . f_j sends grad to both f_i and f_j.
        grad_gram = np.zeros((batch, num_features, num_features), dtype=grad_out.dtype)
        grad_gram[:, tri_rows, tri_cols] = grad_dots
        grad_gram[:, tri_cols, tri_rows] = grad_dots
        # Rows of this one buffer are handed out as views: (B, F, d).
        grad_stacked = grad_gram @ stacked
        grad_stacked[:, 0, :] += grad_out[:, :dim]
        grad_stacked = grad_stacked.astype(np.float32, copy=False)
        self._stacked = None
        return grad_stacked[:, 0, :], [grad_stacked[:, i, :] for i in range(1, num_features)]
