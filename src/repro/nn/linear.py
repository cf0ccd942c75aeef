"""Fully-connected layer with hand-derived backward pass."""

from __future__ import annotations

import numpy as np

from repro.nn.initializers import xavier_uniform
from repro.nn.parameter import Parameter

__all__ = ["Linear"]


class Linear:
    """Affine layer: ``y = x @ W.T + b``.

    Args:
        in_features: input width.
        out_features: output width.
        rng: seeded generator for Xavier init.
        name: parameter name prefix.
    """

    def __init__(self, in_features: int, out_features: int, rng: np.random.Generator, name: str = "linear") -> None:
        if in_features <= 0 or out_features <= 0:
            raise ValueError("feature sizes must be positive")
        self.in_features = in_features
        self.out_features = out_features
        self.weight = Parameter(f"{name}.weight", xavier_uniform(out_features, in_features, rng))
        self.bias = Parameter(f"{name}.bias", np.zeros(out_features, dtype=np.float32))
        self._input: np.ndarray | None = None

    def parameters(self) -> list[Parameter]:
        return [self.weight, self.bias]

    def forward(self, x: np.ndarray) -> np.ndarray:
        """Affine map into a new buffer; ``x`` is kept (never written) for backward."""
        out = self.predict(x)
        self._input = x
        return out

    def predict(self, x: np.ndarray) -> np.ndarray:
        """The affine map alone: nothing is kept for a backward."""
        if x.shape[-1] != self.in_features:
            raise ValueError(f"expected input width {self.in_features}, got {x.shape[-1]}")
        out = x @ self.weight.value.T
        out += self.bias.value
        return out

    def backward(self, grad_out: np.ndarray, input_grad: bool = True) -> np.ndarray | None:
        """Accumulate weight/bias grads; return gradient w.r.t. the input,
        or None (and no GEMM) with ``input_grad=False``."""
        if self._input is None:
            raise RuntimeError("backward called before forward")
        x = self._input
        # Support leading batch-like dims by flattening them for the GEMMs.
        flat_x = x.reshape(-1, self.in_features)
        flat_g = grad_out.reshape(-1, self.out_features)
        self.weight.accumulate_product(flat_g.T, flat_x)
        self.bias.accumulate_dense(flat_g.sum(axis=0))
        if not input_grad:
            grad_in = None
        elif self.out_features == 1:
            # A K=1 GEMM rounds one product per element: this product.
            grad_in = grad_out * self.weight.value
        else:
            grad_in = grad_out @ self.weight.value
        self._input = None
        return grad_in

    def flops_per_sample(self) -> int:
        """Multiply-accumulate count for one forward sample (cost model)."""
        return 2 * self.in_features * self.out_features
