"""Activation modules with cached-state backward passes."""

from __future__ import annotations

import numpy as np

__all__ = ["ReLU", "Sigmoid", "sigmoid"]


def sigmoid(x: np.ndarray) -> np.ndarray:
    """Numerically-stable logistic function (computed in ``x``'s dtype)."""
    # exp(-|x|) never overflows; 1/(1+e) for x >= 0 and e/(1+e) below.
    exp = np.exp(-np.abs(x))
    return np.where(x >= 0, 1.0, exp) / (1.0 + exp)


def _select(values: np.ndarray, mask: np.ndarray, out: np.ndarray | None) -> np.ndarray:
    """``values`` where ``mask`` else +0, in one pass over the raw bits.

    As integers ``bits * 1`` is the value itself and ``bits * 0`` is +0.0,
    for NaN, +-inf and -0.0 alike; a float product gives NaN or -0.0.
    """
    if out is None:
        out = np.empty_like(values)
    bits = f"i{values.dtype.itemsize}"
    np.multiply(values.view(bits), mask, out=out.view(bits))
    return out


class ReLU:
    """Rectified linear unit; NaN maps to 0, which the guards rely on.

    Pass the input as ``out`` to rectify in place a buffer the caller owns
    (as :class:`~repro.nn.mlp.MLP` does); by default a new array is returned.
    :meth:`predict` is :meth:`forward` without the mask kept for a backward.
    """

    def __init__(self) -> None:
        self._mask: np.ndarray | None = None

    def parameters(self) -> list:
        return []

    def forward(self, x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        self._mask = x > 0
        return _select(x, self._mask, out)

    def predict(self, x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        return _select(x, x > 0, out)

    def backward(self, grad_out: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        if self._mask is None:
            raise RuntimeError("backward called before forward")
        grad_in = _select(grad_out, self._mask, out)
        self._mask = None
        return grad_in


class Sigmoid:
    """Logistic activation (DLRM's output unit when not fused into the loss)."""

    def __init__(self) -> None:
        self._output: np.ndarray | None = None

    def parameters(self) -> list:
        return []

    def forward(self, x: np.ndarray) -> np.ndarray:
        self._output = sigmoid(x)
        return self._output

    def predict(self, x: np.ndarray) -> np.ndarray:
        return sigmoid(x)

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        if self._output is None:
            raise RuntimeError("backward called before forward")
        y = self._output
        grad_in = (grad_out * y * (1.0 - y)).astype(grad_out.dtype)
        self._output = None
        return grad_in
