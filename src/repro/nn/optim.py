"""Optimizers with first-class sparse-update support.

The paper's latency breakdown (Fig 14) shows the optimizer dominating
baseline time precisely because embedding gradients are applied on the
CPU.  Functionally, both baseline and FAE apply the *same* update; only
the device placement differs, and that cost is modelled by
:mod:`repro.hw`.  :class:`SGD` therefore implements the math once.
"""

from __future__ import annotations

import numpy as np

from repro.nn.parameter import Parameter

__all__ = ["SGD"]


class SGD:
    """Vanilla stochastic gradient descent (dense + sparse grads).

    Args:
        parameters: every trainable parameter of the model.
        lr: learning rate.
    """

    def __init__(self, parameters: list[Parameter], lr: float) -> None:
        if lr <= 0:
            raise ValueError(f"lr must be positive, got {lr}")
        self.parameters = list(parameters)
        self.lr = lr

    def zero_grad(self) -> None:
        for param in self.parameters:
            param.zero_grad()

    def step(self) -> None:
        """Apply accumulated gradients and clear them.

        Sparse records are the store's (``Parameter.store``): the first
        parameter of a store to come up coalesces and applies every
        record of the step at once, and clears them.
        """
        for param in self.parameters:
            if param.grad is not None:
                self._update(param, ..., param.grad)
            coalesced = param.store.coalesced_sparse_grad()
            if coalesced is not None:
                self._update(param.store, coalesced.ids, coalesced.values)
            param.zero_grad()

    def _update(self, param: Parameter, rows, grad: np.ndarray) -> None:
        """Apply ``grad`` (the parameter's own buffer, its slice of the rank's
        reduced bucket, or a new coalesced record: dropped right after, so
        scaled in place) to ``param.value[rows]``."""
        grad *= self.lr
        param.value[rows] -= grad
