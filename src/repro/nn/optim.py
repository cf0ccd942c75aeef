"""Optimizers with first-class sparse-update support.

The paper's latency breakdown (Fig 14) shows the optimizer dominating
baseline time precisely because embedding gradients are applied on the
CPU.  Functionally, both baseline and FAE apply the *same* update; only
the device placement differs.  These optimizers therefore implement the
math once, and expose ``sparse_rows_touched`` so the hardware simulator
can cost the update on whichever device the execution plan placed it.
"""

from __future__ import annotations

import numpy as np

from repro.nn.parameter import Parameter

__all__ = ["SGD", "Adagrad"]


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
        self.last_sparse_rows = 0

    def zero_grad(self) -> None:
        for param in self.parameters:
            param.zero_grad()

    def step(self) -> None:
        """Apply accumulated gradients and clear them.

        Sparse records are the store's (``Parameter.store``): the first
        parameter of a store to come up coalesces and applies every
        record of the step at once, and clears them.
        """
        sparse_rows = 0
        for param in self.parameters:
            if param.grad is not None:
                self._update(param, ..., param.grad)
            coalesced = param.store.coalesced_sparse_grad()
            if coalesced is not None:
                self._update(param.store, coalesced.ids, coalesced.values)
                sparse_rows += coalesced.ids.shape[0]
            param.zero_grad()
        self.last_sparse_rows = sparse_rows

    def _update(self, param: Parameter, rows, grad: np.ndarray) -> None:
        """Apply ``grad`` (the parameter's own buffer, its slice of the rank's
        reduced bucket, or a new coalesced record: dropped right after, so
        scaled in place) to ``param.value[rows]``."""
        grad *= self.lr
        param.value[rows] -= grad

    def state_dict(self) -> dict[str, np.ndarray]:
        """SGD is stateless; nothing to checkpoint."""
        return {}

    def load_state_dict(self, state: dict[str, np.ndarray]) -> None:
        """SGD is stateless; accepts (and ignores) an empty state."""
        if state:
            raise ValueError(f"SGD has no state; got keys {sorted(state)}")


class Adagrad(SGD):
    """Adagrad with per-row state for sparse parameters (SGD's step loop).

    DLRM commonly trains embeddings with (rowwise) Adagrad; keeping the
    accumulator sparse-aware means only touched rows pay state updates,
    matching the access-skew economics the paper exploits.

    Args:
        parameters: trainable parameters.
        lr: learning rate.
        eps: denominator fudge factor.
    """

    def __init__(self, parameters: list[Parameter], lr: float, eps: float = 1e-10) -> None:
        super().__init__(parameters, lr)
        self.eps = eps
        # Keyed by parameter and by store: a table's state is a view of
        # its rows of the store's, which the store's update writes.
        self._state: dict[int, np.ndarray] = {}
        for p in self.parameters:
            store = self._state.setdefault(id(p.store), np.zeros_like(p.store.value))
            self._state[id(p)] = store[p.offset : p.offset + p.value.shape[0]]

    def _update(self, param: Parameter, rows, grad: np.ndarray) -> None:
        state = self._state[id(param)]
        state[rows] += grad**2
        param.value[rows] -= self.lr * grad / (np.sqrt(state[rows]) + self.eps)

    def state_dict(self) -> dict[str, np.ndarray]:
        """Accumulators keyed by parameter index (checkpointable)."""
        return {
            f"accum.{index:04d}": self._state[id(param)].copy()
            for index, param in enumerate(self.parameters)
        }

    def load_state_dict(self, state: dict[str, np.ndarray]) -> None:
        """Restore accumulators captured by :meth:`state_dict`.

        Raises:
            ValueError: on a missing key or shape mismatch — the state
                belongs to a differently-shaped parameter list.
        """
        for index, param in enumerate(self.parameters):
            key = f"accum.{index:04d}"
            if key not in state:
                raise ValueError(f"optimizer state is missing {key!r}")
            saved = state[key]
            if saved.shape != param.value.shape:
                raise ValueError(
                    f"optimizer state {key!r} has shape {saved.shape}, "
                    f"parameter expects {param.value.shape}"
                )
            self._state[id(param)][...] = saved
