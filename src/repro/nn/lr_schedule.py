"""Learning-rate schedules (the open-source DLRM's training recipe).

The reference DLRM trains with SGD plus a linear warmup followed by
polynomial decay; production CTR jobs commonly use step or cosine decay.
Schedules here are plain callables ``step -> lr`` attached to an
optimizer through :class:`ScheduledOptimizer`, which also adds classical
momentum — both knobs the paper's baseline training inherits from the
DLRM recipe.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.nn.parameter import Parameter

__all__ = [
    "ConstantSchedule",
    "WarmupPolynomialSchedule",
    "StepDecaySchedule",
    "CosineSchedule",
    "MomentumSGD",
]


@dataclass(frozen=True)
class ConstantSchedule:
    """``lr(step) = base_lr``."""

    base_lr: float

    def __post_init__(self) -> None:
        if self.base_lr <= 0:
            raise ValueError("base_lr must be positive")

    def __call__(self, step: int) -> float:
        return self.base_lr


@dataclass(frozen=True)
class WarmupPolynomialSchedule:
    """DLRM's recipe: linear warmup, plateau, polynomial decay to zero.

    Attributes:
        base_lr: peak learning rate.
        warmup_steps: steps to ramp 0 -> base_lr linearly.
        decay_start: step at which decay begins.
        decay_steps: decay window length.
        power: polynomial power (DLRM uses 2).
    """

    base_lr: float
    warmup_steps: int
    decay_start: int
    decay_steps: int
    power: float = 2.0

    def __post_init__(self) -> None:
        if self.base_lr <= 0:
            raise ValueError("base_lr must be positive")
        if self.warmup_steps < 0 or self.decay_steps <= 0:
            raise ValueError("invalid schedule window")
        if self.decay_start < self.warmup_steps:
            raise ValueError("decay cannot start before warmup ends")

    def __call__(self, step: int) -> float:
        if step < self.warmup_steps:
            return self.base_lr * (step + 1) / self.warmup_steps
        if step < self.decay_start:
            return self.base_lr
        progress = min(1.0, (step - self.decay_start) / self.decay_steps)
        return self.base_lr * (1.0 - progress) ** self.power


@dataclass(frozen=True)
class StepDecaySchedule:
    """``lr = base_lr * gamma^(step // step_size)``."""

    base_lr: float
    step_size: int
    gamma: float = 0.1

    def __post_init__(self) -> None:
        if self.base_lr <= 0 or self.step_size <= 0 or not 0 < self.gamma <= 1:
            raise ValueError("invalid step-decay parameters")

    def __call__(self, step: int) -> float:
        return self.base_lr * self.gamma ** (step // self.step_size)


@dataclass(frozen=True)
class CosineSchedule:
    """Cosine annealing from ``base_lr`` to ``min_lr`` over ``total_steps``."""

    base_lr: float
    total_steps: int
    min_lr: float = 0.0

    def __post_init__(self) -> None:
        if self.base_lr <= 0 or self.total_steps <= 0 or self.min_lr < 0:
            raise ValueError("invalid cosine parameters")
        if self.min_lr > self.base_lr:
            raise ValueError("min_lr exceeds base_lr")

    def __call__(self, step: int) -> float:
        progress = min(1.0, step / self.total_steps)
        return self.min_lr + 0.5 * (self.base_lr - self.min_lr) * (
            1.0 + np.cos(np.pi * progress)
        )


class MomentumSGD:
    """SGD with classical momentum and a pluggable LR schedule.

    Dense parameters carry a persistent velocity buffer; sparse
    (embedding) gradients apply plain scheduled SGD — per-row momentum
    state for multi-GB tables is exactly the memory cost sparse training
    avoids, matching the reference DLRM, which also exempts embeddings
    from momentum.

    Args:
        parameters: trainable parameters.
        schedule: ``step -> lr`` callable (or a float for constant).
        momentum: velocity coefficient in [0, 1).
    """

    def __init__(self, parameters: list[Parameter], schedule, momentum: float = 0.9) -> None:
        if isinstance(schedule, (int, float)):
            schedule = ConstantSchedule(float(schedule))
        if not 0 <= momentum < 1:
            raise ValueError(f"momentum must be in [0, 1), got {momentum}")
        self.parameters = list(parameters)
        self.schedule = schedule
        self.momentum = momentum
        self.step_count = 0
        self._velocity: dict[int, np.ndarray] = {}

    @property
    def current_lr(self) -> float:
        return self.schedule(self.step_count)

    def zero_grad(self) -> None:
        for param in self.parameters:
            param.zero_grad()

    def step(self) -> None:
        lr = self.schedule(self.step_count)
        for param in self.parameters:
            if param.grad is not None:
                velocity = self._velocity.get(id(param))
                if velocity is None:
                    velocity = np.zeros_like(param.value)
                    self._velocity[id(param)] = velocity
                velocity *= self.momentum
                velocity += param.grad
                param.value -= lr * velocity
            merged = param.coalesced_sparse_grad()
            if merged is not None:
                param.value[merged.ids] -= lr * merged.values
            param.zero_grad()
        self.step_count += 1
