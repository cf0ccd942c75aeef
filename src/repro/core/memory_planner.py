"""Automatic GPU memory budgeting for hot embeddings.

The paper leaves the hot-embedding allocation ``L`` to the user ("can be
set by the user, our experiments show that L = 256MB suffices").  On a
real deployment L should be *derived*: whatever HBM remains after the
model replica, its gradients and optimizer state, the activation
footprint of the chosen batch size, and the framework's fixed overheads.
:func:`plan_memory_budget` does that arithmetic and returns a
:class:`MemoryPlan` whose ``recommended_budget`` can be handed directly
to :class:`~repro.core.config.FAEConfig`.  Caller: ``repro simulate
--auto-budget`` (:mod:`repro.commands.simulate`).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.hw.spec import DeviceSpec, TESLA_V100
from repro.hw.workload import WorkloadCharacter

__all__ = ["MemoryPlan", "plan_memory_budget"]

#: CUDA context + cuDNN workspaces + allocator slack, bytes.
FRAMEWORK_RESERVED = 1 * 2**30

#: Safety multiplier on the activation estimate (covers workspace
#: double-buffering and the backward pass's temporaries).
ACTIVATION_SAFETY = 2.0


@dataclass(frozen=True)
class MemoryPlan:
    """How a GPU's memory is carved up for FAE training.

    Attributes:
        gpu_capacity: device memory, bytes.
        model_bytes: dense parameters + gradients + optimizer state.
        activation_bytes: forward activations held for backward.
        framework_bytes: fixed runtime reservation.
        recommended_budget: bytes left for hot embeddings (the FAE ``L``).
        feasible: False when even a zero budget does not fit.
    """

    gpu_capacity: int
    model_bytes: float
    activation_bytes: float
    framework_bytes: float
    recommended_budget: int
    feasible: bool

    def utilization(self) -> float:
        """Fraction of HBM used when the recommended budget is applied."""
        used = (
            self.model_bytes
            + self.activation_bytes
            + self.framework_bytes
            + self.recommended_budget
        )
        return used / self.gpu_capacity


def plan_memory_budget(
    workload: WorkloadCharacter,
    per_gpu_batch: int,
    gpu: DeviceSpec = TESLA_V100,
    max_budget: int | None = None,
) -> MemoryPlan:
    """Derive the hot-embedding budget L for one GPU.

    Args:
        workload: workload character (parameter and lookup volumes).
        per_gpu_batch: samples each GPU processes per step.
        gpu: device spec (capacity).
        max_budget: optional cap (e.g. the paper's 256 MB); the
            recommendation never exceeds it.

    Returns:
        The memory plan; ``recommended_budget`` is 0 when infeasible.
    """
    if per_gpu_batch <= 0:
        raise ValueError("per_gpu_batch must be positive")

    # Dense model: parameters + gradients + SGD has no extra state, but
    # momentum/Adagrad variants double it; charge 3x to be safe.
    model_bytes = 3.0 * workload.dense_param_bytes

    # Activations: embedding vectors gathered per sample plus MLP
    # activations; MLP activations scale with the interaction width,
    # approximated by pooled bytes x a safety factor, held for backward.
    per_sample = (
        workload.lookup_bytes_per_sample + workload.pooled_bytes_per_sample * 4.0
    )
    activation_bytes = ACTIVATION_SAFETY * per_gpu_batch * per_sample

    free = gpu.mem_capacity - FRAMEWORK_RESERVED - model_bytes - activation_bytes
    feasible = free > 0
    budget = int(max(0.0, free))
    if max_budget is not None:
        budget = min(budget, max_budget)
    return MemoryPlan(
        gpu_capacity=gpu.mem_capacity,
        model_bytes=model_bytes,
        activation_bytes=activation_bytes,
        framework_bytes=FRAMEWORK_RESERVED,
        recommended_budget=budget,
        feasible=feasible,
    )
