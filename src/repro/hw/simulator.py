"""Training-timeline simulator: baseline vs FAE vs NvOPT epochs.

Composes :class:`~repro.hw.costmodel.CostModel` op prices into
per-mini-batch timelines and per-epoch totals with a named phase
breakdown (the paper's Fig 14 categories):

- ``baseline`` — the Fig 3 hybrid: embeddings forward/backward and the
  embedding optimizer on the CPU, MLPs on the GPUs, pooled activations
  and gradients crossing PCIe every batch.
- ``fae`` — hot mini-batches run entirely on the GPUs (embedding compute,
  optimizer, and a fused NVLink all-reduce); cold mini-batches fall back
  to the baseline path; hot<->cold transitions pay a hot-bag sync.
- ``nvopt`` — the NVIDIA-optimized comparator (SS V): embeddings cached on
  the GPU with mixed-precision compute, but batches stay mixed, so every
  batch pays a PCIe round-trip for its cold lookups.

Weak scaling follows the paper: the global batch is ``base x k`` on ``k``
GPUs, so per-epoch batch count shrinks by ``k`` while CPU-side phase cost
per batch grows with the global batch.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.hw.cluster import Cluster
from repro.hw.costmodel import CostModel
from repro.hw.workload import WorkloadCharacter

__all__ = [
    "PhaseBreakdown",
    "EpochTimeline",
    "TrainingSimulator",
    "TRANSFER_PHASES",
    "DDP_DISPATCH_SLOPE",
]

#: Per-extra-GPU inflation of host dispatch time.  Distributed data
#: parallelism adds per-batch process-group coordination (gradient-hook
#: bookkeeping, bucket flushes, barrier latencies) that grows with world
#: size; this is why the paper's FAE times flatten from 2 to 4 GPUs
#: (Table IV) even though per-epoch batch counts halve.
DDP_DISPATCH_SLOPE = 1.2

#: Per-row stall of a unified-memory page fault (NvOPT cold lookups):
#: fault trap + 64 KB migration + replay, ~60 us on PCIe 3.0.
UVM_PAGE_FAULT_SECONDS = 60e-6

#: Phases counted as CPU-GPU communication in Table V.
TRANSFER_PHASES = ("transfer_fwd", "transfer_bwd", "embedding_sync", "cold_page_in")

#: Phases during which the GPU is executing kernels.
GPU_COMPUTE_PHASES = (
    "mlp_forward",
    "mlp_backward",
    "emb_forward_gpu",
    "emb_backward_gpu",
    "optimizer_gpu",
)

#: Phases during which the GPU waits on the host (CPU embedding work).
GPU_WAIT_PHASES = ("emb_forward_cpu", "emb_backward_cpu", "optimizer_cpu")


@dataclass
class PhaseBreakdown:
    """Named phase durations, in seconds."""

    phases: dict[str, float] = field(default_factory=dict)

    def add(self, phase: str, seconds: float) -> None:
        if seconds < 0:
            raise ValueError(f"negative duration for phase {phase!r}")
        self.phases[phase] = self.phases.get(phase, 0.0) + seconds

    def merge(self, other: "PhaseBreakdown", weight: float = 1.0) -> None:
        for phase, seconds in other.phases.items():
            self.add(phase, seconds * weight)

    @property
    def total(self) -> float:
        return sum(self.phases.values())

    def fraction(self, phase: str) -> float:
        total = self.total
        return self.phases.get(phase, 0.0) / total if total else 0.0

    def group_total(self, phases: tuple[str, ...]) -> float:
        return sum(self.phases.get(p, 0.0) for p in phases)

    def scaled(self, factor: float) -> "PhaseBreakdown":
        return PhaseBreakdown({p: s * factor for p, s in self.phases.items()})


@dataclass(frozen=True)
class EpochTimeline:
    """One simulated training epoch.

    Attributes:
        mode: "baseline", "fae", or "nvopt".
        num_gpus: GPUs used.
        breakdown: total per-phase seconds for the epoch.
        num_batches: mini-batches executed.
        num_hot_batches: of which pure-hot (FAE only).
        transitions: hot<->cold swaps paid (FAE only).
    """

    mode: str
    num_gpus: int
    breakdown: PhaseBreakdown
    num_batches: int
    num_hot_batches: int = 0
    transitions: int = 0

    @property
    def seconds(self) -> float:
        return self.breakdown.total

    @property
    def minutes(self) -> float:
        return self.seconds / 60.0

    def communication_seconds(self) -> float:
        """CPU-GPU transfer time (Table V's metric)."""
        return self.breakdown.group_total(TRANSFER_PHASES)


class TrainingSimulator:
    """Simulates epochs of recommendation training on a cluster.

    Args:
        cluster: hardware configuration (GPU count matters).
        workload: workload character.
        transitions_per_epoch: hot<->cold swaps the Shuffle Scheduler
            performs per epoch; the paper's default R(50) yields 3
            (cold, hot, cold, hot segments).
    """

    def __init__(
        self,
        cluster: Cluster,
        workload: WorkloadCharacter,
        transitions_per_epoch: int = 3,
    ) -> None:
        if transitions_per_epoch < 0:
            raise ValueError("transitions_per_epoch must be non-negative")
        self.cluster = cluster
        self.workload = workload
        self.transitions_per_epoch = transitions_per_epoch
        self.cost = CostModel(cluster, workload)

    def _dispatch_seconds(self) -> float:
        """Host dispatch per batch, inflated by DDP coordination."""
        k = self.cluster.total_gpus
        return self.workload.dispatch_seconds * (1.0 + DDP_DISPATCH_SLOPE * (k - 1))

    # ------------------------------------------------------------------
    # Per-batch timelines
    # ------------------------------------------------------------------

    def baseline_batch(self) -> PhaseBreakdown:
        """One hybrid CPU-GPU mini-batch (global batch = base x total GPUs).

        CPU-side phases are charged per node: each server's host handles
        only its own GPUs' shard of the global batch, in parallel with
        the other nodes.
        """
        batch = self.workload.base_batch_size * self.cluster.total_gpus
        per_node = self.workload.base_batch_size * self.cluster.num_gpus
        per_gpu = self.workload.base_batch_size
        b = PhaseBreakdown()
        b.add("dispatch", self._dispatch_seconds())
        b.add("emb_forward_cpu", self.cost.embedding_forward(per_node, "cpu"))
        b.add("transfer_fwd", self.cost.activation_transfer(batch))
        b.add("mlp_forward", self.cost.mlp_forward(per_gpu))
        b.add("mlp_backward", self.cost.mlp_backward(per_gpu))
        b.add("transfer_bwd", self.cost.activation_transfer(batch))
        b.add("emb_backward_cpu", self.cost.embedding_backward(per_node, "cpu"))
        b.add("optimizer_cpu", self.cost.optimizer_embedding(per_node, "cpu"))
        b.add("optimizer_gpu", self.cost.optimizer_dense())
        b.add("allreduce", self.cost.allreduce_dense())
        return b

    def hot_batch(self) -> PhaseBreakdown:
        """One pure-hot FAE mini-batch: everything on the GPUs."""
        per_gpu = self.workload.base_batch_size
        b = PhaseBreakdown()
        b.add("dispatch", self._dispatch_seconds())
        b.add("emb_forward_gpu", self.cost.embedding_forward(per_gpu, "gpu"))
        b.add("mlp_forward", self.cost.mlp_forward(per_gpu))
        b.add("mlp_backward", self.cost.mlp_backward(per_gpu))
        b.add("emb_backward_gpu", self.cost.embedding_backward(per_gpu, "gpu"))
        b.add("allreduce", self.cost.allreduce_hot(per_gpu))
        b.add("optimizer_gpu", self.cost.optimizer_dense())
        b.add("optimizer_gpu", self.cost.optimizer_embedding(per_gpu, "gpu"))
        return b

    def sharded_feasible(self) -> bool:
        """Whether the model-parallel mode fits: shard + activations <= HBM."""
        k = self.cluster.total_gpus
        shard = self.workload.total_embedding_bytes / k
        headroom = 0.85 * self.cluster.gpu.mem_capacity  # activations/optimizer state
        return shard <= headroom

    def sharded_batch(self) -> PhaseBreakdown:
        """One model-parallel mini-batch: tables sharded across GPUs.

        Raises:
            ValueError: when the shard does not fit GPU memory.
        """
        if not self.sharded_feasible():
            k = self.cluster.total_gpus
            need = self.workload.total_embedding_bytes / 2**30
            raise ValueError(
                f"sharded mode infeasible: {need:.1f} GiB of tables across "
                f"{k} GPU(s) exceeds device memory"
            )
        k = self.cluster.total_gpus
        batch = self.workload.base_batch_size * k
        per_gpu = self.workload.base_batch_size
        b = PhaseBreakdown()
        b.add("dispatch", self._dispatch_seconds())
        # Each GPU gathers its owned tables' rows for the WHOLE global
        # batch (model parallelism does not shard the batch for lookups).
        b.add("emb_forward_gpu", self.cost.embedding_forward(batch, "gpu"))
        b.add("all_to_all", self.cost.all_to_all(batch))
        b.add("mlp_forward", self.cost.mlp_forward(per_gpu))
        b.add("mlp_backward", self.cost.mlp_backward(per_gpu))
        b.add("all_to_all", self.cost.all_to_all(batch))
        b.add("emb_backward_gpu", self.cost.embedding_backward(batch, "gpu"))
        b.add("optimizer_gpu", self.cost.optimizer_dense())
        b.add("optimizer_gpu", self.cost.optimizer_embedding(batch, "gpu"))
        b.add("allreduce", self.cost.allreduce_dense())
        return b

    def nvopt_batch(self) -> PhaseBreakdown:
        """One NvOPT mini-batch: GPU-cached embeddings, mixed batches.

        Mixed precision speeds the GEMMs ~1.3x end-to-end, and hot
        lookups hit HBM; but without FAE's pure batching, every batch
        faults its cold rows in through unified memory over PCIe.
        """
        per_gpu = self.workload.base_batch_size
        w = self.workload
        per_lookup_coverage = (
            w.hot_fraction ** (1.0 / w.lookup_rows_per_sample) if w.hot_fraction > 0 else 0.0
        )
        cold_rows = per_gpu * w.lookup_rows_per_sample * (1.0 - per_lookup_coverage)
        row_bytes = w.lookup_bytes_per_sample / w.lookup_rows_per_sample

        b = PhaseBreakdown()
        b.add("dispatch", self._dispatch_seconds())
        b.add("emb_forward_gpu", self.cost.embedding_forward(per_gpu, "gpu"))
        # Cold lookups fault through unified memory: a ~25 us stall per
        # missed row, plus the (fp16-halved) page payload over PCIe.
        b.add(
            "cold_page_in",
            cold_rows * UVM_PAGE_FAULT_SECONDS
            + self.cluster.pcie.transfer_seconds(cold_rows * row_bytes / 2, num_transfers=2),
        )
        b.add("mlp_forward", self.cost.mlp_forward(per_gpu) / 1.3)
        b.add("mlp_backward", self.cost.mlp_backward(per_gpu) / 1.3)
        b.add("emb_backward_gpu", self.cost.embedding_backward(per_gpu, "gpu"))
        b.add("allreduce", self.cost.allreduce_hot(per_gpu))
        b.add("optimizer_gpu", self.cost.optimizer_dense())
        b.add("optimizer_gpu", self.cost.optimizer_embedding(per_gpu, "gpu"))
        return b

    # ------------------------------------------------------------------
    # Epoch / run simulation
    # ------------------------------------------------------------------

    def epoch(self, mode: str = "baseline") -> EpochTimeline:
        """Simulate one epoch in the given execution mode."""
        k = self.cluster.total_gpus
        num_batches = self.workload.batches_per_epoch(k)

        if mode == "baseline":
            breakdown = self.baseline_batch().scaled(num_batches)
            return EpochTimeline("baseline", k, breakdown, num_batches)

        if mode == "nvopt":
            breakdown = self.nvopt_batch().scaled(num_batches)
            return EpochTimeline("nvopt", k, breakdown, num_batches)

        if mode == "sharded":
            breakdown = self.sharded_batch().scaled(num_batches)
            return EpochTimeline("sharded", k, breakdown, num_batches)

        if mode == "fae":
            num_hot = round(num_batches * self.workload.hot_fraction)
            num_cold = num_batches - num_hot
            breakdown = PhaseBreakdown()
            breakdown.merge(self.hot_batch(), weight=num_hot)
            breakdown.merge(self.baseline_batch(), weight=num_cold)
            breakdown.add(
                "embedding_sync", self.transitions_per_epoch * self.cost.hot_bag_sync()
            )
            return EpochTimeline(
                "fae",
                k,
                breakdown,
                num_batches,
                num_hot_batches=num_hot,
                transitions=self.transitions_per_epoch,
            )

        raise ValueError(f"unknown mode {mode!r}; expected baseline|fae|nvopt|sharded")

    def training_minutes(self, mode: str = "baseline", epochs: int = 10) -> float:
        """Total training time in minutes (Table IV reports 10 epochs)."""
        if epochs <= 0:
            raise ValueError("epochs must be positive")
        return self.epoch(mode).minutes * epochs

    def communication_minutes(self, mode: str = "baseline", epochs: int = 10) -> float:
        """CPU-GPU communication minutes (Table V)."""
        return self.epoch(mode).communication_seconds() / 60.0 * epochs

    def speedup(self) -> float:
        """FAE speedup over the baseline at this cluster size."""
        return self.epoch("baseline").seconds / self.epoch("fae").seconds
