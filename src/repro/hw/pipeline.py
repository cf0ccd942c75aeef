"""Discrete-event pipeline simulator: overlap-aware training timelines.

The closed-form :class:`~repro.hw.simulator.TrainingSimulator` sums phase
durations serially — the worst case.  Real training overlaps work across
mini-batches: while batch *i* runs its MLPs on the GPUs, the CPU can
already gather batch *i+1*'s embeddings (the paper's Fig 3 dataflow has
exactly this producer/consumer structure).  This module builds the
per-batch task DAG on explicit resources (CPU, GPU, PCIe, NVLink) and
schedules it with a list scheduler, yielding the *pipelined* makespan and
per-resource utilization.

The headline use is an ablation of the cost model itself
(``benchmarks/test_abl_pipeline.py``): how much does overlap shrink the
baseline and FAE epochs, and does the FAE advantage survive?  (It does —
the baseline's critical resource is the CPU either way.)
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.hw.cluster import Cluster
from repro.hw.costmodel import CostModel
from repro.hw.workload import WorkloadCharacter

__all__ = ["Task", "Resource", "PipelineSchedule", "PipelinedSimulator"]


@dataclass
class Resource:
    """A serially-occupied execution resource."""

    name: str
    available_at: float = 0.0
    busy_seconds: float = 0.0

    def reserve(self, earliest_start: float, duration: float) -> tuple[float, float]:
        """Occupy the resource for ``duration`` from the earliest slot."""
        start = max(self.available_at, earliest_start)
        end = start + duration
        self.available_at = end
        self.busy_seconds += duration
        return start, end


@dataclass
class Task:
    """One unit of work bound to a resource.

    Attributes:
        name: diagnostic id ("b3/mlp_forward").
        resource: the resource the task occupies.
        duration: seconds of occupancy.
        deps: tasks that must finish first.
    """

    name: str
    resource: str
    duration: float
    deps: list["Task"] = field(default_factory=list)
    start: float | None = None
    end: float | None = None

    def __post_init__(self) -> None:
        if self.duration < 0:
            raise ValueError(f"{self.name}: negative duration")


@dataclass
class PipelineSchedule:
    """A scheduled task set.

    Attributes:
        makespan: end time of the last task.
        utilization: resource name -> busy fraction of the makespan.
        tasks: the scheduled tasks (with start/end filled in).
    """

    makespan: float
    utilization: dict[str, float]
    tasks: list[Task]

    def critical_resource(self) -> str:
        return max(self.utilization, key=self.utilization.get)


def schedule(tasks: list[Task], resources: dict[str, Resource]) -> PipelineSchedule:
    """List-schedule ``tasks`` in dependency order on their resources.

    Tasks must be topologically ordered (each task after its deps), which
    the builders below guarantee by construction.

    Raises:
        KeyError: if a task names an unknown resource.
        ValueError: if a dependency has not been scheduled yet.
    """
    for task in tasks:
        for dep in task.deps:
            if dep.end is None:
                raise ValueError(f"{task.name}: dependency {dep.name} not yet scheduled")
        earliest = max((dep.end for dep in task.deps), default=0.0)
        resource = resources[task.resource]
        task.start, task.end = resource.reserve(earliest, task.duration)

    makespan = max((t.end for t in tasks), default=0.0)
    utilization = {
        name: (r.busy_seconds / makespan if makespan else 0.0)
        for name, r in resources.items()
    }
    return PipelineSchedule(makespan=makespan, utilization=utilization, tasks=tasks)


class PipelinedSimulator:
    """Overlap-aware epoch simulation for baseline and FAE modes.

    Args:
        cluster: hardware configuration.
        workload: workload character.
        lookahead: how many mini-batches may be in flight concurrently
            (framework prefetch depth; 2 = classic double buffering).
    """

    def __init__(self, cluster: Cluster, workload: WorkloadCharacter, lookahead: int = 2) -> None:
        if lookahead < 1:
            raise ValueError("lookahead must be >= 1")
        self.cluster = cluster
        self.workload = workload
        self.lookahead = lookahead
        self.cost = CostModel(cluster, workload)

    def _resources(self) -> dict[str, Resource]:
        return {
            "cpu": Resource("cpu"),
            "gpu": Resource("gpu"),
            "pcie": Resource("pcie"),
            "nvlink": Resource("nvlink"),
        }

    def _baseline_tasks(self, index: int, prev_stage_tail: dict[str, Task | None]) -> list[Task]:
        """Task DAG of one hybrid mini-batch (paper Fig 3)."""
        w = self.workload
        k = self.cluster.total_gpus
        batch = w.base_batch_size * k
        per_node = w.base_batch_size * self.cluster.num_gpus
        per_gpu = w.base_batch_size
        c = self.cost

        def dep_chain(task_deps):
            return [t for t in task_deps if t is not None]

        emb_fwd = Task(f"b{index}/emb_fwd", "cpu", c.embedding_forward(per_node, "cpu"),
                       dep_chain([prev_stage_tail["lookahead"]]))
        xfer_fwd = Task(f"b{index}/xfer_fwd", "pcie", c.activation_transfer(batch), [emb_fwd])
        mlp_fwd = Task(f"b{index}/mlp_fwd", "gpu",
                       self.workload.dispatch_seconds + c.mlp_forward(per_gpu), [xfer_fwd])
        mlp_bwd = Task(f"b{index}/mlp_bwd", "gpu", c.mlp_backward(per_gpu), [mlp_fwd])
        xfer_bwd = Task(f"b{index}/xfer_bwd", "pcie", c.activation_transfer(batch), [mlp_bwd])
        emb_bwd = Task(f"b{index}/emb_bwd", "cpu", c.embedding_backward(per_node, "cpu"), [xfer_bwd])
        opt_cpu = Task(f"b{index}/opt_cpu", "cpu", c.optimizer_embedding(per_node, "cpu"), [emb_bwd])
        allreduce = Task(f"b{index}/allreduce", "nvlink", c.allreduce_dense(), [mlp_bwd])
        opt_gpu = Task(f"b{index}/opt_gpu", "gpu", c.optimizer_dense(), [allreduce])
        tasks = [emb_fwd, xfer_fwd, mlp_fwd, mlp_bwd, xfer_bwd, emb_bwd, opt_cpu, allreduce, opt_gpu]
        # The next batch's weight reads depend on this batch's updates;
        # with `lookahead` batches in flight, batch i gates batch
        # i+lookahead (prefetch depth).
        prev_stage_tail["lookahead"] = opt_cpu if index % self.lookahead == self.lookahead - 1 else prev_stage_tail["lookahead"]
        return tasks

    def _hot_tasks(self, index: int) -> list[Task]:
        """Task DAG of one pure-hot FAE batch (all on GPU)."""
        w = self.workload
        per_gpu = w.base_batch_size
        c = self.cost
        emb_fwd = Task(f"h{index}/emb_fwd", "gpu",
                       w.dispatch_seconds + c.embedding_forward(per_gpu, "gpu"), [])
        mlp_fwd = Task(f"h{index}/mlp_fwd", "gpu", c.mlp_forward(per_gpu), [emb_fwd])
        mlp_bwd = Task(f"h{index}/mlp_bwd", "gpu", c.mlp_backward(per_gpu), [mlp_fwd])
        emb_bwd = Task(f"h{index}/emb_bwd", "gpu", c.embedding_backward(per_gpu, "gpu"), [mlp_bwd])
        allreduce = Task(f"h{index}/allreduce", "nvlink", c.allreduce_hot(per_gpu), [emb_bwd])
        opt = Task(f"h{index}/opt", "gpu",
                   c.optimizer_dense() + c.optimizer_embedding(per_gpu, "gpu"), [allreduce])
        return [emb_fwd, mlp_fwd, mlp_bwd, emb_bwd, allreduce, opt]

    def baseline_epoch(self, max_batches: int | None = None) -> PipelineSchedule:
        """Pipelined schedule of a baseline epoch (or its first batches)."""
        num = self.workload.batches_per_epoch(self.cluster.total_gpus)
        if max_batches is not None:
            num = min(num, max_batches)
        resources = self._resources()
        tail: dict[str, Task | None] = {"lookahead": None}
        tasks: list[Task] = []
        for index in range(num):
            tasks.extend(self._baseline_tasks(index, tail))
        return schedule(tasks, resources)

    def fae_epoch(self, max_batches: int | None = None) -> PipelineSchedule:
        """Pipelined schedule of an FAE epoch (hot and cold interleaved)."""
        num = self.workload.batches_per_epoch(self.cluster.total_gpus)
        if max_batches is not None:
            num = min(num, max_batches)
        num_hot = round(num * self.workload.hot_fraction)
        resources = self._resources()
        tasks: list[Task] = []
        tail: dict[str, Task | None] = {"lookahead": None}
        for index in range(num):
            if index < num - num_hot:
                tasks.extend(self._baseline_tasks(index, tail))
            else:
                tasks.extend(self._hot_tasks(index))
        sched = schedule(tasks, resources)
        sync = self.cost.hot_bag_sync()  # one transition in this layout
        return PipelineSchedule(
            makespan=sched.makespan + sync,
            utilization=sched.utilization,
            tasks=sched.tasks,
        )
