"""Price baseline, FAE and NvOPT epochs on the paper's server.

Runs the analytical cluster model for one of the paper's workloads
(RMC1-3) and prints minutes per run, communication time and average
power per GPU for each mode, plus FAE's speedup over the baseline.
``--auto-budget`` derives the hot-embedding budget from GPU memory
(:func:`repro.core.plan_memory_budget`) instead of ``--budget-mb``.
"""

from __future__ import annotations

import argparse

from repro.hw import Cluster, PowerModel, TrainingSimulator, characterize
from repro.models import workload_by_name


def add_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("workload", choices=("RMC1", "RMC2", "RMC3"))
    parser.add_argument("--gpus", type=int, default=4)
    parser.add_argument("--epochs", type=int, default=10)
    parser.add_argument("--budget-mb", type=int, default=256)
    parser.add_argument(
        "--auto-budget",
        action="store_true",
        help="derive the hot-embedding budget from GPU memory instead of --budget-mb",
    )


def run(args: argparse.Namespace) -> int:
    spec = workload_by_name(args.workload)
    budget = args.budget_mb * 2**20
    if args.auto_budget:
        from repro.core import plan_memory_budget

        sizing = characterize(spec, gpu_memory_budget=budget)
        plan = plan_memory_budget(sizing, per_gpu_batch=spec.base_batch_size)
        budget = plan.recommended_budget
        print(
            f"auto budget: {budget / 2**20:.0f} MiB of hot embeddings "
            f"(model {plan.model_bytes / 2**20:.0f} MiB, activations "
            f"{plan.activation_bytes / 2**20:.0f} MiB, HBM utilization "
            f"{100 * plan.utilization():.0f}%)"
        )
    workload = characterize(spec, gpu_memory_budget=budget)
    sim = TrainingSimulator(Cluster(num_gpus=args.gpus), workload)
    pm = PowerModel()
    print(
        f"{args.workload} on {args.gpus}x V100 "
        f"(hot inputs {100 * workload.hot_fraction:.1f}%, "
        f"hot bag {workload.hot_bytes / 2**20:.0f} MiB):"
    )
    for mode in ("baseline", "fae", "nvopt"):
        timeline = sim.epoch(mode)
        print(
            f"  {mode:9}: {args.epochs * timeline.minutes:8.1f} min/{args.epochs} epochs, "
            f"comm {args.epochs * timeline.communication_seconds() / 60:6.1f} min, "
            f"{pm.average_watts(timeline):5.1f} W/GPU"
        )
    print(f"  FAE speedup over baseline: {sim.speedup():.2f}x")
    return 0
