"""Hardware substrate: an analytic cost model of the paper's testbed.

The paper evaluates on a 24-core Xeon Silver 4116 host with four Tesla
V100 GPUs on PCIe 3.0 x16, interconnected with NVLink 2.0 (Table II).
None of that hardware is available here, so this package models it: a
roofline-style operator cost model (:mod:`~repro.hw.costmodel`) over
device/link specs (:mod:`~repro.hw.spec`), composed into per-mini-batch
training timelines by :mod:`~repro.hw.simulator`, with phase-weighted
power accounting in :mod:`~repro.hw.power`.

The simulator reproduces the *shape* of the paper's performance results
— who wins, by what factor, where the breakdown time goes — not the
authors' absolute minutes; EXPERIMENTS.md reports both side by side.
"""

from repro.hw.spec import (
    DeviceSpec,
    LinkSpec,
    NVLINK2,
    PCIE3_X16,
    TESLA_V100,
    XEON_4116,
)
from repro.hw.cluster import Cluster, ETHERNET_100G, INFINIBAND_HDR
from repro.hw.costmodel import CostModel
from repro.hw.workload import WorkloadCharacter, characterize
from repro.hw.simulator import (
    EpochTimeline,
    PhaseBreakdown,
    TrainingSimulator,
)
from repro.hw.power import PowerModel
from repro.hw.pipeline import PipelinedSimulator, PipelineSchedule

__all__ = [
    "Cluster",
    "CostModel",
    "DeviceSpec",
    "ETHERNET_100G",
    "EpochTimeline",
    "INFINIBAND_HDR",
    "LinkSpec",
    "NVLINK2",
    "PCIE3_X16",
    "PhaseBreakdown",
    "PipelineSchedule",
    "PipelinedSimulator",
    "PowerModel",
    "TESLA_V100",
    "TrainingSimulator",
    "WorkloadCharacter",
    "XEON_4116",
    "characterize",
]
