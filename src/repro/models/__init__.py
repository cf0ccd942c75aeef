"""Recommender models: DLRM (RMC2/RMC3) and TBSM (RMC1).

Both models follow the paper's Fig 1 topology — bottom MLP over dense
features, embedding bags over sparse features, a feature-interaction
stage, and a top MLP emitting a click logit — with TBSM adding the
per-timestep attention aggregation over behaviour sequences.
"""

from repro.models.base import RecModel
from repro.models.dlrm import DLRM, DLRMConfig
from repro.models.tbsm import TBSM, TBSMConfig
from repro.models.zoo import (
    ModelSpec,
    WORKLOADS,
    build_model,
    workload_by_name,
    workload_for_dataset,
)

__all__ = [
    "DLRM",
    "DLRMConfig",
    "ModelSpec",
    "RecModel",
    "TBSM",
    "TBSMConfig",
    "WORKLOADS",
    "build_model",
    "workload_by_name",
    "workload_for_dataset",
]
