"""Workload registry: the paper's Table I model/dataset pairs.

``RMC1`` = TBSM on Taobao, ``RMC2`` = DLRM on Criteo Kaggle, ``RMC3`` =
DLRM on Criteo Terabyte.  Mini-batch sizes and the per-GPU weak-scaling
rule come from SS IV-B.2 (1 GPU uses 1K / 256 / 1K; batch size scales with
the number of GPUs).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.data.datasets import dataset_by_name
from repro.data.schema import DatasetSchema
from repro.models.base import RecModel
from repro.models.dlrm import DLRM, DLRMConfig
from repro.models.tbsm import TBSM, TBSMConfig

__all__ = ["ModelSpec", "WORKLOADS", "workload_by_name", "workload_for_dataset", "build_model"]


@dataclass(frozen=True)
class ModelSpec:
    """One row of the paper's Table I.

    Attributes:
        name: workload id ("RMC1" | "RMC2" | "RMC3").
        model_kind: "dlrm" or "tbsm".
        dataset: dataset factory name understood by
            :func:`repro.data.datasets.dataset_by_name`.
        bottom_mlp: Table I bottom-MLP layer string.
        top_mlp: Table I top-MLP layer string.
        base_batch_size: 1-GPU mini-batch size used in SS IV-B.2.
    """

    name: str
    model_kind: str
    dataset: str
    bottom_mlp: str
    top_mlp: str
    base_batch_size: int

    def batch_size_for(self, num_gpus: int) -> int:
        """Weak-scaled mini-batch size for a ``num_gpus`` execution."""
        if num_gpus <= 0:
            raise ValueError(f"num_gpus must be positive, got {num_gpus}")
        return self.base_batch_size * num_gpus


WORKLOADS: dict[str, ModelSpec] = {
    "RMC1": ModelSpec(
        name="RMC1",
        model_kind="tbsm",
        dataset="taobao",
        bottom_mlp="3-16",
        top_mlp="30-60-1",
        base_batch_size=256,
    ),
    "RMC2": ModelSpec(
        name="RMC2",
        model_kind="dlrm",
        dataset="criteo-kaggle",
        bottom_mlp="13-512-256-64-16",
        top_mlp="512-256-1",
        base_batch_size=1024,
    ),
    "RMC3": ModelSpec(
        name="RMC3",
        model_kind="dlrm",
        dataset="criteo-terabyte",
        bottom_mlp="13-512-256-64",
        top_mlp="512-512-256-1",
        base_batch_size=1024,
    ),
}


def workload_by_name(name: str) -> ModelSpec:
    """Look up a Table I workload (case-insensitive)."""
    key = name.upper()
    try:
        return WORKLOADS[key]
    except KeyError:
        raise ValueError(f"unknown workload {name!r}; expected one of {sorted(WORKLOADS)}") from None


def workload_for_dataset(name: str) -> ModelSpec:
    """The Table I workload trained on dataset ``name`` (inverse of ``ModelSpec.dataset``)."""
    for spec in WORKLOADS.values():
        if spec.dataset == name:
            return spec
    known = sorted(spec.dataset for spec in WORKLOADS.values())
    raise ValueError(f"unknown dataset {name!r}; expected one of {known}")


def build_model(spec: ModelSpec, schema: DatasetSchema | None = None, scale: str | float = "small", seed: int = 0) -> RecModel:
    """Instantiate the model for a workload spec.

    Args:
        spec: Table I workload.
        schema: explicit dataset schema; defaults to the workload's
            dataset at ``scale``.
        scale: dataset shrink factor when ``schema`` is omitted.
        seed: weight init seed.

    Note:
        RMC3's Table I bottom MLP ends at 64 (the Terabyte embedding dim),
        which already satisfies DLRM's width constraint.
    """
    if schema is None:
        schema = dataset_by_name(spec.dataset, scale)
    if spec.model_kind == "dlrm":
        bottom = _fit_bottom_mlp(spec.bottom_mlp, schema)
        return DLRM(schema, DLRMConfig(bottom_mlp=bottom, top_mlp=spec.top_mlp, seed=seed))
    if spec.model_kind == "tbsm":
        return TBSM(schema, TBSMConfig(bottom_mlp=spec.bottom_mlp, top_mlp=spec.top_mlp, seed=seed))
    raise ValueError(f"unknown model kind {spec.model_kind!r}")


def _fit_bottom_mlp(bottom_mlp: str, schema: DatasetSchema) -> str:
    """Ensure the bottom MLP's output width matches the embedding dim.

    Table I's RMC2 string ends at 16 (Kaggle dim) and RMC3's at 64
    (Terabyte dim); if a caller pairs a spec with a schema of a different
    dim, append the required width rather than failing obscurely.
    """
    dim = schema.tables[0].dim
    sizes = [int(s) for s in bottom_mlp.split("-")]
    if sizes[-1] != dim:
        sizes.append(dim)
    return "-".join(str(s) for s in sizes)
