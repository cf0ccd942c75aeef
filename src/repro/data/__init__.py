"""Dataset substrate: synthetic Zipf-skewed click logs shaped like the paper's workloads.

The paper evaluates on Criteo Kaggle, Criteo Terabyte, and Taobao (Alibaba)
click logs.  Those raw logs are not redistributable, so this package builds
synthetic equivalents whose *access distributions* (the only property the
FAE framework depends on) match the measured skew the paper reports: for
example, the top 6.8% of Criteo Kaggle embedding rows receive >=76% of all
accesses.
"""

from repro.data.zipf import (
    ZipfSampler,
    zipf_probabilities,
)
from repro.data.schema import DatasetSchema, EmbeddingTableSpec
from repro.data.synthetic import SyntheticClickLog, SyntheticConfig
from repro.data.datasets import (
    criteo_kaggle_like,
    criteo_terabyte_like,
    dataset_by_name,
    taobao_like,
)
from repro.data.loader import BatchIterator, MiniBatch, iter_fae_batches, train_test_split
from repro.data.log import ClickLog
from repro.data.stream import SyntheticClickStream
from repro.data.chunk_source import (
    ChunkSource,
    LogChunkSource,
    ShardChunkSource,
    UnsizedChunkSource,
    as_chunk_source,
    save_log_shards,
)
from repro.data.shift import popularity_shift_days, write_day_shards
from repro.data.validate import ValidatingChunkSource, validated_log

__all__ = [
    "BatchIterator",
    "ChunkSource",
    "ClickLog",
    "LogChunkSource",
    "ShardChunkSource",
    "UnsizedChunkSource",
    "ValidatingChunkSource",
    "as_chunk_source",
    "validated_log",
    "iter_fae_batches",
    "save_log_shards",
    "DatasetSchema",
    "EmbeddingTableSpec",
    "MiniBatch",
    "SyntheticClickLog",
    "SyntheticClickStream",
    "SyntheticConfig",
    "ZipfSampler",
    "criteo_kaggle_like",
    "criteo_terabyte_like",
    "dataset_by_name",
    "popularity_shift_days",
    "taobao_like",
    "train_test_split",
    "write_day_shards",
    "zipf_probabilities",
]
