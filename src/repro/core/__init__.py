"""The FAE framework — the paper's primary contribution.

Static pipeline (runs once per dataset):

1. :class:`~repro.core.sampler.SparseInputSampler` — random x% input sample.
2. :class:`~repro.core.embedding_logger.EmbeddingLogger` — access counts per
   embedding row over the sample.
3. :class:`~repro.core.randem_box.RandEmBox` — CLT/t-interval hot-size
   estimation without scanning whole tables (Eq. 1-6).
4. :class:`~repro.core.optimizer.StatisticalOptimizer` — converges on the
   access threshold that fits the hot rows into the GPU budget ``L``.
5. :class:`~repro.core.classifier.EmbeddingClassifier` — hot-row bags.
6. :class:`~repro.core.input_processor.InputProcessor` — hot/cold input
   split and pure-hot / pure-cold mini-batch packing.
7. :mod:`~repro.core.fae_format` — persistence of the preprocessed output.

Runtime components:

8. :class:`~repro.core.replicator.EmbeddingReplicator` — hot bags
   replicated per GPU, with all-reduce and CPU synchronization.
9. :class:`~repro.core.scheduler.ShuffleScheduler` — adaptive hot/cold
   interleaving rate (Eq. 7).

:func:`~repro.core.pipeline.fae_preprocess` wires 1-7 together.
"""

from repro.core.config import FAEConfig
from repro.core.access_profile import AccessProfile, TableProfile
from repro.core.sampler import BernoulliSampleStream, SparseInputSampler
from repro.core.embedding_logger import EmbeddingLogger, ProfileAccumulator
from repro.core.randem_box import RandEmBox, HotSizeEstimate
from repro.core.optimizer import StatisticalOptimizer, CalibrationResult
from repro.core.calibrator import Calibrator
from repro.core.classifier import EmbeddingClassifier, HotEmbeddingBagSpec
from repro.core.input_processor import (
    InputProcessor,
    FAEDataset,
    all_hot_batch_probability,
    compute_hot_mask,
)
from repro.core.fae_format import (
    ShardBatchSequence,
    load_fae_dataset,
    save_fae_dataset,
    save_fae_dataset_sharded,
)
from repro.core.drift import DriftDetector, DriftReport, recalibration_diff
from repro.core.sketch import CountMinSketch, SketchLogger
from repro.core.hotcache import (
    CacheDelta,
    EmbeddingHotCache,
    HotCacheConfig,
    repack_remaining,
)
from repro.core.memory_planner import MemoryPlan, plan_memory_budget
from repro.core.allocation import Allocation, greedy_product_allocation, threshold_allocation
from repro.core.replicator import EmbeddingReplicator, HotEmbeddingBag
from repro.core.scheduler import ShuffleScheduler, ScheduleEvent
from repro.core.pipeline import FAEPlan, fae_preprocess, fae_preprocess_source

__all__ = [
    "AccessProfile",
    "Allocation",
    "BernoulliSampleStream",
    "CalibrationResult",
    "Calibrator",
    "CacheDelta",
    "CountMinSketch",
    "DriftDetector",
    "DriftReport",
    "EmbeddingClassifier",
    "EmbeddingLogger",
    "EmbeddingHotCache",
    "EmbeddingReplicator",
    "FAEConfig",
    "FAEDataset",
    "FAEPlan",
    "HotCacheConfig",
    "HotEmbeddingBag",
    "HotEmbeddingBagSpec",
    "HotSizeEstimate",
    "InputProcessor",
    "MemoryPlan",
    "ProfileAccumulator",
    "RandEmBox",
    "ScheduleEvent",
    "ShardBatchSequence",
    "ShuffleScheduler",
    "SketchLogger",
    "SparseInputSampler",
    "StatisticalOptimizer",
    "TableProfile",
    "all_hot_batch_probability",
    "compute_hot_mask",
    "fae_preprocess",
    "fae_preprocess_source",
    "greedy_product_allocation",
    "load_fae_dataset",
    "plan_memory_budget",
    "recalibration_diff",
    "repack_remaining",
    "save_fae_dataset",
    "save_fae_dataset_sharded",
    "threshold_allocation",
]
